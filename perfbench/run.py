"""Benchmark of resilcfg: solve, set-up and verified-policy time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload driving --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run writes its workload's model files, then solves and verifies every
model in whole rounds until ``--seconds`` have passed.  Each model goes
through the path ``resilcfg solve`` and ``resilcfg replay --exhaustive``
take: ``modelio.load_model``, ``Synthesizer.build``, ``Synthesizer.solve``,
``modelio.save_policy``/``save_report``, ``modelio.load_policy`` and
``synthesis.verify_policy``.  Each time is the mean of a model's rounds,
summed over the workload's models.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 1`` reports the per-layer metrics of ``tracer.py``
instead of the end-to-end ones.  ``--workload all`` runs every
workload, untraced and then traced, each in its own process, one after the
other, and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "resilcfg", "__init__.py")):
    sys.exit("error: no resilcfg sources at %s" % SRC)
sys.path.insert(0, SRC)

from resilcfg import modelio, synthesis  # noqa: E402
from resilcfg.synthesis import Synthesizer  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, check_solve, make_cases,  # noqa: E402
                       oracle_inputs, oracle_problems)

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("total_s", "s"),
              ("peak_rss_mb", "MB"))


def _per_layer_metrics() -> list:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


class Run:
    """Rounds over one workload's model files, with their checks."""

    def __init__(self, cases, work_dir, tracer=None):
        self.cases = cases
        self.tracer = tracer
        self.paths = {}  # case name -> model, policy and report files
        for case in cases:
            base = os.path.join(work_dir, case.name)
            with open(base + ".json", "w", encoding="utf-8") as fh:
                json.dump(case.raw, fh)
            self.paths[case.name] = (base + ".json", base + ".policy.json",
                                     base + ".report.json")
        self.n_rounds = 0
        # case name -> (setup, solve, total) seconds of each round
        self.model_times = {case.name: [] for case in cases}
        self.trace_rounds = []    # per traced round: {metric: value}
        self.attempted = 0
        self.failed = 0
        self.problems = []        # wrong outputs and operations that raised
        self._first = {}          # case name -> first round's outcome
        self._oracle = {}         # case name -> inputs of its oracle check
        self.oracle_checked = 0

    def _solve_one(self, case):
        """The timed path for one model; returns times and outputs."""
        path, pol, rep = self.paths[case.name]
        clock = time.perf_counter
        t0 = clock()
        sys_, req = modelio.load_model(path)
        syn = Synthesizer(sys_, req)
        syn.build()
        t1 = clock()
        result = syn.solve("best")
        t2 = clock()
        modelio.save_policy(result.policy, pol)
        modelio.save_report(result, rep, path)
        policy = modelio.load_policy(pol)
        n_replayed = synthesis.verify_policy(policy, sys_, req)
        t3 = clock()
        return (t1 - t0, t2 - t0, t3 - t0), syn, result, policy, n_replayed

    def _operation(self, case, first_round):
        """Solve, verify and check one model; returns its times and its
        problems.  The solver's state goes out of scope on return, so the
        next model never shares the process's memory with it."""
        if self.tracer is None:
            times, syn, result, policy, n = self._solve_one(case)
        else:
            with self.tracer.installed():
                times, syn, result, policy, n = self._solve_one(case)
            count = self.tracer.count
            count("quotient.init_classes", result.n_init_classes)
            count("synthesis.policy_entries", len(result.policy.entries))
            count("synthesis.resilient_classes", result.n_resilient_classes)
            count("modelio.policy_bytes",
                  os.path.getsize(self.paths[case.name][1]))
        with open(self.paths[case.name][2], encoding="utf-8") as fh:
            report = json.load(fh)
        problems = check_solve(case, result, policy, n, report)
        outcome = (result.counts(),
                   frozenset(sig for sig, _, _ in result.resilient), n)
        if first_round:
            self._first[case.name] = outcome
            inputs = oracle_inputs(case, syn, result)
            if inputs is not None:
                self._oracle[case.name] = inputs
        elif outcome != self._first.get(case.name):
            problems.append("outputs differ from the first round")
        return times, problems

    def round(self):
        """Solve, verify and check every model once; record the times."""
        gc.collect()
        first_round = self.n_rounds == 0
        before = self.tracer.snapshot() if self.tracer else None
        for case in self.cases:
            self.attempted += 1
            try:
                times, problems = self._operation(case, first_round)
            except Exception as exc:  # the program raised on this model
                times = None
                problems = ["raised %s: %s" % (type(exc).__name__, exc)]
            finally:
                if self.tracer is not None:
                    self.tracer.end_model()
            if problems:
                self.failed += 1
                self.problems.extend("%s: %s" % (case.name, p)
                                     for p in problems)
            if times is not None:
                self.model_times[case.name].append(times)
        self.n_rounds += 1
        if self.tracer is not None:
            after = self.tracer.snapshot()
            self.trace_rounds.append({name: after[name] - before.get(name, 0)
                                      for name in after})

    def oracle_checks(self):
        """Compare the first round's initial-class verdicts with the
        brute-force oracle.  Runs after the timed rounds, so neither the
        times nor the peak resident set include it.  A model whose verdicts
        disagree counts as one more failed operation."""
        for name, inputs in self._oracle.items():
            problems = oracle_problems(inputs)
            if problems is None:
                continue
            self.oracle_checked += 1
            if problems:
                self.failed += 1
                self.problems.extend("%s: %s" % (name, p) for p in problems)

    def times(self) -> dict:
        """``setup_s``, ``solve_s`` and ``total_s``: each model's mean over
        its rounds, summed over the models.  The machine's speed switches
        between a fast and a slow state for seconds to a minute at a time;
        the median of a run's two to four rounds jumps from one state to the
        other, while the mean moves only by the share of the run spent in
        the slow state."""
        return {name: sum(statistics.fmean(t[k] for t in ts)
                          for ts in self.model_times.values() if ts)
                for k, name in enumerate(("setup_s", "solve_s", "total_s"))}

    def layer_medians(self, names) -> dict:
        """Per-layer metrics: the median over traced rounds."""
        return {name: statistics.median(r.get(name, 0)
                                        for r in self.trace_rounds)
                for name in names}


def run_workload(workload, seed, seconds, trace, cases=None, out=sys.stderr):
    """One run; returns the result object printed as the last line."""
    if cases is None:
        cases = make_cases(workload, seed)
    work_dir = os.path.join(HERE, "work", "%s-%d-%d"
                            % (workload, seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = Run(cases, work_dir, Tracer() if trace else None)
        start = time.perf_counter()
        while True:
            run.round()
            if time.perf_counter() - start >= seconds:
                break
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        run.oracle_checks()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    if trace:
        layer = _per_layer_metrics()
        values = run.layer_medians([name for name, _ in layer])
        values["trace.total_s"] = run.times()["total_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer}
        # Counts must not move from round to round of one process.
        for name, unit in layer:
            if unit != "s" and len({r.get(name, 0)
                                    for r in run.trace_rounds}) > 1:
                run.problems.append("count %s differs between rounds" % name)
        _write_trace(workload, seed, run)
    else:
        values = run.times()
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print("%s seed %d: %d rounds of %d models, %d checked by the oracle"
          % (workload, seed, run.n_rounds, len(cases), run.oracle_checked),
          file=out)
    for line in run.problems:
        print("  " + line, file=out)
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def _write_trace(workload, seed, run):
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "rounds": run.trace_rounds},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(seed, seconds) -> dict:
    """Every workload, untraced then traced, one process at a time."""
    summary = {}
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit("%s --trace %d exited %d"
                                 % (workload, trace, proc.returncode))
            results.append(json.loads(lines[-1]))
        plain, traced = results
        correct = plain["correct"] and traced["correct"]
        for name, m in plain["metrics"].items():
            print("%-17s %-12s %12.4f %s" % (workload, name, m["value"],
                                              m["unit"]))
        overhead = (traced["metrics"]["trace.total_s"]["value"]
                    - plain["metrics"]["total_s"]["value"])
        print("%-17s %-12s %12.4f s   (traced total_s minus total_s)"
              % (workload, "trace_overhead", overhead))
        print("%-17s attempted %d, failed %d, correct %s"
              % (workload, plain["attempted"], plain["failed"], correct))
        summary[workload] = dict(plain, trace_overhead_s=overhead,
                                 correct=correct)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds), sort_keys=True))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
