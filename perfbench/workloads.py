"""The benchmark's workloads: the model files each one solves and the checks
each solved model must pass.

Every expected value here is computed apart from the solver: the paper's
table counts, a closed-form count of worst-case burst schedules, counts
regenerated by a solve that takes another path (``expected.py``), and the
brute-force oracle in ``resilcfg.oracle``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

from resilcfg import fixtures, modelio
from resilcfg.oracle import all_valid_configs, naive_resilient

import randmodels

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_STEPWISE = os.path.join(HERE, "expected_stepwise.json")

# allCfg, initCfg, allCfg classes, initCfg classes, resilient classes, as
# printed in the paper's tables for each number of embedded computers.
PAPER_COUNTS = {
    "example1": {2: (256, 204, 36, 27, 9),
                 3: (4332, 2607, 108, 63, 9),
                 4: (36992, 17648, 288, 135, 9)},
    "example2": {2: (162, 128, 24, 18, 6),
                 3: (2520, 1512, 72, 42, 6),
                 4: (20720, 9872, 192, 90, 6)},
}
DRIVING_BUILDERS = (("example1", fixtures.autonomous_driving_laptop),
                    ("example2", fixtures.autonomous_driving_phone))

DRIVING_SCALE = 4
RANDOM_POPULATION_SEED = 7
RANDOM_MODELS = 300
# The brute-force oracle runs on a random model only when it has at most
# this many valid configurations and initial classes: its cost grows with
# their product, and a few models of the batch would take it minutes.
ORACLE_MAX_VALID = 400
ORACLE_MAX_INIT_CLASSES = 60


@dataclass
class Case:
    """One model file of a workload and what its solve must produce."""

    name: str
    raw: dict                       # the model file's contents
    schedules_per_root: int
    counts: Optional[tuple] = None  # the five counts, where known apart
    oracle: bool = False            # check verdicts with the oracle


# -- worst-case schedules, counted from the failure model -------------------


def worst_schedules_per_root(raw: dict) -> int:
    """Number of worst-case burst schedules from the empty failed set.

    A worst-case burst fails as much hardware as the per-bound and global
    caps allow; a schedule is any non-empty prefix of a sequence of such
    bursts.  Counted combinatorially from the model file, bound by bound.
    """
    system, fm = raw["system"], raw["failureModel"]
    pools = {"Computer": len(system["computers"]),
             "Device": len(system.get("devices", []))}
    bounds = [(pools[b["hwType"]], b["n"], b.get("maxSimult"))
              for b in fm["bounds"]]
    global_cap = fm.get("maxSimult")

    def from_state(used):
        caps = []
        for (pool, n, simult), u in zip(bounds, used):
            cap = min(n - u, pool - u)
            if simult is not None:
                cap = min(cap, simult)
            caps.append(max(cap, 0))
        total = sum(caps)
        if global_cap is not None:
            total = min(total, global_cap)
        if total == 0:
            return 0
        n_sched = 0
        for sizes in itertools.product(*(range(c + 1) for c in caps)):
            if sum(sizes) != total:
                continue
            ways = math.prod(math.comb(pool - u, t) for (pool, _, _), u, t
                             in zip(bounds, used, sizes))
            after = tuple(u + t for u, t in zip(used, sizes))
            n_sched += ways * (1 + from_state(after))
        return n_sched

    return from_state(tuple(0 for _ in bounds))


# -- the workloads ---------------------------------------------------------


def load_expected_stepwise() -> dict:
    with open(EXPECTED_STEPWISE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def stepwise_failure_model(n_fail: int) -> dict:
    """``n_fail`` computer crashes that arrive one per burst."""
    return {"bounds": [{"hwType": "Computer", "fType": "crash",
                        "n": n_fail, "maxSimult": 1}],
            "maxSimult": 1}


def driving_cases(scale: int = DRIVING_SCALE, stepwise: bool = False,
                  expected: dict = None) -> list:
    """example1 and example2 with ``scale`` embedded computers."""
    if stepwise and expected is None:
        expected = load_expected_stepwise()
    cases = []
    for name, builder in DRIVING_BUILDERS:
        raw = modelio.model_to_dict(*builder(scale))
        if stepwise:
            raw["failureModel"] = stepwise_failure_model(scale - 1)
            counts = expected.get(name, {}).get(str(scale))
            counts = tuple(counts) if counts is not None else None
        else:
            counts = PAPER_COUNTS[name][scale]
        cases.append(Case(name, raw, worst_schedules_per_root(raw), counts))
    return cases


def relabel(raw: dict, rng: random.Random) -> dict:
    """The same model with computer and software identifiers permuted.

    Identifiers order configurations, classes and bursts, so relabelling
    changes every tie-break of the search without changing the structure
    of the model or any count it has.
    """
    raw = json.loads(json.dumps(raw))
    system = raw["system"]
    for key in ("computers", "software"):
        ids = [item["id"] for item in system[key]]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        for item, new_id in zip(system[key], shuffled):
            item["id"] = new_id
    return raw


def oracle_eligible(raw: dict) -> bool:
    """Cheap pre-screen: the per-software option product the oracle's
    universe enumeration walks through must stay small."""
    system = raw["system"]
    per_sw = 2 ** len(system["computers"]) * (1 + 6 * len(system["protocols"]))
    return per_sw ** len(system["software"]) <= 200_000


def random_mix_cases(seed: int, count: int = RANDOM_MODELS) -> list:
    """``count`` random models drawn with ``RANDOM_POPULATION_SEED``,
    relabelled and shuffled with ``seed``."""
    rng = random.Random(seed)
    cases = []
    for i, raw in enumerate(randmodels.random_batch(RANDOM_POPULATION_SEED,
                                                    count)):
        raw = relabel(raw, rng)
        cases.append(Case("m%03d" % i, raw, worst_schedules_per_root(raw),
                          oracle=oracle_eligible(raw)))
    rng.shuffle(cases)
    return cases


def make_cases(workload: str, seed: int) -> list:
    if workload == "driving":
        return driving_cases()
    if workload == "driving-stepwise":
        return driving_cases(stepwise=True)
    if workload == "random-mix":
        return random_mix_cases(seed)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("driving", "driving-stepwise", "random-mix")


# -- checks ------------------------------------------------------------------


def check_solve(case: Case, result, policy, n_replayed: int, report: dict):
    """Problems with one solved and replayed model, as a list of strings."""
    problems = []
    if case.counts is not None and result.counts() != case.counts:
        problems.append("counts %s, expected %s"
                        % (result.counts(), case.counts))
    roots = len(policy.roots)
    if roots != result.n_resilient_classes:
        problems.append("%d policy roots for %d resilient classes"
                        % (roots, result.n_resilient_classes))
    if report["resilientClasses"] != result.n_resilient_classes:
        problems.append("report says %d resilient classes, solve %d"
                        % (report["resilientClasses"],
                           result.n_resilient_classes))
    if n_replayed != roots * case.schedules_per_root:
        problems.append("%d schedules replayed, expected %d roots x %d"
                        % (n_replayed, roots, case.schedules_per_root))
    return problems


def oracle_inputs(case: Case, syn, result) -> Optional[tuple]:
    """What the oracle check of one solved model needs: the model and the
    solver's verdict on one member of each initial class.  ``None`` when
    the model has too many initial classes for the oracle."""
    if (not case.oracle
            or result.n_init_classes > ORACLE_MAX_INIT_CLASSES):
        return None
    accepted = {sig for sig, _, _ in result.resilient}
    verdicts = [(syn.all_classes[sig][0], sig in accepted)
                for sig in sorted(syn.init_sigs)]
    return syn.sys, syn.req, verdicts


def oracle_problems(inputs: Optional[tuple]) -> Optional[list]:
    """The verdicts of ``oracle_inputs`` compared with ``naive_resilient``;
    ``None`` when the model is too large for the oracle."""
    if inputs is None:
        return None
    sys_, req, verdicts = inputs
    universe = all_valid_configs(sys_)
    if len(universe) > ORACLE_MAX_VALID:
        return None
    ctx = {"universe": universe, "memo": {}}
    problems = []
    for member, solver_says in verdicts:
        expected = naive_resilient(member, frozenset(), req, sys_, ctx)
        if expected != solver_says:
            problems.append("class of %s: solver says %s, oracle %s"
                            % (member.key(), solver_says, expected))
    return problems
