"""Tests of the benchmark itself, on small sizes of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from resilcfg import (Synthesizer, modelio, signature,  # noqa: E402
                      worst_burst_schedules)
from resilcfg.reconfig import ActionRejected  # noqa: E402

import randmodels  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FS0 = frozenset()


def _one_round(cases, trace=0, workload="test"):
    return run.run_workload(workload, 0, 0, trace, cases=cases,
                            out=io.StringIO())


@pytest.mark.parametrize("name, cases", [
    ("driving", lambda: workloads.driving_cases(2)),
    ("driving-stepwise", lambda: workloads.driving_cases(2, stepwise=True)),
    ("random-mix", lambda: workloads.random_mix_cases(3, count=30)),
])
def test_every_workload_passes_its_checks_at_a_small_size(name, cases):
    cases = cases()
    result = _one_round(cases)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(cases)
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("stepwise", [False, True])
def test_a_wrong_expected_count_is_a_failed_operation(stepwise):
    cases = workloads.driving_cases(2, stepwise=stepwise)
    counts = list(cases[0].counts)
    counts[4] += 1
    cases[0].counts = tuple(counts)
    result = _one_round(cases)
    assert result["failed"] == 1 and result["attempted"] == 2
    assert not result["correct"]


def test_a_wrong_schedule_count_is_a_failed_operation():
    cases = workloads.driving_cases(2)
    cases[1].schedules_per_root += 1
    result = _one_round(cases)
    assert result["failed"] == 1 and not result["correct"]


def test_an_operation_that_raises_is_a_failed_operation(monkeypatch):
    calls = []
    verify = run.synthesis.verify_policy

    def rejects_first(policy, sys_, req):
        calls.append(1)
        if len(calls) == 1:
            raise ActionRejected("rejected by the test")
        return verify(policy, sys_, req)

    monkeypatch.setattr(run.synthesis, "verify_policy", rejects_first)
    result = _one_round(workloads.driving_cases(2))
    assert result["attempted"] == 2 and result["failed"] == 1
    assert not result["correct"]


def test_an_oracle_disagreement_is_a_failed_operation(monkeypatch):
    cases = workloads.random_mix_cases(3, count=30)
    monkeypatch.setattr(run, "oracle_problems", lambda inputs: (
        None if inputs is None else ["disagrees"]))
    result = _one_round(cases)
    assert result["attempted"] == len(cases)
    assert 0 < result["failed"] < len(cases) and not result["correct"]


def test_the_oracle_check_sees_a_flipped_verdict():
    for case in workloads.random_mix_cases(3, count=30):
        syn = Synthesizer(*modelio.model_from_dict(case.raw))
        inputs = workloads.oracle_inputs(case, syn, syn.solve())
        if workloads.oracle_problems(inputs) == []:
            break
    sys_, req, verdicts = inputs
    member, says = verdicts[0]
    flipped = [(member, not says)] + verdicts[1:]
    assert len(workloads.oracle_problems((sys_, req, flipped))) == 1


def test_stepwise_schedule_count_is_the_closed_form():
    # Five computers, three crashes: all at once, or one per burst.
    driving = workloads.driving_cases(4)
    stepwise = workloads.driving_cases(4, stepwise=True)
    assert [c.schedules_per_root for c in driving] == [10, 10]
    assert [c.schedules_per_root for c in stepwise] == [85, 85]


def test_schedule_count_matches_the_solver_on_random_models():
    for case in workloads.random_mix_cases(5, count=60):
        sys_, req = modelio.model_from_dict(case.raw)
        assert (case.schedules_per_root
                == sum(1 for _ in worst_burst_schedules(req, sys_)))


def test_generator_is_seeded():
    assert randmodels.random_batch(7, 20) == randmodels.random_batch(7, 20)
    assert randmodels.random_batch(7, 20) != randmodels.random_batch(8, 20)


def test_relabelling_keeps_every_count():
    rng = random.Random(11)
    for raw in randmodels.random_batch(7, 40):
        counts = []
        for model in (raw, workloads.relabel(raw, rng)):
            result = Synthesizer(*modelio.model_from_dict(model)).solve()
            counts.append(result.counts())
        assert counts[0] == counts[1]


def _verdicts(raw, quotient):
    """Resilience verdict per initial class signature."""
    sys_, req = modelio.model_from_dict(raw)
    syn = Synthesizer(sys_, req, quotient=quotient)
    syn.build()
    if quotient == "full":
        return {sig: syn.resilient_node(sig, FS0) for sig in syn.init_sigs}
    if quotient == "partial":
        return {sig: syn.resilient_node(syn.all_classes[sig][0], FS0)
                for sig in syn.init_sigs}
    verdicts = {}
    for cfg in syn.init_cfgs:
        verdicts.setdefault(signature(cfg, sys_),
                            set()).add(syn.resilient_node(cfg, FS0))
    assert all(len(v) == 1 for v in verdicts.values())
    return {sig: v.pop() for sig, v in verdicts.items()}


@pytest.fixture(scope="module")
def beyond_the_oracle():
    """The random-mix models that the per-run oracle check skips."""
    out = []
    for case in workloads.random_mix_cases(1):
        syn = Synthesizer(*modelio.model_from_dict(case.raw))
        inputs = workloads.oracle_inputs(case, syn, syn.solve())
        if workloads.oracle_problems(inputs) is None:
            out.append(case)
    return out


def test_models_beyond_the_oracle_agree_across_quotient_modes(
        beyond_the_oracle):
    assert beyond_the_oracle
    for case in beyond_the_oracle:
        per_mode = [_verdicts(case.raw, q) for q in ("off", "partial", "full")]
        assert per_mode[0] == per_mode[1] == per_mode[2], case.name


def test_models_beyond_the_oracle_need_only_worst_case_bursts(
        beyond_the_oracle):
    for case in beyond_the_oracle:
        sys_, req = modelio.model_from_dict(case.raw)
        worst = Synthesizer(sys_, req, use_worst_bursts=True)
        every = Synthesizer(sys_, req, use_worst_bursts=False)
        worst.build()
        every.build()
        for sig in sorted(worst.init_sigs):
            assert (worst.resilient_node(sig, FS0)
                    == every.resilient_node(sig, FS0)), case.name


def test_traced_counts_repeat_and_cover_every_layer_metric():
    def traced():
        cases = (workloads.driving_cases(2, stepwise=True)
                 + workloads.random_mix_cases(2, count=15))
        return _one_round(cases, trace=1, workload="test-trace")

    first, second = traced(), traced()
    names = [m["name"] for m in _benchmark()["per_layer"]]
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(names)
    for name, metric in first["metrics"].items():
        if metric["unit"] != "s":
            assert metric["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["synthesis.Policy.root_config.calls"]["value"] > 0
    os.remove(os.path.join(HERE, "results", "trace-test-trace-seed0.json"))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_end_to_end_metrics_match_the_benchmark_file():
    declared = {(m["name"], m["unit"]) for m in _benchmark()["end_to_end"]}
    assert declared == set(run.END_TO_END)
    assert set(_benchmark()["workloads"][i]["name"] for i in range(3)) \
        == set(workloads.WORKLOADS)


def test_without_the_program_sources_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "driving",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
