"""Acceptance suite: one test per shipped guarantee, one printed verdict per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
import time
from contextlib import contextmanager

from resilcfg import (
    ChangeReps,
    Start,
    Stop,
    SwInst,
    Synthesizer,
    can_reconfigure,
    generate_all_configs,
    load_model,
    remove_dead,
    save_model,
    signature,
    verify_policy,
)
from resilcfg import fixtures
from resilcfg.oracle import default_max_len, reachable_by_actions
from conftest import FS0, random_model

EXAMPLE1 = {
    2: (256, 204, 36, 27, 9),
    3: (4332, 2607, 108, 63, 9),
    4: (36992, 17648, 288, 135, 9),
}
EXAMPLE2 = {
    2: (162, 128, 24, 18, 6),
    3: (2520, 1512, 72, 42, 6),
    4: (20720, 9872, 192, 90, 6),
}

_timings = {}


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print("\ncriterion %2d (%s): FAIL" % (n, desc))
        raise
    print("\ncriterion %2d (%s): PASS" % (n, desc))


def _solve_scaled(builder, scale, tmp_path, name, quotient="full"):
    """Solve a scaled variant of a shipped fixture through the file format."""
    sys0, req0 = builder(scale)
    path = tmp_path / ("%s_%d.json" % (name, scale))
    save_model(sys0, req0, path)
    sys_, req = load_model(path)
    t0 = time.perf_counter()
    res = Synthesizer(sys_, req, quotient=quotient).solve("best")
    _timings[(name, scale, quotient)] = time.perf_counter() - t0
    return sys_, req, res


def test_criterion_1_table_counts_example2(tmp_path):
    with criterion(1, "example 2 configuration counts at scales 2/3/4"):
        for scale, expected in EXAMPLE2.items():
            _, _, res = _solve_scaled(fixtures.autonomous_driving_phone,
                                      scale, tmp_path, "example2")
            assert res.counts() == expected, (scale, res.counts())


def test_criterion_2_table_counts_example1(tmp_path):
    with criterion(2, "example 1 configuration counts at scales 2/3"):
        for scale in (2, 3):
            _, _, res = _solve_scaled(fixtures.autonomous_driving_laptop,
                                      scale, tmp_path, "example1")
            assert res.counts() == EXAMPLE1[scale], (scale, res.counts())


def test_criterion_3_resilient_class_invariance(tmp_path):
    with criterion(3, "resilient classes stay 9 and 6 for scales 2..5"):
        for scale in (2, 3, 4, 5):
            _, _, res = _solve_scaled(fixtures.autonomous_driving_laptop,
                                      scale, tmp_path, "example1")
            assert res.n_resilient_classes == 9, scale
            _, _, res = _solve_scaled(fixtures.autonomous_driving_phone,
                                      scale, tmp_path, "example2")
            assert res.n_resilient_classes == 6, scale


def test_criterion_4_desk_scale_runtime(tmp_path):
    with criterion(4, "table cases within 10 minutes; full <= 2x partial"):
        needed = ([("example1", fixtures.autonomous_driving_laptop, s)
                   for s in (2, 3)]
                  + [("example2", fixtures.autonomous_driving_phone, s)
                     for s in (2, 3, 4)])
        for name, builder, scale in needed:
            key = (name, scale, "full")
            if key not in _timings:
                _solve_scaled(builder, scale, tmp_path, name)
            assert _timings[key] < 600, (key, _timings[key])
        for name, builder in [("example1", fixtures.autonomous_driving_laptop),
                              ("example2", fixtures.autonomous_driving_phone)]:
            _solve_scaled(builder, 3, tmp_path, name, quotient="partial")
            full = _timings[(name, 3, "full")]
            partial = _timings[(name, 3, "partial")]
            assert full <= 2 * partial + 1.0, (name, full, partial)


def test_criterion_5_worst_case_bursts_suffice():
    with criterion(5, "worst-case bursts equal full burst recursion, "
                      "200 random models"):
        rng = random.Random(50)
        discrepancies = 0
        for _ in range(200):
            sys_, req = random_model(rng, max_computers=3, max_software=3)
            worst = Synthesizer(sys_, req, use_worst_bursts=True)
            full = Synthesizer(sys_, req, use_worst_bursts=False)
            worst.build()
            full.build()
            for sig in sorted(worst.init_sigs):
                if (worst.resilient_node(sig, FS0)
                        != full.resilient_node(sig, FS0)):
                    discrepancies += 1
        assert discrepancies == 0


def _verdicts_by_signature(sys_, req, quotient):
    syn = Synthesizer(sys_, req, quotient=quotient)
    syn.build()
    verdicts = {}
    if quotient == "off":
        for cfg in syn.init_cfgs:
            sig = signature(cfg, sys_)
            v = syn.resilient_node(cfg, FS0)
            if sig in verdicts:
                assert verdicts[sig] == v, "class members disagree"
            verdicts[sig] = v
    elif quotient == "partial":
        for sig in syn.init_sigs:
            rep = syn.all_classes[sig][0]
            verdicts[sig] = syn.resilient_node(rep, FS0)
    else:
        for sig in syn.init_sigs:
            verdicts[sig] = syn.resilient_node(sig, FS0)
    return verdicts


def test_criterion_6_quotient_preservation(tmp_path):
    with criterion(6, "identical verdicts across quotient off/partial/full"):
        cases = [fixtures.autonomous_driving_laptop(2),
                 fixtures.autonomous_driving_laptop(3),
                 fixtures.autonomous_driving_phone(2),
                 fixtures.autonomous_driving_phone(3)]
        rng = random.Random(60)
        for _ in range(100):
            cases.append(random_model(rng, max_computers=2, max_software=2))
        for sys_, req in cases:
            per_mode = [_verdicts_by_signature(sys_, req, mode)
                        for mode in ("off", "partial", "full")]
            assert per_mode[0] == per_mode[1] == per_mode[2]


def test_criterion_7_relation_equals_action_search(tiny_sys, tiny_req):
    with criterion(7, "reconfiguration relation equals action-sequence "
                      "search on every tiny pair"):
        universe = generate_all_configs(tiny_sys, tiny_req)
        assert len(universe) == 8
        fss = [FS0, frozenset({"c0"}), frozenset({"c1"})]
        pairs = 0
        for fs in fss:
            sources = [c for c in universe
                       if remove_dead(c, fs, tiny_sys) == c]
            for src in sources:
                max_len = default_max_len(tiny_sys, src)
                for tgt in universe:
                    rel = can_reconfigure(src, tgt, fs, tiny_sys)
                    bfs = reachable_by_actions(src, tgt, fs, tiny_sys,
                                               max_len)
                    assert rel == bfs, (src, tgt, fs)
                    pairs += 1
        # 8 sources at the empty failed set; 3 per single crash (the
        # locator must sit on the surviving computer and the one-member
        # replica set on the dead computer is itself dead).
        assert pairs == (8 + 3 + 3) * 8


def test_criterion_8_one_resilience():
    with criterion(8, "one-resilience matches resilience exactly for "
                      "unlimited-rate models"):
        rng = random.Random(80)
        for _ in range(100):
            sys_, req = random_model(rng, max_computers=2, max_software=2,
                                     rate_limited=False)
            syn = Synthesizer(sys_, req)
            syn.build()
            for sig in sorted(syn.init_sigs):
                cfg = syn.state_config(sig, FS0)
                assert (syn.check_state(cfg, FS0)
                        == syn.check_state_one(cfg, FS0))
        for _ in range(100):
            sys_, req = random_model(rng, max_computers=2, max_software=2,
                                     rate_limited=True)
            syn = Synthesizer(sys_, req)
            syn.build()
            for sig in sorted(syn.init_sigs):
                cfg = syn.state_config(sig, FS0)
                if syn.check_state(cfg, FS0):
                    assert syn.check_state_one(cfg, FS0)


def test_criterion_9_policy_soundness(tmp_path):
    with criterion(9, "policies replay cleanly; failover matches the "
                      "expected failover scenario"):
        for builder in (fixtures.autonomous_driving_laptop,
                        fixtures.autonomous_driving_phone):
            for scale in (2, 3):
                sys_, req = builder(scale)
                res = Synthesizer(sys_, req).solve()
                assert verify_policy(res.policy, sys_, req) > 0

        sys_, req = fixtures.autonomous_driving_laptop(2)
        res = Synthesizer(sys_, req).solve()
        best_sig, best_q, best_cfg = res.resilient[0]
        assert best_cfg.si == (SwInst("chassis-interface", "c0"),
                               SwInst("control", "c0"),
                               SwInst("localization", "c1"),
                               SwInst("planning", "c1"))
        entry = res.policy.entries[(best_cfg, FS0, frozenset({"c0"}))]
        expected = {
            Stop(SwInst("planning", "c1")),
            ChangeReps("perception", ("c1",), "c1"),
            Start(SwInst("chassis-interface", "c1")),
            Start(SwInst("control-linux", "laptop")),
            Start(SwInst("planning-linux", "laptop")),
        }
        assert set(entry.actions) == expected
        # Stops happen before anything that needs the freed capacity.
        kinds = [type(a) for a in entry.actions]
        assert kinds.index(Stop) < kinds.index(Start)


def test_criterion_10_deterministic_outputs(tmp_path):
    import os
    import subprocess
    import sys as _python

    import resilcfg

    # The children solve with the very code under test: the directory this
    # process imported ``resilcfg`` from, be it an install or a checkout.
    import_root = os.path.dirname(os.path.dirname(resilcfg.__file__))
    with criterion(10, "consecutive solve runs write byte-identical files"):
        fixture_dir = tmp_path / "fx"
        fixture_dir.mkdir()
        for name, builder in fixtures.BUILDERS.items():
            save_model(*builder(), fixture_dir / (name + ".json"))
        # Exit 1 means "no resilient configuration", which only unsat may
        # report; any other code is a broken run, not a verdict.
        for name, expected in (("tiny", 0), ("example1", 0), ("example2", 0),
                               ("unsat", 1)):
            outs = []
            for tag, seed in (("one", "1"), ("two", "31337")):
                rep = tmp_path / ("%s_%s_rep.json" % (name, tag))
                pol = tmp_path / ("%s_%s_pol.json" % (name, tag))
                # Separate processes with different hash seeds: byte
                # equality must not lean on any incidental ordering.
                proc = subprocess.run(
                    [_python.executable, "-m", "resilcfg.cli", "solve",
                     "--model", str(fixture_dir / (name + ".json")),
                     "--report-out", str(rep), "--policy-out", str(pol)],
                    env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                         "PYTHONPATH": import_root},
                    capture_output=True, text=True)
                assert proc.returncode == expected, (
                    "%s: exit %d, expected %d\n%s"
                    % (name, proc.returncode, expected, proc.stderr))
                outs.append((rep.read_bytes(), pol.read_bytes()))
            assert outs[0] == outs[1], name
