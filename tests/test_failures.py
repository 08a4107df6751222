"""Failure model: consistency, burst successors, dead-instance removal."""

import itertools
import random

import pytest

from resilcfg import (
    Computer,
    Config,
    Device,
    FailBound,
    FailureModel,
    ModelError,
    ResilienceRequirement,
    Software,
    State,
    SwInst,
    SystemModel,
    apply_failures,
    apply_recovery,
    consistent,
    generate_all_configs,
    is_unlimited_rate,
    next_failed_sets,
    remove_dead,
    worst_next_failed_sets,
)
from resilcfg.failures import fs_key
from conftest import (FS0, FS_C0, random_model, reachable_failed_sets,
                      tiny_config)


def _sys(n_computers, devices=()):
    hw = [Computer(id="c%d" % i, os="osA", cpu_arch="x86", cores=4, ram=64)
          for i in range(n_computers)]
    hw += [Device(id=d, device_type="sens") for d in devices]
    return SystemModel(hw=hw, sw=[], protocols=[], sync=True)


def _fm(n, max_simult=None, global_cap=None, device_n=None):
    bounds = [FailBound(hw_type="Computer", n=n, max_simult=max_simult)]
    if device_n is not None:
        bounds.append(FailBound(hw_type="Device", n=device_n))
    return FailureModel(bounds=tuple(bounds), max_simult=global_cap)


# -- oracle: enumerate all bursts by brute force -------------------------------


def brute_next_failed_sets(fm, fs, sys):
    candidates = [h for h in list(sys.computers) + list(sys.devices)
                  if h not in fs]
    out = []
    for size in range(1, len(candidates) + 1):
        for burst in itertools.combinations(candidates, size):
            burst = frozenset(burst)
            fs2 = fs | burst
            if not consistent(fs2, fm, sys):
                continue
            if fm.max_simult is not None and len(burst) > fm.max_simult:
                continue
            ok = True
            for b in fm.bounds:
                if b.max_simult is None:
                    continue
                hit = sum(1 for h in burst if sys.hw_type(h) == b.hw_type)
                if hit > b.max_simult:
                    ok = False
            if ok:
                out.append(fs2)
    return sorted(set(out), key=fs_key)


def brute_worst(fm, fs, sys):
    nxt = brute_next_failed_sets(fm, fs, sys)
    return [a for a in nxt if not any(a < b for b in nxt)]


# -- consistency ---------------------------------------------------------------


def test_consistent_empty(tiny_sys, tiny_req):
    assert consistent(FS0, tiny_req.fm, tiny_sys)


def test_consistent_over_budget(tiny_sys, tiny_req):
    fs = frozenset({"c0", "c1"})
    assert not consistent(fs, tiny_req.fm, tiny_sys)


def test_consistent_unmatched_type(tiny_sys, tiny_req):
    # No Device bound exists, so a device failure is inconsistent.
    assert not consistent(frozenset({"g0"}), tiny_req.fm, tiny_sys)


# -- burst successors -----------------------------------------------------------


def test_next_singletons():
    sys = _sys(2)
    nxt = next_failed_sets(_fm(1, max_simult=1), FS0, sys)
    assert nxt == [frozenset({"c0"}), frozenset({"c1"})]


def test_next_on_maximal_set_is_empty():
    sys = _sys(2)
    fm = _fm(1, max_simult=1)
    assert next_failed_sets(fm, frozenset({"c0"}), sys) == []
    assert worst_next_failed_sets(fm, frozenset({"c0"}), sys) == []


def test_next_pairs_and_singletons():
    sys = _sys(3)
    nxt = next_failed_sets(_fm(2, max_simult=2), FS0, sys)
    assert len(nxt) == 6  # 3 singletons + 3 pairs
    worst = worst_next_failed_sets(_fm(2, max_simult=2), FS0, sys)
    assert len(worst) == 3 and all(len(w) == 2 for w in worst)


def test_next_rejects_inconsistent_input():
    sys = _sys(1)
    with pytest.raises(ModelError):
        next_failed_sets(_fm(0), frozenset({"c0"}), sys)
    with pytest.raises(ModelError):
        worst_next_failed_sets(_fm(0), frozenset({"c0"}), sys)


def test_worst_equals_filtered_next_on_random_models():
    rng = random.Random(11)
    for _ in range(120):
        sys, req = random_model(rng, max_computers=3, max_software=1)
        fs = FS0
        for _ in range(2):
            assert (worst_next_failed_sets(req.fm, fs, sys)
                    == brute_worst(req.fm, fs, sys))
            nxt = next_failed_sets(req.fm, fs, sys)
            assert nxt == brute_next_failed_sets(req.fm, fs, sys)
            for fs2 in nxt:
                assert fs2 > fs and consistent(fs2, req.fm, sys)
            if not nxt:
                break
            fs = rng.choice(nxt)


def _two_slot_models():
    """Models whose bursts may fail computers and devices together."""
    for n, cap, global_cap, device_n in itertools.product(
            (1, 2, 3), (None, 1, 2), (None, 1, 2, 3), (None, 1, 2, 3)):
        if cap is None or cap <= n:
            yield _fm(n, max_simult=cap, global_cap=global_cap,
                      device_n=device_n)


def test_two_slot_bursts_equal_brute_force_from_every_reachable_set():
    devices = {"d0", "d1", "d2"}
    sys = _sys(3, devices=sorted(devices))
    pairs = mixed = 0
    for fm in _two_slot_models():
        req = ResilienceRequirement(fm=fm, crit_fns=frozenset())
        for fs in reachable_failed_sets(req, sys):
            nxt = next_failed_sets(fm, fs, sys)
            assert nxt == brute_next_failed_sets(fm, fs, sys)
            assert (worst_next_failed_sets(fm, fs, sys)
                    == brute_worst(fm, fs, sys))
            pairs += 1
            mixed += any(len(b) > 2 and b & devices and b - devices
                         for b in (fs2 - fs for fs2 in nxt))
    # In 490 of the states a burst of three or more fails computers and
    # devices together.
    assert pairs == 4240 and mixed == 490


def test_frozen_failure_state():
    sys = _sys(2)
    assert next_failed_sets(_fm(2, max_simult=0), FS0, sys) == []
    assert worst_next_failed_sets(_fm(2, max_simult=0), FS0, sys) == []


def test_unlimited_rate():
    assert is_unlimited_rate(_fm(2))
    assert not is_unlimited_rate(_fm(2, max_simult=1))
    assert not is_unlimited_rate(_fm(2, global_cap=1))


# -- removeDead ------------------------------------------------------------------


def test_remove_dead_identity(tiny_sys):
    cfg = tiny_config()
    assert remove_dead(cfg, FS0, tiny_sys) is cfg


def test_remove_dead_drops_stateless(tiny_sys):
    cfg = tiny_config(plan_members=None)
    assert remove_dead(cfg, FS_C0, tiny_sys) == Config()


def test_remove_dead_keeps_surviving_replica(tiny_sys):
    cfg = tiny_config(loc_host="c1")
    out = remove_dead(cfg, FS_C0, tiny_sys)
    # The replicated instance keeps its membership even with c0 dead.
    assert out.rsi == cfg.rsi and out.si == cfg.si


def test_remove_dead_keeps_durable_instance():
    durable = Software(id="d", fn="fd", cores=1, ram=0, fast_starting=True,
                       resumable=True, persis_state=True,
                       single_instance=True, small_persis_state=True)
    sys = SystemModel(hw=[Computer(id="c0", os="osA", cpu_arch="x86",
                                   cores=4, ram=64)],
                      sw=[durable], protocols=[], sync=True)
    cfg = Config.make([SwInst("d", "c0")])
    assert remove_dead(cfg, frozenset({"c0"}), sys) == cfg


def test_remove_dead_idempotent_on_random_models():
    rng = random.Random(5)
    for _ in range(60):
        sys, req = random_model(rng)
        cfgs = generate_all_configs(sys, req)
        if not cfgs:
            continue
        cfg = rng.choice(cfgs)
        fs = frozenset(c for c in sys.computers if rng.random() < 0.4)
        once = remove_dead(cfg, fs, sys)
        assert remove_dead(once, fs, sys) == once


def _nonempty_subsets(items):
    return [frozenset(combo) for n in range(1, len(items) + 1)
            for combo in itertools.combinations(sorted(items), n)]


def test_remove_dead_is_its_argument_exactly_when_nothing_dies():
    """The state-representative search keeps a configuration when
    ``remove_dead`` returns it itself, and shares that answer among the
    failed sets that fail the same computers."""
    rng = random.Random(17)
    seen = {"kept": 0, "dropped": 0, "with devices": 0}
    for _ in range(60):
        sys, req = random_model(rng)
        device_sets = _nonempty_subsets(sys.devices)
        for cfg in generate_all_configs(sys, req):
            for extra in device_sets:
                assert remove_dead(cfg, extra, sys) is cfg
            for fs in _nonempty_subsets(sys.computers):
                out = remove_dead(cfg, fs, sys)
                assert (out is cfg) == (out == cfg)
                seen["kept" if out is cfg else "dropped"] += 1
                for extra in device_sets:
                    out2 = remove_dead(cfg, fs | extra, sys)
                    assert out2 == out and (out2 is cfg) == (out is cfg)
                    seen["with devices"] += 1
    assert all(seen.values()), seen


# -- transitions -------------------------------------------------------------------


def test_apply_failures_empty_burst(tiny_sys):
    st = State(tiny_config(), FS0)
    assert apply_failures(st, (), tiny_sys) == st


def test_apply_failures_removes_dead(tiny_sys):
    st = State(tiny_config(plan_members=None), FS0)
    out = apply_failures(st, {"c0"}, tiny_sys)
    assert out.cfg == Config() and out.fs == FS_C0


def test_apply_failures_device_only(tiny_sys):
    st = State(tiny_config(), FS0)
    out = apply_failures(st, {"g0"}, tiny_sys)
    assert out.cfg == st.cfg and out.fs == frozenset({"g0"})


def test_apply_failures_rejects_overlap(tiny_sys):
    st = State(tiny_config(), FS_C0)
    with pytest.raises(ModelError):
        apply_failures(st, {"c0"}, tiny_sys)


def test_apply_failures_result_is_fixed_point(tiny_sys):
    st = State(tiny_config(), FS0)
    out = apply_failures(st, {"c0"}, tiny_sys)
    assert remove_dead(out.cfg, out.fs, tiny_sys) == out.cfg


def test_apply_recovery(tiny_sys):
    st = State(tiny_config(), FS_C0 | frozenset({"c1"}))
    out = apply_recovery(st, "c0")
    assert out.fs == frozenset({"c1"}) and out.cfg == st.cfg
    out2 = apply_recovery(out, "c1")
    assert out2.fs == FS0


def test_apply_recovery_rejects_unfailed(tiny_sys):
    with pytest.raises(ModelError):
        apply_recovery(State(tiny_config(), FS0), "c0")
