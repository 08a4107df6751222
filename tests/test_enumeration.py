"""Relevant-configuration generation and its filters."""

import random

import pytest

from resilcfg import (
    FailBound,
    FailureModel,
    Software,
    critical_software,
    generate_all_configs,
    generate_init_configs,
    max_simult_fail,
    valid_config,
)
from resilcfg.oracle import all_valid_configs
from resilcfg.synthesis import Synthesizer
from resilcfg import fixtures
from conftest import small_random_model


def test_critical_software_unique_providers(tiny_sys, tiny_req):
    assert critical_software(tiny_sys, tiny_req.crit_fns) == {"LOC", "PLAN"}


def test_critical_software_shared_fn():
    sys, req = fixtures.autonomous_driving_laptop(2)
    crit = critical_software(sys, req.crit_fns)
    # planning and control have fallback providers, so they are not
    # uniquely provided.
    assert crit == {"perception", "localization", "chassis-interface"}


def test_critical_software_empty():
    sys, _ = fixtures.tiny()
    assert critical_software(sys, frozenset()) == frozenset()


def test_requires_replication(tiny_sys):
    """A fresh instance cannot replace a lost one unless the software is
    startable."""
    assert not tiny_sys.sw("PLAN").startable  # not resumable
    assert tiny_sys.sw("LOC").startable
    slow = Software(id="slow", fn="f", cores=1, fast_starting=False,
                    resumable=True)
    assert not slow.startable
    keeper = Software(id="k", fn="f", cores=1, fast_starting=True,
                      resumable=True, persis_state=True,
                      single_instance=True)
    assert not keeper.startable


@pytest.mark.parametrize("n,cap,global_cap,expected", [
    (1, 1, None, 1),
    (4, None, None, 4),
    (3, None, 2, 2),
    (3, 2, None, 2),
    (2, 2, 5, 2),
])
def test_max_simult_fail(n, cap, global_cap, expected):
    fm = FailureModel(bounds=(FailBound(hw_type="Computer", n=n,
                                        max_simult=cap),),
                      max_simult=global_cap)
    assert max_simult_fail(fm) == expected


def test_max_simult_fail_no_computer_bound():
    fm = FailureModel(bounds=(FailBound(hw_type="Device", n=2),))
    assert max_simult_fail(fm) == 0


def test_tiny_universe(tiny_sys, tiny_req):
    all_c = generate_all_configs(tiny_sys, tiny_req)
    init_c = generate_init_configs(tiny_sys, tiny_req, all_c)
    # LOC on either computer x planner replica sets {c0},{c1},{c0,c1}x2.
    assert len(all_c) == 8
    # Canonical primary keeps only c0 for the two-member replica set.
    assert len(init_c) == 6
    assert set(init_c) <= set(all_c)


def test_universe_members_are_valid(tiny_sys, tiny_req):
    for cfg in generate_all_configs(tiny_sys, tiny_req):
        assert valid_config(cfg, tiny_sys)


def test_universe_subset_of_all_valid(tiny_sys, tiny_req):
    universe = set(generate_all_configs(tiny_sys, tiny_req))
    assert universe < set(all_valid_configs(tiny_sys))


def test_no_duplicate_remote_instances():
    sys, req = fixtures.autonomous_driving_laptop(2)
    for cfg in generate_all_configs(sys, req):
        counts = {}
        for sid in cfg.instance_software():
            counts[sid] = counts.get(sid, 0) + 1
        for sid, n in counts.items():
            if sys.sw(sid).remote_use:
                assert n == 1


def test_replica_count_window():
    sys, req = fixtures.autonomous_driving_laptop(3)  # f = 2
    sizes = set()
    for cfg in generate_all_configs(sys, req):
        for r in cfg.rsi:
            sizes.add(len(r.computers))
    assert sizes == {1, 2, 3}  # up to f + 1 for non-majority quorums


def test_critical_coverage():
    sys, req = fixtures.autonomous_driving_laptop(2)
    for cfg in generate_all_configs(sys, req):
        fns = {sys.sw(sid).fn for sid in cfg.instance_software()}
        assert req.crit_fns <= fns


def test_canonical_primary_merges_only_primary_variants(tiny_sys, tiny_req):
    all_c = generate_all_configs(tiny_sys, tiny_req)
    init_c = set(generate_init_configs(tiny_sys, tiny_req, all_c))
    for cfg in all_c:
        if cfg in init_c:
            continue
        # Every dropped configuration differs from a kept one only in the
        # primary choice among equivalent computers.
        twins = [c2 for c2 in init_c
                 if c2.si == cfg.si
                 and [(r.sw, r.computers) for r in c2.rsi]
                 == [(r.sw, r.computers) for r in cfg.rsi]]
        assert twins, cfg


def _replica_filter_model(second_core_count=4):
    from resilcfg import (Computer, RepProtocol, ResilienceRequirement,
                          Software, SystemModel)

    comps = [Computer(id="c0", os="osA", cpu_arch="x86", cores=4, ram=64),
             Computer(id="c1", os="osA", cpu_arch="x86",
                      cores=second_core_count, ram=64)]
    aux = Software(id="aux", fn="aux", cores=1, fast_starting=True,
                   resumable=True, remote_use=False)
    keeper = Software(id="keeper", fn="keep", cores=1,
                      fn_req=frozenset({"aux"}), fast_starting=True,
                      resumable=False, deterministic=True)
    pb = RepProtocol(id="pb", sync=True, active=False, progress_q="all",
                     reconfig_q="one")
    sys = SystemModel(hw=comps, sw=[aux, keeper], protocols=[pb], sync=True)
    req = ResilienceRequirement(
        fm=FailureModel(bounds=(FailBound(hw_type="Computer", n=1,
                                          max_simult=1),), max_simult=1),
        crit_fns=frozenset({"keep"}))
    return sys, req


def test_init_filter_drops_members_that_cannot_run():
    # keeper's dependency is provided by a non-remote component, so replica
    # members without a local provider cannot actually run the software
    # and such placements are poor starting points.
    sys, req = _replica_filter_model()
    all_c = generate_all_configs(sys, req)
    init_c = generate_init_configs(sys, req, all_c)
    dropped = set(all_c) - set(init_c)

    def covered(cfg):
        hosts = {s.computer for s in cfg.si if s.sw == "aux"}
        return all(set(r.computers) <= hosts for r in cfg.rsi)

    def canonical_primary(cfg):
        return all(r.primary == r.computers[0] for r in cfg.rsi)

    # Every drop is explained by a member without a local provider or a
    # non-canonical primary, and at least one falls to each filter.
    assert dropped
    assert all(not covered(c) or not canonical_primary(c) for c in dropped)
    assert any(not covered(c) and canonical_primary(c) for c in dropped)
    assert all(covered(c) and canonical_primary(c) for c in init_c)


def test_canonical_primary_only_among_equivalent_computers():
    # With attribute-identical members only one primary choice survives;
    # with distinguishable members both stay.
    sys_eq, req = _replica_filter_model(second_core_count=4)
    sys_ne, _ = _replica_filter_model(second_core_count=3)

    def primaries(sys):
        init_c = generate_init_configs(sys, req)
        return {r.primary for cfg in init_c for r in cfg.rsi
                if set(r.computers) == {"c0", "c1"}}

    assert primaries(sys_eq) == {"c0"}
    assert primaries(sys_ne) == {"c0", "c1"}


def test_answer_preservation_on_small_models():
    """Existence of a resilient initial configuration agrees between the
    filtered universe and a fully naive search over every valid
    configuration (models kept at two computers, where the replica windows
    cannot exclude useful placements)."""
    from resilcfg.oracle import naive_resilient

    rng = random.Random(100)
    checked = 0
    while checked < 10:
        sys, req, valid = small_random_model(rng, max_computers=2,
                                             max_software=3, max_valid=250)
        syn = Synthesizer(sys, req)
        syn.build()
        filtered = any(syn.resilient_node(node, frozenset())
                       for node in syn.init_sigs)
        ctx = {"universe": valid, "memo": {}}
        unfiltered = any(naive_resilient(cfg, frozenset(), req, sys, ctx)
                         for cfg in valid)
        assert filtered == unfiltered, (sys.software, req)
        checked += 1
