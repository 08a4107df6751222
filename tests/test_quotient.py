"""Relocatable-software equivalence: predicate, signatures, partitioning."""

import itertools
import random

from resilcfg import (
    avail,
    consistent,
    generate_all_configs,
    partition_by_class,
    partition_members,
    relocatable,
    remove_dead,
    rs_equivalent,
    signature,
)
from conftest import small_random_model, tiny_config


def test_relocatable_loc(tiny_sys):
    cfg = tiny_config()
    assert relocatable(tiny_sys.sw("LOC"), cfg, tiny_sys)


def test_relocatable_needs_restartability(tiny_sys):
    assert not relocatable(tiny_sys.sw("PLAN"), tiny_config(), tiny_sys)


def test_relocatable_dependent_requires_remote_use(tiny_sys):
    import dataclasses
    # In tiny, the replicated planner depends on the locator; if the locator
    # were not remote-usable it could not be relocated freely.
    loc = dataclasses.replace(tiny_sys.sw("LOC"), remote_use=False)
    assert not relocatable(loc, tiny_config(), tiny_sys)
    # Without any dependent instance present it relocates fine.
    assert relocatable(loc, tiny_config(plan_members=None), tiny_sys)


def test_relocatable_provider_must_be_remote(tiny_sys):
    import dataclasses
    # A component depending on a non-remote provider in the configuration
    # is pinned next to it.
    plan = tiny_sys.sw("PLAN")
    dep = dataclasses.replace(tiny_sys.sw("LOC"), fn_req=frozenset({"plan"}))
    cfg = tiny_config(plan_members=None, plan_si="c0")
    assert plan.remote_use is False
    assert not relocatable(dep, cfg, tiny_sys)


def test_signature_empty(tiny_sys):
    sig = signature(tiny_config(loc_host=None, plan_members=None), tiny_sys)
    assert sig.fixed_si == () and sig.fixed_rsi == () and sig.reloc_bag == ()


def test_signature_merges_relocatable_hosts(tiny_sys):
    a = tiny_config(loc_host="c0")
    b = tiny_config(loc_host="c1")
    assert signature(a, tiny_sys) == signature(b, tiny_sys)
    assert rs_equivalent(a, b, tiny_sys)


def test_signature_distinguishes_replica_sets(tiny_sys):
    a = tiny_config()
    b = tiny_config(plan_members=("c0",), plan_primary="c0")
    assert signature(a, tiny_sys) != signature(b, tiny_sys)


def test_signature_distinguishes_device_intersections():
    import dataclasses
    from resilcfg import Computer, Config, Software, SwInst, SystemModel

    c0 = Computer(id="c0", os="osA", cpu_arch="x86", cores=2, ram=64,
                  devices=frozenset({"gps"}))
    c1 = Computer(id="c1", os="osA", cpu_arch="x86", cores=2, ram=64)
    sw = Software(id="s", fn="f", cores=1, devices=frozenset({"gps"}),
                  fast_starting=True, resumable=True, remote_use=True)
    sys = SystemModel(hw=[c0, c1], sw=[sw], protocols=[], sync=True)
    a = Config.make([SwInst("s", "c0")])
    b = Config.make([SwInst("s", "c1")])
    # The hosts differ in the integrated devices the software uses, so a
    # stand-alone device failure could tell the two placements apart.
    assert not rs_equivalent(a, b, sys)


def test_equivalence_relation_properties():
    rng = random.Random(31)
    for _ in range(25):
        sys, req, _ = small_random_model(rng, max_computers=3,
                                         max_software=2)
        cfgs = generate_all_configs(sys, req)
        if len(cfgs) < 2:
            continue
        sample = rng.sample(cfgs, min(8, len(cfgs)))
        for a in sample:
            assert rs_equivalent(a, a, sys)
        for a, b in itertools.combinations(sample, 2):
            assert rs_equivalent(a, b, sys) == rs_equivalent(b, a, sys)
        for a, b, c in itertools.combinations(sample, 3):
            if rs_equivalent(a, b, sys) and rs_equivalent(b, c, sys):
                assert rs_equivalent(a, c, sys)


def test_partition_is_signature_congruence(tiny_sys, tiny_req):
    cfgs = generate_all_configs(tiny_sys, tiny_req)
    members = partition_members(cfgs, tiny_sys)
    for sig, group in members.items():
        for cfg in group:
            assert signature(cfg, tiny_sys) == sig
        for other_sig, other_group in members.items():
            if other_sig != sig:
                for a in group:
                    for b in other_group:
                        assert not rs_equivalent(a, b, tiny_sys)


def test_representative_is_minimal_and_stable(tiny_sys, tiny_req):
    cfgs = generate_all_configs(tiny_sys, tiny_req)
    reps = partition_by_class(cfgs, tiny_sys)
    members = partition_members(cfgs, tiny_sys)
    for sig, rep in reps.items():
        assert rep.key() == min(m.key() for m in members[sig])
    assert partition_by_class(list(reversed(cfgs)), tiny_sys) == reps


def test_singleton_partition(tiny_sys):
    cfg = tiny_config()
    reps = partition_by_class([cfg], tiny_sys)
    assert list(reps.values()) == [cfg]


def test_equivalent_states_offer_equal_functionality():
    """Class members expose the same available functionality under every
    failed set that keeps both states valid."""
    rng = random.Random(77)
    for _ in range(20):
        sys, req, _ = small_random_model(rng, max_computers=3,
                                         max_software=2)
        cfgs = generate_all_configs(sys, req)
        groups = [g for g in partition_members(cfgs, sys).values()
                  if len(g) > 1]
        fails = list(sys.computers) + list(sys.devices)
        fss = [frozenset(c) for size in range(0, 3)
               for c in itertools.combinations(fails, size)]
        fns = {s.fn for s in sys.software.values()}
        for group in groups[:6]:
            for a, b in itertools.combinations(group[:4], 2):
                for fs in fss:
                    if not consistent(fs, req.fm, sys):
                        continue
                    if (remove_dead(a, fs, sys) != a
                            or remove_dead(b, fs, sys) != b):
                        continue
                    fa = {fn for fn in fns if avail({fn}, a, fs, sys)}
                    fb = {fn for fn in fns if avail({fn}, b, fs, sys)}
                    assert fa == fb, (a, b, fs)
