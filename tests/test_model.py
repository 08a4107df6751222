"""Model-core: entities, compatibility, resources, validity."""

import dataclasses
import random

import pytest

from resilcfg import (
    Computer,
    Config,
    Device,
    ModelError,
    Software,
    SwInst,
    SystemModel,
    compatible,
    quorum_size,
    rep_inst,
    resources_ok,
    run,
    valid_config,
)
from conftest import tiny_config


def test_run_empty_config(tiny_sys):
    assert run("c0", Config(), tiny_sys) == frozenset()


def test_run_counts_replicas_on_every_member(tiny_sys):
    cfg = tiny_config()
    # LOC@c0 plus PLAN replicated on both computers.
    assert run("c0", cfg, tiny_sys) == {"LOC", "PLAN"}
    assert run("c1", cfg, tiny_sys) == {"PLAN"}


def test_run_unknown_computer(tiny_sys):
    with pytest.raises(ModelError):
        run("nope", Config(), tiny_sys)


def _sw(**kw):
    base = dict(id="x", fn="fx", cores=1, ram=0, fast_starting=True,
                resumable=True)
    base.update(kw)
    return Software(**base)


def _comp(**kw):
    base = dict(id="c", os="osA", cpu_arch="x86", cores=4, ram=1024)
    base.update(kw)
    return Computer(**base)


def test_computer_equivalence_compares_every_field_but_the_id():
    """Equivalent computers are merged by the class enumerator's memo key,
    so a field left out of the comparison would merge computers that are
    not interchangeable."""
    base = Computer(id="c0", os="osA", cpu_arch="x86", cores=2, ram=64)
    changed = {"os": "osB", "cpu_arch": "arm", "cores": 3, "ram": 128,
               "devices": frozenset({"cam"}), "wired_nic": True,
               "wifi_nic": False, "cellular": True,
               "power": frozenset({"ups"})}
    assert set(changed) == {f.name for f in dataclasses.fields(Computer)
                            if f.name != "id"}
    for name, value in changed.items():
        other = dataclasses.replace(base, **{name: value})
        assert not base.equivalent(other) and not other.equivalent(base)
    other = dataclasses.replace(base, id="c1")
    assert base.equivalent(other) and other.equivalent(base)


def test_compatible_no_requirements():
    assert compatible(_sw(), _comp())


def test_compatible_arch_mismatch():
    assert not compatible(_sw(cpu_arch="arm"), _comp(cpu_arch="x86"))


def test_compatible_os_mismatch():
    assert not compatible(_sw(os="osB"), _comp(os="osA"))


def test_compatible_wired_requires_wired_nic():
    assert not compatible(_sw(wired=True), _comp(wired_nic=False))
    assert compatible(_sw(wired=True), _comp(wired_nic=True))


def test_compatible_cellular():
    assert not compatible(_sw(cellular=True), _comp(cellular=False))


def test_compatible_is_pure():
    sw, c = _sw(os="osA"), _comp()
    assert all(compatible(sw, c) for _ in range(20))


def test_resources_empty_config(tiny_sys):
    assert resources_ok(Config(), tiny_sys)


def test_resources_over_cores():
    sys = SystemModel(hw=[_comp(id="c0")], sw=[_sw(id="big", cores=5)],
                      protocols=[], sync=True)
    cfg = Config.make([SwInst("big", "c0")])
    assert not resources_ok(cfg, sys)


def test_resources_tiny_config(tiny_sys):
    # c0 carries LOC + PLAN replica (2 cores of 4), c1 one replica core.
    assert resources_ok(tiny_config(), tiny_sys)


def test_resources_dangling_reference(tiny_sys):
    with pytest.raises(ModelError):
        resources_ok(Config.make([SwInst("ghost", "c0")]), tiny_sys)


@pytest.mark.parametrize("q,n,expected", [
    ("majority", 3, 2),
    ("majority", 1, 1),
    ("majority", 4, 3),
    ("majority", 5, 3),
    ("all", 4, 4),
    ("one", 5, 1),
])
def test_quorum_size(q, n, expected):
    assert quorum_size(q, n) == expected


def test_quorum_size_rejects_empty():
    with pytest.raises(ModelError):
        quorum_size("majority", 0)


def test_valid_empty_config(tiny_sys):
    assert valid_config(Config(), tiny_sys)


def test_valid_rejects_replicated_stateless(tiny_sys):
    # LOC is resumable without persistent state: nothing to replicate.
    cfg = Config.make([], [rep_inst("LOC", "primary-backup", ["c0", "c1"],
                                    "c0")])
    assert not valid_config(cfg, tiny_sys)


def test_valid_tiny_config(tiny_sys):
    assert valid_config(tiny_config(), tiny_sys)


def test_valid_passive_needs_member_primary(tiny_sys):
    with pytest.raises(ModelError):
        rep_inst("PLAN", "primary-backup", ["c0"], "c1")


def test_valid_single_instance_cap(tiny_sys):
    cfg = Config.make([SwInst("PLAN", "c0"), SwInst("PLAN", "c1")])
    assert not valid_config(cfg, tiny_sys)


def test_valid_incompatible_placement():
    sys = SystemModel(hw=[_comp(id="c0", os="osA")],
                      sw=[_sw(id="s", os="osB")], protocols=[], sync=True)
    assert not valid_config(Config.make([SwInst("s", "c0")]), sys)


def test_config_set_semantics(tiny_sys):
    a = tiny_config()
    b = Config.make(reversed(a.si), a.rsi)
    assert a == b and hash(a) == hash(b)
    assert valid_config(a, tiny_sys) == valid_config(b, tiny_sys)


def test_config_rejects_duplicate_replicated_instance():
    with pytest.raises(ModelError):
        Config.make([], [rep_inst("PLAN", "primary-backup", ["c0"], "c0"),
                         rep_inst("PLAN", "primary-backup", ["c1"], "c1")])


def test_run_monotone_in_config(tiny_sys):
    small = tiny_config(plan_members=None, plan_primary=None)
    big = tiny_config()
    for c in ("c0", "c1"):
        assert run(c, small, tiny_sys) <= run(c, big, tiny_sys)


def test_quorum_never_exceeds_members(tiny_sys):
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        for q in ("majority", "all", "one"):
            assert 1 <= quorum_size(q, n) <= n


def test_software_persis_requires_single_instance():
    with pytest.raises(ModelError):
        _sw(persis_state=True, single_instance=False)


def test_system_rejects_duplicate_ids():
    with pytest.raises(ModelError):
        SystemModel(hw=[_comp(id="a"), Device(id="a", device_type="t")],
                    sw=[], protocols=[], sync=True)


def test_system_rejects_unknown_power():
    with pytest.raises(ModelError):
        SystemModel(hw=[_comp(id="c0", power=frozenset({"ghost"}))],
                    sw=[], protocols=[], sync=True)


def test_system_rejects_cyclic_power():
    a = Device(id="a", device_type="t", power=frozenset({"b"}))
    b = Device(id="b", device_type="t", power=frozenset({"a"}))
    with pytest.raises(ModelError,
                       match="^cyclic power references: a -> b -> a$"):
        SystemModel(hw=[a, b], sw=[], protocols=[], sync=True)
    # The walk starts at the first hardware id, so the path names it.
    x = Device(id="0x", device_type="t", power=frozenset({"a"}))
    with pytest.raises(ModelError, match=": 0x -> a -> b -> a$"):
        SystemModel(hw=[a, b, x], sw=[], protocols=[], sync=True)


def test_system_rejects_cyclic_functionality_graph():
    s1 = _sw(id="s1", fn="a", fn_req=frozenset({"b"}))
    s2 = _sw(id="s2", fn="b", fn_req=frozenset({"a"}))
    with pytest.raises(ModelError):
        SystemModel(hw=[_comp(id="c0")], sw=[s1, s2], protocols=[],
                    sync=True)
