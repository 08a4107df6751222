"""The class enumerator and the state-representative search against the
per-configuration references they replace.

``enumeration.enumerate_classes`` counts each class's members instead of
listing them, and ``Synthesizer.state_config`` searches a class for its
first member without dead instances.  The references list every relevant
configuration one by one (``oracle.relevant_configs``), filter the initial
ones per configuration (``generate_init_configs``), group them by
signature (``partition_members``) and scan the key-sorted members.
"""

import json
import os
import random
import subprocess
import sys as _python

import pytest

import resilcfg
from resilcfg import (
    Synthesizer,
    consistent,
    fixtures,
    generate_init_configs,
    next_failed_sets,
    partition_members,
    remove_dead,
    signature,
)
from resilcfg.enumeration import enumerate_classes
from resilcfg.oracle import relevant_configs
from conftest import FS0, random_model

DRIVING = (fixtures.autonomous_driving_laptop,
           fixtures.autonomous_driving_phone)


def _models(group):
    if group == "fixtures":
        return [builder() for builder in fixtures.BUILDERS.values()]
    if group == "driving":
        return [builder(scale) for builder in DRIVING for scale in (2, 3)]
    rng = random.Random(8)
    return [random_model(rng) for _ in range(100)]


def _reference(sys, req):
    """(signature -> key-sorted members, initial configurations), listed
    one configuration at a time."""
    universe = relevant_configs(sys, req)
    return (partition_members(universe, sys),
            generate_init_configs(sys, req, universe))


def _reachable_failed_sets(req, sys):
    """Every consistent failed set ``next_failed_sets`` reaches from the
    empty set."""
    seen, frontier = {FS0}, [FS0]
    while frontier:
        for fs2 in next_failed_sets(req.fm, frontier.pop(), sys):
            if fs2 not in seen:
                seen.add(fs2)
                frontier.append(fs2)
    return sorted(seen, key=sorted)


@pytest.mark.parametrize("group", ["fixtures", "driving", "random"])
def test_classes_match_the_per_configuration_references(group):
    for sys, req in _models(group):
        members, init_cfgs = _reference(sys, req)
        classes = enumerate_classes(sys, req)

        assert [cls.sig for cls in classes] == list(members)
        for cls in classes:
            expected = members[cls.sig]
            assert cls.size == len(expected)
            assert list(cls.members()) == expected
            assert cls.first == expected[0]
        assert ({cls.sig for cls in classes if cls.initial}
                == {signature(cfg, sys) for cfg in init_cfgs})

        result = Synthesizer(sys, req).solve()
        assert result.n_all == sum(map(len, members.values()))
        assert result.n_init == len(init_cfgs)
        assert result.n_all_classes == len(members)


@pytest.mark.parametrize("models", [
    lambda: [builder(scale) for builder in DRIVING for scale in (2, 3, 4)],
    lambda: [random_model(random.Random(i)) for i in range(300)],
], ids=["driving", "random"])
def test_no_class_mixes_initial_and_other_members(models):
    """Each class is initial or not as a whole, as the enumerator, which
    decides it once per class, assumes."""
    for sys, req in models():
        members, init_cfgs = _reference(sys, req)
        initial = set(init_cfgs)
        for group in members.values():
            assert len({cfg in initial for cfg in group}) == 1


@pytest.mark.parametrize("group", ["fixtures", "driving", "random"])
def test_state_config_is_the_first_member_a_scan_finds(group):
    """The search returns the first key-sorted member without dead
    instances, for every class under every reachable failed set."""
    found = {"first member": 0, "later member": 0, "none": 0}
    for sys, req in _models(group):
        members, _ = _reference(sys, req)
        syn = Synthesizer(sys, req)
        syn.build()
        for fs in _reachable_failed_sets(req, sys):
            assert consistent(fs, req.fm, sys)
            for sig, group_members in members.items():
                expected = next((m for m in group_members
                                 if remove_dead(m, fs, sys) == m), None)
                assert syn.state_config(sig, fs) == expected, (sig, fs)
                found["none" if expected is None else
                      "first member" if expected is group_members[0] else
                      "later member"] += 1
    assert all(found.values()), found


def test_a_full_solve_lists_no_member(monkeypatch):
    def unread(self):
        raise AssertionError("a full solve listed the members")

    for name in ("all_cfgs", "init_cfgs", "all_classes"):
        monkeypatch.setattr(Synthesizer, name, property(unread))
    sys, req = fixtures.autonomous_driving_laptop(4)
    result = Synthesizer(sys, req).solve()
    assert result.counts() == (36992, 17648, 288, 135, 9)


_CHILD = """
import json
from resilcfg import Synthesizer, fixtures
syn = Synthesizer(*fixtures.autonomous_driving_laptop(3))
result = syn.solve()
print(json.dumps({"sigs": [repr(cls.sig) for cls in syn.classes],
                  "counts": result.counts(),
                  "firsts": [repr(cls.first.key()) for cls in syn.classes]}))
"""


def test_classes_do_not_depend_on_the_hash_seed():
    import_root = os.path.dirname(os.path.dirname(resilcfg.__file__))
    outs = []
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [_python.executable, "-c", _CHILD],
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": import_root},
            capture_output=True, text=True, check=True)
        outs.append(json.loads(proc.stdout))
    assert outs[0]["counts"] == [4332, 2607, 108, 63, 9]
    assert len(outs[0]["sigs"]) == len(outs[0]["firsts"]) == 108
    assert outs[0] == outs[1] == outs[2]
