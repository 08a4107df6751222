"""The class enumerator and the state-representative search against the
per-configuration references they replace.

``enumeration.enumerate_classes`` counts each class's members instead of
listing them, with the count memoized up to permutations of equivalent
computers, and ``Synthesizer.state_config`` searches a class for its first
member without dead instances, when a successor scan first reaches it.  The
references list every relevant configuration one by one
(``oracle.relevant_configs``), filter the initial ones per configuration
(``generate_init_configs``), group them by signature
(``partition_members``), scan the key-sorted members, and count the
members on the raw budgets (``oracle.plain_class_sizes``).
"""

import json
import operator
import os
import random
import subprocess
import sys as _python

import pytest

import resilcfg
from resilcfg import (
    NoWitnessError,
    Synthesizer,
    avail,
    can_reconfigure,
    consistent,
    derive_actions,
    fixtures,
    generate_init_configs,
    live,
    partition_members,
    remove_dead,
    signature,
)
from resilcfg.enumeration import enumerate_classes, symmetric_memo_key
from resilcfg.oracle import plain_class_sizes, relevant_configs
from resilcfg.synthesis import _pinned_si, _rsi_pairs
from conftest import model_group, random_model, reachable_failed_sets

DRIVING = (fixtures.autonomous_driving_laptop,
           fixtures.autonomous_driving_phone)


def _reference(sys, req):
    """(signature -> key-sorted members, initial configurations), listed
    one configuration at a time."""
    universe = relevant_configs(sys, req)
    return (partition_members(universe, sys),
            generate_init_configs(sys, req, universe))


@pytest.mark.parametrize("group", ["fixtures", "driving", "random"])
def test_classes_match_the_per_configuration_references(group):
    for sys, req in model_group(group):
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
    instances whose relocatable instances sit on live computers, for every
    class under every reachable failed set."""
    found = {"first member": 0, "later member": 0, "none": 0}
    for sys, req in model_group(group):
        members, _ = _reference(sys, req)
        syn = Synthesizer(sys, req)
        syn.build()
        first_live = _first_live(members, syn.classes, sys)
        for fs in reachable_failed_sets(req, sys):
            assert consistent(fs, req.fm, sys)
            for sig, group_members in members.items():
                expected = first_live(sig, fs)
                assert syn.state_config(sig, fs) == expected, (sig, fs)
                found["none" if expected is None else
                      "first member" if expected is group_members[0] else
                      "later member"] += 1
    assert all(found.values()), found


@pytest.mark.parametrize("group", ["fixtures", "driving", "random"])
def test_symmetric_count_equals_the_plain_count(group):
    """Class by class, the count memoized up to computer symmetry equals
    the count memoized on the raw budgets, on models with and without
    interchangeable computers."""
    if group == "driving":
        models = [builder(scale) for builder in DRIVING
                  for scale in range(2, 8)]
    else:
        models = model_group(group)
    symmetric = []
    for sys, req in models:
        classes = enumerate_classes(sys, req)
        assert ([(cls.sig, cls.size) for cls in classes]
                == list(plain_class_sizes(sys, req).items()))
        symmetric.append(symmetric_memo_key(sys) is not None)
    assert all(symmetric) if group == "driving" else any(symmetric)


def test_the_symmetric_key_sorts_each_computers_budgets_jointly():
    """c0, c1 and c2 are interchangeable, the laptop is not."""
    sys, _ = fixtures.autonomous_driving_laptop(3)
    assert sys.computer_ids == ("c0", "c1", "c2", "laptop")
    key = symmetric_memo_key(sys)
    base = key(1, (4, 2, 3, 8), (10, 20, 30, 40))
    assert key(1, (2, 3, 4, 8), (20, 30, 10, 40)) == base
    assert key(1, (2, 4, 3, 8), (10, 20, 30, 40)) != base
    assert key(1, (4, 2, 8, 3), (10, 20, 40, 30)) != base
    assert key(2, (4, 2, 3, 8), (10, 20, 30, 40)) != base
    assert symmetric_memo_key(fixtures.unsat()[0]) is None


@pytest.mark.parametrize("group", ["fixtures", "driving", "random"])
def test_every_member_has_its_first_members_reach_key(group):
    """The replicated pairs and the pinned instances, which decide what a
    successor scan can reach, belong to a class's fixed part: the scan
    reads them off the first member before any state configuration is
    searched for."""
    models = model_group(group)
    if group == "driving":
        models.extend(builder(4) for builder in DRIVING)
    for sys, req in models:
        for cls in enumerate_classes(sys, req):
            pairs, pinned = _rsi_pairs(cls.first), _pinned_si(cls.first, sys)
            for member in cls.members():
                assert _rsi_pairs(member) == pairs, cls.sig
                assert _pinned_si(member, sys) == pinned, cls.sig


def _first_live(members, classes, sys):
    """The reference state configuration of a class under a failed set: its
    first member that ``remove_dead`` keeps whole and whose relocatable
    instances, those outside the class's fixed part, sit on computers
    ``live`` keeps up."""
    fixed = {cls.sig: cls.fixed.si for cls in classes}

    def first_live(node, fs):
        return next((m for m in members[node]
                     if remove_dead(m, fs, sys) == m
                     and all(live(si.computer, fs, sys)
                             for si in m.si if si not in fixed[node])),
                    None)
    return first_live


@pytest.mark.parametrize("models", [
    lambda: [builder(3) for builder in DRIVING],
    lambda: [random_model(random.Random(40 + i)) for i in range(20)],
], ids=["driving", "random"])
def test_candidates_are_built_as_far_as_the_scans_reach(models):
    """After a solve, each reach key's nodes are exactly the nodes whose
    first member's key lies within it, in node order, and each failed
    set's candidate list for a key is a prefix of the eager list of (node,
    state configuration) over every one of those nodes that has one,
    covering exactly the nodes walked so far; every state configuration
    answered equals the reference scan's."""
    lazy = 0
    for sys, req in models():
        members, _ = _reference(sys, req)
        syn = Synthesizer(sys, req)
        syn.solve()
        first_live = _first_live(members, syn.classes, sys)

        for (pairs, pinned), nodes in syn._reach.items():
            assert nodes == [
                node for node in syn._nodes
                if _rsi_pairs(members[node][0]) <= pairs
                and _pinned_si(members[node][0], sys) <= pinned]
        for fs, ctx in syn._contexts.items():
            states = {node: first_live(node, fs) for node in syn._nodes}
            for reach, (unwalked, built) in ctx.candidates.items():
                nodes = syn._reach[reach]
                eager = [(node, states[node]) for node in nodes
                         if states[node] is not None]
                assert built == eager[:len(built)], (fs, reach)
                walked = len(nodes) - operator.length_hint(unwalked)
                assert len(built) == sum(
                    states[node] is not None
                    for node in nodes[:walked]), (fs, reach)
                lazy += len(built) < len(eager)
            for node, cfg in ctx.states.items():
                assert cfg == states[node], (node, fs)
                assert syn.state_config(node, fs) == cfg
    assert lazy > 0


@pytest.mark.parametrize("models", [
    lambda: [builder(3) for builder in DRIVING],
    lambda: [random_model(random.Random(40 + i)) for i in range(20)],
], ids=["driving", "random"])
def test_every_successor_is_the_reference_scans(models):
    """Each successor a solve records equals the first hit of a scan over
    every node, best first, that skips the targets needing a replicated
    pair or a pinned instance the source lacks and reads the reference
    state configurations."""
    hits = 0
    for sys, req in models():
        members, _ = _reference(sys, req)
        syn = Synthesizer(sys, req)
        syn.solve()
        first_live = _first_live(members, syn.classes, sys)
        answers = [(fs, key, found) for fs, ctx in syn._contexts.items()
                   for key, found in ctx.succ.items()]
        hits += sum(found is not None for _, _, found in answers)
        for fs, (src, recursive), found in answers:
            expected = None
            for node in syn._nodes:
                cfg = first_live(node, fs)
                if (cfg is None or not _rsi_pairs(cfg) <= _rsi_pairs(src)
                        or not _pinned_si(cfg, sys) <= frozenset(src.si)
                        or not can_reconfigure(src, cfg, fs, sys)):
                    continue
                if not (syn.resilient_node(node, fs) if recursive
                        else avail(req.crit_fns, cfg, fs, sys)):
                    continue
                try:
                    expected = (node, derive_actions(src, cfg, fs, sys))
                except NoWitnessError:
                    continue
                break
            assert found == expected, (fs, src, recursive)
    assert hits > 0


def test_a_full_solve_lists_no_member(monkeypatch):
    def unread(self):
        raise AssertionError("a full solve listed the members")

    for name in ("init_cfgs", "all_classes"):
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


_STEPWISE_CHILD = """
import sys
from resilcfg import Synthesizer, fixtures, modelio
out = sys.argv[1]
for name, builder in (("example1", fixtures.autonomous_driving_laptop),
                      ("example2", fixtures.autonomous_driving_phone)):
    raw = modelio.model_to_dict(*builder(3))
    raw["failureModel"] = {"bounds": [{"hwType": "Computer", "fType": "crash",
                                       "n": 2, "maxSimult": 1}],
                           "maxSimult": 1}
    result = Synthesizer(*modelio.model_from_dict(raw)).solve()
    modelio.save_policy(result.policy, "%s/%s.policy.json" % (out, name))
    modelio.save_report(result, "%s/%s.report.json" % (out, name),
                        name + ".json")
"""


def test_stepwise_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Two crashes one per burst make the successor scans run at failed
    sets of one and two computers, whose candidate lists are kept per
    frozenset reach key; the policy and report bytes are the same under
    two hash seeds."""
    import_root = os.path.dirname(os.path.dirname(resilcfg.__file__))
    outs = []
    for seed in ("1", "31337"):
        subprocess.run(
            [_python.executable, "-c", _STEPWISE_CHILD, str(tmp_path)],
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": import_root}, check=True)
        outs.append({path.name: path.read_bytes()
                     for path in sorted(tmp_path.iterdir())})
    assert len(outs[0]) == 4
    assert outs[0] == outs[1]
