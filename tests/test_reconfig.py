"""Reconfiguration: runnability, the relation, action semantics, witnesses."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from resilcfg import (
    ActionRejected,
    ChangeReps,
    Computer,
    Config,
    Move,
    NoWitnessError,
    RepProtocol,
    Software,
    Start,
    State,
    Stop,
    StopRep,
    SwInst,
    Synthesizer,
    SystemModel,
    apply_action,
    can_reconfigure,
    can_run,
    derive_actions,
    remove_dead,
    rep_inst,
    valid_config,
)
from resilcfg import fixtures
from resilcfg.oracle import _enabled_actions, naive_apply_action
from resilcfg.reconfig import describe_action
from conftest import (FS0, FS_C0, over_budget_root, small_random_model,
                      tiny_config)


def test_can_run_trivial(tiny_sys):
    sw = tiny_sys.sw("LOC")
    assert can_run("c1", sw, Config(), FS0, tiny_sys)


def test_can_run_remote_dependency(tiny_sys):
    plan = tiny_sys.sw("PLAN")
    cfg = tiny_config(plan_members=None)  # only LOC@c0
    assert can_run("c1", plan, cfg, FS0, tiny_sys)


def test_can_run_dependency_gone(tiny_sys):
    plan = tiny_sys.sw("PLAN")
    cfg = tiny_config(plan_members=None)
    assert not can_run("c1", plan, cfg, FS_C0, tiny_sys)


def test_can_run_does_not_require_live_target(tiny_sys):
    # Failed computers may be prepared as future replica members.
    loc = tiny_sys.sw("LOC")
    assert can_run("c0", loc, Config(), FS_C0, tiny_sys)


def test_can_run_rejects_incompatible_host():
    sys, _ = fixtures.autonomous_driving_laptop(2)
    planning = sys.sw("planning-linux")  # needs os linux; c0 runs the RTOS
    assert not can_run("c0", planning, Config(), FS0, sys)
    assert can_run("laptop", planning, Config(), FS0, sys)


def test_can_run_rejects_required_device_down(tiny_sys):
    loc = tiny_sys.sw("LOC")  # needs the only GPS, stand-alone g0
    assert not can_run("c0", loc, Config(), frozenset({"g0"}), tiny_sys)


# -- the relation -------------------------------------------------------------


def test_relation_reflexive(tiny_sys):
    cfg = tiny_config()
    assert can_reconfigure(cfg, cfg, FS0, tiny_sys)


def test_relation_post_crash_failover(tiny_sys):
    # After c0 crashes: shrink the planner to c1 and restart the locator.
    cfg = remove_dead(tiny_config(), FS_C0, tiny_sys)
    target = tiny_config(loc_host="c1", plan_members=("c1",),
                         plan_primary="c1")
    assert can_reconfigure(cfg, target, FS_C0, tiny_sys)


def test_relation_rejects_new_replicated_instance(tiny_sys):
    cfg = tiny_config(plan_members=None)  # no replicated planner
    assert not can_reconfigure(cfg, tiny_config(), FS0, tiny_sys)


def test_relation_rejects_dead_primary(tiny_sys):
    cfg = tiny_config()  # primary c0
    target = tiny_config(plan_primary="c1")
    assert can_reconfigure(cfg, target, FS0, tiny_sys)
    # With c1 crashed, the primary cannot be handed to it.
    src = remove_dead(cfg, frozenset({"c1"}), tiny_sys)
    assert not can_reconfigure(src, target, frozenset({"c1"}),
                               tiny_sys)


def test_relation_rejects_unstartable_software(tiny_sys):
    # PLAN is neither startable fresh (not resumable) nor migratable.
    cfg = tiny_config(plan_members=None, plan_si="c0")
    target = tiny_config(plan_members=None, plan_si="c1")
    assert not can_reconfigure(cfg, target, FS0, tiny_sys)


def test_relation_rejects_an_invalid_target():
    """Starting one more instance is a difference an action produces, but
    it puts ``c1`` over its core budget: only the target's validity check
    rejects it."""
    sys, req = fixtures.autonomous_driving_laptop()
    _, bad = over_budget_root(sys, req)
    root = next(iter(Synthesizer(sys, req).solve().policy.roots.values()))
    assert can_reconfigure(root, bad, FS0, sys, assume_target_valid=True)
    assert not can_reconfigure(root, bad, FS0, sys)


# -- action application ---------------------------------------------------------


def test_stop_removes_instance(tiny_sys):
    st = State(tiny_config(), FS0)
    out = apply_action(st, Stop(SwInst("LOC", "c0")), tiny_sys)
    assert out.cfg == tiny_config(loc_host=None)
    assert out.fs == st.fs


def test_stop_rep_removes_instance(tiny_sys):
    st = State(tiny_config(), FS0)
    out = apply_action(st, StopRep("PLAN"), tiny_sys)
    assert out.cfg == tiny_config(plan_members=None)


def test_change_reps_semantics(tiny_sys):
    st = State(remove_dead(tiny_config(loc_host="c1"), FS_C0, tiny_sys),
               FS_C0)
    out = apply_action(st, ChangeReps("PLAN", ("c1",), "c1"), tiny_sys)
    assert out.cfg.rsi == (rep_inst("PLAN", "primary-backup", ["c1"], "c1"),)


def test_change_reps_needs_live_primary(tiny_sys):
    st = State(tiny_config(loc_host="c1"), FS_C0)
    with pytest.raises(ActionRejected, match="primary"):
        apply_action(st, ChangeReps("PLAN", ("c0", "c1"), "c0"), tiny_sys)


def test_start_rejects_non_startable(tiny_sys):
    st = State(Config(), FS0)
    with pytest.raises(ActionRejected, match="startable"):
        apply_action(st, Start(SwInst("PLAN", "c0")), tiny_sys)


def test_start_rejects_dead_target(tiny_sys):
    st = State(Config(), FS_C0)
    with pytest.raises(ActionRejected, match="live"):
        apply_action(st, Start(SwInst("LOC", "c0")), tiny_sys)


def test_start_checks_requirements(tiny_sys):
    st = State(Config(), FS0)
    out = apply_action(st, Start(SwInst("LOC", "c1")), tiny_sys)
    assert SwInst("LOC", "c1") in out.cfg.si


def test_move_round_trip(tiny_sys):
    st = State(tiny_config(), FS0)
    out = apply_action(st, Move(SwInst("LOC", "c0"), "c1"), tiny_sys)
    assert SwInst("LOC", "c1") in out.cfg.si
    with pytest.raises(ActionRejected):
        apply_action(st, Move(SwInst("LOC", "c0"), "c0"), tiny_sys)


def test_move_rejects_non_migratable(tiny_sys):
    st = State(tiny_config(plan_members=None, plan_si="c0"), FS0)
    with pytest.raises(ActionRejected, match="migratable"):
        apply_action(st, Move(SwInst("PLAN", "c0"), "c1"), tiny_sys)


def _outcome(apply, state, action, sys):
    """The result configuration, or the clause of the rejection."""
    try:
        return apply(state, action, sys).cfg
    except ActionRejected as exc:
        return exc.clause


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_apply_action_agrees_with_the_full_check(seed, data):
    """From a valid state, checking only what an action touches accepts,
    rejects (with the same clause) and builds exactly what checking the
    whole result does, for every action enabled in the state."""
    sys, _, cfgs = small_random_model(random.Random(seed), max_valid=400)
    hardware = sorted(sys.computers) + sorted(sys.devices)
    for _ in range(4):
        cfg = data.draw(st.sampled_from(cfgs))
        fs = frozenset(data.draw(st.sets(st.sampled_from(hardware))))
        state = State(remove_dead(cfg, fs, sys), fs)
        for action in _enabled_actions(state, sys):
            assert (_outcome(apply_action, state, action, sys)
                    == _outcome(naive_apply_action, state, action, sys)), \
                action


def _with_incompatible_passive_member(sys):
    """``sys`` plus a passive protocol, a component ``sp`` that it may
    replicate and that may gain members, a computer ``cp`` that can run
    ``sp`` and a computer ``cq`` whose OS ``sp`` does not run on."""
    passive = RepProtocol(id="passive", sync=False, active=False,
                          progress_q="all", reconfig_q="one")
    sp = Software(id="sp", fn="fp", os="osA", fast_starting=True)
    assert sp.stateful and sp.members_addable
    extra = [Computer(id=c, os=os, cpu_arch="x86", cores=2, ram=1024)
             for c, os in (("cp", "osA"), ("cq", "osQ"))]
    return SystemModel(
        hw=list(sys.computers.values()) + list(sys.devices.values()) + extra,
        sw=list(sys.software.values()) + [sp],
        protocols=list(sys.protocols.values()) + [passive], sync=sys.sync)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_apply_action_agrees_with_the_full_check_on_an_incompatible_member(
        seed, data):
    """Adding an incompatible member to a passive replicated instance is
    rejected as an invalid result, by checking only what the action
    touches as by checking the whole result."""
    base, _, cfgs = small_random_model(random.Random(seed), max_valid=400)
    sys = _with_incompatible_passive_member(base)
    cfg = data.draw(st.sampled_from(cfgs))
    cfg = Config.make(cfg.si, cfg.rsi + (rep_inst("sp", "passive", ["cp"],
                                                  "cp"),))
    assert valid_config(cfg, sys)
    fs = frozenset(data.draw(st.sets(st.sampled_from(
        sorted(base.computers) + sorted(base.devices)))))
    state = State(remove_dead(cfg, fs, sys), fs)
    clauses = set()
    for action in _enabled_actions(state, sys):
        outcome = _outcome(apply_action, state, action, sys)
        assert outcome == _outcome(naive_apply_action, state, action, sys), \
            action
        clauses.add(outcome)
    assert "resulting configuration invalid" in clauses


@pytest.mark.parametrize("action, clause", [
    (StopRep("LOC"), "replicated instance not present"),
    (Move(SwInst("PLAN", "c0"), "c1"), "instance not present"),
    (ChangeReps("LOC", ("c0",), None), "replicated instance not present"),
    (ChangeReps("PLAN", ("c0", "c1"), None), "primary must be a member"),
], ids=["stopRep-absent", "move-absent", "changeReps-absent",
        "changeReps-no-primary"])
def test_apply_action_rejects_absent_instances_and_a_missing_primary(
        tiny_sys, action, clause):
    """Each clause is named alike by ``apply_action`` and by the reference
    that checks the whole result, and the message describes the action."""
    state = State(tiny_config(), FS0)
    for apply in (apply_action, naive_apply_action):
        with pytest.raises(ActionRejected) as exc:
            apply(state, action, tiny_sys)
        assert exc.value.clause == clause
        assert str(exc.value) == "%s rejected: %s" % (
            describe_action(action), clause)
    assert describe_action(StopRep("LOC")) == "stopRep(LOC)"


# -- witness derivation -----------------------------------------------------------


def test_derive_empty_sequence(tiny_sys):
    cfg = tiny_config()
    assert derive_actions(cfg, cfg, FS0, tiny_sys) == ()


def test_derive_relocation_is_stop_then_start(tiny_sys):
    cfg = tiny_config(plan_members=None)
    target = tiny_config(loc_host="c1", plan_members=None)
    actions = derive_actions(cfg, target, FS0, tiny_sys)
    assert actions == (Stop(SwInst("LOC", "c0")), Start(SwInst("LOC", "c1")))


def test_derive_requires_relation(tiny_sys):
    cfg = tiny_config(plan_members=None, plan_si="c0")
    target = tiny_config(plan_members=None, plan_si="c1")
    with pytest.raises(NoWitnessError):
        derive_actions(cfg, target, FS0, tiny_sys)


def test_derive_without_a_donor_raises_rather_than_starting(tiny_sys):
    """A new instance that is not startable is realized only as a move of
    a live removed instance; when none exists, the derivation raises
    ``NoWitnessError`` instead of emitting a ``Start``."""
    cfg = tiny_config(plan_members=None)
    target = tiny_config(plan_members=None, plan_si="c0")
    with pytest.raises(NoWitnessError):
        derive_actions(cfg, target, FS0, tiny_sys)


def test_derive_replays_to_target(tiny_sys):
    src = remove_dead(tiny_config(), FS_C0, tiny_sys)
    target = tiny_config(loc_host="c1", plan_members=("c1",),
                         plan_primary="c1")
    actions = derive_actions(src, target, FS_C0, tiny_sys)
    st = State(src, FS_C0)
    for act in actions:
        st = apply_action(st, act, tiny_sys)
    assert st.cfg == target


def test_derive_orders_dependency_before_membership_change(tiny_sys):
    # The locator died with c0; the planner's new primary needs it, so the
    # restart must precede the membership change.
    src = remove_dead(tiny_config(), FS_C0, tiny_sys)
    assert src.si == ()  # locator gone
    target = tiny_config(loc_host="c1", plan_members=("c1",),
                         plan_primary="c1")
    actions = derive_actions(src, target, FS_C0, tiny_sys)
    kinds = [type(a).__name__ for a in actions]
    assert kinds.index("Start") < kinds.index("ChangeReps")


def test_move_accounting_one_donor_per_move():
    """A single removed instance cannot justify two moved-in instances, and
    a donor on a dead computer cannot donate at all."""
    comps = [Computer(id="c%d" % i, os="osA", cpu_arch="x86", cores=4,
                      ram=64) for i in range(3)]
    # Movable but not startable fresh (slow-starting).
    heavy = Software(id="h", fn="fh", cores=1, fast_starting=False,
                     resumable=True, migratable=True)
    sys = SystemModel(hw=comps, sw=[heavy], protocols=[], sync=True)

    one = Config.make([SwInst("h", "c0")])
    two = Config.make([SwInst("h", "c1"), SwInst("h", "c2")])
    assert not can_reconfigure(one, two, FS0, sys)
    moved = Config.make([SwInst("h", "c1")])
    assert can_reconfigure(one, moved, FS0, sys)
    assert derive_actions(one, moved, FS0, sys) == (
        Move(SwInst("h", "c0"), "c1"),)

    # Donor host dead: the instance is gone anyway after remove_dead; but a
    # surviving durable instance on a dead host cannot be moved either.
    durable = Software(id="d", fn="fd", cores=1, fast_starting=True,
                       resumable=True, migratable=True, persis_state=True,
                       single_instance=True, small_persis_state=True)
    sys2 = SystemModel(hw=comps, sw=[durable], protocols=[], sync=True)
    src = Config.make([SwInst("d", "c0")])
    fs = frozenset({"c0"})
    assert remove_dead(src, fs, sys2) == src  # survives in place
    tgt = Config.make([SwInst("d", "c1")])
    assert not can_reconfigure(src, tgt, fs, sys2)


def test_replica_swap_without_spare_slot_has_no_witness():
    """Boundary documentation: the one-pass relation accepts two replica
    sets swapping hosts, but with both computers full no ordering of the
    membership changes stays within capacity, so no witness exists and the
    engine will not select such a successor."""
    from resilcfg import (Computer, RepProtocol, Software, SystemModel,
                          rep_inst)
    from resilcfg.synthesis import Synthesizer
    from resilcfg.enumeration import ResilienceRequirement
    from resilcfg.failures import FailBound, FailureModel

    comps = [Computer(id="c%d" % i, os="osA", cpu_arch="x86", cores=1,
                      ram=64) for i in range(2)]
    pb = RepProtocol(id="pb", sync=True, active=False, progress_q="all",
                     reconfig_q="one")

    def keeper(n):
        return Software(id="k%d" % n, fn="f%d" % n, cores=1,
                        fast_starting=True, resumable=False)

    sys = SystemModel(hw=comps, sw=[keeper(0), keeper(1)], protocols=[pb],
                      sync=True)
    src = Config.make([], [rep_inst("k0", "pb", ["c0"], "c0"),
                           rep_inst("k1", "pb", ["c1"], "c1")])
    swapped = Config.make([], [rep_inst("k0", "pb", ["c1"], "c1"),
                               rep_inst("k1", "pb", ["c0"], "c0")])
    assert can_reconfigure(src, swapped, FS0, sys)
    with pytest.raises(NoWitnessError):
        derive_actions(src, swapped, FS0, sys)
    from resilcfg.oracle import default_max_len, reachable_by_actions
    assert not reachable_by_actions(src, swapped, FS0, sys,
                                    default_max_len(sys, src) + 4)

    # The engine never records such a successor.
    req = ResilienceRequirement(
        fm=FailureModel(bounds=(FailBound(hw_type="Computer", n=1,
                                          max_simult=1),), max_simult=1),
        crit_fns=frozenset({"f0", "f1"}))
    syn = Synthesizer(sys, req)
    syn.build()
    fs = frozenset({"c0"})
    found = syn._find_successor(src, fs, recursive=False)
    if found is not None:
        node, actions = found
        assert (_apply_after_failures(src, fs, actions, sys)
                == syn.state_config(node, fs))


@pytest.mark.parametrize("recursive", [True, False])
def test_found_successor_carries_a_replaying_witness(tiny_sys, tiny_req,
                                                     recursive):
    from resilcfg.synthesis import Synthesizer

    syn = Synthesizer(tiny_sys, tiny_req)
    syn.build()
    src = tiny_config()
    node, actions = syn._find_successor(src, FS_C0, recursive=recursive)
    assert actions
    assert (_apply_after_failures(src, FS_C0, actions, tiny_sys)
            == syn.state_config(node, FS_C0))


def _apply_after_failures(cfg, fs, actions, sys):
    """The configuration ``actions`` lead to from ``cfg`` once the failures
    of ``fs`` have removed its dead instances."""
    state = State(remove_dead(cfg, fs, sys), fs)
    for act in actions:
        state = apply_action(state, act, sys)
    return state.cfg


def test_derived_sequences_stay_valid_on_random_models():
    """Witness sequences replay exactly and never pass through an invalid
    intermediate configuration; where the relation rejects a pair, the
    derivation raises ``NoWitnessError`` and nothing else."""
    import random

    from resilcfg import generate_all_configs, valid_config
    from conftest import small_random_model

    rng = random.Random(404)
    pairs = rejected = 0
    while pairs < 300:
        sys, req, _ = small_random_model(rng, max_computers=2,
                                         max_software=2, max_valid=200)
        universe = generate_all_configs(sys, req)
        fs_opts = [frozenset()] + [frozenset({c})
                                   for c in sys.computers]
        for fs in fs_opts:
            sources = [c for c in universe if remove_dead(c, fs, sys) == c]
            for src in sources[:5]:
                for tgt in universe[:8]:
                    if not can_reconfigure(src, tgt, fs, sys):
                        with pytest.raises(NoWitnessError):
                            derive_actions(src, tgt, fs, sys)
                        rejected += 1
                        continue
                    st = State(src, fs)
                    for act in derive_actions(src, tgt, fs, sys):
                        st = apply_action(st, act, sys)
                        assert valid_config(st.cfg, sys)
                    assert st.cfg == tgt
                    pairs += 1
    assert rejected


def test_relation_is_narrower_than_raw_reachability(tiny_sys):
    """Boundary documentation: action sequences may park a dependent on a
    provider that is later stopped, reaching an end state the relation
    rejects because the dependency no longer holds there.  The relation is
    the authority for reconfiguration planning; the search-based oracle is
    therefore compared against it on the relevant universe, where every
    critical provider is present."""
    from resilcfg.oracle import reachable_by_actions

    cfg = tiny_config(plan_members=("c0",), plan_primary="c0")
    target = Config.make([], [rep_inst("PLAN", "primary-backup",
                                       ["c0", "c1"], "c1")])
    # Grow the planner onto c1 (needs the locator), then stop the locator.
    assert not can_reconfigure(cfg, target, FS0, tiny_sys)
    assert reachable_by_actions(cfg, target, FS0, tiny_sys, 3)
