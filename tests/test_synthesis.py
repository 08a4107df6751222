"""Resilience predicates, the solver, quality, and policies."""

import dataclasses
import gc
import pathlib
import random

import pytest

from resilcfg import (
    ChangeReps,
    Computer,
    Config,
    Device,
    FailBound,
    FailureModel,
    ModelError,
    NoWitnessError,
    Policy,
    Quality,
    RepProtocol,
    ResilienceRequirement,
    Software,
    Start,
    Stop,
    SwInst,
    Synthesizer,
    SystemModel,
    derive_actions,
    fs_key,
    live,
    load_model,
    quality,
    remove_dead,
    rep_inst,
    replay_schedule,
    signature,
    valid_config,
    verify_policy,
    worst_burst_schedules,
)
from resilcfg import fixtures, modelio
from resilcfg.oracle import all_valid_configs, naive_resilient
from resilcfg.synthesis import QUOTIENT_MODES, PolicyEntry, ReplayError
from conftest import (FS0, FS_C0, over_budget_root, random_model,
                      reachable_failed_sets, tiny_config)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_quality_empty(tiny_sys):
    assert quality(Config(), tiny_sys) == Quality(0, 0)


def test_quality_counts(tiny_sys):
    # Both components preferred: one instance each; replica set costs two.
    assert quality(tiny_config(), tiny_sys) == Quality(2, 3)


def test_quality_ordering():
    better = Quality(5, 6)
    assert better.sort_key() < Quality(4, 2).sort_key()
    assert better.sort_key() < Quality(5, 7).sort_key()


def test_resilient_vacuous():
    sys, req = fixtures.tiny()
    relaxed = ResilienceRequirement(
        fm=FailureModel(bounds=(FailBound(hw_type="Computer", n=0),)),
        crit_fns=frozenset())
    assert Synthesizer(sys, relaxed).check_state(Config(), FS0)


def test_resilient_tiny_replicated(tiny_sys, tiny_req):
    assert Synthesizer(tiny_sys, tiny_req).check_state(tiny_config(), FS0)


def test_not_resilient_unreplicated_planner(tiny_sys, tiny_req):
    cfg = tiny_config(plan_members=None, plan_si="c0")
    assert not Synthesizer(tiny_sys, tiny_req).check_state(cfg, FS0)


def test_resilient_rejects_invalid_state(tiny_sys, tiny_req):
    bad = Config.make([SwInst("LOC", "c0")],
                      [rep_inst("LOC", "primary-backup", ["c0"], "c0")])
    with pytest.raises(ModelError):
        Synthesizer(tiny_sys, tiny_req).check_state(bad, FS0)


def test_check_state_rejects_dead_instances_and_foreign_failed_sets(
        tiny_sys, tiny_req):
    """``LOC`` dies with ``c0``, and the tiny model lets no device fail."""
    syn = Synthesizer(tiny_sys, tiny_req)
    with pytest.raises(ModelError, match="carries dead instances"):
        syn.check_state(tiny_config(), FS_C0)
    with pytest.raises(ModelError, match="inconsistent with failure model"):
        syn.check_state(tiny_config(), frozenset({"g0"}))


def test_one_resilient_implied(tiny_sys, tiny_req):
    cfg = tiny_config()
    syn = Synthesizer(tiny_sys, tiny_req)
    assert syn.check_state(cfg, FS0)
    assert syn.check_state_one(cfg, FS0)


def test_solve_tiny(tiny_sys, tiny_req):
    res = Synthesizer(tiny_sys, tiny_req).solve()
    assert res.counts() == (8, 6, 4, 3, 1)
    sig, q, cfg = res.resilient[0]
    assert q == Quality(2, 3)
    assert cfg.rsi == (rep_inst("PLAN", "primary-backup", ["c0", "c1"],
                                "c0"),)


def test_solve_unsat_reports_empty():
    sys, req = fixtures.unsat()
    res = Synthesizer(sys, req).solve("resilient")
    assert res.n_resilient_classes == 0 and res.resilient == []
    assert res.policy.roots == {}


def test_solve_modes_agree(tiny_sys, tiny_req):
    a = Synthesizer(tiny_sys, tiny_req).solve("resilient")
    b = Synthesizer(tiny_sys, tiny_req).solve()
    assert [s for s, _, _ in a.resilient] == [s for s, _, _ in b.resilient]


def test_policy_has_entries_for_both_bursts(tiny_sys, tiny_req):
    res = Synthesizer(tiny_sys, tiny_req).solve()
    root = next(iter(res.policy.roots.values()))
    for c in ("c0", "c1"):
        entry = res.policy.entries.get((root, FS0, frozenset({c})))
        assert entry is not None
        assert entry.actions  # a real reconfiguration is needed
    assert verify_policy(res.policy, tiny_sys, tiny_req) == 2


def test_policy_roots_keep_the_first_root_of_each_signature(tiny_sys,
                                                            tiny_req):
    """With ``off`` every initial configuration is a root, and several
    members of one class may be accepted; the policy keeps the first."""
    res = Synthesizer(tiny_sys, tiny_req, quotient="off").solve()
    assert len(res.resilient) > len(res.policy.roots) == 1
    sig, _, first = res.resilient[0]
    assert res.policy.root_config(sig) is first
    assert res.policy.root_config("other") is None


def test_policy_replay_detects_missing_entry(tiny_sys, tiny_req):
    res = Synthesizer(tiny_sys, tiny_req).solve()
    sig = next(iter(res.policy.roots))
    with pytest.raises(ReplayError):
        replay_schedule(res.policy, sig,
                        [frozenset({"c0"}), frozenset({"c1"})],
                        tiny_sys, tiny_req)


def test_replay_of_a_signature_that_is_no_root_fails(tiny_sys, tiny_req):
    res = Synthesizer(tiny_sys, tiny_req).solve()
    with pytest.raises(ReplayError, match="^unknown policy root$"):
        replay_schedule(res.policy, "other", [], tiny_sys, tiny_req)


def test_an_entry_leaving_a_functionality_down_fails_verify_and_replay(
        tiny_sys, tiny_req):
    """An entry whose target is what the burst leaves alive replays its
    (empty) action sequence, but the crash of ``c0`` took ``LOC`` down."""
    policy = Synthesizer(tiny_sys, tiny_req).solve().policy
    (sig, root), = policy.roots.items()
    c0 = frozenset({"c0"})
    policy.entries[(root, FS0, c0)] = PolicyEntry(
        remove_dead(root, c0, tiny_sys), ())
    message = "^critical functionality unavailable after reconfiguration$"
    with pytest.raises(ReplayError, match=message):
        verify_policy(policy, tiny_sys, tiny_req)
    with pytest.raises(ReplayError, match=message):
        replay_schedule(policy, sig, [c0], tiny_sys, tiny_req)


def test_empty_roots_empty_policy(tiny_sys, tiny_req):
    syn = Synthesizer(tiny_sys, tiny_req)
    syn.build()
    assert syn.extract_policy([]).entries == {}


def test_memo_determinism(tiny_sys, tiny_req):
    a = Synthesizer(tiny_sys, tiny_req).solve()
    b = Synthesizer(tiny_sys, tiny_req).solve()
    assert [s for s, _, _ in a.resilient] == [s for s, _, _ in b.resilient]
    assert a.policy.entries == b.policy.entries
    assert a.policy.roots == b.policy.roots


def test_policies_replay_on_random_models():
    """Every policy emitted for a random model replays cleanly over every
    worst-case burst schedule."""
    rng = random.Random(777)
    verified = 0
    for _ in range(40):
        sys, req = random_model(rng, max_computers=3, max_software=2)
        res = Synthesizer(sys, req).solve()
        if res.policy.roots:
            verified += verify_policy(res.policy, sys, req)
    assert verified > 50


def test_quality_of_example1_best_root():
    sys, req = fixtures.autonomous_driving_laptop(2)
    res = Synthesizer(sys, req).solve()
    sig, q, cfg = res.resilient[0]
    assert q == Quality(5, 6)
    qualities = [x[1] for x in res.resilient]
    assert qualities == sorted(qualities, key=Quality.sort_key)


# -- state representatives and the verify walk ------------------------------


def test_state_config_is_the_first_member_without_dead_instances():
    """``state_config`` picks the member a scan picks, in every quotient
    mode and under every reachable failed set.  Under "full" that is the
    first member ``remove_dead`` keeps whole whose relocatable instances,
    those outside the class's fixed part, sit on computers ``live`` keeps
    up; under "off" and "partial" it is the node's own configuration when
    ``remove_dead`` keeps it whole."""
    rng = random.Random(4242)
    seen = {"device only": 0, "replicas lost, survives": 0,
            "replicas lost, dropped": 0, "no representative": 0}
    for _ in range(200):
        sys, req = random_model(rng)
        failed_sets = reachable_failed_sets(req, sys)
        for fs in failed_sets:
            if fs and not fs & set(sys.computers):
                seen["device only"] += 1
        for quotient in ("off", "partial", "full"):
            syn = Synthesizer(sys, req, quotient=quotient)
            syn.build()
            fixed = {cls.sig: cls.fixed.si for cls in syn.classes}
            if quotient == "full":
                nodes = [(sig, members, fixed[sig])
                         for sig, members in syn.all_classes.items()]
            else:
                nodes = [(cfg, [cfg], cfg.si)
                         for members in syn.all_classes.values()
                         for cfg in members]
            for fs in failed_sets:
                for node, members, kept in nodes:
                    expected = next((
                        m for m in members if remove_dead(m, fs, sys) == m
                        and all(live(si.computer, fs, sys)
                                for si in m.si if si not in kept)), None)
                    assert syn.state_config(node, fs) is expected
                    if expected is None:
                        seen["no representative"] += 1
                    if quotient != "full":
                        continue
                    for m in members:
                        for r in m.rsi:
                            if set(r.computers) <= fs:
                                kept = sys.sw(r.sw).survives_host_loss
                                seen["replicas lost, survives" if kept
                                     else "replicas lost, dropped"] += 1
    assert all(seen.values()), seen


def _ups_model():
    """``c1`` draws its power from the device ``ups``, ``c2`` has its own;
    the one critical component ``A`` is relocatable, and one device may
    fail."""
    c1 = Computer(id="c1", os="os", cpu_arch="x86", cores=2, ram=64,
                  power={"ups"})
    c2 = dataclasses.replace(c1, id="c2", power=frozenset())
    a = Software(id="A", fn="a", fast_starting=True, resumable=True,
                 remote_use=True)
    pb = RepProtocol(id="primary-backup", sync=True, active=False,
                     progress_q="all", reconfig_q="one")
    sys = SystemModel(hw=[c1, c2, Device(id="ups", device_type="power")],
                      sw=[a], protocols=[pb], sync=True)
    req = ResilienceRequirement(
        fm=FailureModel(bounds=(FailBound(hw_type="Device", n=1),)),
        crit_fns={"a"})
    return sys, req


def test_a_relocatable_instance_leaves_a_computer_that_lost_power():
    """The failure of ``ups`` kills no instance but takes ``c1`` down, so
    the state representative under ``{ups}`` runs ``A`` on ``c2``, and the
    class of ``A`` is resilient: ``A`` starts again on ``c2``."""
    sys, req = _ups_model()
    syn = Synthesizer(sys, req)
    result = syn.solve()
    assert result.counts() == (2, 2, 1, 1, 1)
    on_c1, on_c2 = (Config.make([SwInst("A", c)], []) for c in ("c1", "c2"))
    assert syn.check_state(on_c1) and syn.check_state(on_c2)
    assert verify_policy(result.policy, sys, req) == 1
    entry = result.policy.entries[(on_c1, FS0, frozenset({"ups"}))]
    assert entry == PolicyEntry(on_c2, (Stop(SwInst("A", "c1")),
                                        Start(SwInst("A", "c2"))))


# Random models in which a device ``ups`` powers a computer and devices may
# fail; "full" found fewer resilient classes than the other modes on each.
POWER_SEEDS = (7762, 9522, 9570, 9899, 14867, 16669, 19408, 23339, 24708)


def test_quotient_modes_agree_when_a_computer_loses_power():
    """Every quotient mode finds as many resilient classes, and on the
    models with at most 400 valid configurations every member of every
    initial class gets its class's verdict from the brute-force oracle."""
    checked = 0
    for seed in POWER_SEEDS:
        sys, req = random_model(random.Random(seed))
        assert any("ups" in c.power for c in sys.computers.values())
        assert req.fm.bound_for("Device") is not None
        counts = {Synthesizer(sys, req, quotient=q).solve().counts()
                  for q in QUOTIENT_MODES}
        assert len(counts) == 1, (seed, counts)
        valid = all_valid_configs(sys)
        if len(valid) > 400:
            continue
        syn = Synthesizer(sys, req)
        resilient = {sig for sig, _, _ in syn.solve().resilient}
        ctx = {"universe": valid, "memo": {}}
        for cls in syn.classes:
            if cls.initial:
                for cfg in cls.members():
                    assert (naive_resilient(cfg, FS0, req, sys, ctx)
                            == (cls.sig in resilient)), (seed, cfg)
        checked += 1
    assert checked == 8


def test_verify_policy_counts_every_schedule_of_every_root():
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        sys, req = random_model(rng, max_computers=3, max_software=2)
        res = Synthesizer(sys, req).solve()
        per_root = len(list(worst_burst_schedules(req, sys)))
        assert (verify_policy(res.policy, sys, req)
                == len(res.policy.roots) * per_root)
        checked += bool(res.policy.roots) and per_root > 1
    assert checked > 5


def _stepwise(builder, scale):
    """A driving model whose ``scale - 1`` crashes arrive one per burst."""
    sys, req = builder(scale)
    fm = FailureModel(bounds=(FailBound(hw_type="Computer", n=scale - 1,
                                        max_simult=1),), max_simult=1)
    return sys, ResilienceRequirement(fm=fm, crit_fns=req.crit_fns)


def _replay_each(policy, sys, req):
    """The number of worst-case schedules replayed one by one from every
    root, or the first error."""
    n = 0
    for sig in policy.roots:
        for schedule in worst_burst_schedules(req, sys):
            try:
                replay_schedule(policy, sig, schedule, sys, req)
            except ReplayError as exc:
                return str(exc)
            n += 1
    return n


def test_a_corrupted_deep_entry_fails_verify_and_replay():
    """An entry of a state that only the second burst reaches breaks both
    the verify walk and a replay loop over single schedules, with the same
    first error."""
    sys, req = _stepwise(fixtures.autonomous_driving_phone, 3)
    policy = Synthesizer(sys, req).solve().policy
    per_root = len(list(worst_burst_schedules(req, sys)))
    assert per_root == 4 + 4 * 3  # one crash of four computers, then another
    assert verify_policy(policy, sys, req) == len(policy.roots) * per_root
    key = max((k for k in policy.entries
               if k[1] and policy.entries[k].actions),
              key=lambda k: (k[0].key(), fs_key(k[1]), fs_key(k[2])))
    entry = policy.entries[key]
    policy.entries[key] = entry._replace(actions=entry.actions[:-1])

    first = _replay_each(policy, sys, req)
    assert isinstance(first, str)
    with pytest.raises(ReplayError) as info:
        verify_policy(policy, sys, req)
    assert str(info.value) == first


@pytest.mark.parametrize("quotient", ["off", "partial", "full"])
def test_verify_policy_agrees_with_replaying_each_schedule(quotient):
    """The verify walk counts the schedules a per-schedule replay counts.
    Every mode's policy replays, although with ``off`` and ``partial`` a
    class's states may differ in their configuration."""
    models = [builder(2) for builder in (fixtures.autonomous_driving_laptop,
                                         fixtures.autonomous_driving_phone)]
    models += [_stepwise(fixtures.autonomous_driving_phone, 3)]
    rng = random.Random(5)
    models += [random_model(rng, max_computers=3, max_software=2)
               for _ in range(30)]
    for sys, req in models:
        policy = Synthesizer(sys, req, quotient=quotient).solve().policy
        assert verify_policy(policy, sys, req) == _replay_each(policy, sys, req)


@pytest.mark.parametrize("name", ["example1", "example2", "tiny", "unsat"])
def test_off_mode_policies_of_the_fixtures_replay(name):
    """With quotient ``off`` the search explores several members of one
    class; the policy follows only the member its root records, so every
    worst-case schedule replays."""
    sys, req = load_model(FIXTURES / (name + ".json"))
    result = Synthesizer(sys, req, quotient="off").solve()
    walked = verify_policy(result.policy, sys, req)
    assert walked == _replay_each(result.policy, sys, req)
    assert (walked > 0) == bool(result.resilient)


@pytest.mark.parametrize("quotient", ["off", "partial", "full"])
def test_members_of_one_class_at_one_failed_set_keep_their_own_entries(
        quotient):
    """In the 120th draw, schedule [c0], [c1] from the root
    ``s0@c0 s1@c0 s2 x{c1}`` reaches ``s0@c1 s1@c2 s2 x{c1}`` after c0,
    while another source reaches ``s0@c2 s1@c1 s2 x{c1}``, a member of the
    same class, at the same failed set.  With ``off`` and ``partial`` both
    are search states, and each needs its own entry for c1."""
    rng = random.Random(11)
    for _ in range(120):
        sys, req = random_model(rng, max_computers=3, max_software=3)
    policy = Synthesizer(sys, req, quotient=quotient).solve().policy
    walked = verify_policy(policy, sys, req)
    assert walked == _replay_each(policy, sys, req) > 0


def test_verify_policy_tells_apart_states_of_one_class():
    """An entry whose target is another configuration of the recorded
    target's class leads to a state the policy has no entries for: entries
    are keyed by configuration, because the entries of the configuration
    the search explored need not apply to another member of its class."""
    sys, req = _stepwise(fixtures.autonomous_driving_phone, 3)
    syn = Synthesizer(sys, req)
    policy = syn.solve().policy
    burst = frozenset({"c2"})
    *earlier, cfg = policy.roots.values()
    key = (cfg, FS0, burst)
    entry = policy.entries[key]
    target_sig = signature(entry.target_cfg, sys)
    assert any(signature(policy.entries[(c, FS0, burst)].target_cfg, sys)
               == target_sig for c in earlier)
    src = remove_dead(cfg, burst, sys)
    for other in syn.all_classes[target_sig]:
        if (other == entry.target_cfg
                or remove_dead(other, burst, sys) != other):
            continue
        try:
            actions = derive_actions(src, other, burst, sys)
        except NoWitnessError:
            continue
        break
    policy.entries[key] = PolicyEntry(other, tuple(actions))

    first = _replay_each(policy, sys, req)
    assert isinstance(first, str)
    with pytest.raises(ReplayError) as info:
        verify_policy(policy, sys, req)
    assert str(info.value) == first


def test_replay_rejects_a_root_whose_configuration_is_invalid():
    """Replay validates the configurations actions produce, and the root's
    own: without that check, this policy verifies all three schedules of
    its over-budget root."""
    sys, req = fixtures.autonomous_driving_laptop()
    policy, bad = over_budget_root(sys, req)
    assert not valid_config(bad, sys)
    with pytest.raises(ReplayError, match="root configuration is not valid"):
        verify_policy(policy, sys, req)
    with pytest.raises(ReplayError, match="root configuration is not valid"):
        replay_schedule(policy, next(iter(policy.roots)), [{"c0"}], sys,
                        req)


def test_replay_rejects_a_root_labelled_with_another_signature():
    """Two roots with their signatures swapped: both configurations are
    valid and resilient and keep their entries, so only the label check
    finds the lie."""
    sys, req = fixtures.autonomous_driving_laptop()
    policy = Synthesizer(sys, req).solve().policy
    (sig0, cfg0), (sig1, cfg1) = list(policy.roots.items())[:2]
    roots = dict(policy.roots)
    roots[sig0], roots[sig1] = cfg1, cfg0
    swapped = Policy(roots=roots, entries=policy.entries, model=policy.model)
    message = "root configuration does not have the root's signature"
    with pytest.raises(ReplayError, match=message):
        verify_policy(swapped, sys, req)
    with pytest.raises(ReplayError, match=message):
        replay_schedule(swapped, sig1, [], sys, req)


def _tiny_with_spare_host():
    """The tiny model plus ``c2``, on an OS the planner (now pinned to the
    tiny OS) cannot run on, and ``BIG``, a startable component that fills a
    computer on its own; its best policy and the root state."""
    sys, req = fixtures.tiny()
    c2 = Computer(id="c2", os="other", cpu_arch="arm", cores=4, ram=4096)
    big = Software(id="BIG", fn="big", cores=3, ram=0, fast_starting=True,
                   resumable=True)
    plan = dataclasses.replace(sys.sw("PLAN"), os=sys.computer("c0").os)
    hw = [*sys.computers.values(), c2, *sys.devices.values()]
    sys = SystemModel(hw=hw, sw=[sys.sw("LOC"), plan, big],
                      protocols=sys.protocols.values(), sync=True)
    policy = Synthesizer(sys, req).solve().policy
    verify_policy(policy, sys, req)
    root = next(iter(policy.roots.values()))
    assert root == tiny_config()
    return sys, req, policy, root


def _with_actions(policy, root, failed, actions):
    """``policy`` with the actions of the root's entry for the crash of
    ``failed`` replaced."""
    key = (root, FS0, frozenset({failed}))
    entry = policy.entries[key]
    policy.entries[key] = entry._replace(actions=actions)
    return policy


def test_replay_rejects_a_passive_member_the_software_cannot_run_on():
    """The new primary can run the planner, so only the check of the whole
    result sees that the added backup ``c2`` is incompatible."""
    sys, req, policy, root = _tiny_with_spare_host()
    _with_actions(policy, root, "c0", (
        Start(SwInst("LOC", "c1")), ChangeReps("PLAN", ("c1", "c2"), "c1")))
    with pytest.raises(ReplayError, match="resulting configuration invalid"):
        verify_policy(policy, sys, req)


def test_replay_rejects_a_start_that_overloads_its_host():
    sys, req, policy, root = _tiny_with_spare_host()
    entry = policy.entries[(root, FS0, frozenset({"c1"}))]
    _with_actions(policy, root, "c1",
                  (Start(SwInst("BIG", "c0")),) + entry.actions)
    with pytest.raises(ReplayError, match="insufficient resources"):
        verify_policy(policy, sys, req)


@pytest.mark.parametrize("quotient", ["full", "off"])
def test_a_solved_model_is_freed_by_reference_counting(quotient, tmp_path):
    """The whole path of ``resilcfg solve`` and ``resilcfg replay
    --exhaustive`` leaves no reference cycle behind: with the cyclic
    collector off, it finds nothing to collect afterwards."""
    models = [fixtures.tiny(), fixtures.autonomous_driving_laptop(3),
              fixtures.autonomous_driving_phone(3)]
    models += [random_model(random.Random(i)) for i in range(20)]
    policy_path, report_path = tmp_path / "p.json", tmp_path / "r.json"
    gc.collect()
    gc.disable()
    try:
        for sys, req in models:
            result = Synthesizer(sys, req, quotient=quotient).solve()
            modelio.save_policy(result.policy, policy_path)
            modelio.save_report(result, report_path, "model.json")
            del result
            verify_policy(modelio.load_policy(policy_path), sys, req)
            assert gc.collect() == 0
    finally:
        gc.enable()
