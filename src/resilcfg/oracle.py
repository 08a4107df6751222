"""Brute-force reference implementations for validating the engine.

Everything here trades performance for obviousness: resilience by literal
recursion over all bursts with successors drawn from every valid
configuration, actions applied with the whole result checked valid,
reachability by breadth-first search over those action applications,
exhaustive enumeration of valid configurations, the relevant
configurations listed one by one, and class sizes counted on the raw
per-host budgets.  A size guard refuses models where the exponential
blowup would bite.
"""

from __future__ import annotations

import itertools
from collections import deque

from .model import (
    Config,
    ModelError,
    SwInst,
    SystemModel,
    quorum_size,
    rep_inst,
    resources_ok,
    valid_config,
)
from .failures import (
    FailedSet,
    State,
    fs_key,
    next_failed_sets,
    remove_dead,
)
from .availability import avail, can_run, live
from .reconfig import (
    ActionRejected,
    ChangeReps,
    Move,
    NoWitnessError,
    Start,
    Stop,
    StopRep,
    can_reconfigure,
    derive_actions,
)
from .enumeration import (
    ResilienceRequirement,
    _critical_masks,
    _placement_options,
    _take,
    enumerate_classes,
)


class GuardExceeded(Exception):
    """The model is too large for exhaustive evaluation."""


def _guard(sys: SystemModel, max_computers=3, max_software=4):
    if len(sys.computers) > max_computers or len(sys.software) > max_software:
        raise GuardExceeded("oracle limited to %d computers / %d software"
                            % (max_computers, max_software))


def all_valid_configs(sys: SystemModel) -> list:
    """Every configuration satisfying the static constraints.

    Per-software placement options that are invalid on their own are pruned
    before the cross product; that is sound because adding instances never
    repairs a validity violation.  The final check still runs on every
    emitted combination.
    """
    _guard(sys)
    computers = list(sys.computers)
    per_sw = []
    for sw in sys.software.values():
        si_sets = []
        for size in range(0, len(computers) + 1):
            for hosts in itertools.combinations(computers, size):
                si_sets.append(tuple(SwInst(sw.id, h) for h in hosts))
        rsi_opts = [None]
        for proto in sys.protocols.values():
            for size in range(1, len(computers) + 1):
                for members in itertools.combinations(computers, size):
                    if proto.active:
                        rsi_opts.append(rep_inst(sw.id, proto.id, members))
                    else:
                        for primary in members:
                            rsi_opts.append(
                                rep_inst(sw.id, proto.id, members, primary))
        opts = []
        for s in si_sets:
            for r in rsi_opts:
                alone = Config.make(s, [r] if r is not None else [])
                if valid_config(alone, sys):
                    opts.append((s, r))
        per_sw.append(opts)

    out = []
    for combo in itertools.product(*per_sw):
        si = [s for si_set, _ in combo for s in si_set]
        rsi = [r for _, r in combo if r is not None]
        cfg = Config.make(si, rsi)
        if valid_config(cfg, sys):
            out.append(cfg)
    out.sort(key=Config.key)
    return out


def relevant_configs(sys: SystemModel, req: ResilienceRequirement) -> list:
    """Every relevant configuration, key-sorted, one leaf of a depth-first
    search per configuration: the reference for the members of
    ``enumeration.enumerate_classes``.

    The search visits the components in id order and their placement
    options in turn, keeps the core and RAM budgets of every computer, and
    keeps a leaf when its present components provide every critical
    functionality.
    """
    options = _placement_options(sys, req)
    crit_masks = _critical_masks(sys, req)
    out = []

    def dfs(i, cores, ram, si, rsi, mask):
        if i == len(options):
            if all(m & mask for m in crit_masks):
                out.append(Config(si, rsi))
            return
        sw, opts = options[i]
        for si_set, rsi_add, hosts, _ in opts:
            left = _take(hosts, sw, cores, ram)
            if left is not None:
                dfs(i + 1, *left, si + si_set, rsi + rsi_add,
                    mask | (1 << i if hosts else 0))

    dfs(0, tuple(c.cores for c in sys.computers.values()),
        tuple(c.ram for c in sys.computers.values()), (), (), 0)
    out.sort(key=Config.key)
    return out


def plain_memo_key(j: int, cores: tuple, ram: tuple) -> tuple:
    """The member count's memo key on the raw per-host budgets, with no
    computer interchangeable with another."""
    return (j, cores, ram)


def plain_class_sizes(sys: SystemModel, req: ResilienceRequirement) -> dict:
    """Signature -> member count of every class, in signature order, with
    the count memoized on the raw budgets: the reference for the symmetric
    memo of ``enumeration.enumerate_classes``."""
    return {cls.sig: cls.size
            for cls in enumerate_classes(sys, req, plain_memo_key)}


def naive_resilient(cfg: Config, fs: FailedSet, req: ResilienceRequirement,
                    sys: SystemModel, _ctx=None) -> bool:
    """Literal recursive resilience: all bursts, all valid successors.

    A successor counts only if an action sequence actually realizes it,
    mirroring the engine: the one-pass relation alone can accept targets
    that interlocking membership changes make unreachable.
    """
    _guard(sys)
    if _ctx is None:
        _ctx = {"universe": all_valid_configs(sys), "memo": {}}
    key = (cfg.key(), fs_key(fs))
    memo = _ctx["memo"]
    if key in memo:
        return memo[key]

    def realizable(src, cand, fs2):
        if not can_reconfigure(src, cand, fs2, sys):
            return False
        try:
            derive_actions(src, cand, fs2, sys)
        except NoWitnessError:
            return False
        return True

    ok = avail(req.crit_fns, cfg, fs, sys)
    if ok:
        for fs2 in next_failed_sets(req.fm, fs, sys):
            src = remove_dead(cfg, fs2, sys)
            if not any(realizable(src, cand, fs2)
                       and naive_resilient(cand, fs2, req, sys, _ctx)
                       for cand in _ctx["universe"]):
                ok = False
                break
    memo[key] = ok
    return ok


def _enabled_actions(state: State, sys: SystemModel):
    """All syntactic action candidates in a state (filtered on application)."""
    computers = list(sys.computers)
    for si in state.cfg.si:
        yield Stop(si)
        for c in computers:
            if c != si.computer:
                yield Move(si, c)
    for r in state.cfg.rsi:
        yield StopRep(r.sw)
        proto = sys.protocol(r.protocol)
        for size in range(1, len(computers) + 1):
            for members in itertools.combinations(computers, size):
                if proto.active:
                    yield ChangeReps(r.sw, members, None)
                else:
                    for primary in members:
                        yield ChangeReps(r.sw, members, primary)
    for sw in sys.software.values():
        for c in computers:
            yield Start(SwInst(sw.id, c))


def naive_apply_action(state: State, action, sys: SystemModel) -> State:
    """Apply one action, enforcing its preconditions, and check the whole
    resulting configuration valid: the reference for
    ``reconfig.apply_action``, which re-checks only what the action touches
    and so needs a valid source."""
    cfg, fs = state.cfg, state.fs
    if isinstance(action, Stop):
        if action.si not in cfg.si:
            raise ActionRejected(action, "instance not present")
        cfg2 = Config.make([s for s in cfg.si if s != action.si], cfg.rsi)
    elif isinstance(action, StopRep):
        r = cfg.rsi_for(action.sw)
        if r is None:
            raise ActionRejected(action, "replicated instance not present")
        cfg2 = Config.make(cfg.si, [x for x in cfg.rsi if x.sw != action.sw])
    elif isinstance(action, Start):
        cfg2 = _naive_start(cfg, fs, action, sys)
    elif isinstance(action, Move):
        cfg2 = _naive_move(cfg, fs, action, sys)
    elif isinstance(action, ChangeReps):
        cfg2 = _naive_change_reps(cfg, fs, action, sys)
    else:
        raise ModelError("unknown action %r" % (action,))
    if not valid_config(cfg2, sys):
        raise ActionRejected(action, "resulting configuration invalid")
    return State(cfg2, fs)


def _naive_start(cfg, fs, action, sys):
    si = action.si
    if si in cfg.si:
        raise ActionRejected(action, "instance already present")
    sw = sys.sw(si.sw)
    if not live(si.computer, fs, sys):
        raise ActionRejected(action, "target computer not live")
    if not sw.startable:
        raise ActionRejected(action, "software not startable "
                                     "(needs fast-starting, stateless, resumable)")
    if sw.single_instance and si.sw in cfg.instance_software():
        raise ActionRejected(action, "single-instance software already running")
    cfg2 = Config.make(cfg.si + (si,), cfg.rsi)
    if not resources_ok(cfg2, sys):
        raise ActionRejected(action, "insufficient resources")
    if not can_run(si.computer, sw, cfg2, fs, sys):
        raise ActionRejected(action, "requirements not met on target computer")
    return cfg2


def _naive_move(cfg, fs, action, sys):
    si, target = action.si, action.target
    if si not in cfg.si:
        raise ActionRejected(action, "instance not present")
    if target == si.computer:
        raise ActionRejected(action, "moving to the same computer")
    sw = sys.sw(si.sw)
    if not sw.movable:
        raise ActionRejected(action, "software not migratable"
                             if not sw.migratable
                             else "persistent state too large to move")
    if not (live(si.computer, fs, sys) and live(target, fs, sys)):
        raise ActionRejected(action, "source and target must both be live")
    moved = SwInst(si.sw, target)
    cfg2 = Config.make([s for s in cfg.si if s != si] + [moved], cfg.rsi)
    if not resources_ok(cfg2, sys):
        raise ActionRejected(action, "insufficient resources")
    if not can_run(target, sw, cfg2, fs, sys):
        raise ActionRejected(action, "requirements not met on target computer")
    return cfg2


def _naive_change_reps(cfg, fs, action, sys):
    r = cfg.rsi_for(action.sw)
    if r is None:
        raise ActionRejected(action, "replicated instance not present")
    sw = sys.sw(action.sw)
    proto = sys.protocol(r.protocol)
    new = rep_inst(r.sw, r.protocol, action.computers,
                   None if proto.active else action.primary)
    cfg2 = Config.make(cfg.si, [x for x in cfg.rsi if x.sw != r.sw] + [new])
    if not resources_ok(cfg2, sys):
        raise ActionRejected(action, "insufficient resources")
    need = quorum_size(proto.reconfig_q, len(r.computers))
    if sum(1 for m in r.computers if live(m, fs, sys)) < need:
        raise ActionRejected(action, "no live reconfiguration quorum")
    if not set(new.computers) <= set(r.computers) and not sw.members_addable:
        raise ActionRejected(action, "cannot add members "
                                     "(software slow-starting or large state)")
    if proto.active:
        for m in new.computers:
            if not can_run(m, sw, cfg2, fs, sys):
                raise ActionRejected(action, "member %s cannot run software" % m)
    else:
        if new.primary is None or new.primary not in new.computers:
            raise ActionRejected(action, "primary must be a member")
        if not live(new.primary, fs, sys):
            raise ActionRejected(action, "primary not live")
        if not can_run(new.primary, sw, cfg2, fs, sys):
            raise ActionRejected(action, "primary cannot run software")
    return cfg2


def reachable_by_actions(cfg: Config, target: Config, fs: FailedSet,
                         sys: SystemModel, max_len: int) -> bool:
    """BFS over ``naive_apply_action`` applications from ``(cfg, fs)`` up
    to ``max_len``."""
    _guard(sys)
    if cfg == target:
        return True
    start = State(cfg, fs)
    seen = {cfg}
    queue = deque([(start, 0)])
    while queue:
        state, depth = queue.popleft()
        if depth == max_len:
            continue
        for action in _enabled_actions(state, sys):
            try:
                nxt = naive_apply_action(state, action, sys)
            except ActionRejected:
                continue
            if nxt.cfg == target:
                return True
            if nxt.cfg not in seen:
                seen.add(nxt.cfg)
                queue.append((nxt, depth + 1))
    return False


def default_max_len(sys: SystemModel, cfg: Config) -> int:
    return len(sys.software) * len(sys.computers) + len(cfg.rsi)
