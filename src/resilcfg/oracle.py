"""Brute-force reference implementations for validating the engine.

Everything here trades performance for obviousness: resilience by literal
recursion over all bursts with successors drawn from every valid
configuration, reachability by breadth-first search over action sequences,
exhaustive enumeration of valid configurations, and the relevant
configurations listed one by one.  A size guard refuses models where the
exponential blowup would bite.
"""

from __future__ import annotations

import itertools
from collections import deque

from .model import (
    Config,
    SwInst,
    SystemModel,
    rep_inst,
    valid_config,
)
from .failures import (
    FailedSet,
    State,
    fs_key,
    next_failed_sets,
    remove_dead,
)
from .availability import avail
from .reconfig import (
    ActionRejected,
    ChangeReps,
    Move,
    NoWitnessError,
    Start,
    Stop,
    StopRep,
    apply_action,
    can_reconfigure,
    derive_actions,
)
from .enumeration import (
    ResilienceRequirement,
    _critical_masks,
    _placement_options,
    _take,
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
        for si_set, rsi_add, hosts in opts:
            left = _take(hosts, sw, cores, ram)
            if left is not None:
                dfs(i + 1, *left, si + si_set, rsi + rsi_add,
                    mask | (1 << i if hosts else 0))

    dfs(0, tuple(c.cores for c in sys.computers.values()),
        tuple(c.ram for c in sys.computers.values()), (), (), 0)
    out.sort(key=Config.key)
    return out


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
            derive_actions(src, cand, fs2, sys, relation_checked=True)
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


def reachable_by_actions(cfg: Config, target: Config, fs: FailedSet,
                         sys: SystemModel, max_len: int) -> bool:
    """BFS over action applications from ``(cfg, fs)`` up to ``max_len``."""
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
                nxt = apply_action(state, action, sys)
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
