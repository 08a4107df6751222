"""Resilience analysis, best-configuration search, and policy extraction.

A state is resilient when the critical functionalities are available and,
after every worst-case failure burst, some relevant configuration is
reachable by reconfiguration and is itself resilient.  Worst-case bursts
suffice: anything a system survives when failures arrive all at once it
also survives when they arrive in installments.

The search keeps one context per failed set: its bursts, its successor
candidates, the successor found for each source state and the memo of the
verdicts of the nodes explored under it.  A node's state representative
under a failed set is computed when first asked for and kept by that failed
set's context; its relocatable instances sit on computers that
``availability.live`` keeps up.  A scan visits only the nodes its
source can reach, read off their fixed parts, and the candidate list of a
failed set and reach key is grown only as far as its scans go.  A
resilient node's memo entry keeps, per burst, the successor and the
witness action sequence that reaches it, so policy extraction reads
policies from the memo.
Recursion always grows the failed set, so the memo is purely a cache and no
cycle detection is needed.  With full quotient reduction the successor scan
visits one deterministic state representative per equivalence class;
verdicts carry over to every class member because relocatable instances
can be re-hosted freely during reconfiguration.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .model import Config, ModelError, SystemModel, valid_config
from .failures import (
    EMPTY_FS,
    FailedSet,
    State,
    consistent,
    fs_key,
    next_failed_sets,
    remove_dead,
    worst_next_failed_sets,
)
from .availability import avail, liveness
from .reconfig import (
    ActionRejected,
    NoWitnessError,
    apply_action,
    derive_actions,
)
from .enumeration import (
    QuotientClass, ResilienceRequirement, enumerate_classes)
from .quotient import signature
# These four are not called here, but the benchmark's layer tracer
# (``perfbench/tracer.py``) patches these names in this module.
from .enumeration import (  # noqa: F401
    generate_all_configs, generate_init_configs)
from .quotient import partition_members  # noqa: F401
from .reconfig import can_reconfigure  # noqa: F401

QUOTIENT_MODES = ("off", "partial", "full")


class Quality(NamedTuple):
    """Configuration quality: more preferred instances, then lower cost."""

    qos: int
    cost: int

    def sort_key(self):
        return (-self.qos, self.cost)


def quality(cfg: Config, sys: SystemModel) -> Quality:
    qos = sum(1 for sid in cfg.instance_software() if sys.sw(sid).preferred)
    cost = len(cfg.si) + sum(len(r.computers) for r in cfg.rsi)
    return Quality(qos, cost)


class PolicyEntry(NamedTuple):
    target_cfg: Config
    actions: tuple


@dataclass
class Policy:
    """Reconfiguration policy: per (state configuration, failed set, burst),
    the action sequence restoring a resilient configuration.  ``roots``
    maps each root signature to its configuration, in root order, and
    ``model`` is the fingerprint of the model the policy was solved for
    (see ``modelio.model_fingerprint``)."""

    roots: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)
    model: Optional[str] = None

    def root_config(self, sig) -> Optional[Config]:
        return self.roots.get(sig)


class _MemoEntry(NamedTuple):
    verdict: bool
    successors: tuple  # ((burst, successor node, witness actions), ...)


class _FailedSetContext:
    """What the search keeps for one failed set.  ``succ`` is the only
    cache of the successor scan: the model keeps the failed set's liveness
    (``availability.liveness``), and caching runnability or the
    availability of one-resilience candidates here saved no time."""

    __slots__ = ("fs", "dead", "states", "bursts", "candidates", "memo",
                 "succ")

    def __init__(self, fs: FailedSet, dead: int):
        self.fs = fs
        self.dead = dead        # bits of the computers ``live`` calls down
        self.states = {}        # node -> state config
        self.bursts = None      # computed by ``_next_bursts``
        self.candidates = {}    # reach key -> (unwalked nodes, candidates)
        self.memo = {}          # node -> _MemoEntry
        self.succ = {}          # (source, recursive) -> (node, actions)/None


def _rsi_pairs(cfg: Config) -> frozenset:
    return frozenset((r.sw, r.protocol) for r in cfg.rsi)


def _pinned_si(cfg: Config, sys: SystemModel) -> frozenset:
    """Instances of software that reconfiguration can neither start fresh
    nor move; a target containing one is reachable only from sources that
    already run it in place."""
    return frozenset(si for si in cfg.si if not (sys.sw(si.sw).startable
                                                 or sys.sw(si.sw).movable))


def _reach_key(cfg: Config, sys: SystemModel) -> tuple:
    """``cfg``'s replicated pairs and pinned instances: a source reaches
    only targets whose key lies within its own, part by part.  Both belong
    to a class's fixed part, since relocatable software is startable, so
    all members of a class share one key."""
    return (_rsi_pairs(cfg), _pinned_si(cfg, sys))


_MISSING = object()


@dataclass
class SolveResult:
    resilient: list            # (signature, quality, state config), best first
    policy: Policy
    n_all: int
    n_init: int
    n_all_classes: int
    n_init_classes: int
    n_resilient_classes: int
    quotient: str
    mode: str
    generate_seconds: float
    analyze_seconds: float

    def counts(self) -> tuple:
        return (self.n_all, self.n_init, self.n_all_classes,
                self.n_init_classes, self.n_resilient_classes)


class Synthesizer:
    """Shared search context: the quotient classes, the search nodes and
    the per-failed-set contexts.

    ``build`` enumerates the classes of relevant configurations without
    listing their members (``enumeration.enumerate_classes``).
    Every search node stands for a class (``enumeration.QuotientClass``).
    ``quotient`` selects how much of the class reduction to use, and decides
    only the list of nodes and which of them are roots.  With "full" a
    node is a class signature standing for the class members, and the roots
    are the initial classes.  With "off" and "partial" a node is a
    configuration, kept as a class of one labelled with its class's
    signature; "off" roots every initial configuration, "partial" only the
    first member of each initial class.  Everything else runs the same way
    in every mode.  ``all_classes`` and ``init_cfgs`` list the members
    after ``build``; they are expanded when first read, and a "full" solve
    reads neither.
    """

    def __init__(self, sys: SystemModel, req: ResilienceRequirement,
                 quotient: str = "full", use_worst_bursts: bool = True):
        if quotient not in QUOTIENT_MODES:
            raise ModelError("unknown quotient mode %r" % quotient)
        self.sys = sys
        self.req = req
        self.quotient = quotient
        self.use_worst_bursts = use_worst_bursts
        self._built = False
        # computer -> its bit, in the host order of enumeration's masks
        self._bits = {c: 1 << i for i, c in enumerate(sys.computer_ids)}
        self._class_of = {}  # node -> its class
        self._contexts = {}  # failed set -> _FailedSetContext
        self._reach = {}     # reach key -> the nodes it reaches
        self.generate_seconds = 0.0

    # -- universe ---------------------------------------------------------

    def build(self):
        if self._built:
            return
        t0 = time.perf_counter()
        self.classes = enumerate_classes(self.sys, self.req)
        self.init_sigs = {cls.sig for cls in self.classes if cls.initial}
        if self.quotient == "full":
            self._class_of = {cls.sig: cls for cls in self.classes}
            roots = self.init_sigs
        else:
            self._class_of = {cfg: QuotientClass(sig, cfg, (), (), (), 1)
                              for sig, members in self.all_classes.items()
                              for cfg in members}
            roots = (set(self.init_cfgs) if self.quotient == "off" else
                     {self.all_classes[sig][0] for sig in self.init_sigs})
        # A node's first member is its state configuration at the empty
        # failed set, where every computer is live.
        firsts = self._context(EMPTY_FS).states
        firsts.update((node, cls.first) for node, cls
                      in self._class_of.items())

        def node_order_key(node):
            first = firsts[node]
            return quality(first, self.sys).sort_key() + (first.key(),)

        # Every node, best first; a class sorts by its first member, and
        # every member of a class has its quality.
        self._nodes = sorted(firsts, key=node_order_key)
        self._roots = [node for node in self._nodes if node in roots]
        self.generate_seconds = time.perf_counter() - t0
        self._built = True

    @cached_property
    def all_classes(self) -> dict:
        """Signature -> the class members, key-sorted, in signature order."""
        return {cls.sig: list(cls.members()) for cls in self.classes}

    @cached_property
    def init_cfgs(self) -> list:
        """Every member of an initial class, key-sorted."""
        return sorted(itertools.chain.from_iterable(
            self.all_classes[sig] for sig in self.init_sigs), key=Config.key)

    # -- state representatives ---------------------------------------------

    def state_config(self, node, fs: FailedSet) -> Optional[Config]:
        """The deterministic concrete configuration explored for ``node``.

        It is the first member of the node's class, in key order, that
        carries no dead instances under ``fs`` and whose relocatable
        instances sit on computers ``availability.live`` keeps up.  With
        "off" and "partial" the class has one member, the node's
        configuration, and all of it counts as fixed.  Each answer is
        computed when first asked for and kept in ``fs``'s context.
        """
        return self._state(self._context(fs), node)

    def _state(self, ctx: _FailedSetContext, node) -> Optional[Config]:
        states = ctx.states
        cfg = states.get(node, _MISSING)
        if cfg is _MISSING:
            # A fixed part on an unpowered computer is kept, as
            # ``remove_dead`` keeps it.  Relocatable software is startable,
            # so it never survives host loss and must sit on the computers
            # ``live`` keeps up: a search outside ``ctx.dead``.
            cls = self._class_of[node]
            fixed = cls.fixed
            cfg = states[node] = (
                cls.first_member(ctx.dead)
                if remove_dead(fixed, ctx.fs, self.sys) is fixed else None)
        return cfg

    def _context(self, fs: FailedSet) -> _FailedSetContext:
        ctx = self._contexts.get(fs)
        if ctx is None:
            up = liveness(fs, self.sys).hw
            dead = sum(bit for c, bit in self._bits.items() if c not in up)
            ctx = self._contexts[fs] = _FailedSetContext(fs, dead)
        return ctx

    @cached_property
    def _needs(self) -> list:
        """(node, reach key), best first, equal keys stored once; built by
        the first scan."""
        firsts, shared, needs = self._contexts[EMPTY_FS].states, {}, []
        for node in self._nodes:
            key = _reach_key(firsts[node], self.sys)
            needs.append((node, shared.setdefault(key, key)))
        return needs

    def _candidates(self, ctx: _FailedSetContext, reach: tuple):
        """(node, state configuration), best first, for each node that a
        source with reach key ``reach`` can reach and that has a state
        configuration under ``ctx.fs``.  The list is kept per failed set
        and reach key, and grown one reachable node at a time only as far
        as the scans go."""
        entry = ctx.candidates.get(reach)
        if entry is None:
            nodes = self._reach.get(reach)
            if nodes is None:
                nodes = self._reach[reach] = [
                    node for node, (pairs, pinned) in self._needs
                    if pairs <= reach[0] and pinned <= reach[1]]
            entry = ctx.candidates[reach] = (iter(nodes), [])
        unwalked, cands = entry
        i = 0
        while True:
            if i == len(cands):
                for node in unwalked:
                    cfg = self._state(ctx, node)
                    if cfg is not None:
                        cands.append((node, cfg))
                        break
                else:
                    return
            yield cands[i]
            i += 1

    def _next_bursts(self, ctx: _FailedSetContext) -> list:
        if ctx.bursts is None:
            nxt = (worst_next_failed_sets if self.use_worst_bursts
                   else next_failed_sets)
            ctx.bursts = nxt(self.req.fm, ctx.fs, self.sys)
        return ctx.bursts

    # -- the resilience recursion -------------------------------------------

    def resilient_node(self, node, fs: FailedSet) -> bool:
        ctx = self._context(fs)
        entry = ctx.memo.get(node)
        if entry is None:
            entry = _MemoEntry(False, ())
            cfg = self._state(ctx, node)
            if cfg is not None and avail(self.req.crit_fns, cfg, fs, self.sys):
                successors = self._successors(cfg, ctx, recursive=True)
                if successors is not None:
                    entry = _MemoEntry(True, successors)
            ctx.memo[node] = entry
        return entry.verdict

    def _successors(self, cfg: Config, ctx: _FailedSetContext,
                    recursive: bool) -> Optional[tuple]:
        """((burst, successor node, witness actions), ...) from the state
        ``cfg``/``ctx.fs``, one per next failed set; None as soon as one
        burst has no successor."""
        successors = []
        for fs2 in self._next_bursts(ctx):
            found = self._find_successor(cfg, fs2, recursive)
            if found is None:
                return None
            successors.append((fs2 - ctx.fs,) + found)
        return tuple(successors)

    def _find_successor(self, cfg: Config, fs2: FailedSet, recursive: bool):
        """Best-quality successor that is reachable and (one-)resilient after
        the burst that leads to ``fs2``, as (node, witness actions); None
        when there is none.

        Candidates arrive quality-sorted, so the first hit is the best one,
        and only nodes the source can reach are candidates.  Per
        candidate, the source-independent resilience verdict (memoized and
        shared by every state that explores this failed set) is checked
        first; dead-end states then cost almost nothing beyond the failed
        verdicts already paid for.  The witness search then evaluates the
        source-specific reconfiguration relation once and also rejects a
        target whose difference actions deadlock in every ordering, as
        interlocking membership changes can, so emitted policies replay."""
        ctx = self._context(fs2)
        src = remove_dead(cfg, fs2, self.sys)
        key = (src, recursive)
        hit = ctx.succ.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        found = None
        for node2, cfg2 in self._candidates(ctx, _reach_key(src, self.sys)):
            if recursive:
                if not self.resilient_node(node2, fs2):
                    continue
            elif not avail(self.req.crit_fns, cfg2, fs2, self.sys):
                continue
            try:
                actions = derive_actions(src, cfg2, fs2, self.sys)
            except NoWitnessError:
                continue
            found = (node2, actions)
            break
        ctx.succ[key] = found
        return found

    # -- public state predicates --------------------------------------------

    def check_state(self, cfg: Config, fs: FailedSet = EMPTY_FS) -> bool:
        """Resilience of an arbitrary valid state (not only universe members)."""
        return self._check(cfg, fs, recursive=True)

    def check_state_one(self, cfg: Config, fs: FailedSet = EMPTY_FS) -> bool:
        """One-resilience: successors need only restore availability."""
        return self._check(cfg, fs, recursive=False)

    def _check(self, cfg: Config, fs: FailedSet, recursive: bool) -> bool:
        if not valid_config(cfg, self.sys):
            raise ModelError("state configuration is not valid")
        if remove_dead(cfg, fs, self.sys) != cfg:
            raise ModelError("state configuration carries dead instances")
        if not consistent(fs, self.req.fm, self.sys):
            raise ModelError("failed set inconsistent with failure model")
        self.build()
        return (avail(self.req.crit_fns, cfg, fs, self.sys)
                and self._successors(cfg, self._context(fs),
                                     recursive) is not None)

    # -- the top-level solve -------------------------------------------------

    def solve(self, mode: str = "best") -> SolveResult:
        if mode not in ("resilient", "best"):
            raise ModelError("unknown solve mode %r" % mode)
        self.build()
        t0 = time.perf_counter()

        accepted = [node for node in self._roots
                    if self.resilient_node(node, EMPTY_FS)]
        policy = self.extract_policy(accepted)
        analyze = time.perf_counter() - t0
        from .modelio import model_fingerprint  # modelio imports this module
        policy.model = model_fingerprint(self.sys, self.req)

        resilient_list = []
        for node in accepted:
            sig = self._class_of[node].sig
            cfg = self.state_config(node, EMPTY_FS)
            resilient_list.append((sig, quality(cfg, self.sys), cfg))

        return SolveResult(
            resilient=resilient_list,
            policy=policy,
            n_all=sum(cls.size for cls in self.classes),
            n_init=sum(cls.size for cls in self.classes if cls.initial),
            n_all_classes=len(self.classes),
            n_init_classes=len(self.init_sigs),
            n_resilient_classes=len({sig for sig, _, _ in resilient_list}),
            quotient=self.quotient,
            mode=mode,
            generate_seconds=self.generate_seconds,
            analyze_seconds=analyze,
        )

    # -- policy ---------------------------------------------------------------

    def extract_policy(self, accepted_roots) -> Policy:
        """Policy closure over everything reachable from the accepted roots.

        Every recorded state is a class state representative, and every
        entry's target is the state representative the verdicts were
        computed on, so replaying entries keeps landing on states that have
        entries of their own until the failed set is maximal.  Entries are
        keyed by the search's own failed sets and by the state's
        configuration, which the stack carries: the root's at the empty
        failed set, the recorded target's below it.  So
        with ``off`` and ``partial``, two members of one class explored at
        one failed set keep an entry each.  Only the first root of a
        signature is followed, because replay starts there.
        """
        policy = Policy()
        stack = []
        for node in accepted_roots:
            sig = self._class_of[node].sig
            if sig not in policy.roots:
                cfg = policy.roots[sig] = self.state_config(node, EMPTY_FS)
                stack.append((node, EMPTY_FS, cfg))
        done = set()
        while stack:
            node, fs, cfg = stack.pop()
            key = (node, fs)
            if key in done:
                continue
            done.add(key)
            entry = self._context(fs).memo.get(node)
            if entry is None or not entry.verdict:
                raise ModelError("policy extraction from an unexplored state")
            for burst, succ, actions in entry.successors:
                fs2 = fs | burst
                target = self.state_config(succ, fs2)
                policy.entries[(cfg, fs, burst)] = PolicyEntry(target, actions)
                stack.append((succ, fs2, target))
        return policy


# -- policy replay ------------------------------------------------------------


class ReplayError(Exception):
    """A policy replay found a gap: no entry, a rejected action, or an
    availability hole."""


def replay_schedule(policy: Policy, root_sig, bursts, sys: SystemModel,
                    req: ResilienceRequirement) -> State:
    """Apply a burst schedule from a policy root, verifying the policy's
    promises at every step; returns the final state."""
    state = _replay_root(policy, root_sig, sys, req)
    for burst in bursts:
        state = _replay_step(policy, state, frozenset(burst), sys, req)
    return state


def _replay_root(policy: Policy, root_sig, sys: SystemModel,
                 req: ResilienceRequirement) -> State:
    cfg = policy.root_config(root_sig)
    if cfg is None:
        raise ReplayError("unknown policy root")
    if not valid_config(cfg, sys):
        raise ReplayError("the root configuration is not valid")
    if not avail(req.crit_fns, cfg, EMPTY_FS, sys):
        raise ReplayError("critical functionality unavailable at the root")
    if signature(cfg, sys) != root_sig:
        raise ReplayError("the root configuration does not have the "
                          "root's signature")
    return State(cfg, EMPTY_FS)


def _replay_step(policy: Policy, state: State, burst: FailedSet,
                 sys: SystemModel, req: ResilienceRequirement) -> State:
    """One burst from ``state``: look up its entry, apply the entry's
    actions and check its promises.  The returned state holds the entry's
    own target configuration."""
    fs2 = state.fs | burst
    entry = policy.entries.get((state.cfg, state.fs, burst))
    if entry is None:
        raise ReplayError("no policy entry for " + _where(burst, state.fs))
    st = State(remove_dead(state.cfg, fs2, sys), fs2)
    for act in entry.actions:
        try:
            st = apply_action(st, act, sys)
        except ActionRejected as exc:
            raise ReplayError("%s, on %s"
                              % (exc, _where(burst, state.fs))) from None
    if st.cfg != entry.target_cfg:
        raise ReplayError("action sequence did not produce the "
                          "recorded target configuration")
    if not avail(req.crit_fns, st.cfg, st.fs, sys):
        raise ReplayError("critical functionality unavailable after "
                          "reconfiguration")
    return State(entry.target_cfg, fs2)


def _where(burst: FailedSet, fs: FailedSet) -> str:
    return "burst %s at failed set %s" % (list(fs_key(burst)),
                                          list(fs_key(fs)))


def worst_burst_schedules(req: ResilienceRequirement, sys: SystemModel,
                          fs: FailedSet = EMPTY_FS):
    """All schedules of worst-case bursts starting from ``fs``."""
    for fs2 in worst_next_failed_sets(req.fm, fs, sys):
        burst = fs2 - fs
        yield [burst]
        for tail in worst_burst_schedules(req, sys, fs2):
            yield [burst] + tail


def verify_policy(policy: Policy, sys: SystemModel,
                  req: ResilienceRequirement) -> int:
    """Replay every worst-case schedule from every root; returns the number
    of schedules verified.  Raises ReplayError on any gap.

    The schedules of a root form a tree of bursts, which is walked once in
    the order ``worst_burst_schedules`` lists the schedules, so the first
    gap raised is the one a per-schedule ``replay_schedule`` loop raises
    first.  A state reached again, from this root or an earlier one, is
    not walked again, and the bursts of each failed set are computed once.
    Every root is checked, even when the failure model allows no burst.
    """
    bursts = {}
    memo = {}  # state -> schedules below it
    n = 0
    for sig in policy.roots:
        n += _verify_below(policy, _replay_root(policy, sig, sys, req), sys,
                           req, memo, bursts)
    return n


def _verify_below(policy: Policy, state: State, sys: SystemModel,
                  req: ResilienceRequirement, memo: dict,
                  bursts: dict) -> int:
    n = memo.get(state)
    if n is not None:
        return n
    nxt = bursts.get(state.fs)
    if nxt is None:
        nxt = bursts[state.fs] = worst_next_failed_sets(req.fm, state.fs,
                                                        sys)
    n = 0
    for fs2 in nxt:
        state2 = _replay_step(policy, state, fs2 - state.fs, sys, req)
        n += 1 + _verify_below(policy, state2, sys, req, memo, bursts)
    memo[state] = n
    return n
