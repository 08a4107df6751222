"""Resilience analysis, best-configuration search, and policy extraction.

A state is resilient when the critical functionalities are available and,
after every worst-case failure burst, some relevant configuration is
reachable by reconfiguration and is itself resilient.  Worst-case bursts
suffice: anything a system survives when failures arrive all at once it
also survives when they arrive in installments.

The search keeps one context per failed set: its bursts, its successor
candidates, its caches and the memo of the verdicts of the nodes explored
under it.  A node's state representative under a failed set is computed
when first asked for and shared by every failed set that fails the same
computers, and the candidate list is built, in batches, only as far as the
successor scans reach.  A resilient node's memo entry keeps, per burst,
the successor and the witness action sequence that reaches it, so policy
extraction reads policies from the memo.  Recursion always grows the failed
set, so the memo is purely a cache and no cycle detection is needed.  With
full quotient reduction the successor scan visits one deterministic state
representative per equivalence class; verdicts carry over to every class
member because relocatable instances can be re-hosted freely during
reconfiguration.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .model import CRASH, Config, ModelError, SystemModel, valid_config
from .failures import (
    EMPTY_FS,
    FailedSet,
    HostLoss,
    State,
    consistent,
    fs_key,
    next_failed_sets,
    remove_dead,
    worst_next_failed_sets,
)
from .availability import avail
from .reconfig import (
    ActionRejected,
    NoWitnessError,
    apply_action,
    can_reconfigure,
    derive_actions,
)
# ``generate_all_configs``, ``generate_init_configs``, ``partition_members``
# and ``signature`` are not called here, but the benchmark's layer tracer
# (``perfbench/tracer.py``) patches these names in this module.
from .enumeration import (  # noqa: F401
    ResilienceRequirement,
    enumerate_classes,
    generate_all_configs,
    generate_init_configs,
)
from .quotient import (  # noqa: F401
    CanonicalSignature,
    partition_members,
    signature,
)

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
    target_sig: CanonicalSignature
    target_cfg: Config
    actions: tuple


@dataclass
class Policy:
    """Reconfiguration policy: per (state configuration, failed set, burst),
    the action sequence restoring a resilient configuration.  ``model`` is
    the fingerprint of the model the policy was solved for (see
    ``modelio.model_fingerprint``).  Roots are added with ``add_root`` so
    that ``root_config`` finds them."""

    roots: list = field(default_factory=list)  # (signature, root Config)
    entries: dict = field(default_factory=dict)
    model: Optional[str] = None
    # signature -> root Config of its first root; kept by ``add_root``
    _root_index: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def add_root(self, sig, cfg: Config):
        self.roots.append((sig, cfg))
        self._root_index.setdefault(sig, cfg)

    def entry(self, cfg: Config, fs, burst) -> Optional[PolicyEntry]:
        return self.entries.get((cfg, fs_key(fs), fs_key(burst)))

    def root_config(self, sig) -> Optional[Config]:
        return self._root_index.get(sig)


class _MemoEntry(NamedTuple):
    verdict: bool
    successors: tuple  # ((burst, successor node, witness actions), ...)


class _FailedSetContext:
    """What the search keeps for one failed set."""

    __slots__ = ("fs", "dead", "states", "bursts", "candidates", "reached",
                 "canrun", "live", "memo", "avail", "succ")

    def __init__(self, fs: FailedSet, dead: int, states: dict):
        self.fs = fs
        self.dead = dead        # bits of the computers ``fs`` fails
        self.states = states    # node -> state config, shared per ``dead``
        self.bursts = None      # computed by ``_next_bursts``
        self.candidates = []    # grown by ``_grow_candidates``
        self.reached = 0        # nodes the candidates cover, in node order
        self.canrun = {}        # ``can_run`` static cache
        self.live = {}          # hardware id -> live under ``fs``
        self.memo = {}          # node -> _MemoEntry
        self.avail = {}         # node -> one-resilience availability
        self.succ = {}          # (source, recursive) -> (node, actions)/None


def _rsi_pairs(cfg: Config) -> frozenset:
    return frozenset((r.sw, r.protocol) for r in cfg.rsi)


def _pinned_si(cfg: Config, sys: SystemModel) -> frozenset:
    """Instances of software that reconfiguration can neither start fresh
    nor move; a target containing one is reachable only from sources that
    already run it in place."""
    pinned = []
    for si in cfg.si:
        sw = sys.sw(si.sw)
        if not (sw.startable or sw.movable):
            pinned.append(si)
    return frozenset(pinned)


_MISSING = object()
_FIRST_BATCH = 16  # nodes covered by a failed set's first candidates


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
    ``quotient`` selects how much of the class reduction to use, and decides
    only what a search node is and which nodes are roots.  With "full" a
    node is a class signature standing for the class members, and the roots
    are the initial classes.  With "off" and "partial" a node is a
    configuration standing for itself; "off" roots every initial
    configuration, "partial" only the first member of each initial class.
    Everything else runs the same way in every mode.  ``all_classes``,
    ``all_cfgs`` and ``init_cfgs`` list the members after ``build``; they
    are expanded when first read, and a "full" solve reads none of them.
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
        self._host_loss = HostLoss(sys)
        self._states = {}    # failed-computer bits -> {node: state config}
        self._class_of = {}  # signature -> class, in "full"
        self._contexts = {}  # failed set -> _FailedSetContext
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
            firsts = {cls.sig: cls.first for cls in self.classes}
            roots = self.init_sigs
        else:
            self._sig_of = {cfg: sig for sig, members
                            in self.all_classes.items() for cfg in members}
            firsts = {cfg: cfg for cfg in self.all_cfgs}
            roots = (set(self.init_cfgs) if self.quotient == "off" else
                     {self.all_classes[sig][0] for sig in self.init_sigs})
        # A node's first member is its state configuration at every failed
        # set that fails no computer.
        self._states[0] = firsts

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
    def all_cfgs(self) -> list:
        """Every relevant configuration, key-sorted."""
        return sorted(itertools.chain.from_iterable(self.all_classes.values()),
                      key=Config.key)

    @cached_property
    def init_cfgs(self) -> list:
        """Every member of an initial class, key-sorted."""
        return sorted(itertools.chain.from_iterable(
            self.all_classes[sig] for sig in self.init_sigs), key=Config.key)

    # -- state representatives ---------------------------------------------

    def state_config(self, node, fs: FailedSet) -> Optional[Config]:
        """The deterministic concrete configuration explored for ``node``.

        With full quotienting a node is a signature and its state
        configuration is the first class member, in key order, that carries
        no dead instances under ``fs``; otherwise the node is the
        configuration itself, if it carries none.  Which instances are dead
        depends only on the computers ``fs`` fails, so the answers are kept
        in one dict per bitmask of failed computers, each computed when
        first asked for.
        """
        return self._state(self._context(fs), node)

    def _state(self, ctx: _FailedSetContext, node) -> Optional[Config]:
        states = ctx.states
        cfg = states.get(node, _MISSING)
        if cfg is _MISSING:
            dead, keeps = ctx.dead, self._host_loss.keeps
            if self.quotient != "full":
                cfg = node if keeps(node, dead) else None
            else:
                # A search, because relocatable software is startable,
                # never survives host loss and so must sit on live
                # computers.
                cls = self._class_of[node]
                cfg = cls.first_member(dead) if keeps(cls.fixed, dead) \
                    else None
            states[node] = cfg
        return cfg

    def _sig_of_node(self, node) -> CanonicalSignature:
        return node if self.quotient == "full" else self._sig_of[node]

    def _context(self, fs: FailedSet) -> _FailedSetContext:
        ctx = self._contexts.get(fs)
        if ctx is None:
            dead = self._host_loss.dead(fs)
            states = self._states.get(dead)
            if states is None:
                states = self._states[dead] = {}
            ctx = self._contexts[fs] = _FailedSetContext(fs, dead, states)
        return ctx

    def _grow_candidates(self, ctx: _FailedSetContext) -> bool:
        """Extend ``ctx.candidates``, the successor candidates for
        ``ctx.fs`` in descending quality order, over the next batch of
        nodes; False when every node is covered.

        The candidates are the nodes with a state configuration under
        ``ctx.fs``.  Entries carry the candidate's (software, protocol)
        replica pairs so the scan can skip, without evaluating the
        relation, every candidate that would need a replicated instance the
        source does not have.  The list depends only on the failed set, so
        it is shared by every state exploring it, and built only as far as
        its scans reach: each batch covers as many nodes as all earlier
        ones together.
        """
        start = ctx.reached
        if start == len(self._nodes):
            return False
        ctx.reached = min(len(self._nodes), max(2 * start, _FIRST_BATCH))
        for node in self._nodes[start:ctx.reached]:
            cfg = self._state(ctx, node)
            if cfg is not None:
                ctx.candidates.append((node, cfg, _rsi_pairs(cfg),
                                       _pinned_si(cfg, self.sys)))
        return True

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

        Candidates arrive quality-sorted, so the first hit is the best one.
        Per candidate, the source-independent resilience verdict (memoized
        and shared by every state that explores this failed set) is checked
        before the source-specific reconfiguration relation; dead-end states
        then cost almost nothing beyond the failed verdicts already paid
        for.  A relation hit must also admit a concrete witness sequence:
        with several interlocking membership changes the relation alone can
        accept a target no action ordering realizes, and emitted policies
        must replay."""
        ctx = self._context(fs2)
        src = remove_dead(cfg, fs2, self.sys)
        key = (src, recursive)
        hit = ctx.succ.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        src_pairs = _rsi_pairs(src)
        src_si = frozenset(src.si)
        found = None
        cands = ctx.candidates
        segment = cands
        while found is None:
            for node2, cfg2, pairs, pinned in segment:
                if not (pairs <= src_pairs and pinned <= src_si):
                    continue
                if recursive:
                    if not self.resilient_node(node2, fs2):
                        continue
                elif not self._avail_node(node2, cfg2, ctx):
                    continue
                if not can_reconfigure(src, cfg2, fs2, self.sys,
                                       assume_target_valid=True,
                                       static_canrun=ctx.canrun,
                                       live_cache=ctx.live):
                    continue
                try:
                    actions = derive_actions(src, cfg2, fs2, self.sys,
                                             relation_checked=True)
                except NoWitnessError:
                    continue
                found = (node2, actions)
                break
            else:
                # The scan ran past the candidates built so far.
                scanned = len(cands)
                if not self._grow_candidates(ctx):
                    break
                segment = cands[scanned:]
        ctx.succ[key] = found
        return found

    def _avail_node(self, node, cfg: Config, ctx: _FailedSetContext) -> bool:
        hit = ctx.avail.get(node)
        if hit is None:
            hit = ctx.avail[node] = avail(self.req.crit_fns, cfg, ctx.fs,
                                          self.sys)
        return hit

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
            sig = self._sig_of_node(node)
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
        keyed by the state's configuration, which the stack carries: the
        root's at the empty failed set, the recorded target's below it.  So
        with ``off`` and ``partial``, two members of one class explored at
        one failed set keep an entry each.  Only the first root of a
        signature is followed, because replay starts there.
        """
        policy = Policy()
        stack = []
        for node in accepted_roots:
            sig = self._sig_of_node(node)
            if policy.root_config(sig) is None:
                cfg = self.state_config(node, EMPTY_FS)
                policy.add_root(sig, cfg)
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
                policy.entries[(cfg, fs_key(fs), fs_key(burst))] = \
                    PolicyEntry(self._sig_of_node(succ), target, actions)
                stack.append((succ, fs2, target))
        return policy


# -- module-level operations ------------------------------------------------


def resilient(cfg: Config, fs: FailedSet, req: ResilienceRequirement,
              sys: SystemModel) -> bool:
    """Recursive resilience of one state; see ``Synthesizer.check_state``."""
    return Synthesizer(sys, req).check_state(cfg, fs)


def one_resilient(cfg: Config, fs: FailedSet, req: ResilienceRequirement,
                  sys: SystemModel) -> bool:
    """Non-recursive variant: one reconfiguration must restore availability."""
    return Synthesizer(sys, req).check_state_one(cfg, fs)


def solve_resilient(sys: SystemModel, req: ResilienceRequirement,
                    quotient: str = "full") -> SolveResult:
    return Synthesizer(sys, req, quotient).solve("resilient")


def solve_best_resilient(sys: SystemModel, req: ResilienceRequirement,
                         quotient: str = "full") -> SolveResult:
    return Synthesizer(sys, req, quotient).solve("best")


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
    return State(cfg, EMPTY_FS)


def _replay_step(policy: Policy, state: State, burst: FailedSet,
                 sys: SystemModel, req: ResilienceRequirement) -> State:
    """One burst from ``state``: look up its entry, apply the entry's
    actions and check its promises.  The returned state holds the entry's
    own target configuration."""
    fs2 = state.fs | burst
    entry = policy.entry(state.cfg, state.fs, burst)
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
    def names(failures):
        return [f.hw if f.ftype == CRASH else "%s (%s)" % f
                for f in fs_key(failures)]

    return "burst %s at failed set %s" % (names(burst), names(fs))


def worst_burst_schedules(req: ResilienceRequirement, sys: SystemModel,
                          fs: FailedSet = EMPTY_FS, max_depth: int = None):
    """All schedules of worst-case bursts starting from ``fs``."""
    if max_depth is not None and max_depth <= 0:
        return
    for fs2 in worst_next_failed_sets(req.fm, fs, sys):
        burst = fs2 - fs
        yield [burst]
        deeper = worst_burst_schedules(
            req, sys, fs2, None if max_depth is None else max_depth - 1)
        for tail in deeper:
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
    """
    bursts = {EMPTY_FS: worst_next_failed_sets(req.fm, EMPTY_FS, sys)}
    if not bursts[EMPTY_FS]:
        return 0  # no schedule, so not even a root is replayed
    memo = {}  # state -> schedules below it
    n = 0
    for sig, _ in policy.roots:
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
