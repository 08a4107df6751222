"""Reconfiguration actions, their transition semantics, and the
direct characterization of the reconfiguration relation.

``_difference`` is the one statement of the relation's clauses: it maps
each difference between a source and a target configuration to the action
that produces it, or finds a difference that no action produces.
``can_reconfigure`` asks it whether a target is reachable in one pass;
``derive_actions``, which the solver's successor scan calls alone, orders
its actions into a witness sequence whose step-by-step application stays
valid throughout.  The relation and the actions read what a host must
provide from ``availability.can_run``.

``apply_action`` expects a valid source configuration and re-checks only
what the action touches, so a valid source gives a valid result.  Its
callers start from valid configurations: the witness search from a valid
state with its dead instances removed (which drops whole instances only),
and policy replay from a root it checks with ``valid_config``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

from .model import (
    Config,
    ModelError,
    SwInst,
    SystemModel,
    quorum_size,
    rep_inst,
    run,
    valid_config,
)
from .failures import FailedSet, State
from .availability import can_run, live
from . import model


class ActionRejected(Exception):
    """An action's precondition does not hold; names the violated clause."""

    def __init__(self, action, clause: str):
        super().__init__("%s rejected: %s" % (describe_action(action), clause))
        self.action = action
        self.clause = clause


class NoWitnessError(Exception):
    """No action sequence realizes the requested reconfiguration."""


@dataclass(frozen=True)
class Stop:
    si: SwInst


@dataclass(frozen=True)
class StopRep:
    sw: str


@dataclass(frozen=True)
class Start:
    si: SwInst


@dataclass(frozen=True)
class Move:
    si: SwInst
    target: str


@dataclass(frozen=True)
class ChangeReps:
    sw: str
    computers: tuple
    primary: Optional[str]


def describe_action(a) -> str:
    if isinstance(a, Stop):
        return "stop(%s@%s)" % (a.si.sw, a.si.computer)
    if isinstance(a, StopRep):
        return "stopRep(%s)" % a.sw
    if isinstance(a, Start):
        return "start(%s@%s)" % (a.si.sw, a.si.computer)
    if isinstance(a, Move):
        return "move(%s@%s -> %s)" % (a.si.sw, a.si.computer, a.target)
    if isinstance(a, ChangeReps):
        tail = (", primary=%s" % a.primary) if a.primary else ""
        return "changeReps(%s, {%s}%s)" % (a.sw, ",".join(a.computers), tail)
    raise ModelError("unknown action %r" % (a,))


def can_reconfigure(cfg: Config, target: Config, fs: FailedSet,
                    sys: SystemModel) -> bool:
    """The reconfiguration relation: the target is valid and every
    difference from ``cfg`` is producible by some action (``_difference``).

    Expects ``cfg`` to be free of dead instances (callers apply
    ``remove_dead`` after a failure burst first).  The solver's successor
    scan calls ``derive_actions`` alone, which evaluates the relation.
    """
    if not valid_config(target, sys):
        return False
    return _difference(cfg, target, fs, sys) is not None


def _difference(cfg: Config, target: Config, fs: FailedSet,
                sys: SystemModel) -> Optional[list]:
    """The actions producing the differences from ``cfg`` to ``target``
    under ``fs``, in phase order: stops, stopReps, shrinking membership
    changes, moves, starts, growing membership changes.  None when some
    difference has no action:

    * a new replicated instance, or a protocol change;
    * a new unreplicated instance on a dead computer;
    * a new unreplicated instance whose software is not ``startable`` and
      has no donor: a move needs ``movable`` software and a live removed
      instance of it, taken in sorted order, each donating one move;
    * a new unreplicated instance whose computer cannot run it in the
      target (``availability.can_run``);
    * a replica-set or primary change that violates a clause of
      ``_replica_change_fault``, the one statement of the clauses that
      ``apply_action`` checks for a ``ChangeReps``: a live reconfiguration
      quorum of the old members; members added only for software whose
      ``members_addable`` holds; all members (active) or the live new
      primary (passive) can run the software in the target.
    """
    src_rsi = {r.sw: r for r in cfg.rsi}
    for r2 in target.rsi:
        r1 = src_rsi.get(r2.sw)
        if r1 is None or r1.protocol != r2.protocol:
            return None

    src_si = set(cfg.si)
    tgt_si = set(target.si)
    removed = [s for s in cfg.si if s not in tgt_si]
    moves, starts = [], []
    for si in target.si:
        if si in src_si:
            continue
        sw = sys.sw(si.sw)
        if not live(si.computer, fs, sys):
            return None
        if sw.startable:
            starts.append(Start(si))
        else:
            donor = next((r for r in removed
                          if r.sw == si.sw and live(r.computer, fs, sys)),
                         None) if sw.movable else None
            if donor is None:
                return None
            removed.remove(donor)
            moves.append(Move(donor, si.computer))
        if not can_run(si.computer, sw, target, fs, sys):
            return None

    tgt_rsi = {r.sw: r for r in target.rsi}
    stop_reps, shrinks, grows = [], [], []
    for r1 in cfg.rsi:
        r2 = tgt_rsi.get(r1.sw)
        if r2 is None:
            stop_reps.append(StopRep(r1.sw))
        elif r1 != r2:
            if _replica_change_fault(r1, r2, target, fs, sys):
                return None
            act = ChangeReps(r2.sw, r2.computers, r2.primary)
            if set(r2.computers) <= set(r1.computers):
                shrinks.append(act)
            else:
                grows.append(act)
    return ([Stop(s) for s in removed] + stop_reps + shrinks + moves
            + starts + grows)


def _replica_change_fault(old, new, cfg2: Config, fs: FailedSet,
                          sys: SystemModel) -> Optional[str]:
    """The first clause that changing replicated instance ``old`` into
    ``new``, giving ``cfg2``, violates under ``fs``, in ``ActionRejected``'s
    words; None when it violates none."""
    proto = sys.protocol(old.protocol)
    need = quorum_size(proto.reconfig_q, len(old.computers))
    if sum(1 for m in old.computers if live(m, fs, sys)) < need:
        return "no live reconfiguration quorum"
    sw = sys.sw(old.sw)
    if not (sw.members_addable or set(new.computers) <= set(old.computers)):
        return "cannot add members (software slow-starting or large state)"
    if proto.active:
        for m in new.computers:
            if not can_run(m, sw, cfg2, fs, sys):
                return "member %s cannot run software" % m
    elif new.primary is None or new.primary not in new.computers:
        return "primary must be a member"
    elif not live(new.primary, fs, sys):
        return "primary not live"
    elif not can_run(new.primary, sw, cfg2, fs, sys):
        return "primary cannot run software"
    return None


def apply_action(state: State, action, sys: SystemModel) -> State:
    """Apply one action, enforcing its preconditions; the failed set is
    unchanged.

    The source configuration must be valid (``model.valid_config``), and
    then so is the result: only what the action touches is checked again.
    Stops need no check.  A start or a move checks the core and RAM budget
    of its new host, and a membership change those of the added members;
    a passive one also checks that the added members are compatible
    (clause "resulting configuration invalid"), which
    ``availability.can_run`` covers for active members.  The other clauses
    of a membership change are ``_replica_change_fault``'s, which
    ``_difference`` shares.
    ``oracle.naive_apply_action`` is the reference that checks the whole
    result.
    """
    cfg, fs = state.cfg, state.fs
    if isinstance(action, Stop):
        if action.si not in cfg.si:
            raise ActionRejected(action, "instance not present")
        cfg2 = Config(tuple(s for s in cfg.si if s != action.si), cfg.rsi)
    elif isinstance(action, StopRep):
        if cfg.rsi_for(action.sw) is None:
            raise ActionRejected(action, "replicated instance not present")
        cfg2 = Config(cfg.si, tuple(r for r in cfg.rsi if r.sw != action.sw))
    elif isinstance(action, Start):
        cfg2 = _apply_start(cfg, fs, action, sys)
    elif isinstance(action, Move):
        cfg2 = _apply_move(cfg, fs, action, sys)
    elif isinstance(action, ChangeReps):
        cfg2 = _apply_change_reps(cfg, fs, action, sys)
    else:
        raise ModelError("unknown action %r" % (action,))
    return State(cfg2, fs)


def _fits(c: str, cfg: Config, sys: SystemModel) -> bool:
    """The core and RAM budgets of computer ``c`` hold in ``cfg``."""
    comp = sys.computer(c)
    sws = [sys.software[s] for s in run(c, cfg, sys)]
    return (sum(sw.cores for sw in sws) <= comp.cores
            and sum(sw.ram for sw in sws) <= comp.ram)


def _apply_start(cfg, fs, action, sys):
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
    si2 = list(cfg.si)
    insort(si2, si)
    cfg2 = Config(tuple(si2), cfg.rsi)
    if not _fits(si.computer, cfg2, sys):
        raise ActionRejected(action, "insufficient resources")
    if not can_run(si.computer, sw, cfg2, fs, sys):
        raise ActionRejected(action, "requirements not met on target computer")
    return cfg2


def _apply_move(cfg, fs, action, sys):
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
    si2 = [s for s in cfg.si if s != si]
    if moved not in si2:
        insort(si2, moved)
    cfg2 = Config(tuple(si2), cfg.rsi)
    if not _fits(target, cfg2, sys):
        raise ActionRejected(action, "insufficient resources")
    if not can_run(target, sw, cfg2, fs, sys):
        raise ActionRejected(action, "requirements not met on target computer")
    return cfg2


def _apply_change_reps(cfg, fs, action, sys):
    r = cfg.rsi_for(action.sw)
    if r is None:
        raise ActionRejected(action, "replicated instance not present")
    sw = sys.sw(action.sw)
    proto = sys.protocol(r.protocol)
    new = rep_inst(r.sw, r.protocol, action.computers,
                   None if proto.active else action.primary)
    # ``rsi`` is sorted by software id, so the new instance takes the old
    # one's place.
    cfg2 = Config(cfg.si, tuple(new if x is r else x for x in cfg.rsi))
    added = [m for m in new.computers if m not in r.computers]
    if not all(_fits(m, cfg2, sys) for m in added):
        raise ActionRejected(action, "insufficient resources")
    fault = _replica_change_fault(r, new, cfg2, fs, sys)
    if fault is not None:
        raise ActionRejected(action, fault)
    if not proto.active and not all(model.compatible(sw, sys.computer(m))
                                    for m in added):
        raise ActionRejected(action, "resulting configuration invalid")
    return cfg2


# -- witness derivation ---------------------------------------------------


def derive_actions(cfg: Config, target: Config, fs: FailedSet,
                   sys: SystemModel) -> tuple:
    """An action sequence turning ``cfg`` into ``target`` under ``fs``.

    A depth-first search over orderings of ``_difference``'s actions.  At
    each step it applies the first applicable action in their phase order,
    so capacity is freed before it is consumed, and its first descent is
    that phase order.  It backtracks only out of a dead end, which
    dependencies can cause: a membership change may need a provider that
    is itself being restarted.

    Raises ``NoWitnessError`` when some difference has no action, or when
    no ordering of the difference actions reaches the target: every action
    keeps the configuration valid, so an invalid target is never reached,
    and interlocking replica-membership changes can deadlock (e.g. two
    replica sets swapping hosts with no spare capacity anywhere).  So the
    solver's successor scan calls it alone as its relation check.
    """
    pending = _difference(cfg, target, fs, sys)
    if pending is None:
        raise NoWitnessError("reconfiguration relation does not hold")
    order = []
    # A state is (configuration, bitmask of the pending actions left).  The
    # mask shrinks along a path and a success ends the search, so a state
    # met again is a dead end: only dead ends are kept, and a search that
    # never backtracks hashes no state.
    dead_ends = set()

    def search(st, remaining):
        if not remaining:
            return st.cfg == target
        if dead_ends and (st.cfg, remaining) in dead_ends:
            return False
        for i, act in enumerate(pending):
            if not remaining >> i & 1:
                continue
            try:
                st2 = apply_action(st, act, sys)
            except ActionRejected:
                continue
            order.append(act)
            if search(st2, remaining & ~(1 << i)):
                return True
            order.pop()
        dead_ends.add((st.cfg, remaining))
        return False

    try:
        if not search(State(cfg, fs), (1 << len(pending)) - 1):
            raise NoWitnessError("no valid ordering of the difference actions")
    finally:
        search = None  # it refers to itself: break the cycle
    return tuple(order)
