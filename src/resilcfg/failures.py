"""Failure model: failed sets, burst successors, and failure/recovery steps.

A failed set is the set of currently failed hardware components.  A failure
model bounds how many components of each kind may be down at once (``n`` per
bound) and how many may fail faster than the system can reconfigure
(``max_simult``, per bound and globally).  A burst is one such simultaneous
group of failures.  One enumerator lists the failed sets a burst reaches:
every burst for ``next_failed_sets``, the largest ones for
``worst_next_failed_sets``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .model import (
    CRASH,
    HW_COMPUTER,
    HW_DEVICE,
    Config,
    ModelError,
    SystemModel,
)


class Failure(NamedTuple):
    hw: str
    ftype: str


def crash(hw: str) -> Failure:
    return Failure(hw, CRASH)


FailedSet = frozenset  # of Failure

EMPTY_FS: FailedSet = frozenset()


def fs_key(fs: FailedSet) -> tuple:
    """Canonical ordering of a failed set, usable as a dict key."""
    return tuple(sorted(fs))


def failed_hw(fs: FailedSet) -> frozenset:
    return frozenset(f.hw for f in fs)


@dataclass(frozen=True)
class FailBound:
    """Limit on failures of one type for one kind of hardware."""

    hw_type: str
    f_type: str = CRASH
    n: int = 0
    max_simult: Optional[int] = None

    def __post_init__(self):
        if self.hw_type not in (HW_COMPUTER, HW_DEVICE):
            raise ModelError("bad hardware type %r" % self.hw_type)
        if self.n < 0:
            raise ModelError("failure bound n must be >= 0")
        if self.max_simult is not None and not 0 <= self.max_simult <= self.n:
            raise ModelError("max_simult must be between 0 and n")


@dataclass(frozen=True)
class FailureModel:
    bounds: tuple = ()
    max_simult: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(self.bounds))
        keys = [(b.hw_type, b.f_type) for b in self.bounds]
        if len(keys) != len(set(keys)):
            raise ModelError("duplicate failure bounds")
        if self.max_simult is not None and self.max_simult < 0:
            raise ModelError("max_simult must be >= 0")

    def bound_for(self, hw_type: str, f_type: str) -> Optional[FailBound]:
        for b in self.bounds:
            if b.hw_type == hw_type and b.f_type == f_type:
                return b
        return None


def is_unlimited_rate(fm: FailureModel) -> bool:
    """True when every permitted failure may happen in a single burst."""
    return fm.max_simult is None and all(b.max_simult is None for b in fm.bounds)


@dataclass(frozen=True)
class State:
    """A configuration together with the currently failed hardware."""

    cfg: Config
    fs: FailedSet = EMPTY_FS

    def key(self) -> tuple:
        return (self.cfg.key(), fs_key(self.fs))


def consistent(fs: FailedSet, fm: FailureModel, sys: SystemModel) -> bool:
    """Every failure matches a bound and no bound's count is exceeded."""
    counts = {}
    for f in fs:
        b = fm.bound_for(sys.hw_type(f.hw), f.ftype)
        if b is None:
            return False
        counts[b] = counts.get(b, 0) + 1
    return all(c <= b.n for b, c in counts.items())


def _burst_slots(fm: FailureModel, fs: FailedSet, sys: SystemModel):
    """Per-bound candidate hardware and remaining burst capacity.

    Returns a list of (candidates, cap) with candidates sorted for
    deterministic enumeration.  Hardware matches at most one bound since
    bounds are unique per (hw_type, f_type).
    """
    slots = []
    for b in fm.bounds:
        if b.hw_type == HW_COMPUTER:
            pool = sys.computer_ids
        else:
            pool = tuple(sys.devices)
        used = sum(1 for f in fs
                   if f.ftype == b.f_type and sys.hw_type(f.hw) == b.hw_type)
        cands = tuple(h for h in pool if Failure(h, b.f_type) not in fs)
        cap = min(b.n - used, len(cands))
        if b.max_simult is not None:
            cap = min(cap, b.max_simult)
        if cap > 0:
            slots.append((b.f_type, cands, cap))
    return slots


def next_failed_sets(fm: FailureModel, fs: FailedSet, sys: SystemModel) -> list:
    """All consistent failed sets reachable from ``fs`` by one burst."""
    return _next_sets(fm, fs, sys, worst=False)


def worst_next_failed_sets(fm: FailureModel, fs: FailedSet, sys: SystemModel) -> list:
    """Subset-maximal members of ``next_failed_sets``.

    A burst is maximal exactly when it has the largest total size permitted
    by the per-bound and global rate caps, so maximal bursts are enumerated
    directly instead of generating and filtering all bursts.
    """
    return _next_sets(fm, fs, sys, worst=True)


def _next_sets(fm: FailureModel, fs: FailedSet, sys: SystemModel,
               worst: bool) -> list:
    """The failed sets one burst beyond ``fs``, sorted by ``fs_key``; with
    ``worst`` only those whose burst has the largest permitted size."""
    if not consistent(fs, fm, sys):
        raise ModelError("failed set inconsistent with failure model")
    slots = _burst_slots(fm, fs, sys)
    total = sum(cap for _, _, cap in slots)
    if fm.max_simult is not None:
        total = min(total, fm.max_simult)
    out = []
    for sizes in _size_vectors(slots, total if worst else 1, total):
        for burst in _bursts_of(slots, sizes):
            out.append(fs | burst)
    out.sort(key=fs_key)
    return out


def _size_vectors(slots, lo_total, hi_total):
    """Yield per-slot burst sizes with total in [lo_total, hi_total]."""
    if hi_total < max(lo_total, 1):
        return

    def rec(i, left, acc):
        if i == len(slots):
            if sum(acc) >= lo_total:
                yield tuple(acc)
            return
        _, _, cap = slots[i]
        for t in range(0, min(cap, left) + 1):
            yield from rec(i + 1, left - t, acc + [t])

    yield from rec(0, hi_total, [])


def _bursts_of(slots, sizes):
    per_slot = []
    for (ftype, cands, _), t in zip(slots, sizes):
        per_slot.append([frozenset(Failure(h, ftype) for h in combo)
                         for combo in itertools.combinations(cands, t)])
    for parts in itertools.product(*per_slot):
        yield frozenset().union(*parts)


def remove_dead(cfg: Config, fs: FailedSet, sys: SystemModel) -> Config:
    """Drop software instances whose execution cannot usefully resume.

    An instance on failed hardware survives only when its software
    ``survives_host_loss``; a replicated instance survives as long as some
    member is unfailed (membership is not touched here -- that is a
    reconfiguration action).
    """
    dead = failed_hw(fs)
    if not dead:
        return cfg

    def survives(sw_id):
        return sys.sw(sw_id).survives_host_loss

    si = [s for s in cfg.si if s.computer not in dead or survives(s.sw)]
    rsi = [r for r in cfg.rsi
           if not set(r.computers) <= dead or survives(r.sw)]
    if len(si) == len(cfg.si) and len(rsi) == len(cfg.rsi):
        return cfg
    return Config.make(si, rsi)


class HostLoss:
    """Bitmask form of ``remove_dead`` for one system.

    Each computer gets a bit in ``sys.computer_ids`` order.  ``remove_dead``
    keeps all of a configuration exactly when no unreplicated instance of
    software that does not survive host loss sits on a failed computer and
    every replicated instance of such software keeps a member outside the
    failed computers.  Replicated instances always have members
    (``rep_inst``), and failed devices set no bit, so device failures never
    remove anything.
    """

    def __init__(self, sys: SystemModel):
        self.bits = {c: 1 << i for i, c in enumerate(sys.computer_ids)}
        self.fragile = frozenset(sid for sid, sw in sys.software.items()
                                 if not sw.survives_host_loss)

    def dead(self, fs: FailedSet) -> int:
        """Bits of the failed computers of ``fs``."""
        bits = self.bits
        mask = 0
        for f in fs:
            mask |= bits.get(f.hw, 0)
        return mask

    def keeps(self, cfg: Config, dead: int) -> bool:
        """``remove_dead(cfg, fs) == cfg`` for a failed set ``fs`` whose
        failed computers have the bits ``dead``."""
        bits, fragile = self.bits, self.fragile
        for s in cfg.si:
            if s.sw in fragile and bits[s.computer] & dead:
                return False
        for r in cfg.rsi:
            if r.sw in fragile and all(bits[c] & dead for c in r.computers):
                return False
        return True


def apply_failures(state: State, burst: Iterable[Failure], sys: SystemModel) -> State:
    """Failure transition: fail a burst, then drop dead instances."""
    burst = frozenset(burst)
    if burst & state.fs:
        raise ModelError("burst overlaps already-failed hardware")
    fs2 = state.fs | burst
    return State(remove_dead(state.cfg, fs2, sys), fs2)


def apply_recovery(state: State, f: Failure) -> State:
    """Recovery transition: the configuration is left untouched."""
    if f not in state.fs:
        raise ModelError("recovery of a hardware component that is not failed")
    return State(state.cfg, state.fs - {f})
