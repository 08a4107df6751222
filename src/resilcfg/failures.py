"""Failure model: failed sets, burst successors, and failure/recovery steps.

A failed set is the frozenset of the ids of the currently failed hardware
components; ids are unique across computers and devices, and every failure
is a crash.  A failure model bounds how many components of each kind may be
down at once (``n`` per bound) and how many may fail faster than the system
can reconfigure (``max_simult``, per bound and globally).  A burst is one
such simultaneous group of failures.  One enumerator lists the failed sets a
burst reaches: every burst for ``next_failed_sets``, the largest ones for
``worst_next_failed_sets``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    CRASH,
    HW_COMPUTER,
    HW_DEVICE,
    Config,
    ModelError,
    SystemModel,
)


FailedSet = frozenset  # of hardware ids

EMPTY_FS: FailedSet = frozenset()


def fs_key(fs: FailedSet) -> tuple:
    """Canonical ordering of a failed set, usable as a dict key."""
    return tuple(sorted(fs))


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
        # Only crashes are modelled: a failed set holds hardware ids alone.
        if self.f_type != CRASH:
            raise ModelError("bad failure type %r (only %r is modelled)"
                             % (self.f_type, CRASH))
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
        keys = [b.hw_type for b in self.bounds]
        if len(keys) != len(set(keys)):
            raise ModelError("duplicate failure bounds")
        if self.max_simult is not None and self.max_simult < 0:
            raise ModelError("max_simult must be >= 0")

    def bound_for(self, hw_type: str) -> Optional[FailBound]:
        for b in self.bounds:
            if b.hw_type == hw_type:
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


def consistent(fs: FailedSet, fm: FailureModel, sys: SystemModel) -> bool:
    """Every failure matches a bound and no bound's count is exceeded."""
    counts = {}
    for h in fs:
        b = fm.bound_for(sys.hw_type(h))
        if b is None:
            return False
        counts[b] = counts.get(b, 0) + 1
    return all(c <= b.n for b, c in counts.items())


def _burst_slots(fm: FailureModel, fs: FailedSet, sys: SystemModel):
    """Per-bound candidate hardware and remaining burst capacity.

    Returns a list of (candidates, cap) with candidates sorted for
    deterministic enumeration.  Hardware matches at most one bound since
    bounds are unique per hardware type.
    """
    slots = []
    for b in fm.bounds:
        if b.hw_type == HW_COMPUTER:
            pool = sys.computer_ids
        else:
            pool = tuple(sys.devices)
        used = sum(1 for h in fs if sys.hw_type(h) == b.hw_type)
        cands = tuple(h for h in pool if h not in fs)
        cap = min(b.n - used, len(cands))
        if b.max_simult is not None:
            cap = min(cap, b.max_simult)
        if cap > 0:
            slots.append((cands, cap))
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
    ``worst`` only those whose burst has the largest permitted size.  A
    burst is one product of per-slot combinations of at most each slot's
    cap; slots hold disjoint hardware, so its size sums its parts' sizes."""
    if not consistent(fs, fm, sys):
        raise ModelError("failed set inconsistent with failure model")
    slots = _burst_slots(fm, fs, sys)
    total = sum(cap for _, cap in slots)
    if fm.max_simult is not None:
        total = min(total, fm.max_simult)
    lo = max(total if worst else 1, 1)
    combos = [[c for t in range(cap + 1)
               for c in itertools.combinations(hw, t)] for hw, cap in slots]
    return sorted((fs.union(*parts) for parts in itertools.product(*combos)
                   if lo <= sum(map(len, parts)) <= total), key=fs_key)


def remove_dead(cfg: Config, fs: FailedSet, sys: SystemModel) -> Config:
    """Drop software instances whose execution cannot usefully resume.

    An instance on failed hardware survives only when its software
    ``survives_host_loss``; a replicated instance survives as long as some
    member is unfailed (membership is not touched here -- that is a
    reconfiguration action).  The result is ``cfg`` itself when nothing
    dies.
    """
    if not fs:
        return cfg
    software = sys.software
    si = [s for s in cfg.si if s.computer not in fs
          or software[s.sw].survives_host_loss]
    rsi = [r for r in cfg.rsi if not fs.issuperset(r.computers)
           or software[r.sw].survives_host_loss]
    if len(si) == len(cfg.si) and len(rsi) == len(cfg.rsi):
        return cfg
    # Filtered canonical tuples stay canonical.
    return Config(tuple(si), tuple(rsi))


def apply_failures(state: State, burst: Iterable[str], sys: SystemModel) -> State:
    """Failure transition: fail a burst, then drop dead instances."""
    burst = frozenset(burst)
    if burst & state.fs:
        raise ModelError("burst overlaps already-failed hardware")
    fs2 = state.fs | burst
    return State(remove_dead(state.cfg, fs2, sys), fs2)


def apply_recovery(state: State, h: str) -> State:
    """Recovery transition: the configuration is left untouched."""
    if h not in state.fs:
        raise ModelError("recovery of a hardware component that is not failed")
    return State(state.cfg, state.fs - {h})
