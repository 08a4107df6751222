"""Relocatable-software equivalence and the quotient over configurations.

Two valid configurations are equivalent when they differ only in where
relocatable software instances run, host device sets permitting.  A
relocatable instance can always be relocated by a stop and a start during
reconfiguration, so exploring one member per equivalence class preserves
resilience verdicts.

Correctness note: equivalence is decided by comparing canonical signatures
instead of searching for a bijection between relocatable instance sets.  A
software- and device-intersection-preserving bijection between the two sets
exists if and only if the multisets of (software, devices-used-on-host)
pairs coincide, so signature equality and the bijection definition agree.

Signatures are computed in one place, ``Signer``, which ``signature`` and
``partition_members`` share through one signer per system model.  It caches
the two halves of a signature apart, and both caches are exact.  The
replicated half, ``fixed_rsi``, is a function of the replicated instances
alone, so it is cached per ``rsi`` tuple.  The unreplicated half,
``fixed_si`` and ``reloc_bag``, is a function of the unreplicated instances
and of which components are relocatable; and whether a component is
relocatable depends only on the set of software that has instances (a
dependent or a provider counts once however many instances it has), which
is the software of those instances plus the replicated software.  So that
half is cached per (``si`` tuple, replicated software set).  Configurations
of one model share few such keys (3,025 for the 224,720 configurations of
example1 at scale 5), so each key is worked out once.  ``Synthesizer.build``
signs each configuration once, in ``partition_members``, and reads the
initial classes off the class members.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from .model import Config, Software, SystemModel


def relocatable(sw: Software, cfg: Config, sys: SystemModel) -> bool:
    """Whether ``sw`` can be freely re-hosted by reconfiguration in ``cfg``.

    Requires the component to be ``startable``, remotely usable whenever
    some instance in the configuration depends on its functionality, and to
    depend only on remotely usable providers.  The dependency check covers
    replicated as well as unreplicated dependents: a co-location-bound
    dependent of either kind would make the host choice observable.
    """
    return _relocatable_among(sw, set(cfg.instance_software()), sys)


def _relocatable_among(sw: Software, present, sys: SystemModel) -> bool:
    """``relocatable`` in a configuration whose instances are of the
    software ids ``present``."""
    if not sw.startable:
        return False
    needs = sw.fn_req
    for sid in present:
        other = sys.sw(sid)
        if not sw.remote_use and sw.fn in other.fn_req:
            return False
        if other.fn in needs and not other.remote_use:
            return False
    return True


class CanonicalSignature(NamedTuple):
    """Quotient-class key: fixed placements plus a relocatable bag.

    ``fixed_si`` holds instances of non-relocatable software verbatim;
    ``fixed_rsi`` holds all replicated instances; ``reloc_bag`` is a sorted
    multiset of (software id, devices the software uses on its host) pairs.
    All components are sorted tuples, so equal signatures serialize
    identically.
    """

    fixed_si: tuple
    fixed_rsi: tuple
    reloc_bag: tuple


class Signer:
    """Signatures of one system model's configurations, with the caches the
    module docstring describes.  The cached values are functions of the
    model, which does not change after construction.  The signer holds its
    model weakly, so that the registry of ``_signer_for`` does not keep
    models alive."""

    def __init__(self, sys: SystemModel):
        self._sys = weakref.ref(sys)
        self._rsi_part = {}  # rsi tuple -> (fixed_rsi, replicated software)
        self._si_part = {}   # (si tuple, replicated software) -> (fixed, bag)

    def __call__(self, cfg: Config) -> CanonicalSignature:
        rsi_part = self._rsi_part.get(cfg.rsi)
        if rsi_part is None:
            rsi_part = self._rsi_part[cfg.rsi] = (
                tuple((r.sw, r.protocol, r.computers, r.primary or "")
                      for r in cfg.rsi),
                frozenset(r.sw for r in cfg.rsi))
        fixed_rsi, rsi_sw = rsi_part
        key = (cfg.si, rsi_sw)
        si_part = self._si_part.get(key)
        if si_part is None:
            si_part = self._si_part[key] = self._split(cfg.si, rsi_sw)
        return CanonicalSignature(si_part[0], fixed_rsi, si_part[1])

    def _split(self, si_tuple: tuple, rsi_sw: frozenset) -> tuple:
        """(fixed instances, relocatable bag) of unreplicated instances."""
        sys = self._sys()
        present = {si.sw for si in si_tuple} | rsi_sw
        reloc = {sid for sid in present
                 if _relocatable_among(sys.sw(sid), present, sys)}
        fixed = []
        bag = []
        for si in si_tuple:
            if si.sw in reloc:
                devices = (sys.sw(si.sw).devices
                           & sys.computer(si.computer).devices)
                bag.append((si.sw, tuple(sorted(devices))))
            else:
                fixed.append(si)
        return tuple(sorted(fixed)), tuple(sorted(bag))


_SIGNERS = weakref.WeakKeyDictionary()  # SystemModel -> Signer


def _signer_for(sys: SystemModel) -> Signer:
    """The one signer of ``sys``."""
    signer = _SIGNERS.get(sys)
    if signer is None:
        signer = _SIGNERS[sys] = Signer(sys)
    return signer


def signature(cfg: Config, sys: SystemModel) -> CanonicalSignature:
    return _signer_for(sys)(cfg)


def rs_equivalent(cfg1: Config, cfg2: Config, sys: SystemModel) -> bool:
    return signature(cfg1, sys) == signature(cfg2, sys)


def partition_members(cfgs, sys: SystemModel) -> dict:
    """Group configurations by signature; member lists are key-sorted."""
    sign = _signer_for(sys)
    classes = {}
    for cfg in cfgs:
        classes.setdefault(sign(cfg), []).append(cfg)
    for members in classes.values():
        members.sort(key=Config.key)
    return dict(sorted(classes.items()))


def partition_by_class(cfgs, sys: SystemModel) -> dict:
    """One representative per class: the member with the smallest key."""
    return {sig: members[0]
            for sig, members in partition_members(cfgs, sys).items()}
