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

The solver signs no configuration: ``enumeration`` enumerates the classes
directly, each with its signature, and every search node keeps the
signature of its class.  ``signature`` checks a replayed root against its
label; with ``partition_members`` it signs and groups listed configurations
as the tests' reference for the class enumerator.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Config, Software, SystemModel, _rsi_key


def relocatable(sw: Software, cfg: Config, sys: SystemModel) -> bool:
    """Whether ``sw`` can be freely re-hosted by reconfiguration in ``cfg``.

    Requires the component to be ``startable``, remotely usable whenever
    some instance in the configuration depends on its functionality, and to
    depend only on remotely usable providers.  The dependency check covers
    replicated as well as unreplicated dependents: a co-location-bound
    dependent of either kind would make the host choice observable.
    """
    return relocatable_among(sw, set(cfg.instance_software()), sys)


def relocatable_among(sw: Software, present, sys: SystemModel) -> bool:
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


def signature(cfg: Config, sys: SystemModel) -> CanonicalSignature:
    present = set(cfg.instance_software())
    fixed = []
    bag = []
    for si in cfg.si:
        sw = sys.sw(si.sw)
        if relocatable_among(sw, present, sys):
            devices = sw.devices & sys.computer(si.computer).devices
            bag.append((si.sw, tuple(sorted(devices))))
        else:
            fixed.append(si)
    return CanonicalSignature(tuple(sorted(fixed)),
                              tuple(map(_rsi_key, cfg.rsi)),
                              tuple(sorted(bag)))


def rs_equivalent(cfg1: Config, cfg2: Config, sys: SystemModel) -> bool:
    return signature(cfg1, sys) == signature(cfg2, sys)


def partition_members(cfgs, sys: SystemModel) -> dict:
    """Group configurations by signature; member lists are key-sorted."""
    classes = {}
    for cfg in cfgs:
        classes.setdefault(signature(cfg, sys), []).append(cfg)
    for members in classes.values():
        members.sort(key=Config.key)
    return dict(sorted(classes.items()))


def partition_by_class(cfgs, sys: SystemModel) -> dict:
    """One representative per class: the member with the smallest key."""
    return {sig: members[0]
            for sig, members in partition_members(cfgs, sys).items()}
