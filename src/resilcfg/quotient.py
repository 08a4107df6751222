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
"""

from __future__ import annotations

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
    if not sw.startable:
        return False
    needs = sw.fn_req
    for sid in cfg.instance_software():
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
    reloc = {}
    fixed = []
    bag = []
    for si in cfg.si:
        flag = reloc.get(si.sw)
        if flag is None:
            flag = relocatable(sys.sw(si.sw), cfg, sys)
            reloc[si.sw] = flag
        if flag:
            sw = sys.sw(si.sw)
            host = sys.computer(si.computer)
            bag.append((si.sw, tuple(sorted(sw.devices & host.devices))))
        else:
            fixed.append(si)
    fixed_rsi = tuple((r.sw, r.protocol, r.computers, r.primary or "")
                      for r in cfg.rsi)
    return CanonicalSignature(tuple(sorted(fixed)), fixed_rsi,
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
