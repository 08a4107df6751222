"""Liveness, functionality availability and runnability under a failed set.

What depends on the failed set alone, the live hardware and the device
types some live stand-alone device provides, is computed once per model
and failed set (``liveness``) and kept in the model's ``liveness`` memo;
``live`` and the device clause of ``can_run`` read it.

A functionality is available on a computer when some instance providing it
can actually serve that computer: the provider's host(s) are live, a
progress quorum exists for replicated providers, remote use is allowed when
the consumer sits elsewhere, and each providing host can run the provider.
``avail`` asks the same of each provider with any consumer, so it needs no
loop over computers: a serving provider's own live host is a consumer it
serves.  ``can_run``, the one statement of what a host must provide, asks
for compatibility and, recursively, every required functionality and
device.  The recursion terminates because the functionality dependency
graph is validated acyclic at model construction.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .model import Config, Software, SystemModel, compatible, quorum_size
from .failures import FailedSet


class Liveness(NamedTuple):
    """What a failed set leaves up: the live hardware, and the device types
    that some live stand-alone device provides."""

    hw: frozenset
    device_types: frozenset


def liveness(fs: FailedSet, sys: SystemModel) -> Liveness:
    """The liveness facts of ``fs``, computed on first use and kept in
    ``sys.liveness``.

    A hardware component is live when unfailed and powered.  An empty power
    set means internal power.  A component with external power sources
    needs at least one of them live, so a shared power source can be a
    single point of failure.  One pass over the hardware in power order,
    each after its power sources, decides every component: the power graph
    is validated acyclic, and chains may outgrow the recursion limit.
    """
    facts = sys.liveness.get(fs)
    if facts is None:
        up = set()
        for h in sys.power_order:
            if h not in fs:
                power = sys.power_of(h)
                if not power or not up.isdisjoint(power):
                    up.add(h)
        facts = sys.liveness[fs] = Liveness(
            frozenset(up),
            frozenset(d.device_type for d in sys.devices.values()
                      if d.id in up))
    return facts


def live(h: str, fs: FailedSet, sys: SystemModel) -> bool:
    """Whether hardware ``h`` is unfailed and powered under ``fs`` (see
    ``liveness``); unknown hardware raises ``ModelError``."""
    if h in liveness(fs, sys).hw:
        return True
    sys.hw_type(h)  # raises for unknown hardware
    return False


def avail_dev(device_type: str, c: str, fs: FailedSet,
              sys: SystemModel) -> bool:
    """Device availability on computer ``c``: integrated or live
    stand-alone (``liveness``'s device types)."""
    return (device_type in sys.computer(c).devices
            or device_type in liveness(fs, sys).device_types)


def can_run(c: str, sw: Software, cfg: Config, fs: FailedSet,
            sys: SystemModel, memo: dict = None) -> bool:
    """Computer ``c`` can run ``sw`` in ``cfg``: it is compatible, and
    every functionality and device ``sw`` requires is available on it.

    Liveness of ``c`` is deliberately not required: a failed computer may be
    added as a new replica member, which helps in states where the failure
    budget is exhausted and the next event can only be a recovery.
    ``memo`` is ``avail_on``'s, passed along its recursion.  The
    requirements are tried in sorted order, so the work done before the
    first miss does not follow the hash seed.  The device clause is
    ``avail_dev``'s rule with the computer and the liveness facts looked up
    once, not once per device: ``can_run`` is on the solve's hot path.
    """
    comp = sys.computer(c)
    if not compatible(sw, comp):
        return False
    for fn in sorted(sw.fn_req):
        if not avail_on(fn, c, cfg, fs, sys, memo):
            return False
    if sw.devices:
        types = liveness(fs, sys).device_types
        for dt in sorted(sw.devices):
            if dt not in comp.devices and dt not in types:
                return False
    return True


def _serves(fn: str, c: Optional[str], cfg: Config, fs: FailedSet,
            sys: SystemModel, memo: dict) -> bool:
    """Whether some instance in ``cfg`` providing ``fn`` serves consumer
    ``c``, whose liveness the caller checks.  With ``c`` None it asks for
    any consumer: a serving provider's own live host is one."""
    up = liveness(fs, sys).hw
    for si in cfg.si:
        sw = sys.sw(si.sw)
        if (sw.fn == fn and si.computer in up
                and (c is None or c == si.computer or sw.remote_use)
                and can_run(si.computer, sw, cfg, fs, sys, memo)):
            return True
    for rsi in cfg.rsi:
        sw = sys.sw(rsi.sw)
        if sw.fn != fn:
            continue
        proto = sys.protocol(rsi.protocol)
        if proto.active:
            # A quorum must exist whose members are all live and all meet
            # the component's requirements; counting such members is
            # equivalent to (and much cheaper than) enumerating quorums.
            members = [m for m in rsi.computers
                       if m in up and can_run(m, sw, cfg, fs, sys, memo)]
        elif rsi.primary is None:
            continue
        else:
            members = [m for m in rsi.computers if m in up]
        if (len(members) < quorum_size(proto.progress_q, len(rsi.computers))
                or not (c is None or sw.remote_use or c in members)):
            continue
        # Only a passive replica's primary executes, so only the primary
        # needs the required functionalities and devices.
        if proto.active or can_run(rsi.primary, sw, cfg, fs, sys, memo):
            return True
    return False


def avail_on(fn: str, c: str, cfg: Config, fs: FailedSet, sys: SystemModel,
             memo: dict = None) -> bool:
    """Whether functionality ``fn`` is available on computer ``c``."""
    if memo is None:
        memo = {}
    if not live(c, fs, sys):
        return False
    key = (fn, c)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _serves(fn, c, cfg, fs, sys, memo)
    return hit


def avail(fns, cfg: Config, fs: FailedSet, sys: SystemModel) -> bool:
    """Every functionality in ``fns`` is available on some computer: some
    provider serves it with its own live host as the consumer."""
    memo = {}
    return all(_serves(fn, None, cfg, fs, sys, memo) for fn in sorted(fns))
