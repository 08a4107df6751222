"""Liveness, functionality availability and runnability under a failed set.

A functionality is available on a computer when some instance providing it
can actually serve that computer: the provider's host(s) are live, a
progress quorum exists for replicated providers, remote use is allowed when
the consumer sits elsewhere, and each providing host can run the provider.
``can_run``, the one statement of what a host must provide, asks for
compatibility and, recursively, every required functionality and device.
The recursion terminates because the functionality dependency graph is
validated acyclic at model construction.
"""

from __future__ import annotations

from .model import Config, Software, SystemModel, compatible, quorum_size
from .failures import FailedSet


def live(h: str, fs: FailedSet, sys: SystemModel) -> bool:
    """A hardware component is live when unfailed and powered.

    An empty power set means internal power.  A component with external
    power sources needs at least one of them live, so a shared power source
    can be a single point of failure.  So a component is live when a path
    of unfailed hardware leads along power references to internally powered
    hardware, searched with a stack: chains may outgrow the recursion limit.
    """
    if h in fs:
        return False
    power = sys.power_of(h)
    if not power:
        return True
    seen, stack = {h}, list(power)
    while stack:
        p = stack.pop()
        if p in seen or p in fs:
            continue
        seen.add(p)
        power = sys.power_of(p)
        if not power:
            return True
        stack.extend(power)
    return False


def avail_dev(device_type: str, c: str, fs: FailedSet,
              sys: SystemModel) -> bool:
    """Device availability on computer ``c``: integrated or live
    stand-alone."""
    if device_type in sys.computer(c).devices:
        return True
    return any(live(d, fs, sys) for d in sys.device_pool.get(device_type, ()))


def can_run(c: str, sw: Software, cfg: Config, fs: FailedSet,
            sys: SystemModel, memo: dict = None) -> bool:
    """Computer ``c`` can run ``sw`` in ``cfg``: it is compatible, and
    every functionality and device ``sw`` requires is available on it.

    Liveness of ``c`` is deliberately not required: a failed computer may be
    added as a new replica member, which helps in states where the failure
    budget is exhausted and the next event can only be a recovery.
    ``memo`` is ``avail_on``'s, passed along its recursion.  The
    requirements are tried in sorted order, so the work done before the
    first miss does not follow the hash seed.
    """
    if not compatible(sw, sys.computer(c)):
        return False
    return (all(avail_on(fn, c, cfg, fs, sys, memo)
                for fn in sorted(sw.fn_req))
            and all(avail_dev(dt, c, fs, sys) for dt in sorted(sw.devices)))


def avail_on(fn: str, c: str, cfg: Config, fs: FailedSet, sys: SystemModel,
             memo: dict = None) -> bool:
    """Whether functionality ``fn`` is available on computer ``c``."""
    if memo is None:
        memo = {}
    if not live(c, fs, sys):
        return False
    key = (fn, c)
    hit = memo.get(key)
    if hit is not None:
        return hit

    result = False
    for si in cfg.si:
        sw = sys.sw(si.sw)
        if sw.fn != fn:
            continue
        if not live(si.computer, fs, sys):
            continue
        if c != si.computer and not sw.remote_use:
            continue
        if can_run(si.computer, sw, cfg, fs, sys, memo):
            result = True
            break
    if not result:
        for rsi in cfg.rsi:
            sw = sys.sw(rsi.sw)
            if sw.fn != fn:
                continue
            proto = sys.protocol(rsi.protocol)
            need = quorum_size(proto.progress_q, len(rsi.computers))
            if proto.active:
                # A quorum must exist whose members are all live and all meet
                # the component's requirements; counting such members is
                # equivalent to (and much cheaper than) enumerating quorums.
                good = [m for m in rsi.computers
                        if live(m, fs, sys)
                        and can_run(m, sw, cfg, fs, sys, memo)]
                if len(good) >= need and (sw.remote_use or c in good):
                    result = True
                    break
            else:
                if rsi.primary is None:
                    continue
                alive = [m for m in rsi.computers if live(m, fs, sys)]
                if len(alive) < need:
                    continue
                if not sw.remote_use and c not in alive:
                    continue
                # Only the primary executes, so only the primary needs the
                # required functionalities and devices.
                if can_run(rsi.primary, sw, cfg, fs, sys, memo):
                    result = True
                    break
    memo[key] = result
    return result


def avail(fns, cfg: Config, fs: FailedSet, sys: SystemModel) -> bool:
    """Every functionality in ``fns`` is available on some computer."""
    memo = {}
    for fn in sorted(fns):
        if not any(avail_on(fn, c, cfg, fs, sys, memo)
                   for c in sys.computer_ids):
            return False
    return True
