"""Generation of the relevant-configuration universes.

``generate_all_configs`` enumerates every valid configuration that could
matter to the resilience analysis, skipping irrelevant ones: configurations
that leave a critical functionality without any provider instance, that
replicate a sole critical provider outside the useful replica-count window,
or that run several instances of a remotely usable component.

``generate_init_configs`` narrows further for the top-level search over
initial states: a canonical primary is fixed when all replica hosts are
attribute-identical, and replica members must actually be able to run the
software in the failure-free state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    HW_COMPUTER,
    Config,
    Q_MAJORITY,
    Software,
    SwInst,
    SystemModel,
    compatible,
    rep_inst,
)
from .failures import CRASH, EMPTY_FS, FailureModel
from .reconfig import can_run


@dataclass(frozen=True)
class ResilienceRequirement:
    """A failure model plus the functionalities that must stay available."""

    fm: FailureModel
    crit_fns: frozenset

    def __post_init__(self):
        object.__setattr__(self, "crit_fns", frozenset(self.crit_fns))


def critical_software(sys: SystemModel, crit_fns) -> frozenset:
    """Components that are the only provider of some critical functionality."""
    out = set()
    for fn in crit_fns:
        providers = sys.fn_providers.get(fn, ())
        if len(providers) == 1:
            out.add(providers[0])
    return frozenset(out)


def max_simult_fail(fm: FailureModel) -> int:
    """Largest burst of computer crashes the failure model permits."""
    bound = fm.bound_for(HW_COMPUTER, CRASH)
    if bound is None:
        return 0
    f = bound.n if bound.max_simult is None else min(bound.n, bound.max_simult)
    if fm.max_simult is not None:
        f = min(f, fm.max_simult)
    return f


def _protocols_for(sw: Software, sys: SystemModel):
    return [p for p in sys.protocols.values()
            if (sys.sync or not p.sync) and (sw.deterministic or not p.active)]


def _replica_size_window(proto, f: int, n_compat: int):
    """Useful replica counts for a sole critical provider.

    Majority-quorum protocols need at least 3 replicas to survive a member
    loss and gain nothing beyond 2f+1; others need at least one replica
    beyond none and gain nothing beyond f+1.
    """
    if Q_MAJORITY in (proto.progress_q, proto.reconfig_q):
        lo, hi = 3, 2 * f + 1
    else:
        lo, hi = 1, f + 1
    return range(lo, min(hi, n_compat) + 1)


def _rsi_options(sw, protos, computers, sizes_for):
    out = []
    for proto in protos:
        for size in sizes_for(proto):
            for members in itertools.combinations(computers, size):
                if proto.active:
                    out.append(rep_inst(sw.id, proto.id, members))
                else:
                    for primary in members:
                        out.append(rep_inst(sw.id, proto.id, members, primary))
    return out


def _software_options(sw: Software, sys: SystemModel, critical: bool, f: int):
    """Placement alternatives for one component: (si tuple, rsi or None)."""
    computers = [c.id for c in sys.computers.values() if compatible(sw, c)]
    single = sw.single_instance or sw.remote_use

    if critical and sw.stateful:
        # A sole critical provider with state must be replicated;
        # an unreplicated instance would be lost with its host.
        protos = _protocols_for(sw, sys)
        opts = [((), r) for r in _rsi_options(
            sw, protos, computers,
            lambda p: _replica_size_window(p, f, len(computers)))]
        return opts

    si_sets = [()]
    max_si = 1 if single else len(computers)
    for size in range(1, max_si + 1):
        for hosts in itertools.combinations(computers, size):
            si_sets.append(tuple(SwInst(sw.id, h) for h in hosts))

    rsi_opts = [None]
    if sw.stateful:
        protos = _protocols_for(sw, sys)
        rsi_opts += _rsi_options(sw, protos, computers,
                                 lambda p: range(1, len(computers) + 1))

    opts = []
    for si_set in si_sets:
        for r in rsi_opts:
            count = len(si_set) + (1 if r is not None else 0)
            if single and count > 1:
                continue
            if not critical and count == 0:
                opts.append((si_set, r))
            elif count >= 1:
                opts.append((si_set, r))
    return opts


def generate_all_configs(sys: SystemModel, req: ResilienceRequirement) -> list:
    """All relevant valid configurations, key-sorted."""
    f = max_simult_fail(req.fm)
    crit_sw = critical_software(sys, req.crit_fns)
    soft = list(sys.software.values())
    options = [_software_options(sw, sys, sw.id in crit_sw, f) for sw in soft]

    budget = {c.id: (c.cores, c.ram) for c in sys.computers.values()}
    out = []

    def option_load(sw, si_set, r):
        # One entry per host: a computer runs a component at most once even
        # when it hosts both an unreplicated instance and a replica of it.
        hosts = {s.computer for s in si_set}
        if r is not None:
            hosts.update(r.computers)
        return [(h, sw.cores, sw.ram) for h in sorted(hosts)]

    def dfs(i, si_acc, rsi_acc, remaining):
        if i == len(soft):
            cfg = Config.make(si_acc, rsi_acc)
            if _covers_critical(cfg, sys, req.crit_fns):
                out.append(cfg)
            return
        sw = soft[i]
        for si_set, r in options[i]:
            load = option_load(sw, si_set, r)
            ok = True
            for host, cores, ram in load:
                rc, rr = remaining[host]
                if cores > rc or ram > rr:
                    ok = False
                    break
            if not ok:
                continue
            for host, cores, ram in load:
                rc, rr = remaining[host]
                remaining[host] = (rc - cores, rr - ram)
            dfs(i + 1, si_acc + list(si_set),
                rsi_acc + ([r] if r is not None else []), remaining)
            for host, cores, ram in load:
                rc, rr = remaining[host]
                remaining[host] = (rc + cores, rr + ram)

    dfs(0, [], [], dict(budget))
    out.sort(key=Config.key)
    return out


def _covers_critical(cfg: Config, sys: SystemModel, crit_fns) -> bool:
    provided = {sys.sw(sid).fn for sid in cfg.instance_software()}
    return all(fn in provided for fn in crit_fns)


def _all_equivalent(members, sys: SystemModel) -> bool:
    first = sys.computer(members[0])
    return all(sys.computer(m).equivalent(first) for m in members[1:])


def generate_init_configs(sys: SystemModel, req: ResilienceRequirement,
                          all_cfgs=None) -> list:
    """The initial-search universe: ``generate_all_configs`` narrowed further."""
    if all_cfgs is None:
        all_cfgs = generate_all_configs(sys, req)
    static = {}
    out = []
    for cfg in all_cfgs:
        if _init_relevant(cfg, sys, static):
            out.append(cfg)
    return out


def _init_relevant(cfg: Config, sys: SystemModel, static_cache: dict) -> bool:
    for r in cfg.rsi:
        if r.primary is not None and _all_equivalent(r.computers, sys):
            if r.primary != r.computers[0]:
                return False
        sw = sys.sw(r.sw)
        for m in r.computers:
            if not can_run(m, sw, cfg, EMPTY_FS, sys,
                           static_cache=static_cache):
                return False
    return True
