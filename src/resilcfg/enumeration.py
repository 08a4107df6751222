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
    """All relevant valid configurations, key-sorted.

    Software is visited in id order and the hosts of each option in computer
    order, so the instance tuples a leaf accumulates are already canonical:
    a leaf is ``Config(si, rsi)`` of them, sharing the options' instances.
    Critical coverage depends only on which components have instances, so it
    is decided per bitmask of present components before a leaf is built.
    """
    f = max_simult_fail(req.fm)
    crit_sw = critical_software(sys, req.crit_fns)
    soft = list(sys.software.values())
    bit = {sw.id: 1 << i for i, sw in enumerate(soft)}
    crit_masks = [sum(bit[sid] for sid in sys.fn_providers.get(fn, ()))
                  for fn in req.crit_fns]
    covered = {}  # present-component mask -> every critical fn provided

    # Per component: its demand and its options as (si tuple, rsi tuple,
    # hosts, presence bit).  A computer runs a component at most once even
    # when it hosts both an unreplicated instance and a replica of it.
    levels = []
    for sw in soft:
        opts = []
        for si_set, r in _software_options(sw, sys, sw.id in crit_sw, f):
            hosts = {s.computer for s in si_set}
            if r is not None:
                hosts.update(r.computers)
            opts.append((si_set, () if r is None else (r,),
                         tuple(sorted(hosts)), bit[sw.id] if hosts else 0))
        levels.append((sw.cores, sw.ram, opts))

    cores_left = {c.id: c.cores for c in sys.computers.values()}
    ram_left = {c.id: c.ram for c in sys.computers.values()}
    out = []

    def dfs(i, si_acc, rsi_acc, mask):
        if i == len(levels):
            ok = covered.get(mask)
            if ok is None:
                ok = covered[mask] = all(m & mask for m in crit_masks)
            if ok:
                out.append(Config(si_acc, rsi_acc))
            return
        cores, ram, opts = levels[i]
        for si_set, rsi_add, hosts, present in opts:
            for h in hosts:
                if cores > cores_left[h] or ram > ram_left[h]:
                    break
            else:
                for h in hosts:
                    cores_left[h] -= cores
                    ram_left[h] -= ram
                dfs(i + 1, si_acc + si_set, rsi_acc + rsi_add, mask | present)
                for h in hosts:
                    cores_left[h] += cores
                    ram_left[h] += ram

    dfs(0, (), (), 0)
    out.sort(key=Config.key)
    return out


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
