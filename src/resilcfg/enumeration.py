"""Enumeration of the quotient classes of the relevant configurations.

The relevant configurations are every valid configuration that could
matter to the resilience analysis, skipping irrelevant ones: configurations
that leave a critical functionality without any provider instance, that
replicate a sole critical provider outside the useful replica-count window,
or that run several instances of a remotely usable component.  The initial
configurations narrow them further for the top-level search: a canonical
primary is fixed when all replica hosts are attribute-identical, and
replica members must actually be able to run the software in the
failure-free state.

The universe is enumerated class by class, not configuration by
configuration (symmetry reduction with canonical representatives).  A class
is a signature of ``quotient``: fixed placements plus a bag of (software,
devices-used-on-host) slots for the relocatable instances.  Whether a
component is relocatable depends only on the set of components that have
instances, so ``enumerate_classes`` walks those present-software sets.  For
each one it places the non-relocatable components as before and, for each
fixed part, counts the budget-feasible assignments of every bag to hosts
with a count memoized over the hosts' remaining cores and RAM.  The memo is
keyed up to symmetry: the (cores, RAM) pairs of interchangeable computers
(``Computer.equivalent``) are sorted, so budgets that differ only by a
permutation of such computers are counted once (``symmetric_memo_key``).
It builds no configuration for the members it counts.
``QuotientClass.members`` lists them on demand, in ``Config.key`` order.
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
    _rsi_key,
    compatible,
    rep_inst,
)
from .failures import EMPTY_FS, FailureModel
from .availability import can_run
from .quotient import CanonicalSignature, relocatable_among


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
    bound = fm.bound_for(HW_COMPUTER)
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
            if (count or not critical) and not (single and count > 1):
                opts.append((si_set, r))
    return opts


def _placement_options(sys: SystemModel, req: ResilienceRequirement):
    """Per component, in id order: (software, options), each option an
    (si tuple, rsi tuple, indices of its hosts, initial part) quadruple.
    Hosts are indexed in ``sys.computer_ids`` order, and a computer counts
    once even when it hosts both an unreplicated instance and a replica of
    the component.  The initial part is ``_initial_part``'s."""
    f = max_simult_fail(req.fm)
    crit_sw = critical_software(sys, req.crit_fns)
    index = {c: i for i, c in enumerate(sys.computer_ids)}
    out = []
    for sw in sys.software.values():
        # Without ``fn_req``, whether a computer can run ``sw`` does not
        # depend on the configuration.
        runs_on = None if sw.fn_req else {
            c for c in sys.computer_ids
            if can_run(c, sw, Config(), EMPTY_FS, sys)}
        opts = []
        for si_set, r in _software_options(sw, sys, sw.id in crit_sw, f):
            hosts = {index[s.computer] for s in si_set}
            if r is not None:
                hosts.update(index[c] for c in r.computers)
            opts.append((si_set, () if r is None else (r,),
                         tuple(sorted(hosts)), _initial_part(r, runs_on, sys)))
        out.append((sw, opts))
    return out


def _initial_part(r, runs_on, sys: SystemModel):
    """What a placement option with replicated instance ``r`` (or None)
    leaves of ``_init_relevant``'s test: False when no configuration with
    it is initial, else the replicated instances whose runnability depends
    on the rest of the configuration.  ``runs_on`` is the set of computers
    that can run the software in every configuration, or None when that
    depends on the configuration (the software has ``fn_req``)."""
    if r is None:
        return ()
    if (r.primary is not None and _all_equivalent(r.computers, sys)
            and r.primary != r.computers[0]):
        return False
    if runs_on is None:
        return (r,)
    return () if runs_on.issuperset(r.computers) else False


def _critical_masks(sys: SystemModel, req: ResilienceRequirement) -> list:
    """Per critical functionality, the bits of its providers (bit ``i`` is
    the ``i``-th component in id order); a set of present components
    provides every critical functionality when it meets each mask."""
    bit = {sid: 1 << i for i, sid in enumerate(sys.software)}
    return [sum(bit[sid] for sid in sys.fn_providers.get(fn, ()))
            for fn in req.crit_fns]


def _take(hosts, sw: Software, cores: tuple, ram: tuple):
    """The core and RAM budgets left on each computer once ``sw`` runs on
    ``hosts``; None when it does not fit."""
    cores, ram = list(cores), list(ram)
    for h in hosts:
        cores[h] -= sw.cores
        ram[h] -= sw.ram
        if cores[h] < 0 or ram[h] < 0:
            return None
    return tuple(cores), tuple(ram)


class QuotientClass:
    """One class of relevant configurations, kept without its members.

    ``fixed`` is the configuration of its fixed placements: the instances
    of non-relocatable software and every replicated instance.  ``slots``
    holds one (software, host combinations) pair per relocatable component,
    in id order; the combinations are those whose devices-used-on-host
    multiset is the component's part of the bag, each as (host indices,
    host bitmask, instances), in host order.  ``cores`` and ``ram`` are the
    budgets the fixed part leaves on each computer, kept only by a class
    with slots, whose walk reads them.  ``size`` counts the members,
    ``first`` is the first member in key order, and ``initial`` tells
    whether the members are initial configurations.
    """

    __slots__ = ("sig", "fixed", "slots", "cores", "ram", "size", "first",
                 "initial", "_built")

    def __init__(self, sig, fixed, slots, cores, ram, size):
        self.sig = sig
        self.fixed = fixed
        self.slots = slots
        self.cores, self.ram = (cores, ram) if slots else ((), ())
        # relocatable instances -> the member built for them
        self._built = {} if slots else None
        self.size = size
        self.first = self.first_member(0)
        self.initial = False

    def members(self, dead: int = 0):
        """The members whose relocatable instances avoid the computers with
        a bit in ``dead``, in ``Config.key`` order; each member is built
        once and shared by later calls.  The state-representative search
        sets the bits of the computers ``availability.live`` calls down.

        The walk is a lexicographic depth-first search over each slot's
        host combinations.  Each component has as many instances in every
        member as its part of the bag, so the instances of one component
        form one block of equal length in every member's sorted ``si``, and
        comparing two members' keys compares these blocks in id order: the
        walk's order."""
        if not self.slots:
            yield self.fixed
            return
        built = self._built
        for placed in _walk(self.slots, 0, self.cores, self.ram, dead):
            cfg = built.get(placed)
            if cfg is None:
                cfg = built[placed] = Config(
                    tuple(sorted(self.fixed.si + placed)), self.fixed.rsi)
            yield cfg

    def first_member(self, dead: int):
        """The first of ``members(dead)``; None when there is none."""
        if not self.slots:
            return self.fixed
        return next(self.members(dead), None)


def _walk(slots, i, cores, ram, dead):
    """The instances of slots ``i`` onwards on hosts outside ``dead`` and
    within the budgets, in lexicographic order."""
    if i == len(slots):
        yield ()
        return
    sw, combos = slots[i]
    for hosts, mask, insts in combos:
        left = None if mask & dead else _take(hosts, sw, cores, ram)
        if left is None:
            continue
        for rest in _walk(slots, i + 1, *left, dead):
            yield insts + rest


def symmetric_memo_key(sys: SystemModel):
    """The memo key of the member count (see ``_classes_with``): the slot
    index and the per-host budgets with the (cores, RAM) pairs of each group
    of ``Computer.equivalent`` computers sorted, so that budgets that differ
    by a permutation of interchangeable computers share one entry.  None
    when no two computers are equivalent: the key is then the plain
    ``(slot, cores, ram)``.

    The count does not change, because every slot's host combinations and
    every bag are closed under permutations of equivalent computers, and
    ``_take`` reads only the budgets and the hosts."""
    computers = [sys.computer(c) for c in sys.computer_ids]
    groups = []
    for h, c in enumerate(computers):
        for group in groups:
            if computers[group[0]].equivalent(c):
                group.append(h)
                break
        else:
            groups.append([h])
    if len(groups) == len(computers):
        return None

    def key(j, cores, ram):
        pairs = list(zip(cores, ram))
        return (j,) + tuple(tuple(sorted([pairs[h] for h in group]))
                            for group in groups)

    return key


def enumerate_classes(sys: SystemModel, req: ResilienceRequirement,
                      memo_key=None) -> list:
    """Every class of relevant configurations, sorted by signature.
    ``memo_key(slot, cores, ram)`` keys the member count's memo; it
    defaults to ``symmetric_memo_key(sys)``."""
    if memo_key is None:
        memo_key = symmetric_memo_key(sys)
    options = _placement_options(sys, req)
    crit_masks = _critical_masks(sys, req)
    # The options with instances, each with its replicated instances' part
    # of the signature, shared by every class that uses the option.
    present_opts = [[(si_set, rsi, hosts, tuple(map(_rsi_key, rsi)), init)
                     for si_set, rsi, hosts, init in opts if hosts]
                    for _, opts in options]

    # Per component, what it may add to a set of present components: no
    # bit when it may be absent, its own bit when it may be present.
    choices = [(0,) * any(not hosts for _, _, hosts, _ in opts)
               + (1 << i,) * bool(present_opts[i])
               for i, (_, opts) in enumerate(options)]
    classes = []
    for bits in itertools.product(*choices):
        mask = sum(bits)
        if all(m & mask for m in crit_masks):
            classes.extend(_classes_with(mask, options, present_opts, sys,
                                         memo_key))
    classes.sort(key=lambda c: c.sig)
    return classes


def _classes_with(mask: int, options, present_opts, sys: SystemModel,
                  memo_key):
    """The classes whose present components are the bits of ``mask``.
    ``memo_key`` keys the count's memo, None on the plain budgets."""
    present_idx = [i for i in range(len(options)) if mask >> i & 1]
    present = {options[i][0].id for i in present_idx}
    reloc, fixed = [], []
    for i in present_idx:
        sw = options[i][0]
        (reloc if relocatable_among(sw, present, sys) else fixed).append(i)

    # Each relocatable component's host combinations, grouped by the bag
    # they give it.  Relocatable software is startable, so never stateful,
    # and its options are plain instance sets.
    devices = [c.devices for c in sys.computers.values()]
    groups = []
    for i in reloc:
        sw = options[i][0]
        by_bag = {}
        for si_set, _, hosts, _, _ in present_opts[i]:
            bag = tuple(sorted(tuple(sorted(sw.devices & devices[h]))
                               for h in hosts))
            mask_h = sum(1 << h for h in hosts)
            by_bag.setdefault(bag, []).append((hosts, mask_h, si_set))
        groups.append((sw, by_bag))

    memo = {}

    def count(j, cores, ram):
        """{bags of components ``reloc[j:]``: budget-feasible assignments}."""
        if j == len(groups):
            return {(): 1}
        key = (j, cores, ram) if memo_key is None else memo_key(j, cores, ram)
        out = memo.get(key)
        if out is None:
            out = memo[key] = {}
            sw, by_bag = groups[j]
            for bag, combos in by_bag.items():
                for hosts, _, _ in combos:
                    left = _take(hosts, sw, cores, ram)
                    if left is None:
                        continue
                    for rest, n in count(j + 1, *left).items():
                        out[(bag,) + rest] = out.get((bag,) + rest, 0) + n
        return out

    out = []

    def place(k, cores, ram, si, rsi, rsi_keys, init):
        """``init`` is the options' initial parts joined: False, or the
        replicated instances left to test."""
        if k == len(fixed):
            fixed_cfg = Config(si, rsi)
            for bags, size in count(0, cores, ram).items():
                slots = tuple((sw, tuple(by_bag[bag]))
                              for (sw, by_bag), bag in zip(groups, bags))
                reloc_bag = tuple((sw.id, d) for (sw, _), bag in
                                  zip(groups, bags) for d in bag)
                sig = CanonicalSignature(si, rsi_keys, reloc_bag)
                cls = QuotientClass(sig, fixed_cfg, slots, cores, ram, size)
                # Whether a class is initial is decided once, on its first
                # member.  The runnability of a replica member depends on
                # the hosts of relocatable providers only through their
                # devices, which the bag fixes.
                cls.initial = init is not False and all(
                    can_run(m, sys.sw(r.sw), cls.first, EMPTY_FS, sys)
                    for r in init for m in r.computers)
                out.append(cls)
            return
        sw = options[fixed[k]][0]
        for si_set, rsi_add, hosts, keys_add, part in present_opts[fixed[k]]:
            left = _take(hosts, sw, cores, ram)
            if left is not None:
                place(k + 1, *left, si + si_set, rsi + rsi_add,
                      rsi_keys + keys_add,
                      False if init is False or part is False
                      else init + part)

    place(0, tuple(c.cores for c in sys.computers.values()),
          tuple(c.ram for c in sys.computers.values()), (), (), (), ())
    place = count = None  # they refer to themselves: break the cycles
    return out


def generate_all_configs(sys: SystemModel, req: ResilienceRequirement) -> list:
    """All relevant valid configurations, key-sorted: every member of every
    class."""
    classes = enumerate_classes(sys, req)
    return sorted(itertools.chain.from_iterable(c.members() for c in classes),
                  key=Config.key)


def _all_equivalent(members, sys: SystemModel) -> bool:
    first = sys.computer(members[0])
    return all(sys.computer(m).equivalent(first) for m in members[1:])


def generate_init_configs(sys: SystemModel, req: ResilienceRequirement,
                          all_cfgs=None) -> list:
    """The initial-search universe: ``generate_all_configs`` narrowed further."""
    if all_cfgs is None:
        all_cfgs = generate_all_configs(sys, req)
    return [cfg for cfg in all_cfgs if _init_relevant(cfg, sys)]


def _init_relevant(cfg: Config, sys: SystemModel) -> bool:
    for r in cfg.rsi:
        if r.primary is not None and _all_equivalent(r.computers, sys):
            if r.primary != r.computers[0]:
                return False
        sw = sys.sw(r.sw)
        for m in r.computers:
            if not can_run(m, sw, cfg, EMPTY_FS, sys):
                return False
    return True
