"""Domain model: hardware, software, replication protocols, and configurations.

A configuration assigns unreplicated software instances to computers and
replicated software instances to sets of computers (with a replication
protocol and, for passive protocols, a primary).  Everything here is
immutable and hashable; configurations are canonicalized on construction so
structural equality is set equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

CRASH = "crash"

HW_COMPUTER = "Computer"
HW_DEVICE = "Device"

Q_MAJORITY = "majority"
Q_ALL = "all"
Q_ONE = "one"


class ModelError(Exception):
    """A model definition, reference, or operation contract is broken."""


def _frozen_str_set(values: Iterable[str]) -> frozenset:
    out = frozenset(values)
    for v in out:
        if not isinstance(v, str) or not v:
            raise ModelError("expected nonempty string, got %r" % (v,))
    return out


@dataclass(frozen=True)
class Computer:
    """A computing device that can host software instances."""

    id: str
    os: str
    cpu_arch: str
    cores: int
    ram: int
    devices: frozenset = frozenset()
    wired_nic: bool = False
    wifi_nic: bool = True
    cellular: bool = False
    power: frozenset = frozenset()

    def __post_init__(self):
        if self.cores < 1:
            raise ModelError("computer %s: cores must be >= 1" % self.id)
        if self.ram < 0:
            raise ModelError("computer %s: ram must be >= 0" % self.id)
        object.__setattr__(self, "devices", _frozen_str_set(self.devices))
        object.__setattr__(self, "power", _frozen_str_set(self.power))

    def equivalent(self, other: "Computer") -> bool:
        """Equality of every field but the identifier.  A frozen
        instance's ``__dict__`` holds its fields and nothing else."""
        return {**vars(other), "id": self.id} == vars(self)


@dataclass(frozen=True)
class Device:
    """A stand-alone (network-accessible) device, e.g. a sensor or a UPS."""

    id: str
    device_type: str
    power: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "power", _frozen_str_set(self.power))


@dataclass(frozen=True)
class Software:
    """A software component and the attributes that drive placement decisions.

    ``fn`` names the functionality provided; ``fn_req`` names functionalities
    this component consumes from others.  The boolean attributes encode what
    kinds of recovery are possible: whether a fresh instance can replace a
    lost one (``fast_starting``/``resumable``/``persis_state``), whether a
    running instance can move (``migratable``), and whether the component can
    serve consumers on other computers (``remote_use``).

    The recovery capabilities derived from them are computed once, here, and
    read everywhere else:

    * ``startable``: a fresh instance can replace a lost one (fast-starting,
      stateless, resumable);
    * ``movable``: a running instance can migrate (migratable, with no or
      small persistent state);
    * ``members_addable``: replica members can be added (fast-starting, with
      no or small persistent state);
    * ``survives_host_loss``: an instance keeps running through the loss of
      its host (resumable, persistent state, fast-starting);
    * ``stateful``: the component carries state that replication must
      protect (persistent state, or not resumable); stateful software is
      never startable.
    """

    id: str
    fn: str
    fn_req: frozenset = frozenset()
    devices: frozenset = frozenset()
    cpu_arch: Optional[str] = None
    os: Optional[str] = None
    ram: int = 0
    cores: int = 1
    cellular: bool = False
    wired: bool = False
    deterministic: bool = False
    fast_starting: bool = False
    migratable: bool = False
    persis_state: bool = False
    preferred: bool = False
    remote_use: bool = False
    resumable: bool = False
    single_instance: bool = False
    small_persis_state: bool = False
    startable: bool = field(init=False, repr=False, compare=False)
    movable: bool = field(init=False, repr=False, compare=False)
    members_addable: bool = field(init=False, repr=False, compare=False)
    survives_host_loss: bool = field(init=False, repr=False, compare=False)
    stateful: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cores < 1:
            raise ModelError("software %s: cores must be >= 1" % self.id)
        if self.ram < 0:
            raise ModelError("software %s: ram must be >= 0" % self.id)
        object.__setattr__(self, "fn_req", _frozen_str_set(self.fn_req))
        object.__setattr__(self, "devices", _frozen_str_set(self.devices))
        if self.fn in self.fn_req:
            raise ModelError("software %s requires its own functionality" % self.id)
        if self.persis_state and not self.single_instance:
            raise ModelError(
                "software %s: persistent state requires single_instance" % self.id
            )
        small_state = not self.persis_state or self.small_persis_state
        for name, value in (
                ("startable", self.fast_starting and not self.persis_state
                 and self.resumable),
                ("movable", self.migratable and small_state),
                ("members_addable", self.fast_starting and small_state),
                ("survives_host_loss", self.resumable and self.persis_state
                 and self.fast_starting),
                ("stateful", self.persis_state or not self.resumable)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class RepProtocol:
    """Replication-protocol knowledge-base entry.

    ``progress_q`` is the quorum needed to serve requests ("majority" or
    "all"); ``reconfig_q`` is the quorum needed to change membership
    ("majority" or "one").  ``active`` selects active replication (all
    replicas execute) over passive (a primary executes and disseminates).
    """

    id: str
    sync: bool
    active: bool
    progress_q: str
    reconfig_q: str
    fail_types: frozenset = frozenset({CRASH})

    def __post_init__(self):
        if self.progress_q not in (Q_MAJORITY, Q_ALL):
            raise ModelError("protocol %s: bad progress quorum %r" % (self.id, self.progress_q))
        if self.reconfig_q not in (Q_MAJORITY, Q_ONE):
            raise ModelError("protocol %s: bad reconfig quorum %r" % (self.id, self.reconfig_q))
        object.__setattr__(self, "fail_types", _frozen_str_set(self.fail_types))
        if CRASH not in self.fail_types:
            raise ModelError("protocol %s must handle crash failures" % self.id)


def quorum_size(q: str, n: int) -> int:
    """Number of replicas needed for quorum kind ``q`` out of ``n`` members."""
    if n < 1:
        raise ModelError("quorum over empty replica set")
    if q == Q_MAJORITY:
        return (n + 2) // 2  # ceil((n + 1) / 2)
    if q == Q_ALL:
        return n
    if q == Q_ONE:
        return 1
    raise ModelError("unknown quorum kind %r" % q)


class SystemModel:
    """The closed universe: hardware, software, protocols, synchrony.

    Construction validates global invariants: unique identifiers, resolvable
    power references, an acyclic power graph, and an acyclic functionality
    dependency graph (functionality f1 depends on f2 when some provider of f1
    requires f2).
    """

    def __init__(self, hw: Iterable, sw: Iterable[Software],
                 protocols: Iterable[RepProtocol], sync: bool):
        computers, devices = [], []
        for h in hw:
            if isinstance(h, Computer):
                computers.append(h)
            elif isinstance(h, Device):
                devices.append(h)
            else:
                raise ModelError("not a hardware component: %r" % (h,))
        sw, protocols = list(sw), list(protocols)
        ids = [r.id for r in computers + devices + sw + protocols]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ModelError("duplicate identifiers: %s" % ", ".join(dupes))
        # Identifiers are unique, so sorting never compares two records.
        self.computers = dict(sorted((c.id, c) for c in computers))
        self.devices = dict(sorted((d.id, d) for d in devices))
        self.software = dict(sorted((s.id, s) for s in sw))
        self.protocols = dict(sorted((p.id, p) for p in protocols))
        self.sync = bool(sync)

        # Every hardware id, each after its power sources.
        self.power_order = self._validate_power()
        self._validate_fn_graph()
        # Failed set -> its ``availability.Liveness``, filled by
        # ``availability``; the model is never changed after construction.
        self.liveness = {}

        self.computer_ids = tuple(self.computers)
        # Providers of each functionality.
        prov = {}
        for s in self.software.values():
            prov.setdefault(s.fn, []).append(s.id)
        self.fn_providers = {f: tuple(sorted(v)) for f, v in sorted(prov.items())}

    def _validate_power(self):
        all_hw = set(self.computers) | set(self.devices)
        edges = {}
        for h in list(self.computers.values()) + list(self.devices.values()):
            edges[h.id] = sorted(h.power)
            for p in edges[h.id]:
                if p not in all_hw:
                    raise ModelError("%s: unknown power source %r" % (h.id, p))
        return _check_acyclic(edges, "power references")

    def _validate_fn_graph(self):
        edges = {}
        for s in self.software.values():
            edges.setdefault(s.fn, set()).update(s.fn_req)
        _check_acyclic({k: sorted(v) for k, v in edges.items()},
                       "functionality dependencies")

    # -- lookups ---------------------------------------------------------

    def computer(self, cid: str) -> Computer:
        try:
            return self.computers[cid]
        except KeyError:
            raise ModelError("unknown computer %r" % cid) from None

    def sw(self, sid: str) -> Software:
        try:
            return self.software[sid]
        except KeyError:
            raise ModelError("unknown software %r" % sid) from None

    def protocol(self, pid: str) -> RepProtocol:
        try:
            return self.protocols[pid]
        except KeyError:
            raise ModelError("unknown protocol %r" % pid) from None

    def hw_type(self, hid: str) -> str:
        if hid in self.computers:
            return HW_COMPUTER
        if hid in self.devices:
            return HW_DEVICE
        raise ModelError("unknown hardware %r" % hid)

    def power_of(self, hid: str) -> frozenset:
        if hid in self.computers:
            return self.computers[hid].power
        if hid in self.devices:
            return self.devices[hid].power
        raise ModelError("unknown hardware %r" % hid)


def _check_acyclic(edges: dict, what: str) -> tuple:
    """Depth-first, with an explicit stack so that long chains do not hit
    the recursion limit.  Returns the nodes in post-order: each after the
    nodes its edges lead to."""
    state = {}  # 0 = on the current path, 1 = done
    done = []
    for start in sorted(edges):
        if start in state:
            continue
        path, todo = [start], [iter(edges.get(start, ()))]
        state[start] = 0
        while todo:
            node = next(todo[-1], None)
            if node is None:
                state[path[-1]] = 1
                done.append(path.pop())
                todo.pop()
            elif state.get(node) == 0:
                cycle = " -> ".join(path + [node])
                raise ModelError("cyclic %s: %s" % (what, cycle))
            elif node not in state:
                state[node] = 0
                path.append(node)
                todo.append(iter(edges.get(node, ())))
    return tuple(done)


class SwInst(NamedTuple):
    """An unreplicated software instance placed on one computer."""

    sw: str
    computer: str


class RepSwInst(NamedTuple):
    """A replicated software instance: protocol, member computers, primary."""

    sw: str
    protocol: str
    computers: tuple
    primary: Optional[str]


def rep_inst(sw: str, protocol: str, computers: Iterable[str],
             primary: Optional[str] = None) -> RepSwInst:
    members = tuple(sorted(set(computers)))
    if not members:
        raise ModelError("replicated instance of %s has no members" % sw)
    if primary is not None and primary not in members:
        raise ModelError("primary %s of %s is not a member" % (primary, sw))
    return RepSwInst(sw, protocol, members, primary)


@dataclass(frozen=True)
class Config:
    """A placement of software instances; canonical and hashable.

    ``si`` and ``rsi`` are kept as sorted, de-duplicated tuples so that two
    configurations are equal exactly when they denote the same sets.
    """

    si: tuple = ()
    rsi: tuple = ()

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.si, self.rsi))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(si: Iterable[SwInst] = (), rsi: Iterable[RepSwInst] = ()) -> "Config":
        si_t = tuple(sorted(set(SwInst(*s) for s in si)))
        rsi_t = tuple(sorted(set(rsi), key=_rsi_key))
        seen = set()
        for r in rsi_t:
            if r.sw in seen:
                raise ModelError("multiple replicated instances of %s" % r.sw)
            seen.add(r.sw)
        return Config(si_t, rsi_t)

    def key(self) -> tuple:
        return (self.si, tuple(_rsi_key(r) for r in self.rsi))

    def rsi_for(self, sw: str) -> Optional[RepSwInst]:
        for r in self.rsi:
            if r.sw == sw:
                return r
        return None

    def instance_software(self) -> list:
        """Software ids of all instances, one entry per instance."""
        return [s.sw for s in self.si] + [r.sw for r in self.rsi]


def _rsi_key(r: RepSwInst) -> tuple:
    return (r.sw, r.protocol, r.computers, r.primary or "")


# -- static configuration predicates ------------------------------------


def run(c: str, cfg: Config, sys: SystemModel) -> frozenset:
    """Software components running on computer ``c`` (replicas included)."""
    if c not in sys.computers:
        raise ModelError("unknown computer %r" % c)
    out = {s.sw for s in cfg.si if s.computer == c}
    out.update(r.sw for r in cfg.rsi if c in r.computers)
    return frozenset(out)


def compatible(sw: Software, c: Computer) -> bool:
    """CPU/OS/network compatibility of a software component with a computer."""
    if sw.cpu_arch is not None and sw.cpu_arch != c.cpu_arch:
        return False
    if sw.os is not None and sw.os != c.os:
        return False
    if sw.cellular and not c.cellular:
        return False
    if sw.wired and not c.wired_nic:
        return False
    return True


def resources_ok(cfg: Config, sys: SystemModel) -> bool:
    """Core and RAM budgets hold on every computer."""
    for s in cfg.si:
        if s.sw not in sys.software or s.computer not in sys.computers:
            raise ModelError("dangling reference in %r" % (s,))
    for r in cfg.rsi:
        if r.sw not in sys.software:
            raise ModelError("dangling reference in %r" % (r,))
        for m in r.computers:
            if m not in sys.computers:
                raise ModelError("dangling reference in %r" % (r,))
    load = {}
    for s in cfg.si:
        load.setdefault(s.computer, set()).add(s.sw)
    for r in cfg.rsi:
        for m in r.computers:
            load.setdefault(m, set()).add(r.sw)
    for cid, sws in load.items():
        comp = sys.computers[cid]
        cores = sum(sys.software[s].cores for s in sws)
        ram = sum(sys.software[s].ram for s in sws)
        if cores > comp.cores or ram > comp.ram:
            return False
    return True


def valid_config(cfg: Config, sys: SystemModel) -> bool:
    """All static constraints: resources, compatibility, replication rules.

    Replication is allowed only for stateful software; passive instances
    carry a primary that is a member; synchronous protocols require a
    synchronous system; active replication requires deterministic software.
    """
    if not resources_ok(cfg, sys):
        return False
    counts = {}
    for sid in cfg.instance_software():
        counts[sid] = counts.get(sid, 0) + 1
    for sid, n in counts.items():
        if n > 1 and sys.sw(sid).single_instance:
            return False
    for s in cfg.si:
        if not compatible(sys.sw(s.sw), sys.computer(s.computer)):
            return False
    for r in cfg.rsi:
        sw = sys.sw(r.sw)
        proto = sys.protocol(r.protocol)
        if not sw.stateful:
            return False
        if proto.active:
            if r.primary is not None:
                return False
            if not sw.deterministic:
                return False
        else:
            if r.primary is None or r.primary not in r.computers:
                return False
        for m in r.computers:
            if not compatible(sw, sys.computer(m)):
                return False
        if proto.sync and not sys.sync:
            return False
    return True
