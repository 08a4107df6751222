"""Shared builders: the tiny model, canned configurations, random models."""

from __future__ import annotations

import random

import pytest

from resilcfg import (
    Computer,
    Config,
    Device,
    FailBound,
    FailureModel,
    Policy,
    RepProtocol,
    ResilienceRequirement,
    Software,
    Stop,
    SwInst,
    Synthesizer,
    SystemModel,
    remove_dead,
    rep_inst,
)
from resilcfg import fixtures, modelio


@pytest.fixture(scope="session")
def tiny():
    return fixtures.tiny()


@pytest.fixture(scope="session")
def tiny_sys(tiny):
    return tiny[0]


@pytest.fixture(scope="session")
def tiny_req(tiny):
    return tiny[1]


def tiny_config(loc_host="c0", plan_members=("c0", "c1"), plan_primary="c0",
                plan_si=None):
    """The canonical tiny configuration, with knobs."""
    si = []
    if loc_host:
        si.append(SwInst("LOC", loc_host))
    rsi = []
    if plan_si:
        si.append(SwInst("PLAN", plan_si))
    elif plan_members:
        rsi.append(rep_inst("PLAN", "primary-backup", plan_members,
                            plan_primary))
    return Config.make(si, rsi)


def power_chain_model(n: int) -> dict:
    """The tiny model as a model-file dict, with devices ``p0``...``p<n-1>``,
    each powered by the next, and ``c0`` powered by ``p0``."""
    raw = modelio.model_to_dict(*fixtures.tiny())
    raw["system"]["devices"] += [
        {"id": "p%d" % i, "deviceType": "psu",
         "power": ["p%d" % (i + 1)] if i + 1 < n else []} for i in range(n)]
    raw["system"]["computers"][0]["power"] = ["p0"]
    return raw


FS0 = frozenset()
FS_C0 = frozenset({"c0"})
FS_C1 = frozenset({"c1"})


def over_budget_root(sys, req):
    """Example1's policy with one root: its first, plus an instance that
    puts ``c1`` over its core budget, and the first root's entries under the
    new configuration, each prefixed with stopping that instance where the
    burst leaves it running."""
    policy = Synthesizer(sys, req).solve().policy
    sig, cfg = next(iter(policy.roots.items()))
    extra = SwInst("chassis-interface", "c1")
    bad = Config.make(cfg.si + (extra,), cfg.rsi)
    out = Policy(roots={sig: bad}, model=policy.model)
    for (state, fs, burst), entry in policy.entries.items():
        out.entries[(state, fs, burst)] = entry
        if state == cfg and not fs:
            stop = (Stop(extra),) if extra in remove_dead(
                bad, burst, sys).si else ()
            out.entries[(bad, fs, burst)] = entry._replace(
                actions=stop + entry.actions)
    return out, bad


# -- random models ------------------------------------------------------------

PB = RepProtocol(id="pb", sync=True, active=False, progress_q="all",
                 reconfig_q="one")
SMR = RepProtocol(id="smr", sync=False, active=True, progress_q="majority",
                  reconfig_q="majority")


def random_model(rng: random.Random, max_computers=3, max_software=3,
                 rate_limited=None, protocols="mixed", no_deps=False):
    """A small random system model plus a resilience requirement.

    The functionality graph is generated acyclic (components may only
    require lower-numbered functionalities).  ``rate_limited`` forces all
    burst caps set (True), all unset (False), or mixes them (None).
    ``no_deps`` drops software-on-software dependencies entirely.
    """
    n_comp = rng.randint(1, max_computers)
    n_sw = rng.randint(1, max_software)
    two_os = rng.random() < 0.3
    device_types = []
    if rng.random() < 0.4:
        device_types = ["sensA"]
        if rng.random() < 0.3:
            device_types.append("sensB")

    hw = []
    ups = None
    if rng.random() < 0.2:
        ups = Device(id="ups", device_type="power")
        hw.append(ups)
    for i in range(n_comp):
        hw.append(Computer(
            id="c%d" % i,
            os="osB" if two_os and i == n_comp - 1 else "osA",
            cpu_arch="x86",
            cores=rng.randint(2, 4),
            ram=1024,
            devices=frozenset(t for t in device_types
                              if rng.random() < 0.25),
            wired_nic=True,
            power=frozenset({"ups"}) if ups and rng.random() < 0.4
            else frozenset(),
        ))
    for t in device_types:
        hw.append(Device(id=t + "0", device_type=t))

    sw = []
    fns = []
    for i in range(n_sw):
        fn = "f%d" % i
        if fns and rng.random() < 0.25:
            fn = rng.choice(fns)  # second provider of an existing fn
        # Only lower-numbered functionalities may be required, which keeps
        # the dependency graph acyclic even when providers are shared.
        below = [] if no_deps else ["f%d" % k for k in range(int(fn[1:]))]
        persis = rng.random() < 0.15
        sw.append(Software(
            id="s%d" % i,
            fn=fn,
            fn_req=frozenset(f for f in below
                             if f in fns and rng.random() < 0.3),
            devices=frozenset(t for t in device_types
                              if rng.random() < 0.3),
            os="osA" if two_os and rng.random() < 0.4 else None,
            cores=rng.randint(1, 2),
            ram=0,
            deterministic=rng.random() < 0.6,
            fast_starting=rng.random() < 0.8,
            migratable=rng.random() < 0.4,
            persis_state=persis,
            preferred=rng.random() < 0.5,
            remote_use=rng.random() < 0.6,
            resumable=rng.random() < 0.7,
            single_instance=persis or rng.random() < 0.2,
            small_persis_state=persis and rng.random() < 0.6,
        ))
        fns.append(fn)

    if protocols == "pb":
        protos = [PB]
    elif protocols == "smr":
        protos = [SMR]
    else:
        protos = [PB, SMR] if rng.random() < 0.5 else [rng.choice([PB, SMR])]

    sys = SystemModel(hw=hw, sw=sw, protocols=protos,
                      sync=rng.random() < 0.8)

    n = rng.randint(1, 2)
    if rate_limited is True:
        cap = rng.randint(1, n)
        g = rng.choice([None, rng.randint(1, 2)])
        if g is None:
            g = cap  # keep at least one cap in force
    elif rate_limited is False:
        cap, g = None, None
    else:
        cap = rng.choice([None, 1, n])
        g = rng.choice([None, 1, 2])
    bounds = [FailBound(hw_type="Computer", n=n, max_simult=cap)]
    if device_types and rng.random() < 0.4:
        bounds.append(FailBound(hw_type="Device", n=1,
                                max_simult=None if rate_limited is False
                                else rng.choice([None, 1])))
    fm = FailureModel(bounds=tuple(bounds), max_simult=g)

    provided = {s.fn for s in sw}
    crit = frozenset(f for f in sorted(provided) if rng.random() < 0.6)
    if not crit:
        crit = frozenset({rng.choice(sorted(provided))})
    return sys, ResilienceRequirement(fm=fm, crit_fns=crit)


def small_random_model(rng: random.Random, max_valid=6000, **kw):
    """A random model whose exhaustive configuration universe stays small
    enough for the brute-force oracles."""
    from resilcfg.oracle import all_valid_configs

    while True:
        sys, req = random_model(rng, **kw)
        n_options = 1
        placements = 2 ** len(sys.computers)
        for s in sys.software.values():
            n_options *= placements * (1 + 6 * len(sys.protocols))
        if n_options > 200_000:
            continue
        cfgs = all_valid_configs(sys)
        if len(cfgs) <= max_valid:
            return sys, req, cfgs
