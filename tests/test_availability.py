"""Liveness and availability, cross-checked against a quorum-enumerating
brute-force evaluator."""

import itertools
import random

from resilcfg import (
    Computer,
    Config,
    Device,
    Synthesizer,
    SystemModel,
    avail,
    avail_dev,
    avail_on,
    live,
    quorum_size,
)
from resilcfg.modelio import model_from_dict
from resilcfg.oracle import all_valid_configs
from conftest import (FS0, FS_C0, FS_C1, power_chain_model,
                      small_random_model, tiny_config)


# -- independent reference evaluator -----------------------------------------


def brute_avail_on(fn, c, cfg, fs, sys):
    """Literal evaluator: enumerates every candidate quorum explicitly."""
    if not live(c, fs, sys):
        return False

    def reqs_ok(sw, host):
        return (all(brute_avail_on(f2, host, cfg, fs, sys)
                    for f2 in sw.fn_req)
                and all(avail_dev(dt, host, fs, sys) for dt in sw.devices))

    for si in cfg.si:
        sw = sys.sw(si.sw)
        if (sw.fn == fn and live(si.computer, fs, sys)
                and (c == si.computer or sw.remote_use)
                and reqs_ok(sw, si.computer)):
            return True
    for rsi in cfg.rsi:
        sw = sys.sw(rsi.sw)
        if sw.fn != fn:
            continue
        proto = sys.protocol(rsi.protocol)
        need = quorum_size(proto.progress_q, len(rsi.computers))
        for size in range(need, len(rsi.computers) + 1):
            for quorum in itertools.combinations(rsi.computers, size):
                if not all(live(m, fs, sys) for m in quorum):
                    continue
                if c not in quorum and not sw.remote_use:
                    continue
                if proto.active:
                    if all(reqs_ok(sw, m) for m in quorum):
                        return True
                else:
                    if rsi.primary is not None and reqs_ok(sw, rsi.primary):
                        return True
    return False


# -- liveness -----------------------------------------------------------------


def test_live_internal_power(tiny_sys):
    assert live("c0", FS0, tiny_sys)


def test_live_failed(tiny_sys):
    assert not live("c0", FS_C0, tiny_sys)


def test_live_power_chain():
    ups = Device(id="ups", device_type="power")
    comp = Computer(id="c0", os="osA", cpu_arch="x86", cores=2, ram=64,
                    power=frozenset({"ups"}))
    sys = SystemModel(hw=[comp, ups], sw=[], protocols=[], sync=True)
    assert live("c0", FS0, sys)
    # The sole power source is a single point of failure.
    assert not live("c0", frozenset({"ups"}), sys)


def _reference_live(h, fs, sys):
    """The recursive definition: unfailed, and internally powered or with
    a live power source."""
    power = sys.power_of(h)
    return h not in fs and (
        not power or any(_reference_live(p, fs, sys) for p in power))


def test_live_with_shared_and_alternative_power_sources():
    rng = random.Random(5)
    for _ in range(200):
        ids = ["d%d" % i for i in range(8)]
        hw = [Device(id=h, device_type="t",
                     power=frozenset(p for p in ids[i + 1:]
                                     if rng.random() < 0.3))
              for i, h in enumerate(ids)]
        sys = SystemModel(hw=hw, sw=[], protocols=[], sync=True)
        fs = frozenset(h for h in ids if rng.random() < 0.3)
        for h in ids:
            assert live(h, fs, sys) == _reference_live(h, fs, sys)


def test_live_along_a_power_chain_longer_than_the_recursion_limit():
    sys, req = model_from_dict(power_chain_model(3000))
    assert live("c0", FS0, sys)
    assert not live("c0", frozenset({"p2999"}), sys)
    assert not live("c0", frozenset({"p1500"}), sys)
    # The solve reads liveness through the whole chain, and a chain of
    # devices no failure model fails powers c0 as a single device does.
    short = model_from_dict(power_chain_model(1))
    assert (Synthesizer(sys, req).solve().counts()
            == Synthesizer(*short).solve().counts())


# -- device availability -------------------------------------------------------


def test_avail_dev_integrated():
    comp = Computer(id="c0", os="osA", cpu_arch="x86", cores=2, ram=64,
                    devices=frozenset({"gps"}))
    sys = SystemModel(hw=[comp], sw=[], protocols=[], sync=True)
    assert avail_dev("gps", "c0", frozenset({"c0"}), sys)


def test_avail_dev_standalone(tiny_sys):
    assert avail_dev("gps", "c0", FS0, tiny_sys)


def test_avail_dev_standalone_dead(tiny_sys):
    assert not avail_dev("gps", "c0", frozenset({"g0"}), tiny_sys)


# -- functionality availability -------------------------------------------------


def test_avail_on_unprovided(tiny_sys):
    assert not avail_on("plan", "c0", Config(), FS0, tiny_sys)


def test_avail_on_quorum_and_remote_dependency(tiny_sys):
    cfg = tiny_config()
    # plan is served on c1: both replicas live, primary c0 reaches LOC
    # remotely.
    assert avail_on("plan", "c1", cfg, FS0, tiny_sys)


def test_avail_on_progress_quorum_blocks(tiny_sys):
    cfg = tiny_config()
    # progress quorum "all" needs both replicas live.
    assert not avail_on("plan", "c1", cfg, FS_C0, tiny_sys)


def test_avail_vacuous(tiny_sys):
    assert avail(frozenset(), tiny_config(), FS0, tiny_sys)


def test_avail_tiny(tiny_sys):
    assert avail({"loc", "plan"}, tiny_config(), FS0, tiny_sys)


def test_avail_all_computers_dead(tiny_sys):
    assert not avail({"loc", "plan"}, tiny_config(), FS_C0 | FS_C1, tiny_sys)


def test_avail_on_implies_live(tiny_sys):
    cfg = tiny_config()
    for fs in (FS0, FS_C0, FS_C1):
        for c in ("c0", "c1"):
            for fn in ("loc", "plan"):
                if avail_on(fn, c, cfg, fs, tiny_sys):
                    assert live(c, fs, tiny_sys)


def test_remote_only_provider_is_host_independent(tiny_sys):
    # LOC is remote-usable, so its availability is the same on any live
    # computer.
    cfg = tiny_config()
    for fs in (FS0, FS_C0, FS_C1):
        vals = {c: avail_on("loc", c, cfg, fs, tiny_sys)
                for c in ("c0", "c1") if live(c, fs, tiny_sys)}
        assert len(set(vals.values())) <= 1


def test_avail_on_matches_brute_force_on_tiny(tiny_sys):
    fss = [FS0, FS_C0, FS_C1]
    for cfg in all_valid_configs(tiny_sys):
        for fs in fss:
            for c in ("c0", "c1"):
                for fn in ("loc", "plan"):
                    assert (avail_on(fn, c, cfg, fs, tiny_sys)
                            == brute_avail_on(fn, c, cfg, fs, tiny_sys)), \
                        (cfg, fs, c, fn)


def test_avail_on_matches_brute_force_on_random_models():
    rng = random.Random(2024)
    for _ in range(40):
        sys, req, cfgs = small_random_model(rng, max_computers=2)
        cfgs = list(cfgs)
        rng.shuffle(cfgs)
        failures = list(sys.computers) + list(sys.devices)
        for cfg in cfgs[:6]:
            for _ in range(4):
                fs = frozenset(f for f in failures if rng.random() < 0.3)
                c = rng.choice(list(sys.computers))
                for fn in {s.fn for s in sys.software.values()}:
                    assert (avail_on(fn, c, cfg, fs, sys)
                            == brute_avail_on(fn, c, cfg, fs, sys))


def test_passive_quorum_does_not_require_live_primary():
    """Documented boundary: for passive replication the availability rule
    only consults the primary for the component's functionality and device
    requirements.  A requirement-free component with a live majority quorum
    is therefore available even while its primary is down (a reconfiguration
    would normally hand the primary over immediately)."""
    from resilcfg import (Computer, Config, RepProtocol, Software,
                          SystemModel, rep_inst)

    comps = [Computer(id="c%d" % i, os="osA", cpu_arch="x86", cores=2,
                      ram=64) for i in range(3)]
    sw = Software(id="s", fn="f", cores=1, fast_starting=True,
                  resumable=False)
    proto = RepProtocol(id="maj", sync=False, active=False,
                        progress_q="majority", reconfig_q="majority")
    sys = SystemModel(hw=comps, sw=[sw], protocols=[proto], sync=True)
    cfg = Config.make([], [rep_inst("s", "maj", ["c0", "c1", "c2"], "c0")])
    fs = frozenset({"c0"})
    assert avail_on("f", "c1", cfg, fs, sys)


def test_monotone_in_failures(tiny_sys):
    cfg = tiny_config()
    for fs_small, fs_big in [(FS0, FS_C0), (FS0, FS_C1),
                             (FS_C0, FS_C0 | FS_C1)]:
        for c in ("c0", "c1"):
            for fn in ("loc", "plan"):
                if avail_on(fn, c, cfg, fs_big, tiny_sys):
                    assert avail_on(fn, c, cfg, fs_small, tiny_sys)


_COUNT_AVAIL_ON_CALLS = '''
from resilcfg import (Computer, FailBound, FailureModel, RepProtocol,
                      ResilienceRequirement, Software, Synthesizer,
                      SystemModel, availability)

calls = 0
real_avail_on = availability.avail_on


def counted(*args):
    global calls
    calls += 1
    return real_avail_on(*args)


availability.avail_on = counted


def sw(sid, fn, req=()):
    return Software(id=sid, fn=fn, fn_req=frozenset(req),
                    fast_starting=True, resumable=True, remote_use=True)


# "d" needs "fc", served only through the chain c -> b -> a, and "fx",
# which nothing provides: trying "fx" first skips the whole chain.
sys = SystemModel(
    hw=[Computer(id="c%d" % i, os="osA", cpu_arch="x86", cores=4, ram=1024)
        for i in range(2)],
    sw=[sw("a", "fa"), sw("b", "fb", ["fa"]), sw("c", "fc", ["fb"]),
        sw("d", "fd", ["fc", "fx"])],
    protocols=[RepProtocol(id="pb", sync=True, active=False,
                           progress_q="all", reconfig_q="one")],
    sync=True)
req = ResilienceRequirement(
    fm=FailureModel(bounds=(FailBound(hw_type="Computer", n=1),)),
    crit_fns=frozenset({"fd"}))
Synthesizer(sys, req).solve("best")
print(calls)
'''


def test_solve_work_does_not_depend_on_the_hash_seed():
    """``can_run`` stops at the first unavailable requirement, so the order
    it tries them in decides how many ``avail_on`` calls a solve makes; that
    order must not follow the hash seed of the process."""
    import os
    import subprocess
    import sys as _python

    import resilcfg

    import_root = os.path.dirname(os.path.dirname(resilcfg.__file__))
    counts = set()
    for seed in ("0", "1", "2", "3"):
        proc = subprocess.run(
            [_python.executable, "-c", _COUNT_AVAIL_ON_CALLS],
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": import_root},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        counts.add(int(proc.stdout))
    assert len(counts) == 1, counts
