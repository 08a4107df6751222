"""Built-in example models.

``autonomous_driving_laptop`` and ``autonomous_driving_phone`` reconstruct
an autonomous-driving stack (perception, localization, planning, control,
vehicle interface on quad-core ARM real-time computers with primary-backup
replication) extended with, respectively, a Linux laptop carrying fallback
planning/control builds and an Android phone carrying a manual-control
fallback; both are built by ``_driving``.  ``tiny`` is a two-computer
model small enough for exhaustive oracles, and ``unsat`` admits no
resilient configuration at all.
"""

from __future__ import annotations

from .model import (
    Computer,
    Device,
    RepProtocol,
    Software,
    SystemModel,
    Q_ALL,
    Q_ONE,
)
from .failures import FailBound, FailureModel
from .enumeration import ResilienceRequirement

RT_OS = "safe-rt-linux"
ARM = "arm"

PRIMARY_BACKUP = RepProtocol(
    id="primary-backup", sync=True, active=False,
    progress_q=Q_ALL, reconfig_q=Q_ONE,
)


def _embedded(i: int) -> Computer:
    return Computer(
        id="c%d" % i, os=RT_OS, cpu_arch=ARM, cores=4, ram=8192,
        wired_nic=True, wifi_nic=True,
    )


def _sensors():
    return [Device(id=t + "0", device_type=t)
            for t in ("camera", "gps", "imu", "lidar", "radar")]


def _rt_software(sid, fn, cores=1, devices=(), wired=False, resumable=True):
    return Software(
        id=sid, fn=fn, cores=cores, ram=512, devices=frozenset(devices),
        cpu_arch=ARM, os=RT_OS, wired=wired,
        deterministic=False, fast_starting=True, migratable=False,
        persis_state=False, preferred=True, remote_use=True,
        resumable=resumable, single_instance=False,
    )


def _failure_model(n_fail: int) -> FailureModel:
    return FailureModel(
        bounds=(FailBound(hw_type="Computer", n=n_fail, max_simult=n_fail),),
        max_simult=n_fail,
    )


def _driving(n_computers: int, extra_hw: list, extra_sw: list, crit_fns):
    """The driving skeleton: ``n_computers`` embedded computers (all but one
    may crash), the sensors, primary-backup and the five preferred real-time
    components, plus ``extra_hw`` and ``extra_sw``."""
    if n_computers < 2:
        raise ValueError("need at least two embedded computers")
    perception = Software(
        id="perception", fn="perception", cores=2, ram=1024,
        devices=frozenset({"radar", "lidar", "camera"}),
        cpu_arch=ARM, os=RT_OS,
        deterministic=False, fast_starting=True, migratable=False,
        persis_state=False, preferred=True, remote_use=True,
        resumable=False,  # tracking/prediction state is lost on a crash
        single_instance=True,
    )
    core = [
        perception,
        _rt_software("localization", "localization",
                     devices=("gps", "imu", "camera")),
        _rt_software("planning", "planning"),
        _rt_software("control", "control"),
        # Talks to the vehicle's actuators over the wired bus.
        _rt_software("chassis-interface", "vehicle-interface", wired=True),
    ]
    sys = SystemModel(
        hw=[_embedded(i) for i in range(n_computers)] + extra_hw + _sensors(),
        sw=core + extra_sw, protocols=[PRIMARY_BACKUP], sync=True)
    return sys, ResilienceRequirement(fm=_failure_model(n_computers - 1),
                                      crit_fns=frozenset(crit_fns))


def autonomous_driving_laptop(n_computers: int = 2):
    """Failover-to-laptop example; all five functionalities are critical.
    Of the ``n_computers`` embedded computers, all but one may crash."""
    laptop = Computer(id="laptop", os="linux", cpu_arch="x86-64",
                      cores=4, ram=16384, wired_nic=False, wifi_nic=True)
    linux_sw = [
        Software(id="planning-linux", fn="planning", cores=1, ram=512,
                 os="linux", deterministic=False, fast_starting=True,
                 preferred=False, remote_use=True, resumable=True),
        Software(id="control-linux", fn="control", cores=1, ram=512,
                 os="linux", deterministic=False, fast_starting=True,
                 preferred=False, remote_use=True, resumable=True),
    ]
    return _driving(n_computers, [laptop], linux_sw,
                    {"perception", "localization", "planning", "control",
                     "vehicle-interface"})


def autonomous_driving_phone(n_computers: int = 2):
    """Failover-to-human-operator example; vehicle interface is not critical.
    Of the ``n_computers`` embedded computers, all but one may crash."""
    phone = Computer(id="phone", os="android", cpu_arch=ARM,
                     cores=2, ram=4096, wired_nic=False, wifi_nic=True,
                     cellular=True)
    manual = Software(id="manual-control", fn="control", cores=1, ram=256,
                      os="android", deterministic=False, fast_starting=True,
                      preferred=False, remote_use=False, resumable=True)
    return _driving(n_computers, [phone], [manual],
                    {"perception", "localization", "planning", "control"})


def tiny():
    """Two computers, a GPS, a stateless locator, a replicated planner."""
    computers = [
        Computer(id="c0", os="rtos", cpu_arch=ARM, cores=4, ram=4096,
                 wired_nic=True),
        Computer(id="c1", os="rtos", cpu_arch=ARM, cores=4, ram=4096,
                 wired_nic=True),
    ]
    gps = Device(id="g0", device_type="gps")
    loc = Software(id="LOC", fn="loc", cores=1, ram=256,
                   devices=frozenset({"gps"}),
                   deterministic=True, fast_starting=True, migratable=True,
                   preferred=True, remote_use=True, resumable=True)
    plan = Software(id="PLAN", fn="plan", cores=1, ram=256,
                    fn_req=frozenset({"loc"}),
                    deterministic=True, fast_starting=True, migratable=False,
                    preferred=True, remote_use=False, resumable=False,
                    single_instance=True)
    sys = SystemModel(hw=computers + [gps], sw=[loc, plan],
                      protocols=[PRIMARY_BACKUP], sync=True)
    req = ResilienceRequirement(
        fm=_failure_model(1),
        crit_fns=frozenset({"loc", "plan"}),
    )
    return sys, req


def unsat():
    """One computer, one crash allowed, an unreplicable critical component."""
    c0 = Computer(id="c0", os="rtos", cpu_arch=ARM, cores=4, ram=4096)
    solo = Software(id="SOLO", fn="solo", cores=1, ram=256,
                    deterministic=True, fast_starting=True,
                    preferred=True, remote_use=True, resumable=False,
                    single_instance=True)
    sys = SystemModel(hw=[c0], sw=[solo], protocols=[PRIMARY_BACKUP],
                      sync=True)
    req = ResilienceRequirement(
        fm=_failure_model(1),
        crit_fns=frozenset({"solo"}),
    )
    return sys, req


BUILDERS = {
    "tiny": tiny,
    "example1": autonomous_driving_laptop,
    "example2": autonomous_driving_phone,
    "unsat": unsat,
}
