"""Built-in example models.

``autonomous_driving_laptop`` and ``autonomous_driving_phone`` reconstruct
an autonomous-driving stack (perception, localization, planning, control,
vehicle interface on quad-core ARM real-time computers with primary-backup
replication) extended with, respectively, a Linux laptop carrying fallback
planning/control builds and an Android phone carrying a manual-control
fallback.  ``tiny`` is a two-computer model small enough for exhaustive
oracles, and ``unsat`` admits no resilient configuration at all.
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


def _driving_core():
    """The five preferred real-time components shared by both examples."""
    perception = Software(
        id="perception", fn="perception", cores=2, ram=1024,
        devices=frozenset({"radar", "lidar", "camera"}),
        cpu_arch=ARM, os=RT_OS,
        deterministic=False, fast_starting=True, migratable=False,
        persis_state=False, preferred=True, remote_use=True,
        resumable=False,  # tracking/prediction state is lost on a crash
        single_instance=True,
    )
    return [
        perception,
        _rt_software("localization", "localization",
                     devices=("gps", "imu", "camera")),
        _rt_software("planning", "planning"),
        _rt_software("control", "control"),
        # Talks to the vehicle's actuators over the wired bus.
        _rt_software("chassis-interface", "vehicle-interface", wired=True),
    ]


def _failure_model(n_fail: int) -> FailureModel:
    return FailureModel(
        bounds=(FailBound(hw_type="Computer", n=n_fail, max_simult=n_fail),),
        max_simult=n_fail,
    )


def autonomous_driving_laptop(n_computers: int = 2):
    """Failover-to-laptop example; all five functionalities are critical.
    Of the ``n_computers`` embedded computers, all but one may crash."""
    if n_computers < 2:
        raise ValueError("need at least two embedded computers")
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
    sys = SystemModel(
        hw=[_embedded(i) for i in range(n_computers)] + [laptop] + _sensors(),
        sw=_driving_core() + linux_sw,
        protocols=[PRIMARY_BACKUP],
        sync=True,
    )
    req = ResilienceRequirement(
        fm=_failure_model(n_computers - 1),
        crit_fns=frozenset({"perception", "localization", "planning",
                            "control", "vehicle-interface"}),
    )
    return sys, req


def autonomous_driving_phone(n_computers: int = 2):
    """Failover-to-human-operator example; vehicle interface is not critical.
    Of the ``n_computers`` embedded computers, all but one may crash."""
    if n_computers < 2:
        raise ValueError("need at least two embedded computers")
    phone = Computer(id="phone", os="android", cpu_arch=ARM,
                     cores=2, ram=4096, wired_nic=False, wifi_nic=True,
                     cellular=True)
    manual = Software(id="manual-control", fn="control", cores=1, ram=256,
                      os="android", deterministic=False, fast_starting=True,
                      preferred=False, remote_use=False, resumable=True)
    sys = SystemModel(
        hw=[_embedded(i) for i in range(n_computers)] + [phone] + _sensors(),
        sw=_driving_core() + [manual],
        protocols=[PRIMARY_BACKUP],
        sync=True,
    )
    req = ResilienceRequirement(
        fm=_failure_model(n_computers - 1),
        crit_fns=frozenset({"perception", "localization", "planning",
                            "control"}),
    )
    return sys, req


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
        fm=FailureModel(bounds=(FailBound(hw_type="Computer", n=1,
                                          max_simult=1),),
                        max_simult=1),
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
        fm=FailureModel(bounds=(FailBound(hw_type="Computer", n=1,
                                          max_simult=1),),
                        max_simult=1),
        crit_fns=frozenset({"solo"}),
    )
    return sys, req


BUILDERS = {
    "tiny": tiny,
    "example1": autonomous_driving_laptop,
    "example2": autonomous_driving_phone,
    "unsat": unsat,
}
