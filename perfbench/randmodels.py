"""Seeded random system models for the ``random-mix`` workload.

Each model is written as a model-file dictionary, so the solver sees it only
through ``modelio.load_model``.  Models have at most three computers and
three software components, and they use the model features that the
autonomous-driving fixtures never touch: functionality dependencies, active
majority-quorum replication, device and power failures, persistent state,
two operating systems, and both rate-limited and unlimited failure models.
"""

from __future__ import annotations

import random

PRIMARY_BACKUP = {"id": "pb", "sync": True, "active": False,
                  "progressQ": "all", "reconfigQ": "one",
                  "failTypes": ["crash"]}
MAJORITY_SMR = {"id": "smr", "sync": False, "active": True,
                "progressQ": "majority", "reconfigQ": "majority",
                "failTypes": ["crash"]}


def random_model(rng: random.Random) -> dict:
    """One random model file dictionary drawn from ``rng``."""
    n_comp = rng.randint(1, 3)
    n_sw = rng.randint(1, 3)
    two_os = rng.random() < 0.3
    device_types = []
    if rng.random() < 0.4:
        device_types.append("sensA")
        if rng.random() < 0.3:
            device_types.append("sensB")
    ups = rng.random() < 0.2

    computers = []
    for i in range(n_comp):
        computers.append({
            "id": "c%d" % i,
            "os": "osB" if two_os and i == n_comp - 1 else "osA",
            "cpuArch": "x86",
            "cores": rng.randint(2, 4),
            "ram": 1024,
            "devices": sorted(t for t in device_types if rng.random() < 0.25),
            "wiredNIC": True,
            "power": ["ups"] if ups and rng.random() < 0.4 else [],
        })
    devices = [{"id": "ups", "deviceType": "power"}] if ups else []
    devices += [{"id": t + "0", "deviceType": t} for t in device_types]

    software = []
    fns = []
    for i in range(n_sw):
        fn = "f%d" % i
        if fns and rng.random() < 0.25:
            fn = rng.choice(fns)  # a second provider of an existing fn
        # Requiring only lower-numbered functionalities keeps the
        # dependency graph acyclic even when providers are shared.
        below = ["f%d" % k for k in range(int(fn[1:]))]
        persis = rng.random() < 0.15
        software.append({
            "id": "s%d" % i,
            "fn": fn,
            "fnReq": sorted(f for f in below
                            if f in fns and rng.random() < 0.3),
            "devices": sorted(t for t in device_types if rng.random() < 0.3),
            "os": "osA" if two_os and rng.random() < 0.4 else None,
            "cores": rng.randint(1, 2),
            "ram": 0,
            "deterministic": rng.random() < 0.6,
            "fastStarting": rng.random() < 0.8,
            "migratable": rng.random() < 0.4,
            "persisState": persis,
            "preferred": rng.random() < 0.5,
            "remoteUse": rng.random() < 0.6,
            "resumable": rng.random() < 0.7,
            "singleInstance": persis or rng.random() < 0.2,
            "smallPersisState": persis and rng.random() < 0.6,
        })
        fns.append(fn)

    if rng.random() < 0.5:
        protocols = [PRIMARY_BACKUP, MAJORITY_SMR]
    else:
        protocols = [rng.choice([PRIMARY_BACKUP, MAJORITY_SMR])]

    sync = rng.random() < 0.8
    n_fail = rng.randint(1, 2)
    cap = rng.choice([None, 1, n_fail])
    global_cap = rng.choice([None, 1, 2])
    bounds = [{"hwType": "Computer", "fType": "crash", "n": n_fail,
               "maxSimult": cap}]
    if device_types and rng.random() < 0.4:
        bounds.append({"hwType": "Device", "fType": "crash", "n": 1,
                       "maxSimult": rng.choice([None, 1])})

    provided = sorted({s["fn"] for s in software})
    crit = [f for f in provided if rng.random() < 0.6]
    if not crit:
        crit = [rng.choice(provided)]
    return {
        "system": {"sync": sync, "computers": computers,
                   "devices": devices, "software": software,
                   "protocols": protocols},
        "failureModel": {"bounds": bounds, "maxSimult": global_cap},
        "critFns": crit,
    }


def random_batch(seed: int, count: int) -> list:
    """``count`` models drawn from one generator seeded with ``seed``."""
    rng = random.Random(seed)
    return [random_model(rng) for _ in range(count)]
