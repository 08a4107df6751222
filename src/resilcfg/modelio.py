"""JSON ingestion and serialization for models, policies, and reports.

The model file has top-level keys ``system`` (computers, devices, software,
protocols, sync), ``failureModel`` (bounds, maxSimult), and ``critFns``.
Omitted optional fields mean "unset"; booleans are explicit.  Keys starting
with an underscore are ignored everywhere, so fixtures can carry notes.
All writers emit canonical JSON (sorted keys, fixed separators, trailing
newline) so equal values serialize identically.
"""

from __future__ import annotations

import json

from .model import (
    Computer,
    Config,
    Device,
    ModelError,
    RepProtocol,
    Software,
    SwInst,
    SystemModel,
    rep_inst,
)
from .failures import FailBound, FailureModel, Failure, fs_key
from .enumeration import ResilienceRequirement
from .quotient import CanonicalSignature
from .reconfig import ChangeReps, Move, Start, Stop, StopRep
from .synthesis import Policy, PolicyEntry, SolveResult


class ModelLoadError(ModelError):
    """Parse or validation failure, with file/field context."""


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _get(d: dict, key: str, typ, where: str, default="__required__"):
    """Field ``key`` of ``d``, checked against ``typ``.  JSON booleans are
    Python ints, so a boolean passes only where ``typ`` names ``bool``."""
    if key not in d:
        if default != "__required__":
            return default
        raise ModelLoadError("%s: missing field %r" % (where, key))
    val = d[key]
    if typ is not None and not _has_type(val, typ):
        raise ModelLoadError("%s: field %r has type %s, expected %s"
                             % (where, key, type(val).__name__,
                                getattr(typ, "__name__", typ)))
    return val


def _has_type(val, typ) -> bool:
    if isinstance(val, bool):
        return bool in (typ if isinstance(typ, tuple) else (typ,))
    return isinstance(val, typ)


def _objects(d: dict, key: str, where: str) -> list:
    """Optional list field ``key`` of ``d`` whose entries are objects."""
    items = _get(d, key, list, where, [])
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ModelLoadError("%s: entry %d of %r has type %s, expected "
                                 "an object" % (where, i, key,
                                                type(item).__name__))
    return items


def _strings(d: dict, key: str, where: str, default="__required__"):
    """List field ``key`` of ``d`` whose entries are strings, as a set."""
    items = _get(d, key, list, where, default)
    for item in items:
        if not isinstance(item, str):
            raise ModelLoadError("%s: field %r holds %s, expected strings"
                                 % (where, key, type(item).__name__))
    return frozenset(items)


# -- models -------------------------------------------------------------


def load_model(path):
    """Read a model file; returns (system, resilience requirement)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ModelLoadError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ModelLoadError("%s: line %d column %d: %s"
                             % (path, exc.lineno, exc.colno, exc.msg)) from None
    try:
        return model_from_dict(raw)
    except ModelError as exc:
        raise ModelLoadError("%s: %s" % (path, exc)) from None


def model_from_dict(raw: dict):
    if not isinstance(raw, dict):
        raise ModelLoadError("model: has type %s, expected an object"
                             % type(raw).__name__)
    system = _get(raw, "system", dict, "model")
    hw = []
    for c in _objects(system, "computers", "system"):
        where = "computer %s" % c.get("id", "?")
        hw.append(Computer(
            id=_get(c, "id", str, where),
            os=_get(c, "os", str, where),
            cpu_arch=_get(c, "cpuArch", str, where),
            cores=_get(c, "cores", int, where),
            ram=_get(c, "ram", int, where),
            devices=_strings(c, "devices", where, []),
            wired_nic=_get(c, "wiredNIC", bool, where, False),
            wifi_nic=_get(c, "wifiNIC", bool, where, True),
            cellular=_get(c, "cellular", bool, where, False),
            power=_strings(c, "power", where, []),
        ))
    for d in _objects(system, "devices", "system"):
        where = "device %s" % d.get("id", "?")
        hw.append(Device(
            id=_get(d, "id", str, where),
            device_type=_get(d, "deviceType", str, where),
            power=_strings(d, "power", where, []),
        ))
    software = []
    for s in _objects(system, "software", "system"):
        where = "software %s" % s.get("id", "?")
        software.append(Software(
            id=_get(s, "id", str, where),
            fn=_get(s, "fn", str, where),
            fn_req=_strings(s, "fnReq", where, []),
            devices=_strings(s, "devices", where, []),
            cpu_arch=_get(s, "cpuArch", (str, type(None)), where, None),
            os=_get(s, "os", (str, type(None)), where, None),
            ram=_get(s, "ram", int, where, 0),
            cores=_get(s, "cores", int, where),
            cellular=_get(s, "cellular", bool, where, False),
            wired=_get(s, "wired", bool, where, False),
            deterministic=_get(s, "deterministic", bool, where, False),
            fast_starting=_get(s, "fastStarting", bool, where, False),
            migratable=_get(s, "migratable", bool, where, False),
            persis_state=_get(s, "persisState", bool, where, False),
            preferred=_get(s, "preferred", bool, where, False),
            remote_use=_get(s, "remoteUse", bool, where, False),
            resumable=_get(s, "resumable", bool, where, False),
            single_instance=_get(s, "singleInstance", bool, where, False),
            small_persis_state=_get(s, "smallPersisState", bool, where, False),
        ))
    protocols = []
    for p in _objects(system, "protocols", "system"):
        where = "protocol %s" % p.get("id", "?")
        protocols.append(RepProtocol(
            id=_get(p, "id", str, where),
            sync=_get(p, "sync", bool, where),
            active=_get(p, "active", bool, where),
            progress_q=_get(p, "progressQ", str, where),
            reconfig_q=_get(p, "reconfigQ", str, where),
            fail_types=_strings(p, "failTypes", where, ["crash"]),
        ))
    sys_model = SystemModel(hw=hw, sw=software, protocols=protocols,
                            sync=_get(system, "sync", bool, "system"))

    fm_raw = _get(raw, "failureModel", dict, "model")
    bounds = []
    for b in _objects(fm_raw, "bounds", "failureModel"):
        bounds.append(FailBound(
            hw_type=_get(b, "hwType", str, "failure bound"),
            f_type=_get(b, "fType", str, "failure bound", "crash"),
            n=_get(b, "n", int, "failure bound"),
            max_simult=_get(b, "maxSimult", (int, type(None)),
                            "failure bound", None),
        ))
    fm = FailureModel(bounds=tuple(bounds),
                      max_simult=_get(fm_raw, "maxSimult", (int, type(None)),
                                      "failureModel", None))
    crit = _strings(raw, "critFns", "model")
    for fn in crit:
        if fn not in sys_model.fn_providers:
            raise ModelLoadError("critical functionality %r has no provider"
                                 % fn)
    return sys_model, ResilienceRequirement(fm=fm, crit_fns=crit)


def model_to_dict(sys: SystemModel, req: ResilienceRequirement,
                  notes=None) -> dict:
    def opt(v):
        return v

    out = {
        "system": {
            "sync": sys.sync,
            "computers": [{
                "id": c.id, "os": c.os, "cpuArch": c.cpu_arch,
                "cores": c.cores, "ram": c.ram,
                "devices": sorted(c.devices), "wiredNIC": c.wired_nic,
                "wifiNIC": c.wifi_nic, "cellular": c.cellular,
                "power": sorted(c.power),
            } for c in sys.computers.values()],
            "devices": [{
                "id": d.id, "deviceType": d.device_type,
                "power": sorted(d.power),
            } for d in sys.devices.values()],
            "software": [{
                "id": s.id, "fn": s.fn, "fnReq": sorted(s.fn_req),
                "devices": sorted(s.devices), "cpuArch": opt(s.cpu_arch),
                "os": opt(s.os), "ram": s.ram, "cores": s.cores,
                "cellular": s.cellular, "wired": s.wired,
                "deterministic": s.deterministic,
                "fastStarting": s.fast_starting, "migratable": s.migratable,
                "persisState": s.persis_state, "preferred": s.preferred,
                "remoteUse": s.remote_use, "resumable": s.resumable,
                "singleInstance": s.single_instance,
                "smallPersisState": s.small_persis_state,
            } for s in sys.software.values()],
            "protocols": [{
                "id": p.id, "sync": p.sync, "active": p.active,
                "progressQ": p.progress_q, "reconfigQ": p.reconfig_q,
                "failTypes": sorted(p.fail_types),
            } for p in sys.protocols.values()],
        },
        "failureModel": {
            "bounds": [{
                "hwType": b.hw_type, "fType": b.f_type, "n": b.n,
                "maxSimult": b.max_simult,
            } for b in req.fm.bounds],
            "maxSimult": req.fm.max_simult,
        },
        "critFns": sorted(req.crit_fns),
    }
    if notes:
        out["_notes"] = notes
    return out


def save_model(sys: SystemModel, req: ResilienceRequirement, path,
               notes=None):
    _dump(model_to_dict(sys, req, notes), path)


# -- configurations, signatures, failed sets ------------------------------


def config_to_obj(cfg: Config) -> dict:
    return {
        "si": [[s.sw, s.computer] for s in cfg.si],
        "rsi": [[r.sw, r.protocol, list(r.computers), r.primary]
                for r in cfg.rsi],
    }


def config_from_obj(obj: dict) -> Config:
    si = [SwInst(sw, c) for sw, c in _get(obj, "si", list, "config")]
    rsi = [rep_inst(sw, proto, members, primary)
           for sw, proto, members, primary
           in _get(obj, "rsi", list, "config")]
    return Config.make(si, rsi)


def signature_to_obj(sig: CanonicalSignature) -> dict:
    return {
        "fixedSI": [[s.sw, s.computer] for s in sig.fixed_si],
        "fixedRSI": [list(r[:2]) + [list(r[2]), r[3]] for r in sig.fixed_rsi],
        "relocBag": [[sw, list(devs)] for sw, devs in sig.reloc_bag],
    }


def signature_from_obj(obj: dict) -> CanonicalSignature:
    fixed_si = tuple(SwInst(sw, c)
                     for sw, c in _get(obj, "fixedSI", list, "signature"))
    fixed_rsi = tuple((sw, proto, tuple(members), primary)
                      for sw, proto, members, primary
                      in _get(obj, "fixedRSI", list, "signature"))
    bag = tuple((sw, tuple(devs))
                for sw, devs in _get(obj, "relocBag", list, "signature"))
    return CanonicalSignature(fixed_si, fixed_rsi, bag)


def _fs_to_obj(fs) -> list:
    return [[f.hw, f.ftype] for f in fs_key(fs)]


def _fs_from_obj(obj) -> frozenset:
    return frozenset(Failure(hw, ftype) for hw, ftype in obj)


# -- policies --------------------------------------------------------------


_ACTION_CODECS = {
    "stop": (Stop, lambda a: {"sw": a.si.sw, "computer": a.si.computer},
             lambda o: Stop(SwInst(o["sw"], o["computer"]))),
    "stopRep": (StopRep, lambda a: {"sw": a.sw},
                lambda o: StopRep(o["sw"])),
    "start": (Start, lambda a: {"sw": a.si.sw, "computer": a.si.computer},
              lambda o: Start(SwInst(o["sw"], o["computer"]))),
    "move": (Move, lambda a: {"sw": a.si.sw, "computer": a.si.computer,
                              "target": a.target},
             lambda o: Move(SwInst(o["sw"], o["computer"]), o["target"])),
    "changeReps": (ChangeReps,
                   lambda a: {"sw": a.sw, "computers": list(a.computers),
                              "primary": a.primary},
                   lambda o: ChangeReps(o["sw"], tuple(o["computers"]),
                                        o["primary"])),
}


def action_to_obj(action) -> dict:
    for name, (cls, enc, _) in _ACTION_CODECS.items():
        if isinstance(action, cls):
            out = {"type": name}
            out.update(enc(action))
            return out
    raise ModelError("unknown action %r" % (action,))


def action_from_obj(obj: dict):
    name = _get(obj, "type", str, "action")
    if name not in _ACTION_CODECS:
        raise ModelLoadError("unknown action type %r" % name)
    return _ACTION_CODECS[name][2](obj)


def policy_to_dict(policy: Policy) -> dict:
    roots = [{"signature": signature_to_obj(sig),
              "config": config_to_obj(cfg)}
             for sig, cfg in policy.roots]
    entries = []
    for (sig, fskey, burstkey), entry in sorted(
            policy.entries.items(),
            key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
        entries.append({
            "state": {"signature": signature_to_obj(sig),
                      "failedSet": [list(f) for f in fskey]},
            "burst": [list(f) for f in burstkey],
            "target": {"signature": signature_to_obj(entry.target_sig),
                       "config": config_to_obj(entry.target_cfg)},
            "actions": [action_to_obj(a) for a in entry.actions],
        })
    return {"roots": roots, "entries": entries}


def save_policy(policy: Policy, path):
    _dump(policy_to_dict(policy), path)


def load_policy(path) -> Policy:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ModelLoadError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ModelLoadError("%s: line %d: %s"
                             % (path, exc.lineno, exc.msg)) from None
    policy = Policy()
    for r in _get(raw, "roots", list, "policy"):
        policy.add_root(signature_from_obj(r["signature"]),
                        config_from_obj(r["config"]))
    for e in _get(raw, "entries", list, "policy"):
        sig = signature_from_obj(e["state"]["signature"])
        fs = _fs_from_obj(e["state"]["failedSet"])
        burst = _fs_from_obj(e["burst"])
        entry = PolicyEntry(
            signature_from_obj(e["target"]["signature"]),
            config_from_obj(e["target"]["config"]),
            tuple(action_from_obj(a) for a in e["actions"]),
        )
        policy.entries[(sig, fs_key(fs), fs_key(burst))] = entry
    return policy


# -- run reports -------------------------------------------------------------


def report_to_dict(result: SolveResult, model_path: str = None) -> dict:
    """Counts and verdicts of a run.  Wall-clock timings are deliberately
    not included: report files must be byte-identical across reruns."""
    out = {
        "model": model_path,
        "mode": result.mode,
        "quotient": result.quotient,
        "allCfg": result.n_all,
        "initCfg": result.n_init,
        "allCfgClasses": result.n_all_classes,
        "initCfgClasses": result.n_init_classes,
        "resilientClasses": result.n_resilient_classes,
        "resilient": [{
            "signature": signature_to_obj(sig),
            "qos": q.qos,
            "cost": q.cost,
            "config": config_to_obj(cfg),
        } for sig, q, cfg in result.resilient],
    }
    return out


def save_report(result: SolveResult, path, model_path: str = None):
    _dump(report_to_dict(result, model_path), path)
