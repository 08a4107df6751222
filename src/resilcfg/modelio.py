"""JSON ingestion and serialization for models, policies, and reports.

The model file has top-level keys ``system`` (computers, devices, software,
protocols, sync), ``failureModel`` (bounds, maxSimult), and ``critFns``.
Omitted optional fields mean "unset"; booleans are explicit.  Keys starting
with an underscore are ignored everywhere, so fixtures can carry notes.
All writers emit canonical JSON (sorted keys, fixed separators, trailing
newline) so equal values serialize identically.  Policy files are compact
(no indentation, no spaces after separators); model and report files keep
``indent=2``.

A policy file (format version 2) holds the model's fingerprint, four
tables of distinct objects (``signatures``, ``configs``, ``failedSets``,
``actions``) in first-use order, and ``roots`` and ``entries`` as rows of
indices into them.  The reader decodes each table row once and checks every
index, so decoded entries share the table's objects.
"""

from __future__ import annotations

import json
import re

# The interpreter's own SHA-256.  ``hashlib`` loads OpenSSL, which adds about
# 3.5 MB to the resident memory of every process that solves a model.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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


def _compact(obj) -> str:
    """Canonical compact JSON.  A one-shot ``dumps`` without indentation
    runs CPython's C encoder, which ``json.dump`` to a file never does."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_REQUIRED = "__required__"


def _read_json(path):
    """The JSON value stored in the file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelLoadError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ModelLoadError("%s: line %d column %d: %s"
                             % (path, exc.lineno, exc.colno, exc.msg)) from None
    except ValueError as exc:  # not UTF-8, or an integer too long to read
        raise ModelLoadError("%s: %s" % (path, exc)) from None


def _get(d: dict, key: str, typ, where: str, default=_REQUIRED):
    """Field ``key`` of ``d``, checked against ``typ``.  JSON booleans are
    Python ints, so a boolean passes only where ``typ`` names ``bool``."""
    if key not in d:
        if default != _REQUIRED:
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


def _objects(d: dict, key: str, where: str, default=()) -> list:
    """List field ``key`` of ``d`` whose entries are objects; optional
    unless ``default`` is ``_REQUIRED``."""
    items = _get(d, key, list, where, default)
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ModelLoadError("%s: entry %d of %r has type %s, expected "
                                 "an object" % (where, i, key,
                                                type(item).__name__))
    return items


def _str_tuple(d: dict, key: str, where: str, default=_REQUIRED) -> tuple:
    """List field ``key`` of ``d`` whose entries are strings, as a tuple."""
    items = _get(d, key, list, where, default)
    for item in items:
        if not isinstance(item, str):
            raise ModelLoadError("%s: field %r holds %s, expected strings"
                                 % (where, key, type(item).__name__))
    return tuple(items)


def _strings(d: dict, key: str, where: str, default=_REQUIRED) -> frozenset:
    """List field ``key`` of ``d`` whose entries are strings, as a set."""
    return frozenset(_str_tuple(d, key, where, default))


# Row shapes give, per position, the exact JSON types allowed there, or
# ``_STRS`` for a list of strings, which is read as a tuple.
_STRS = "a list of strings"
_STR = (str,)
_OPT_STR = (str, type(None))


def _rows(d: dict, key: str, shape: tuple, where: str) -> list:
    """List field ``key`` of ``d`` whose entries are lists that match
    ``shape`` position by position, as tuples."""
    return _shaped(_get(d, key, list, where), shape, where, key)


def _shaped(items: list, shape: tuple, where: str, name: str) -> list:
    """The entries of ``items``, named ``name`` in messages, each a list
    that matches ``shape`` position by position, as tuples."""
    rows = []
    for i, row in enumerate(items):
        if type(row) is not list or len(row) != len(shape):
            got = ("%d entries" % len(row) if type(row) is list
                   else "type %s" % type(row).__name__)
            raise ModelLoadError("%s: entry %d of %r has %s, expected a "
                                 "list of %d entries"
                                 % (where, i, name, got, len(shape)))
        vals = []
        for val, typ in zip(row, shape):
            if typ is _STRS:
                ok = type(val) is list and all(type(v) is str for v in val)
            else:
                ok = type(val) in typ
            if not ok:
                raise ModelLoadError(
                    "%s: entry %d of %r holds %s where %s is expected"
                    % (where, i, name, type(val).__name__, _STRS
                       if typ is _STRS else " or ".join(t.__name__
                                                        for t in typ)))
            vals.append(tuple(val) if typ is _STRS else val)
        rows.append(tuple(vals))
    return rows


# -- models -------------------------------------------------------------


def load_model(path):
    """Read a model file; returns (system, resilience requirement)."""
    raw = _read_json(path)
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


_SI_ROW = (_STR, _STR)  # software id, computer id
# software id, protocol id, member computers, primary
_RSI_ROW = (_STR, _STR, _STRS, _OPT_STR)


def config_from_obj(obj: dict) -> Config:
    si = [SwInst(*row) for row in _rows(obj, "si", _SI_ROW, "config")]
    rsi = [rep_inst(*row) for row in _rows(obj, "rsi", _RSI_ROW, "config")]
    return Config.make(si, rsi)


def signature_to_obj(sig: CanonicalSignature) -> dict:
    return {
        "fixedSI": [[s.sw, s.computer] for s in sig.fixed_si],
        "fixedRSI": [list(r[:2]) + [list(r[2]), r[3]] for r in sig.fixed_rsi],
        "relocBag": [[sw, list(devs)] for sw, devs in sig.reloc_bag],
    }


def signature_from_obj(obj: dict) -> CanonicalSignature:
    fixed_si = tuple(SwInst(*row) for row
                     in _rows(obj, "fixedSI", _SI_ROW, "signature"))
    fixed_rsi = tuple(_rows(obj, "fixedRSI", _RSI_ROW, "signature"))
    bag = tuple(_rows(obj, "relocBag", (_STR, _STRS), "signature"))
    return CanonicalSignature(fixed_si, fixed_rsi, bag)


def model_fingerprint(sys: SystemModel, req: ResilienceRequirement) -> str:
    """SHA-256, in hexadecimal, of the canonical compact JSON of the model:
    equal models have equal fingerprints whatever file they came from."""
    text = _compact(model_to_dict(sys, req))
    return sha256(text.encode("utf-8")).hexdigest()


# -- policies --------------------------------------------------------------


def _action_str(o: dict, key: str) -> str:
    return _get(o, key, str, "action")


def _action_si(o: dict) -> SwInst:
    return SwInst(_action_str(o, "sw"), _action_str(o, "computer"))


_ACTION_CODECS = {
    "stop": (Stop, lambda a: {"sw": a.si.sw, "computer": a.si.computer},
             lambda o: Stop(_action_si(o))),
    "stopRep": (StopRep, lambda a: {"sw": a.sw},
                lambda o: StopRep(_action_str(o, "sw"))),
    "start": (Start, lambda a: {"sw": a.si.sw, "computer": a.si.computer},
              lambda o: Start(_action_si(o))),
    "move": (Move, lambda a: {"sw": a.si.sw, "computer": a.si.computer,
                              "target": a.target},
             lambda o: Move(_action_si(o), _action_str(o, "target"))),
    "changeReps": (ChangeReps,
                   lambda a: {"sw": a.sw, "computers": list(a.computers),
                              "primary": a.primary},
                   lambda o: ChangeReps(
                       _action_str(o, "sw"),
                       _str_tuple(o, "computers", "action"),
                       _get(o, "primary", _OPT_STR, "action"))),
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


POLICY_VERSION = 2
_FINGERPRINT = re.compile("[0-9a-f]{64}")
_INT = (int,)
# state config, failed set, burst, target signature, target config: each an
# index; then the list of action indices
_ENTRY_ROW = (_INT,) * 5 + ((list,),)


def _table(encode):
    """(index of, rows): ``index of(obj)`` gives ``obj``'s row in ``rows``,
    appending ``encode(obj)`` the first time ``obj`` is seen."""
    index, rows = {}, []

    def index_of(obj) -> int:
        i = index.get(obj)
        if i is None:
            i = index[obj] = len(rows)
            rows.append(encode(obj))
        return i

    return index_of, rows


def policy_to_dict(policy: Policy) -> dict:
    if policy.model is None:
        raise ModelError("policy has no model fingerprint")
    sig, sigs = _table(signature_to_obj)
    cfg, cfgs = _table(config_to_obj)
    fs, fss = _table(lambda key: [list(f) for f in key])
    act, acts = _table(action_to_obj)
    roots = [[sig(s), cfg(c)] for s, c in policy.roots]
    entries = [[cfg(state), fs(fskey), fs(burstkey), sig(e.target_sig),
                cfg(e.target_cfg), [act(a) for a in e.actions]]
               for (state, fskey, burstkey), e in sorted(
                   policy.entries.items(),
                   key=lambda kv: (kv[0][0].key(), kv[0][1], kv[0][2]))]
    return {"version": POLICY_VERSION, "model": policy.model,
            "signatures": sigs, "configs": cfgs, "failedSets": fss,
            "actions": acts, "roots": roots, "entries": entries}


def save_policy(policy: Policy, path):
    text = _compact(policy_to_dict(policy))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_policy(path) -> Policy:
    """Read a policy file; a malformed one raises ``ModelLoadError``."""
    raw = _read_json(path)
    try:
        return policy_from_dict(raw)
    except ModelError as exc:
        raise ModelLoadError("%s: %s" % (path, exc)) from None


def _at(table: list, i, name: str):
    """Row ``i`` of the table ``name``; anything but an int in range,
    including a boolean, is rejected."""
    if type(i) is int and 0 <= i < len(table):
        return table[i]
    raise ModelLoadError("policy: %r is not an index into %r, which has %d "
                         "entries" % (i, name, len(table)))


def _failed_set(i: int, obj) -> tuple:
    """Entry ``i`` of the ``failedSets`` table: [hardware id, failure type]
    pairs, as an ``fs_key``."""
    if type(obj) is not list:
        raise ModelLoadError("policy: entry %d of 'failedSets' has type %s, "
                             "expected a list" % (i, type(obj).__name__))
    rows = _shaped(obj, (_STR, _STR), "policy", "failedSets %d" % i)
    return fs_key(frozenset(Failure(*row) for row in rows))


def policy_from_dict(raw: dict) -> Policy:
    if not isinstance(raw, dict):
        raise ModelLoadError("policy: has type %s, expected an object"
                             % type(raw).__name__)
    version = raw.get("version")
    if type(version) is not int or version != POLICY_VERSION:
        raise ModelLoadError("policy: format version %r is not supported, "
                             "expected %d; solve the model again"
                             % (version, POLICY_VERSION))
    model = _get(raw, "model", str, "policy")
    if not _FINGERPRINT.fullmatch(model):
        raise ModelLoadError("policy: field 'model' is not a SHA-256 digest "
                             "in lowercase hexadecimal")
    sigs = [signature_from_obj(o)
            for o in _objects(raw, "signatures", "policy", _REQUIRED)]
    cfgs = [config_from_obj(o)
            for o in _objects(raw, "configs", "policy", _REQUIRED)]
    fss = [_failed_set(i, o)
           for i, o in enumerate(_get(raw, "failedSets", list, "policy"))]
    acts = [action_from_obj(o)
            for o in _objects(raw, "actions", "policy", _REQUIRED)]
    policy = Policy(model=model)
    for s, c in _rows(raw, "roots", (_INT, _INT), "policy"):
        policy.add_root(_at(sigs, s, "signatures"), _at(cfgs, c, "configs"))
    for state, fs, burst, tsig, tcfg, actions in _rows(
            raw, "entries", _ENTRY_ROW, "policy"):
        key = (_at(cfgs, state, "configs"), _at(fss, fs, "failedSets"),
               _at(fss, burst, "failedSets"))
        policy.entries[key] = PolicyEntry(
            _at(sigs, tsig, "signatures"), _at(cfgs, tcfg, "configs"),
            tuple(_at(acts, a, "actions") for a in actions))
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
