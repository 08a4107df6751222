"""The four file formats: models, policies, replay schedules and reports.

The model file has top-level keys ``system`` (computers, devices, software,
protocols, sync), ``failureModel`` (bounds, maxSimult), and ``critFns``.
The fields of each kind of record in those lists are defined once, in
``RECORDS``, which both the reader and the writer walk.  Omitted optional
fields take their defaults.  Keys starting with an underscore are ignored
everywhere, so fixtures can carry notes.
All writers emit canonical JSON (sorted keys, fixed separators, trailing
newline) so equal values serialize identically.  Policy files are compact
(no indentation, no spaces after separators); model and report files keep
``indent=2``, written by ``_write_indented`` with the bytes ``json.dump``
would write.

A replay schedule is a list of bursts, each a list of the ids of hardware
that crashes together.

A policy file (format version 3) holds the model's fingerprint, three
tables of distinct objects in first-use order (``configs``, ``failedSets``,
each a sorted list of hardware ids, and ``actions``), ``roots`` as rows of
a signature and a configuration index, and ``entries`` as rows of indices:
state configuration, failed set, burst, target configuration and the list
of actions.  The reader decodes each table row once and checks every index,
so decoded entries share the table's objects.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

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
    CRASH,
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
from .failures import (EMPTY_FS, FailBound, FailureModel, consistent,
                       fs_key)
from .enumeration import ResilienceRequirement
from .quotient import CanonicalSignature
from .reconfig import ChangeReps, Move, Start, Stop, StopRep
from .synthesis import Policy, PolicyEntry, SolveResult


class ModelLoadError(ModelError):
    """Parse or validation failure, with file/field context."""


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        _write_indented(obj, fh.write)


_encode_str = json.encoder.encode_basestring_ascii


def _write_indented(obj, write):
    """Write the text of ``json.dumps(obj, indent=2, sort_keys=True)`` and a
    newline through ``write``, a few thousand chunks at a time; object keys
    must be strings.  ``json.dump`` with ``indent`` runs the pure-Python
    encoder and writes each small chunk on its own, and text built whole
    would hold a large report's chunks all at once."""
    out = []
    _indented(obj, "", out, write)
    out.append("\n")
    write("".join(out))


def _indented(obj, pad: str, out: list, write):
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, (dict, list, tuple)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = pad + "  "
        sep = "\n" + inner
        if isinstance(obj, dict):
            out.append("{")
            for key in sorted(obj):
                out += (sep, _encode_str(key), ": ")
                _indented(obj[key], inner, out, write)
                sep = ",\n" + inner
            out.append("\n" + pad + "}")
        else:
            out.append("[")
            for item in obj:
                out.append(sep)
                _indented(item, inner, out, write)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
        if len(out) > 4096:
            write("".join(out))
            out.clear()
    else:
        out.append(json.dumps(obj))


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
    # Not UTF-8, an integer too long to read, or arrays nested too deeply.
    except (ValueError, RecursionError) as exc:
        raise ModelLoadError("%s: %s" % (path, exc)) from None


def _get(d: dict, key: str, typ, where: str, default=_REQUIRED):
    """Field ``key`` of ``d``, checked against ``typ``.  JSON booleans are
    Python ints, so a boolean passes only where ``typ`` names ``bool``."""
    if key not in d:
        if default is not _REQUIRED:
            return default
        raise ModelLoadError("%s: missing field %r" % (where, key))
    val = d[key]
    if typ is not None and not _has_type(val, typ):
        raise ModelLoadError("%s: field %r has type %s, expected %s"
                             % (where, key, type(val).__name__,
                                _type_names(typ)))
    return val


def _type_names(typ) -> str:
    """A type, or a tuple of types joined with " or ", by JSON-facing name:
    ``NoneType`` reads ``null``."""
    return " or ".join("null" if t is type(None) else t.__name__
                       for t in (typ if isinstance(typ, tuple) else (typ,)))


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


# Row shapes give, per position, the exact JSON types allowed there, or
# ``_STRS`` for a list of strings, which is read as a tuple.
_STRS = "a list of strings"
_STR = (str,)
_OPT_STR = (str, type(None))
_OPT_INT = (int, type(None))


def _rows(d: dict, key: str, shape: tuple, where: str) -> list:
    """List field ``key`` of ``d`` whose entries are lists that match
    ``shape`` position by position, as tuples."""
    rows = []
    for i, row in enumerate(_get(d, key, list, where)):
        if type(row) is not list or len(row) != len(shape):
            got = ("%d entries" % len(row) if type(row) is list
                   else "type %s" % type(row).__name__)
            raise ModelLoadError("%s: entry %d of %r has %s, expected a "
                                 "list of %d entries"
                                 % (where, i, key, got, len(shape)))
        vals = []
        for val, typ in zip(row, shape):
            if typ is _STRS:
                ok = type(val) is list and all(type(v) is str for v in val)
            else:
                ok = type(val) in typ
            if not ok:
                raise ModelLoadError(
                    "%s: entry %d of %r holds %s where %s is expected"
                    % (where, i, key, type(val).__name__, _STRS
                       if typ is _STRS else _type_names(typ)))
            vals.append(tuple(val) if typ is _STRS else val)
        rows.append(tuple(vals))
    return rows


# -- models -------------------------------------------------------------


class StrSet:
    """Field type: a list of strings, read as a frozenset, written sorted."""


class Record(NamedTuple):
    """A kind of record in a model file: its class, its name in messages
    (``{}`` stands for its id), and its (JSON key, attribute, type,
    default) rows in reading order."""

    cls: type
    where: str
    fields: tuple


def _record(cls, where: str, *rows) -> Record:
    """A ``Record`` from (JSON key, type[, default]) rows; a row without a
    default is a required field.  The attribute is the key in snake case."""
    return Record(cls, where, tuple(
        (key, re.sub("(?<=[a-z])(?=[A-Z])", "_", key).lower(), typ,
         default[0] if default else _REQUIRED)
        for key, typ, *default in rows))


# The records of a model file by (section, list key).  A field is one row
# here and one property in docs/model.schema.json.
RECORDS = {
    ("system", "computers"): _record(
        Computer, "computer {}", ("id", str), ("os", str), ("cpuArch", str),
        ("cores", int), ("ram", int), ("devices", StrSet, ()),
        ("wiredNIC", bool, False), ("wifiNIC", bool, True),
        ("cellular", bool, False), ("power", StrSet, ())),
    ("system", "devices"): _record(
        Device, "device {}", ("id", str), ("deviceType", str),
        ("power", StrSet, ())),
    ("system", "software"): _record(
        Software, "software {}", ("id", str), ("fn", str),
        ("fnReq", StrSet, ()), ("devices", StrSet, ()),
        ("cpuArch", _OPT_STR, None), ("os", _OPT_STR, None), ("ram", int, 0),
        ("cores", int), ("cellular", bool, False), ("wired", bool, False),
        ("deterministic", bool, False), ("fastStarting", bool, False),
        ("migratable", bool, False), ("persisState", bool, False),
        ("preferred", bool, False), ("remoteUse", bool, False),
        ("resumable", bool, False), ("singleInstance", bool, False),
        ("smallPersisState", bool, False)),
    ("system", "protocols"): _record(
        RepProtocol, "protocol {}", ("id", str), ("sync", bool),
        ("active", bool), ("progressQ", str), ("reconfigQ", str),
        ("failTypes", StrSet, (CRASH,))),
    ("failureModel", "bounds"): _record(
        FailBound, "failure bound", ("hwType", str), ("fType", str, CRASH),
        ("n", int), ("maxSimult", _OPT_INT, None)),
}
_SYSTEM = ("computers", "devices", "software", "protocols")


def _read_records(obj: dict, section: str, key: str) -> list:
    """The records in list ``key`` of ``obj``, the model's ``section``."""
    rec = RECORDS[section, key]
    out = []
    for d in _objects(obj, key, section):
        where = rec.where.format(d.get("id", "?"))
        kw = {}
        for field, attr, typ, default in rec.fields:
            if typ is StrSet:
                kw[attr] = frozenset(_str_tuple(d, field, where, default))
            else:
                kw[attr] = _get(d, field, typ, where, default)
        out.append(rec.cls(**kw))
    return out


def _write_records(records, section: str, key: str) -> list:
    """``records`` as the objects of list ``key`` of the model's
    ``section``."""
    fields = RECORDS[section, key].fields
    out = []
    for obj in records:
        d = {}
        for field, attr, typ, _ in fields:
            val = getattr(obj, attr)
            d[field] = sorted(val) if typ is StrSet else val
        out.append(d)
    return out


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
    found = {key: _read_records(system, "system", key) for key in _SYSTEM}
    sys_model = SystemModel(hw=found["computers"] + found["devices"],
                            sw=found["software"], protocols=found["protocols"],
                            sync=_get(system, "sync", bool, "system"))
    fm_raw = _get(raw, "failureModel", dict, "model")
    fm = FailureModel(bounds=_read_records(fm_raw, "failureModel", "bounds"),
                      max_simult=_get(fm_raw, "maxSimult", _OPT_INT,
                                      "failureModel", None))
    crit = frozenset(_str_tuple(raw, "critFns", "model"))
    for fn in sorted(crit):
        if fn not in sys_model.fn_providers:
            raise ModelLoadError("critical functionality %r has no provider"
                                 % fn)
    return sys_model, ResilienceRequirement(fm=fm, crit_fns=crit)


def model_to_dict(sys: SystemModel, req: ResilienceRequirement) -> dict:
    system = {key: _write_records(getattr(sys, key).values(), "system", key)
              for key in _SYSTEM}
    system["sync"] = sys.sync
    return {"system": system,
            "failureModel": {
                "bounds": _write_records(req.fm.bounds, "failureModel",
                                         "bounds"),
                "maxSimult": req.fm.max_simult},
            "critFns": sorted(req.crit_fns)}


def save_model(sys: SystemModel, req: ResilienceRequirement, path):
    _dump(model_to_dict(sys, req), path)


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
    action = _ACTION_CODECS[name][2](obj)
    if isinstance(action, ChangeReps):  # rep_inst's member checks, on load
        rep_inst(action.sw, "", action.computers, action.primary)
    return action


POLICY_VERSION = 3
_FINGERPRINT = re.compile("[0-9a-f]{64}")
_INT = (int,)
# state config, failed set, burst, target config: each an index; then the
# list of action indices
_ENTRY_ROW = (_INT,) * 4 + ((list,),)


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
    # Many entries share a state configuration or a failed set: key each
    # one once.
    states = {c: c.key() for c in {k[0] for k in policy.entries}}
    sets = {f: fs_key(f) for f in {f for k in policy.entries for f in k[1:]}}

    def order(item):
        (state, f, burst), _ = item
        return states[state], sets[f], sets[burst]

    cfg, cfgs = _table(config_to_obj)
    fs, fss = _table(lambda f: list(sets[f]))
    act, acts = _table(action_to_obj)
    roots = [[signature_to_obj(s), cfg(c)] for s, c in policy.roots.items()]
    entries = [[cfg(state), fs(f), fs(burst), cfg(e.target_cfg),
                [act(a) for a in e.actions]]
               for (state, f, burst), e in sorted(policy.entries.items(),
                                                  key=order)]
    return {"version": POLICY_VERSION, "model": policy.model,
            "configs": cfgs, "failedSets": fss, "actions": acts,
            "roots": roots, "entries": entries}


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
    cfgs = [config_from_obj(o)
            for o in _objects(raw, "configs", "policy", _REQUIRED)]
    fss = []
    for i, row in enumerate(_get(raw, "failedSets", list, "policy")):
        if type(row) is not list or not all(type(h) is str for h in row):
            raise ModelLoadError("policy: entry %d of 'failedSets' is not a "
                                 "list of hardware ids" % i)
        fss.append(frozenset(row))
    acts = [action_from_obj(o)
            for o in _objects(raw, "actions", "policy", _REQUIRED)]
    policy = Policy(model=model)
    for i, (s, c) in enumerate(_rows(raw, "roots", ((dict,), _INT),
                                     "policy")):
        sig = signature_from_obj(s)
        # Replay starts from the root of a signature, so a second one would
        # never be checked.
        if sig in policy.roots:
            raise ModelLoadError("policy: root %d repeats the signature of "
                                 "an earlier root" % i)
        policy.roots[sig] = _at(cfgs, c, "configs")
    for i, (state, fs, burst, tcfg, actions) in enumerate(_rows(
            raw, "entries", _ENTRY_ROW, "policy")):
        key = (_at(cfgs, state, "configs"), _at(fss, fs, "failedSets"),
               _at(fss, burst, "failedSets"))
        if key in policy.entries:
            raise ModelLoadError("policy: entry %d repeats the state, failed "
                                 "set and burst of an earlier entry" % i)
        policy.entries[key] = PolicyEntry(
            _at(cfgs, tcfg, "configs"),
            tuple(_at(acts, a, "actions") for a in actions))
    return policy


# -- replay schedules ------------------------------------------------------


def load_schedule(path, sys: SystemModel,
                  req: ResilienceRequirement) -> list:
    """The bursts of a schedule file, a list of bursts that each list the
    ids of hardware that crashes together.  A schedule outside the failure
    model is an input error, so that a replay failure always means a policy
    gap."""
    raw = _read_json(path)
    if not (isinstance(raw, list)
            and all(isinstance(burst, list) for burst in raw)):
        raise ModelLoadError("%s: expected a list of bursts, each a list of "
                             "hardware ids" % path)
    bursts = []
    fs = EMPTY_FS
    for i, ids in enumerate(raw, 1):
        for hw in ids:
            if not (isinstance(hw, str) and (hw in sys.computers
                                             or hw in sys.devices)):
                raise ModelLoadError("%s: burst %d names unknown hardware %r"
                                     % (path, i, hw))
        burst = frozenset(ids)
        if not burst:
            raise ModelLoadError("%s: burst %d is empty" % (path, i))
        if burst & fs:
            raise ModelLoadError("%s: burst %d fails hardware that has "
                                 "already failed" % (path, i))
        fs = fs | burst
        if not consistent(fs, req.fm, sys):
            raise ModelLoadError(
                "%s: after burst %d the failed hardware %s exceeds the "
                "failure model" % (path, i, sorted(fs)))
        bursts.append(burst)
    return bursts


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
