"""The model file format: the field table against the model classes and the
shipped schema, duplicate identifiers, and messages that do not depend on
the hash seed."""

import copy
import dataclasses
import json
import os
import pathlib
import subprocess
import sys as _python

import pytest

import resilcfg
from resilcfg import ModelError, modelio
from resilcfg.cli import main
from conftest import tiny_raw

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_each_record_table_has_one_row_per_init_field():
    for rec in modelio.RECORDS.values():
        attrs = [attr for _, attr, _, _ in rec.fields]
        assert attrs == [f.name for f in dataclasses.fields(rec.cls)
                         if f.init], rec.where


def _non_default(typ, default, own_id):
    """A value of type ``typ`` other than ``default`` that loads in the
    tiny model for a record whose id is ``own_id``."""
    if typ is bool:
        return not default
    if typ is int:
        return default + 1
    if typ is modelio.StrSet:
        # A hardware id other than the record's own: a valid power source,
        # and a string everywhere else.
        return sorted(set(default) | {"c0" if own_id == "g0" else "g0"})
    if typ == (str, type(None)):
        return "x"
    if typ == (int, type(None)):
        return 0
    assert typ is str
    return default + "-other"


def _optional_fields():
    for (section, key), rec in modelio.RECORDS.items():
        for field, _, typ, default in rec.fields:
            if default is not modelio._REQUIRED:
                yield section, key, field, typ, default


@pytest.mark.parametrize(
    "section, key, field, typ, default", list(_optional_fields()),
    ids=lambda v: v if isinstance(v, str) else "")
def test_every_optional_field_round_trips_at_a_non_default_value(
        section, key, field, typ, default):
    raw = tiny_raw()
    entry = raw[section][key][-1]
    entry[field] = _non_default(typ, default, entry.get("id"))
    if field == "persisState":
        entry["singleInstance"] = True
    if field == "fType":
        # Only crashes are modelled: the default is the one valid type.
        with pytest.raises(ModelError, match="bad failure type"):
            modelio.model_from_dict(raw)
        return
    assert modelio.model_to_dict(*modelio.model_from_dict(raw)) == raw


def test_required_fields_are_the_rows_without_a_default():
    for (section, key), rec in modelio.RECORDS.items():
        for field, _, _, default in rec.fields:
            raw = tiny_raw()
            del raw[section][key][0][field]
            try:
                modelio.model_from_dict(raw)
                missing = False
            except ModelError as exc:
                missing = "missing field %r" % field in str(exc)
            assert missing == (default is modelio._REQUIRED), (key, field)


def test_schema_lists_the_table_keys_and_required_fields():
    schema = json.loads((ROOT / "docs" / "model.schema.json").read_text())
    for (section, key), rec in modelio.RECORDS.items():
        items = schema["properties"][section]["properties"][key]["items"]
        assert sorted(items["properties"]) == sorted(
            field for field, _, _, _ in rec.fields), key
        assert sorted(items["required"]) == sorted(
            field for field, _, _, default in rec.fields
            if default is modelio._REQUIRED), key


# -- duplicate identifiers ----------------------------------------------------

# One record of each kind, and a field whose change keeps the copy valid.
DUPLICATES = [("computers", 0, "ram"), ("devices", 0, "deviceType"),
              ("software", 0, "ram"), ("protocols", 0, "sync")]


@pytest.mark.parametrize("altered", [False, True], ids=["same", "altered"])
@pytest.mark.parametrize("key, index, field", DUPLICATES,
                         ids=[d[0] for d in DUPLICATES])
def test_duplicate_ids_within_a_kind_are_rejected(key, index, field,
                                                  altered):
    raw = tiny_raw()
    records = raw["system"][key]
    twin = copy.deepcopy(records[index])
    if altered:
        value = twin[field]
        twin[field] = (not value if isinstance(value, bool)
                       else value + 1 if isinstance(value, int)
                       else value + "-other")
    records.append(twin)
    with pytest.raises(ModelError,
                       match="duplicate identifiers: %s$" % twin["id"]):
        modelio.model_from_dict(raw)


def test_duplicate_ids_across_kinds_are_rejected():
    raw = tiny_raw()
    raw["system"]["devices"][0]["id"] = "PLAN"
    raw["system"]["protocols"][0]["id"] = "c1"
    with pytest.raises(ModelError,
                       match="duplicate identifiers: PLAN, c1$"):
        modelio.model_from_dict(raw)


def test_cli_validate_rejects_duplicate_software_in_one_line(tmp_path,
                                                             capsys):
    raw = tiny_raw()
    twin = dict(raw["system"]["software"][0], ram=1)
    raw["system"]["software"].append(twin)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "duplicate identifiers: LOC" in err and err.count("\n") == 1


# -- messages under several hash seeds -----------------------------------------

_CHILD = """
import json, sys
from resilcfg import modelio
for raw in json.loads(sys.stdin.read()):
    try:
        modelio.model_from_dict(raw)
        print("loaded")
    except modelio.ModelError as exc:
        print(exc)
"""


def test_messages_do_not_depend_on_the_hash_seed():
    unprovided = tiny_raw()
    unprovided["critFns"] += ["zeta", "beta", "alpha", "gamma"]
    unpowered = tiny_raw()
    unpowered["system"]["computers"][0]["power"] = ["ghostC", "ghostA",
                                                    "ghostB"]
    stdin = json.dumps([unprovided, unpowered])
    import_root = os.path.dirname(os.path.dirname(resilcfg.__file__))
    outs = set()
    for seed in ("1", "2", "3", "31337"):
        proc = subprocess.run(
            [_python.executable, "-c", _CHILD], input=stdin,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": import_root},
            capture_output=True, text=True, check=True)
        outs.add(proc.stdout)
    assert outs == {"critical functionality 'alpha' has no provider\n"
                    "c0: unknown power source 'ghostA'\n"}

