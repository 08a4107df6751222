"""Model/policy serialization round-trips and the command-line driver."""

import io
import json
import pathlib
import random
import subprocess
import sys as _python

import pytest
from hypothesis import given, settings, strategies as st

from resilcfg import (
    ModelError,
    ModelLoadError,
    Synthesizer,
    load_model,
    load_policy,
    save_model,
    save_policy,
    save_report,
    valid_config,
)
from resilcfg.availability import avail
from resilcfg import fixtures, modelio
from resilcfg.cli import main
from conftest import (over_budget_root, power_chain_model, random_model,
                      tiny_raw)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_load_tiny_fixture():
    sys, req = load_model(FIXTURES / "tiny.json")
    assert set(sys.computers) == {"c0", "c1"}
    assert set(sys.software) == {"LOC", "PLAN"}
    assert req.crit_fns == {"loc", "plan"}


def _indented(obj) -> str:
    out = io.StringIO()
    modelio._write_indented(obj, out.write)
    return out.getvalue()[:-1]


def test_indented_writer_matches_json_on_the_fixtures():
    for name, builder in fixtures.BUILDERS.items():
        sys, req = builder()
        result = Synthesizer(sys, req).solve()
        for obj in (dict(modelio.model_to_dict(sys, req), _notes=["a note"]),
                    modelio.report_to_dict(result, "fixtures/%s.json" % name)):
            assert _indented(obj) == json.dumps(obj, indent=2, sort_keys=True)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(obj=json_values)
def test_indented_writer_matches_json(obj):
    """Non-ASCII and escaped strings, empty lists and objects, tuples,
    nulls, booleans, integers and floats, nested at any depth."""
    assert _indented(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_model_round_trip(tmp_path):
    for name, builder in fixtures.BUILDERS.items():
        sys1, req1 = builder()
        path = tmp_path / (name + ".json")
        save_model(sys1, req1, path)
        sys2, req2 = load_model(path)
        assert req1 == req2
        assert modelio.model_to_dict(sys1, req1) == modelio.model_to_dict(
            sys2, req2)


def test_shipped_fixtures_match_builders():
    for name, builder in fixtures.BUILDERS.items():
        sys1, req1 = builder()
        sys2, req2 = load_model(FIXTURES / (name + ".json"))
        assert req1 == req2
        assert modelio.model_to_dict(sys1, req1) == json.loads(
            json.dumps(modelio.model_to_dict(sys2, req2)))


def test_load_rejects_cyclic_dependencies(tmp_path):
    sys, req = fixtures.tiny()
    raw = modelio.model_to_dict(sys, req)
    raw["system"]["software"][0]["fnReq"] = ["plan"]  # LOC -> plan -> loc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ModelLoadError, match="cyclic functionality"):
        load_model(path)


def test_load_rejects_unknown_power(tmp_path):
    sys, req = fixtures.tiny()
    raw = modelio.model_to_dict(sys, req)
    raw["system"]["computers"][0]["power"] = ["ghost"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ModelLoadError, match="power"):
        load_model(path)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"system": }')
    with pytest.raises(ModelLoadError, match="line 1"):
        load_model(path)


def test_policy_round_trip(tmp_path):
    sys, req = fixtures.tiny()
    res = Synthesizer(sys, req).solve()
    path = tmp_path / "policy.json"
    save_policy(res.policy, path)
    loaded = load_policy(path)
    assert loaded.roots == res.policy.roots
    assert loaded.entries == res.policy.entries
    save_policy(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("quotient", ["off", "partial", "full"])
def test_policies_round_trip_through_their_files(tmp_path, quotient):
    """A policy read back from its file equals the policy: roots, entries
    and model fingerprint.  Equal objects are read as one object."""
    rng = random.Random(13)
    models = [load_model(FIXTURES / (name + ".json"))
              for name in ("example1", "example2", "tiny", "unsat")]
    models += [random_model(rng) for _ in range(50)]
    path = tmp_path / "policy.json"
    for sys, req in models:
        policy = Synthesizer(sys, req, quotient=quotient).solve().policy
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded == policy
        assert loaded.model == modelio.model_fingerprint(sys, req)
        configs = list(loaded.roots.values())
        for (state, _, _), entry in loaded.entries.items():
            configs += [state, entry.target_cfg]
        assert len(set(map(id, configs))) == len(set(configs))


def test_empty_policy_round_trip(tmp_path):
    from resilcfg.synthesis import Policy

    path = tmp_path / "empty.json"
    with pytest.raises(ModelError, match="no model fingerprint"):
        save_policy(Policy(), path)
    fingerprint = modelio.model_fingerprint(*fixtures.tiny())
    save_policy(Policy(model=fingerprint), path)
    loaded = load_policy(path)
    assert loaded.roots == {} and loaded.entries == {}
    assert loaded.model == fingerprint


def test_solve_runs_are_byte_identical(tmp_path):
    sys, req = fixtures.tiny()
    files = []
    for tag in ("a", "b"):
        res = Synthesizer(sys, req).solve()
        pol = tmp_path / ("pol_%s.json" % tag)
        rep = tmp_path / ("rep_%s.json" % tag)
        save_policy(res.policy, pol)
        save_report(res, rep, "tiny.json")
        files.append((pol.read_bytes(), rep.read_bytes()))
    assert files[0] == files[1]


def test_report_counts_match_library(tmp_path):
    from resilcfg import (generate_all_configs, generate_init_configs,
                          partition_members)

    sys, req = fixtures.autonomous_driving_phone(2)
    res = Synthesizer(sys, req).solve()
    rep = tmp_path / "report.json"
    save_report(res, rep, "example2.json")
    raw = json.loads(rep.read_text())
    assert (raw["allCfg"], raw["initCfg"], raw["allCfgClasses"],
            raw["initCfgClasses"], raw["resilientClasses"]) == res.counts()
    # Independently recomputed cardinalities.
    all_c = generate_all_configs(sys, req)
    init_c = generate_init_configs(sys, req, all_c)
    assert raw["allCfg"] == len(all_c)
    assert raw["initCfg"] == len(init_c)
    assert raw["allCfgClasses"] == len(partition_members(all_c, sys))
    assert raw["initCfgClasses"] == len(partition_members(init_c, sys))
    assert "seconds" not in json.dumps(raw)


# -- CLI ------------------------------------------------------------------------


def test_artifacts_conform_to_shipped_schemas():
    jsonschema = pytest.importorskip("jsonschema")
    docs = FIXTURES.parent / "docs"
    model_schema = json.loads((docs / "model.schema.json").read_text())
    policy_schema = json.loads((docs / "policy.schema.json").read_text())
    report_schema = json.loads((docs / "report.schema.json").read_text())
    validator = jsonschema.Draft202012Validator
    for name in fixtures.BUILDERS:
        validator(model_schema).validate(
            json.loads((FIXTURES / (name + ".json")).read_text()))
    sys, req = fixtures.tiny()
    res = Synthesizer(sys, req).solve()
    validator(policy_schema).validate(modelio.policy_to_dict(res.policy))
    validator(report_schema).validate(modelio.report_to_dict(res, "m.json"))


def test_cli_validate_ok():
    assert main(["validate", str(FIXTURES / "tiny.json")]) == 0


def test_cli_validate_broken(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["validate", str(path)]) == 2
    assert "missing field" in capsys.readouterr().err


def test_cli_validate_of_deeply_nested_json_is_one_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "maximum recursion depth exceeded" in err and err.count("\n") == 1


def test_cli_validate_of_a_long_power_chain(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(power_chain_model(3000)))
    assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("command", [["validate"], ["solve", "--model"]],
                         ids=["validate", "solve"])
def test_cli_rejects_a_failure_type_other_than_crash(tmp_path, capsys,
                                                      command):
    raw = modelio.model_to_dict(*fixtures.tiny())
    raw["failureModel"]["bounds"][0]["fType"] = "byzantine"
    path = tmp_path / "byzantine.json"
    path.write_text(json.dumps(raw))
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad failure type 'byzantine'" in err and err.count("\n") == 1


def test_cli_solve_exit_codes(tmp_path):
    assert main(["solve", "--model", str(FIXTURES / "tiny.json")]) == 0
    assert main(["solve", "--model", str(FIXTURES / "unsat.json")]) == 1
    assert main(["solve", "--model", str(tmp_path / "missing.json")]) == 2


def test_cli_solve_report_and_policy(tmp_path, capsys):
    rep = tmp_path / "report.json"
    pol = tmp_path / "policy.json"
    code = main(["solve", "--model", str(FIXTURES / "example2.json"),
                 "--quotient", "partial", "--report-out", str(rep),
                 "--policy-out", str(pol), "--list-all"])
    assert code == 0
    out = capsys.readouterr().out
    assert "allCfg=162 initCfg=128 classes=24/18 resilient=6" in out
    raw = json.loads(rep.read_text())
    assert raw["resilientClasses"] == 6
    assert load_policy(pol).roots


def test_cli_replay_schedule(tmp_path):
    pol = tmp_path / "policy.json"
    assert main(["solve", "--model", str(FIXTURES / "tiny.json"),
                 "--policy-out", str(pol)]) == 0
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps([["c0"]]))
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--schedule", str(sched)]) == 0
    # A second crash exceeds tiny's failure model (n = 1): an input error,
    # not a policy gap.
    bad = tmp_path / "bad_sched.json"
    bad.write_text(json.dumps([["c0"], ["c1"]]))
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--schedule", str(bad)]) == 2
    # A policy without the entry for the scheduled burst is a gap.
    raw = json.loads(pol.read_text())
    c0 = raw["failedSets"].index(["c0"])
    raw["entries"] = [e for e in raw["entries"] if e[2] != c0]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(raw))
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(gap), "--schedule", str(sched)]) == 1


def test_cli_replay_exhaustive(tmp_path):
    pol = tmp_path / "policy.json"
    main(["solve", "--model", str(FIXTURES / "example1.json"),
          "--policy-out", str(pol)])
    assert main(["replay", "--model", str(FIXTURES / "example1.json"),
                 "--policy", str(pol), "--exhaustive"]) == 0


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [_python.executable, "-m", "resilcfg.cli", "validate",
         str(FIXTURES / "example1.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0


def _tiny_policy(tmp_path):
    pol = tmp_path / "policy.json"
    assert main(["solve", "--model", str(FIXTURES / "tiny.json"),
                 "--policy-out", str(pol)]) == 0
    return pol


@pytest.mark.parametrize("schedule, message", [
    ([["ghost"]], "unknown hardware 'ghost'"),
    ([[7]], "unknown hardware 7"),
    ([[]], "burst 1 is empty"),
    ([["c0"], ["c0"]], "already failed"),
    ([["c0"], ["c1"]], "exceeds the failure model"),
    ([["c0", "c1"]], "exceeds the failure model"),
    ({"c0": 1}, "list of bursts"),
])
def test_cli_replay_schedule_outside_the_model_is_an_input_error(
        tmp_path, capsys, schedule, message):
    pol = _tiny_policy(tmp_path)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(schedule))
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--schedule", str(sched)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("content, message", [
    (b"[[\"c0\"]]\xff", "can't decode byte 0xff"),
    (b"[[" + b"9" * 5000 + b"]]", "integer string conversion"),
    (b"[" * 100000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "5000-digit-integer", "100000-deep"])
def test_cli_replay_unreadable_schedule_is_an_input_error(
        tmp_path, capsys, content, message):
    pol = _tiny_policy(tmp_path)
    sched = tmp_path / "sched.json"
    sched.write_bytes(content)
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--schedule", str(sched)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("extra", [["--root", "99"], ["--root", "0"],
                                   ["--schedule", "sched.json"]],
                         ids=["root-out-of-range", "root", "schedule"])
def test_cli_replay_exhaustive_takes_no_root_or_schedule(
        tmp_path, monkeypatch, capsys, extra):
    pol = _tiny_policy(tmp_path)
    monkeypatch.chdir(tmp_path)
    pathlib.Path("sched.json").write_text(json.dumps([["c0"]]))
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--exhaustive"] + extra) == 2
    err = capsys.readouterr().err
    assert "takes neither --schedule nor --root" in err
    assert err.count("\n") == 1


def test_cli_replay_needs_a_schedule_or_exhaustive(tmp_path, capsys):
    pol = _tiny_policy(tmp_path)
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol)]) == 2
    err = capsys.readouterr().err
    assert "replay needs --schedule or --exhaustive" in err
    assert err.count("\n") == 1


def _reject_first_action(pol):
    """Make the first action of every entry name an instance that is not
    there, so applying it raises ``ActionRejected``."""
    raw = json.loads(pol.read_text())
    raw["actions"].append({"type": "stop", "sw": "LOC", "computer": "nowhere"})
    for e in raw["entries"]:
        e[4][0] = len(raw["actions"]) - 1
    pol.write_text(json.dumps(raw))


@pytest.mark.parametrize("how", ["schedule", "exhaustive"])
def test_cli_replay_rejected_action_is_one_line(tmp_path, capsys, how):
    pol = _tiny_policy(tmp_path)
    _reject_first_action(pol)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps([["c0"]]))
    args = (["--schedule", str(sched)] if how == "schedule"
            else ["--exhaustive"])
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("replay failed: stop(LOC@nowhere) rejected: "
                          "instance not present, on burst ['c0'] at failed "
                          "set []")
    assert err.count("\n") == 1


@pytest.mark.parametrize("section, key", [
    ("system", "computers"), ("system", "devices"), ("system", "software"),
    ("system", "protocols"), ("failureModel", "bounds"),
])
def test_load_rejects_non_object_entries(tmp_path, capsys, section, key):
    raw = tiny_raw()
    raw[section][key] = [7]
    with pytest.raises(ModelLoadError, match="entry 0 of '%s'" % key):
        modelio.model_from_dict(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("where, key", [
    (("system", "computers", 0), "cores"),
    (("system", "computers", 0), "ram"),
    (("system", "software", 0), "cores"),
    (("system", "software", 0), "ram"),
    (("failureModel", "bounds", 0), "n"),
    (("failureModel", "bounds", 0), "maxSimult"),
    (("failureModel",), "maxSimult"),
])
def test_load_rejects_booleans_for_integers(where, key):
    raw = tiny_raw()
    obj = raw
    for step in where:
        obj = obj[step]
    obj[key] = True
    with pytest.raises(ModelLoadError, match="field '%s' has type bool" % key):
        modelio.model_from_dict(raw)


@pytest.mark.parametrize("where, key, value, expected", [
    (("system", "software", 0), "cpuArch", ["x86"],
     "list, expected str or null"),
    (("failureModel",), "maxSimult", "2", "str, expected int or null"),
    (("system", "software", 0), "cores", "2", "str, expected int"),
])
def test_load_names_the_types_a_field_may_have(where, key, value, expected):
    raw = tiny_raw()
    obj = raw
    for step in where:
        obj = obj[step]
    obj[key] = value
    with pytest.raises(ModelLoadError) as info:
        modelio.model_from_dict(raw)
    assert str(info.value).endswith("field %r has type %s" % (key, expected))


def test_a_row_names_the_types_a_position_may_have():
    with pytest.raises(ModelLoadError) as info:
        modelio.config_from_obj({"si": [], "rsi": [["P", "pb", ["c0"], 5]]})
    assert str(info.value) == ("config: entry 0 of 'rsi' holds int where "
                               "str or null is expected")


@pytest.mark.parametrize("raw", [
    7, [], {"system": {"computers": [{"id": "c0", "devices": [{}]}]}},
    {"system": {"sync": True}, "failureModel": {}, "critFns": [["loc"]]},
])
def test_load_rejects_other_malformed_models(raw):
    with pytest.raises(ModelLoadError):
        modelio.model_from_dict(raw)


def _with_short_fixed_si(raw):
    raw["roots"][0][0]["fixedSI"] = [["a"]]
    return raw


def _with_bare_stop(raw):
    raw["actions"][0] = {"type": "stop"}
    return raw


def _with_failed_set_row(row):
    """A policy whose first non-empty failed set reads ``row``."""
    def broken(raw):
        i = next(i for i, fs in enumerate(raw["failedSets"]) if fs)
        raw["failedSets"][i] = row
        return raw
    return broken


def _with_restart(raw):
    raw["actions"][0]["type"] = "restart"
    return raw


def _with_signature_index(raw):
    """The first root's signature as an index, as format version 2 had."""
    raw["roots"][0][0] = 0
    return raw


@pytest.mark.parametrize("broken, message", [
    (lambda raw: dict(raw, roots=[[0]]),
     "entry 0 of 'roots' has 1 entries, expected a list of 2"),
    (lambda raw: dict(raw, roots=[5]),
     "entry 0 of 'roots' has type int, expected a list of 2"),
    (_with_signature_index,
     "entry 0 of 'roots' holds int where dict is expected"),
    (_with_short_fixed_si,
     "entry 0 of 'fixedSI' has 1 entries, expected a list of 2"),
    (_with_bare_stop, "action: missing field 'sw'"),
    (_with_failed_set_row([["c0", "crash"]]),
     "is not a list of hardware ids"),
    (_with_failed_set_row(["c0", 1]), "is not a list of hardware ids"),
    (_with_restart, "unknown action type 'restart'"),
    (lambda raw: dict(raw, model=raw["model"].upper()),
     "field 'model' is not a SHA-256 digest in lowercase hexadecimal"),
    (lambda raw: dict(raw, model=raw["model"][:63]),
     "field 'model' is not a SHA-256 digest in lowercase hexadecimal"),
], ids=["root-without-signature", "root-not-an-object",
        "root-signature-an-index", "short-fixedSI-entry", "stop-without-sw",
        "failed-set-crash-pair", "failed-set-non-string",
        "unknown-action-type", "model-in-upper-case", "model-too-short"])
def test_cli_replay_malformed_policy_is_an_input_error(tmp_path, capsys,
                                                       broken, message):
    pol = _tiny_policy(tmp_path)
    pol.write_text(json.dumps(broken(json.loads(pol.read_text()))))
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--exhaustive"]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def _edit_change_reps(pol, **fields):
    """Set ``fields`` on every ``changeReps`` action of the policy file."""
    raw = json.loads(pol.read_text())
    edited = [a for a in raw["actions"] if a["type"] == "changeReps"]
    assert edited
    for action in edited:
        action.update(fields)
    pol.write_text(json.dumps(raw))


@pytest.mark.parametrize("fields, message", [
    ({"computers": []}, "replicated instance of PLAN has no members"),
    ({"computers": ["c1"], "primary": "c0"},
     "primary c0 of PLAN is not a member"),
], ids=["no-members", "primary-not-a-member"])
def test_malformed_change_reps_is_rejected_on_load(tmp_path, capsys, fields,
                                                   message):
    pol = _tiny_policy(tmp_path)
    _edit_change_reps(pol, **fields)
    with pytest.raises(ModelLoadError) as info:
        load_policy(pol)
    assert str(info.value) == "%s: %s" % (pol, message)
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--exhaustive"]) == 2
    assert capsys.readouterr().err == "error: %s: %s\n" % (pol, message)


def test_change_reps_without_primary_loads_and_fails_replay(tmp_path,
                                                            capsys):
    """Whether a primary is needed depends on the protocol, which the model
    holds: a null primary is a replay-time rejection."""
    pol = _tiny_policy(tmp_path)
    _edit_change_reps(pol, primary=None)
    assert load_policy(pol).entries
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--exhaustive"]) == 1
    err = capsys.readouterr().err
    assert "rejected: primary must be a member" in err
    assert err.count("\n") == 1


def _as_version_1(raw):
    """The roots of a policy file in the layout before format version 2."""
    return {"roots": [{"signature": s, "config": raw["configs"][c]}
                      for s, c in raw["roots"]],
            "entries": []}


@pytest.mark.parametrize("model, change, message", [
    ("example1", lambda raw: raw, "was solved for another model"),
    ("tiny", _as_version_1, "format version None is not supported"),
    ("tiny", lambda raw: dict(raw, version=2),
     "format version 2 is not supported, expected 3; solve the model again"),
], ids=["another-model", "version-1-layout", "version-2"])
def test_cli_replay_policy_of_another_model_or_format_is_an_input_error(
        tmp_path, capsys, model, change, message):
    pol = _tiny_policy(tmp_path)
    pol.write_text(json.dumps(change(json.loads(pol.read_text()))))
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / (model + ".json")),
                 "--policy", str(pol), "--exhaustive"]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("root, code, message", [
    ("0", 0, ""),
    ("-1", 2, "--root -1 is out of range: valid roots are 0 to 0"),
    ("99", 2, "--root 99 is out of range: valid roots are 0 to 0"),
])
def test_cli_replay_root_index_is_checked(tmp_path, capsys, root, code,
                                          message):
    pol = _tiny_policy(tmp_path)
    assert len(load_policy(pol).roots) == 1
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps([["c0"]]))
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--schedule", str(sched),
                 "--root", root]) == code
    out = capsys.readouterr()
    if code:
        assert message in out.err and out.err.count("\n") == 1
    else:
        assert out.err == "" and out.out.startswith("root ")


@pytest.mark.parametrize("content", [b"\xff{}", b"1" * 5000, b"[" * 100000],
                         ids=["not-utf8", "integer-too-long", "100000-deep"])
def test_load_policy_rejects_unreadable_json(tmp_path, content):
    path = tmp_path / "policy.json"
    path.write_bytes(content)
    with pytest.raises(ModelLoadError) as exc:
        load_policy(path)
    assert "\n" not in str(exc.value)


def test_load_policy_rejects_a_repeated_root_signature(tmp_path, capsys):
    """Replay starts from the first root of a signature, so a later root
    with the same signature would never be replayed: here a tenth root
    whose configuration is neither valid nor available."""
    sys, req = load_model(FIXTURES / "example1.json")
    pol = tmp_path / "policy.json"
    assert main(["solve", "--model", str(FIXTURES / "example1.json"),
                 "--policy-out", str(pol)]) == 0
    raw = json.loads(pol.read_text())
    assert len(raw["roots"]) == 9
    bad = modelio.config_from_obj({"si": [["planning", "laptop"]], "rsi": []})
    assert not valid_config(bad, sys)
    assert not avail(req.crit_fns, bad, frozenset(), sys)
    raw["configs"].append(modelio.config_to_obj(bad))
    raw["roots"].append([raw["roots"][0][0], len(raw["configs"]) - 1])
    pol.write_text(json.dumps(raw))
    with pytest.raises(ModelLoadError, match="root 9 repeats the signature"):
        load_policy(pol)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps([["c0"]]))
    capsys.readouterr()
    for extra in (["--exhaustive"], ["--schedule", str(sched), "--root", "9"]):
        assert main(["replay", "--model", str(FIXTURES / "example1.json"),
                     "--policy", str(pol)] + extra) == 2
        err = capsys.readouterr().err
        assert "root 9 repeats the signature" in err
        assert err.count("\n") == 1


def test_load_policy_rejects_a_repeated_entry(tmp_path, capsys):
    """A later entry row with the key of an earlier one would replace it."""
    pol = _tiny_policy(tmp_path)
    raw = json.loads(pol.read_text())
    raw["entries"].append(raw["entries"][0])
    pol.write_text(json.dumps(raw))
    message = "entry %d repeats the state, failed set and burst" % (
        len(raw["entries"]) - 1)
    with pytest.raises(ModelLoadError, match=message):
        load_policy(pol)
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "tiny.json"),
                 "--policy", str(pol), "--exhaustive"]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_cli_replay_of_an_invalid_root_fails(tmp_path, capsys):
    """A root over its core budget is a policy gap (exit 1), although every
    action of its entries applies."""
    sys, req = load_model(FIXTURES / "example1.json")
    policy, _ = over_budget_root(sys, req)
    pol = tmp_path / "policy.json"
    save_policy(policy, pol)
    capsys.readouterr()
    assert main(["replay", "--model", str(FIXTURES / "example1.json"),
                 "--policy", str(pol), "--exhaustive"]) == 1
    err = capsys.readouterr().err
    assert err == "replay failed: the root configuration is not valid\n"


@pytest.mark.parametrize("protocol, primary", [
    ("smr", "c0"), ("primary-backup", None),
], ids=["active-with-a-primary", "passive-without-a-primary"])
def test_cli_replay_of_a_root_with_a_malformed_replica_fails(
        tmp_path, capsys, protocol, primary):
    """The root's replicated planner breaks a replication rule: an active
    protocol takes no primary, a passive one needs one.  The policy loads,
    and replay reports the gap (exit 1)."""
    raw = tiny_raw()
    raw["system"]["protocols"].append(
        {"id": "smr", "active": True, "failTypes": ["crash"],
         "progressQ": "majority", "reconfigQ": "majority", "sync": False})
    model = tmp_path / "model.json"
    model.write_text(json.dumps(raw))
    pol = tmp_path / "policy.json"
    assert main(["solve", "--model", str(model), "--policy-out",
                 str(pol)]) == 0
    policy = json.loads(pol.read_text())
    policy["configs"][policy["roots"][0][1]] = {
        "si": [["LOC", "c0"]],
        "rsi": [["PLAN", protocol, ["c0", "c1"], primary]]}
    pol.write_text(json.dumps(policy))
    capsys.readouterr()
    assert main(["replay", "--model", str(model), "--policy", str(pol),
                 "--exhaustive"]) == 1
    err = capsys.readouterr().err
    assert err == "replay failed: the root configuration is not valid\n"


def test_cli_replay_of_roots_with_swapped_signatures_fails(tmp_path, capsys):
    """Swapping the signatures of the first two roots keeps the file
    well-formed and every root configuration valid, but each label now
    names the other root's class."""
    pol = tmp_path / "policy.json"
    assert main(["solve", "--model", str(FIXTURES / "example1.json"),
                 "--policy-out", str(pol)]) == 0
    replay = ["replay", "--model", str(FIXTURES / "example1.json"),
              "--policy", str(pol), "--exhaustive"]
    capsys.readouterr()
    assert main(replay) == 0
    assert capsys.readouterr().out == (
        "ok: 27 worst-case schedules replayed across 9 roots\n")
    raw = json.loads(pol.read_text())
    roots = raw["roots"]
    roots[0][0], roots[1][0] = roots[1][0], roots[0][0]
    pol.write_text(json.dumps(raw))
    assert main(replay) == 1
    assert capsys.readouterr().err == (
        "replay failed: the root configuration does not have the root's "
        "signature\n")


def test_cli_replay_checks_the_roots_when_no_burst_is_possible(tmp_path,
                                                              capsys):
    """A failure model that allows no burst leaves no schedule to replay,
    but every root is still checked."""
    raw = tiny_raw()
    raw["failureModel"] = {"bounds": [{"hwType": "Computer", "fType": "crash",
                                       "n": 0, "maxSimult": 0}],
                           "maxSimult": 0}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(raw))
    pol = tmp_path / "policy.json"
    assert main(["solve", "--model", str(model), "--policy-out",
                 str(pol)]) == 0
    replay = ["replay", "--model", str(model), "--policy", str(pol),
              "--exhaustive"]
    capsys.readouterr()
    assert main(replay) == 0
    assert capsys.readouterr().out.startswith(
        "ok: 0 worst-case schedules replayed across")
    broken = json.loads(pol.read_text())
    broken["configs"][broken["roots"][0][1]] = {"si": [], "rsi": []}
    pol.write_text(json.dumps(broken))
    assert main(replay) == 1
    assert capsys.readouterr().err == ("replay failed: critical functionality "
                                       "unavailable at the root\n")
