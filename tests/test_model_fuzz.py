"""Property test of the model loader: whatever JSON a model file holds,
``model_from_dict`` returns a model or raises a one-line ``ModelError``
(``ModelLoadError`` is one)."""

import copy

from hypothesis import given, settings, strategies as st

from resilcfg import ModelError, SystemModel, fixtures
from resilcfg.modelio import model_from_dict, model_to_dict
from conftest import raw_paths

# The field names and enumerated values of model files, so that generated
# objects reach past the top-level checks.
KEYS = ("system", "failureModel", "critFns", "computers", "devices",
        "software", "protocols", "sync", "id", "os", "cpuArch", "cores",
        "ram", "wiredNIC", "wifiNIC", "cellular", "power", "deviceType",
        "fn", "fnReq", "wired", "deterministic", "fastStarting",
        "migratable", "persisState", "preferred", "remoteUse", "resumable",
        "singleInstance", "smallPersisState", "active", "progressQ",
        "reconfigQ", "failTypes", "bounds", "hwType", "fType", "n",
        "maxSimult", "Computer", "Device", "crash", "majority", "all", "one")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(KEYS) | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS)
                                        | st.text(max_size=4),
                                        children, max_size=4)),
    max_leaves=12)

FIXTURES = [model_to_dict(*builder())
            for builder in fixtures.BUILDERS.values()]


def _at(obj, path):
    """The value at ``path`` inside ``obj``."""
    for key in path:
        obj = obj[key]
    return obj


PATHS = [sorted(raw_paths(raw), key=repr) for raw in FIXTURES]
# The paths of the records, the objects inside the model's lists.
RECORD_PATHS = [[p for p in paths if isinstance(p[-1], int)
                 and isinstance(_at(raw, p), dict)]
                for raw, paths in zip(FIXTURES, PATHS)]


def _copy_record(draw, raw, paths):
    """Insert a copy of one record of ``raw`` next to it, sometimes with
    one field replaced."""
    path = draw(st.sampled_from(paths))
    try:
        records, record = _at(raw, path[:-1]), _at(raw, path)
    except (KeyError, IndexError, TypeError):
        return  # an earlier mutation removed this path
    if not isinstance(record, dict):
        return
    twin = copy.deepcopy(record)
    if twin and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(twin)))
        twin[key] = draw(st.just(not twin[key]) if isinstance(twin[key], bool)
                         else json_values)
    records.insert(path[-1], twin)


@st.composite
def mutated_models(draw, copies=False):
    """A fixture model with one to three values replaced or deleted or,
    with ``copies``, records copied."""
    i = draw(st.sampled_from(range(len(FIXTURES))))
    raw = copy.deepcopy(FIXTURES[i])
    for _ in range(draw(st.integers(1, 3))):
        if copies and draw(st.integers(0, 2)) == 0:
            _copy_record(draw, raw, RECORD_PATHS[i])
            continue
        path = draw(st.sampled_from(PATHS[i]))
        last = path[-1]
        try:
            parent = _at(raw, path[:-1])
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this path
        if not (isinstance(parent, dict) and last in parent
                or isinstance(parent, list) and isinstance(last, int)
                and last < len(parent)):
            continue
        if draw(st.booleans()):
            parent[last] = draw(json_values)
        else:
            del parent[last]
    return raw


def _loads_or_rejects(raw):
    try:
        sys, _ = model_from_dict(raw)
        assert isinstance(sys, SystemModel)
    except ModelError as exc:
        assert "\n" not in str(exc)


def test_the_unmutated_fixtures_load():
    for raw in FIXTURES:
        assert model_to_dict(*model_from_dict(raw)) == raw


@settings(max_examples=200, deadline=None)
@given(raw=json_values)
def test_arbitrary_json_loads_or_is_rejected(raw):
    _loads_or_rejects(raw)


@settings(max_examples=200, deadline=None)
@given(raw=mutated_models())
def test_mutated_models_load_or_are_rejected(raw):
    _loads_or_rejects(raw)


@settings(max_examples=200, deadline=None)
@given(raw=mutated_models(copies=True))
def test_models_with_copied_records_load_or_are_rejected(raw):
    _loads_or_rejects(raw)
