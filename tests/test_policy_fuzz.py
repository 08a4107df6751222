"""Property test of the policy loader: whatever JSON a policy file holds,
``load_policy`` returns a ``Policy`` or raises ``ModelLoadError``."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from resilcfg import (
    ModelLoadError,
    Policy,
    Synthesizer,
    fixtures,
    load_policy,
)
from resilcfg.modelio import policy_to_dict
from conftest import raw_paths

# The field names of policy files, so that generated objects reach past the
# top-level checks.
KEYS = ("version", "model", "configs", "failedSets", "actions", "roots",
        "entries", "fixedSI", "fixedRSI", "relocBag", "si", "rsi", "type",
        "sw", "computer", "computers", "primary", "target", "stop", "stopRep",
        "start", "move", "changeReps")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(KEYS) | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS)
                                        | st.text(max_size=4),
                                        children, max_size=4)),
    max_leaves=12)

TINY = policy_to_dict(Synthesizer(*fixtures.tiny()).solve().policy)


PATHS = sorted(raw_paths(TINY), key=repr)


@st.composite
def mutated_policies(draw):
    """The tiny policy with one to three values replaced or deleted."""
    raw = copy.deepcopy(TINY)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        parent, last = raw, path[-1]
        try:
            for key in path[:-1]:
                parent = parent[key]
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


@pytest.fixture(scope="module")
def policy_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "policy.json"


def _load(path, raw):
    path.write_text(json.dumps(raw))
    return load_policy(path)


def _loads_or_rejects(path, raw):
    try:
        assert isinstance(_load(path, raw), Policy)
    except ModelLoadError as exc:
        assert "\n" not in str(exc)


def test_the_unmutated_policy_loads(policy_path):
    assert policy_to_dict(_load(policy_path, TINY)) == TINY


# Where the tiny policy holds an index, and the table it indexes.
INDEX_SLOTS = [(("roots", 0, 1), "configs"),
               (("entries", 0, 0), "configs"),
               (("entries", 0, 1), "failedSets"),
               (("entries", 0, 2), "failedSets"),
               (("entries", 0, 3), "configs"),
               (("entries", 0, 4, 0), "actions")]


@pytest.mark.parametrize("slot, table", INDEX_SLOTS,
                         ids=["-".join(map(str, s)) for s, _ in INDEX_SLOTS])
@pytest.mark.parametrize("bad", [-1, "len", True, 1.0, "0"],
                         ids=["minus-1", "len", "true", "1.0", "string-0"])
def test_an_index_outside_its_table_is_rejected(policy_path, slot, table,
                                                bad):
    raw = copy.deepcopy(TINY)
    row = raw
    for key in slot[:-1]:
        row = row[key]
    row[slot[-1]] = len(TINY[table]) if bad == "len" else bad
    with pytest.raises(ModelLoadError) as exc:
        _load(policy_path, raw)
    assert "\n" not in str(exc.value)


# Where the tiny policy holds a value that is not an index: a root's
# signature object, a failed set's list of hardware ids and an entry's list
# of action indices.
SHAPE_SLOTS = [("roots", 0, 0), ("failedSets", 0), ("entries", 0, 4)]


@pytest.mark.parametrize("slot", SHAPE_SLOTS,
                         ids=["-".join(map(str, s)) for s in SHAPE_SLOTS])
@pytest.mark.parametrize("bad", [0, True, 1.0, "0", None],
                         ids=["index-0", "true", "1.0", "string-0", "null"])
def test_a_value_of_the_wrong_type_is_rejected(policy_path, slot, bad):
    raw = copy.deepcopy(TINY)
    row = raw
    for key in slot[:-1]:
        row = row[key]
    row[slot[-1]] = bad
    with pytest.raises(ModelLoadError) as exc:
        _load(policy_path, raw)
    assert "\n" not in str(exc.value)


@settings(max_examples=200, deadline=None)
@given(raw=json_values)
def test_arbitrary_json_loads_or_is_rejected(policy_path, raw):
    _loads_or_rejects(policy_path, raw)


@settings(max_examples=200, deadline=None)
@given(raw=mutated_policies())
def test_mutated_policies_load_or_are_rejected(policy_path, raw):
    _loads_or_rejects(policy_path, raw)
