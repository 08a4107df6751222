"""Pinned outputs: the policy and report files and the verify count of every
shipped fixture, in every quotient mode.  A fixture's policy is the same
file in every mode.  Its report is not: the report names the mode, and with
"off" it lists every resilient initial configuration.

A refactor of the solver core must leave these bytes alone.  A change that
alters them on purpose (a new policy format, say) updates the digests here
in the same commit and says why.  The policy digests are those of policy
format version 3; the report digests and verify counts of "partial" and
"full" predate it.

No fixture's policy holds a move or a stopRep, so two random models pin
the witness orders of every action kind as well.
"""

import hashlib
import pathlib
import random

import pytest

from resilcfg import Synthesizer, load_model, verify_policy
from resilcfg.modelio import load_policy, save_policy, save_report
from conftest import random_model

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# (fixture, quotient) -> (SHA-256 of the policy file, SHA-256 of the report
# file written with model path "fixtures/<fixture>.json", verify count)
GOLDEN = {
    ("example1", "off"): (
        "1d6d9cfae731b805b41660f0111f223e678d473960ab0b35f2ed7104f4471a15",
        "7e23e96b1f17b0424bb2a0f1fdc228b810b5f54338ed02b5c9e13f54d866e07a",
        27),
    ("example1", "partial"): (
        "1d6d9cfae731b805b41660f0111f223e678d473960ab0b35f2ed7104f4471a15",
        "787b877d551dc6d91f132b6114e1b979a03bf2aca5c358e4b2096096cc79a86d",
        27),
    ("example1", "full"): (
        "1d6d9cfae731b805b41660f0111f223e678d473960ab0b35f2ed7104f4471a15",
        "666ba6aadc4a75d4c6183b05a9f116f0814501c8e105931a0e2656c189caa718",
        27),
    ("example2", "off"): (
        "98f0b7f68bebac92af353be86cc8d78d5fc58b7d5d30e0a3ec98855d996c13c6",
        "9c5a50e520925918589d6a155d827e3109a568bb2c7bd107ddd83311e4e870e7",
        18),
    ("example2", "partial"): (
        "98f0b7f68bebac92af353be86cc8d78d5fc58b7d5d30e0a3ec98855d996c13c6",
        "3df994f2422cdaf9bb416338878e00b74b3c9cf38b625140a5fcd13aa9eb9c61",
        18),
    ("example2", "full"): (
        "98f0b7f68bebac92af353be86cc8d78d5fc58b7d5d30e0a3ec98855d996c13c6",
        "8ee41b046858d8bdb5aae66dec671b56f8fda6bdfa11d370bb026fb3048d4fbc",
        18),
    ("tiny", "off"): (
        "3fa77e0dd31ee11dbf5b88bb704d422a21747222126b8c69e66879a39f4ab26c",
        "28984ff9c2c81c378f86f72b60be3a95770be407f0801675aa414e2fa09b4d09",
        2),
    ("tiny", "partial"): (
        "3fa77e0dd31ee11dbf5b88bb704d422a21747222126b8c69e66879a39f4ab26c",
        "3698262e8fac67b39630e772b79acf78a9647a7af3b1a35df9eed4a4a018c292",
        2),
    ("tiny", "full"): (
        "3fa77e0dd31ee11dbf5b88bb704d422a21747222126b8c69e66879a39f4ab26c",
        "886e491585eeb7077040418ec65cdbef0db5925eb41a230480e6db7c055bf323",
        2),
    ("unsat", "off"): (
        "229843079371b338f190ef567a458480e52af1d6c5d595421992c58afbbd6aa8",
        "eb6125b1eb521a7bb9740fbd1ae7b1a181d1b13fe489df4f0804e859a62f34cb",
        0),
    ("unsat", "partial"): (
        "229843079371b338f190ef567a458480e52af1d6c5d595421992c58afbbd6aa8",
        "15cba28f7b42aab8c3fa9499887ac989df8a4ee5b681ac7f60af71870a2fdcbc",
        0),
    ("unsat", "full"): (
        "229843079371b338f190ef567a458480e52af1d6c5d595421992c58afbbd6aa8",
        "d3a2f77d9b225f3c264b8a07a7e0075ddbe53e4aaccbaf3210edb2dd7f91f960",
        0),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _solve(sys, req, quotient, model_path, tmp_path):
    """The SHA-256 of the policy and report files of one solve, its verify
    count and the policy as loaded back."""
    result = Synthesizer(sys, req, quotient=quotient).solve("best")
    policy_path = tmp_path / "policy.json"
    report_path = tmp_path / "report.json"
    save_policy(result.policy, policy_path)
    save_report(result, report_path, model_path)
    policy = load_policy(policy_path)
    n = verify_policy(policy, sys, req)
    return _sha256(policy_path), _sha256(report_path), n, policy


@pytest.mark.parametrize("name,quotient", sorted(GOLDEN))
def test_policy_report_and_verify_count_are_pinned(name, quotient, tmp_path):
    sys, req = load_model(FIXTURES / (name + ".json"))
    policy_sha, report_sha, n, _ = _solve(
        sys, req, quotient, "fixtures/%s.json" % name, tmp_path)
    assert (policy_sha, report_sha, n) == GOLDEN[(name, quotient)]


# draw -> (SHA-256 of the policy file, SHA-256 of the report file written
# with model path "random-11-<draw>", verify count, the action kinds the
# policy holds) for the draw-th (0-based) model of
# ``random_model(random.Random(11), max_computers=3, max_software=3)``,
# solved with quotient "full".
RANDOM_GOLDEN = {
    56: ("963c9498397867f375f20b9e31b7b7f03da6e392ba8f19f7a078cd36068de8e4",
         "247530e7b933b13fd198d97f968af4d691d42739a789e9e6f5eee7b4721c3525",
         120, {"ChangeReps", "Move", "Start", "Stop"}),
    173: ("0609c07bd7bacd4b9304d00d58b8c223836fdad711d566ec560bd0b1634aab42",
          "9515f4b47cba73e99f6ba51ee3d9d6817ae94955bc58f64833eb9d546ec47d28",
          4023, {"ChangeReps", "Move", "Stop", "StopRep"}),
}


@pytest.mark.parametrize("draw", sorted(RANDOM_GOLDEN))
def test_random_model_policy_report_and_verify_count_are_pinned(draw,
                                                                  tmp_path):
    rng = random.Random(11)
    for _ in range(draw + 1):
        sys, req = random_model(rng, max_computers=3, max_software=3)
    policy_sha, report_sha, n, policy = _solve(
        sys, req, "full", "random-11-%d" % draw, tmp_path)
    kinds = {type(a).__name__ for entry in policy.entries.values()
             for a in entry.actions}
    assert (policy_sha, report_sha, n, kinds) == RANDOM_GOLDEN[draw]
