"""Recovery capabilities of software components and the cached ``can_run``."""

import itertools
import random

import pytest

from resilcfg import (
    Software,
    can_run,
    generate_all_configs,
    next_failed_sets,
)
from resilcfg.failures import EMPTY_FS
from conftest import random_model

FLAGS = ("fast_starting", "resumable", "persis_state", "small_persis_state",
         "migratable")


@pytest.mark.parametrize(
    "bits", list(itertools.product((False, True), repeat=len(FLAGS))),
    ids=lambda bits: "".join("FRPSM"[i] if b else "-"
                             for i, b in enumerate(bits)))
def test_capabilities_follow_the_recovery_attributes(bits):
    fast, resumable, persis, small, migratable = bits
    sw = Software(id="s", fn="f", single_instance=True,
                  **dict(zip(FLAGS, bits)))
    assert sw.startable == (fast and not persis and resumable)
    assert sw.movable == (migratable and (not persis or small))
    assert sw.members_addable == (fast and (not persis or small))
    assert sw.survives_host_loss == (resumable and persis and fast)
    assert sw.stateful == (persis or not resumable)
    assert not (sw.stateful and sw.startable)


def test_capabilities_stay_out_of_equality():
    a = Software(id="s", fn="f", fast_starting=True, resumable=True)
    b = Software(id="s", fn="f", fast_starting=True, resumable=True)
    assert a == b and hash(a) == hash(b)
    assert "startable" not in repr(a)


def test_cached_can_run_equals_uncached_can_run():
    """One static cache per failed set, shared across configurations, gives
    the verdicts of uncached calls, for software with and without
    functionality requirements."""
    rng = random.Random(11)
    seen = set()
    for _ in range(60):
        sys, req = random_model(rng, max_computers=3, max_software=3)
        cfgs = generate_all_configs(sys, req)[:15]
        for fs in [EMPTY_FS] + next_failed_sets(req.fm, EMPTY_FS, sys):
            cache = {}
            for cfg in cfgs:
                for sw in sys.software.values():
                    for c in sys.computer_ids:
                        expected = can_run(c, sw, cfg, fs, sys)
                        for _ in range(2):  # a miss, then a hit
                            assert can_run(c, sw, cfg, fs, sys,
                                           static_cache=cache) == expected
                        seen.add((bool(sw.fn_req), expected))
            assert all(not sys.sw(sid).fn_req for sid, _ in cache)
    assert seen == {(False, False), (False, True), (True, False),
                    (True, True)}
