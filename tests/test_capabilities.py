"""Recovery capabilities of software components."""

import itertools

import pytest

from resilcfg import Software

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

