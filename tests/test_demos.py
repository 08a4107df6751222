"""Each demo script runs to completion against the code under test."""

import os
import pathlib
import subprocess
import sys

import pytest

import resilcfg

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent
                / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    # The demo imports the very code under test: the directory this
    # process imported ``resilcfg`` from, be it an install or a checkout.
    import_root = os.path.dirname(os.path.dirname(resilcfg.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
