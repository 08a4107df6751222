"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` patches module and class bindings by name, so
removing or renaming one of them makes every traced benchmark run fail.
This test installs the tracer once and checks that uninstalling it puts
every original binding back.
"""

import importlib.util
import pathlib

TRACER = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
          / "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_and_uninstalls():
    tracer = _load_tracer().Tracer()
    try:
        with tracer.installed():
            patched = [(owner, attr, vars(owner)[attr])
                       for owner, attr, _ in tracer._patches]
            originals = list(tracer._patches)
    finally:
        # A name missing halfway through leaves the earlier ones patched.
        tracer._uninstall()
    assert patched
    assert not tracer._patches
    for (owner, attr, wrapper), (_, _, original) in zip(patched, originals):
        assert wrapper is not original
        assert vars(owner)[attr] is original
