"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` patches module and class bindings by name, so
removing or renaming one of them makes every traced benchmark run fail.
One test installs the tracer once and checks that uninstalling it puts
every original binding back; another checks that ``synthesis`` keeps no
unused import for a name the tracer no longer patches.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SYNTHESIS = ROOT / "src" / "resilcfg" / "synthesis.py"


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


def _noqa_imports(path: pathlib.Path) -> set:
    """Names imported by ``path`` in statements marked ``noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any("noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names}


def _spans_on_synthesis() -> set:
    """The names the tracer wraps with ``span(synthesis, "<name>", ...)``."""
    return {node.args[1].value
            for node in ast.walk(ast.parse(TRACER.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "span"
            and len(node.args) > 1
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "synthesis"
            and isinstance(node.args[1], ast.Constant)}


def test_every_tracer_only_import_in_synthesis_is_patched():
    patched = _spans_on_synthesis()
    assert patched
    assert _noqa_imports(SYNTHESIS) <= patched
