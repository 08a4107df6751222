"""Lint: the package's modules import one another in layers.

The graph has an edge from a module to every package module one of its
module-level ``from .x import`` (or ``from . import x``) statements names.
Imports inside functions, such as the lazy ``modelio`` import of
``Synthesizer.solve``, are not edges: they run after every module is loaded.
"""

import ast
import pathlib
from graphlib import TopologicalSorter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "resilcfg"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(module: str) -> set:
    """The package modules ``module`` imports at module level."""
    out = set()
    for node in ast.parse((SRC / (module + ".py")).read_text()).body:
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is None:
            out.update(alias.name for alias in node.names)
        else:
            out.add(node.module.split(".")[0])
    return out & set(MODULES)


GRAPH = {m: _imports(m) for m in MODULES}


def test_the_import_graph_has_no_cycle():
    TopologicalSorter(GRAPH).prepare()  # raises CycleError naming the cycle


def test_enumeration_sits_below_the_relation_and_the_search():
    assert not GRAPH["enumeration"] & {"reconfig", "synthesis"}


def test_no_package_module_imports_the_oracle():
    """The brute-force references in ``oracle`` stay independent of the
    code they check, so only tests and other references import them."""
    importers = [m for m in MODULES + ["__init__"] if "oracle" in _imports(m)]
    assert importers == []
