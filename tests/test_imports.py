"""Every module of the package, the tests, the demos and perfbench uses what
it imports, and the package's stage modules build on its foundations only.

A stdlib `ast` scan: a name bound by an import counts as used when the
module reads it anywhere, lists it in ``__all__``, or names it inside a
string annotation such as ``-> "Template"``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/tog", "tests", "demos", "perfbench")
    for path in (ROOT / folder).glob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, mapped to its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _package_imports(tree: ast.Module) -> set[str]:
    """Sibling modules a package module imports (``from .x`` or ``from . import x``)."""
    return {
        (node.module or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _annotation_names(annotation) -> set[str]:
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= {
                n.id
                for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)
            }
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            used |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(path: Path) -> list[str]:
    """``line: name`` of each import the module never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda item: item[1])
        if name not in used
    ]


def test_scan_covers_every_tree():
    folders = {path.parent.name for path in MODULES}
    assert folders == {"tog", "tests", "demos", "perfbench"}


STAGES = {"ontology", "recognition", "registration", "planning"}
FOUNDATIONS = {"errors", "geometry", "cloud_io", "templates"}


def test_only_the_composers_chain_stages():
    imports = {
        path.stem: _package_imports(ast.parse(path.read_text(), filename=str(path)))
        for path in (ROOT / "src/tog").glob("*.py")
    }
    assert {stage: imports[stage] - FOUNDATIONS for stage in STAGES} == {
        stage: set() for stage in STAGES
    }
    composers = {module for module, names in imports.items() if names & STAGES}
    assert composers == {"__init__", "pipeline", "bench", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_scan_sees_each_kind_of_use(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import TYPE_CHECKING, Any\n"
        "from math import pi, tau\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['pi']\n"
        "def f(x: 'OrderedDict[str, int]') -> None:\n"
        "    return os.path.join(js.dumps(x))\n"
    )
    assert unused_imports(module) == ["4: Any", "5: tau"]
