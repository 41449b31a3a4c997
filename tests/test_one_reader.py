"""Only the reader in `tog.cloud_io` reads input files or decodes JSON.

A stdlib `ast` scan of `src/tog`: a call to ``json.load``, ``json.loads``,
``.read_text`` or ``.read_bytes``, or a ``from json import``, anywhere but
inside `cloud_io.read_text` and `cloud_io.parse_json` is a second reader,
which needs its own error mapping; a failure that mapping misses reaches
the user as a traceback instead of a `TogError`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "tog").glob("*.py"))
READER_MODULE = "cloud_io.py"
READER_FUNCTIONS = {"read_text", "parse_json"}
FILE_READS = {"read_text", "read_bytes"}


def reads(tree: ast.Module) -> list[tuple[str | None, int, str]]:
    """(enclosing function, line, call) of each file read or JSON decode."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                attr, owner = child.func.attr, child.func.value
                is_json = isinstance(owner, ast.Name) and owner.id == "json"
                if attr in FILE_READS or (is_json and attr in {"load", "loads"}):
                    found.append((function, child.lineno, attr))
            elif isinstance(child, ast.ImportFrom) and child.module == "json":
                found.append((function, child.lineno, "from json import"))
            visit(child, function)

    visit(tree, None)
    return found


def stray_reads(path: Path) -> list[str]:
    """``line: call`` of each read outside the reader."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{line}: {call}"
        for function, line, call in reads(tree)
        if not (path.name == READER_MODULE and function in READER_FUNCTIONS)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_reader_reads(path):
    assert stray_reads(path) == []


def test_the_reader_is_where_the_scan_expects_it():
    tree = ast.parse((ROOT / "src" / "tog" / READER_MODULE).read_text())
    assert {(function, call) for function, _, call in reads(tree)} == {
        ("read_text", "read_text"),
        ("parse_json", "loads"),
    }


def test_scan_sees_each_kind_of_read(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import json\n"
        "from pathlib import Path\n"
        "def f(p):\n"
        "    return json.loads(Path(p).read_text())\n"
        "def g(p, fh):\n"
        "    return json.load(fh), Path(p).read_bytes(), json.dumps(p)\n"
        "from json import loads\n"
    )
    assert stray_reads(module) == [
        "4: loads",
        "4: read_text",
        "6: load",
        "6: read_bytes",
        "7: from json import",
    ]
