"""Count the code lines of the package: no docstring, comment or blank line.

A line counts when a token other than a comment starts or continues on it
(so every line of a multi-line statement or string literal counts) and no
module, class or function docstring covers it. Run from anywhere:

    python tests/code_lines.py [folder or file ...]

prints the count of each file, or under each folder (default: ``src/tog``),
and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Module | ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(path: Path) -> int:
    """Code lines of the file ``path``, or of every ``*.py`` file under the folder ``path``."""
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(code_lines(file.read_text()) for file in files)


if __name__ == "__main__":
    folders = [Path(arg) for arg in sys.argv[1:]] or [ROOT / "src" / "tog"]
    counts = [count_tree(folder) for folder in folders]
    for folder, count in zip(folders, counts):
        print(f"{count:6d}  {folder}")
    if len(folders) > 1:
        print(f"{sum(counts):6d}  total")
