"""The package's code-line counter on a small module with every kind of line."""

import subprocess
import sys

import code_lines
import pytest

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its code line

# a comment line


class Box:
    """One-line class docstring."""

    size = 3

    def area(self):
        """Function docstring
        on two lines.
        """
        text = """a string that is no docstring
spans two lines"""
        return (self.size
                * self.size), text
'''
# code: import, class, size, def, text (2 lines), return (2 lines)
SAMPLE_CODE_LINES = 8


def test_counts_code_lines_only():
    assert code_lines.code_lines(SAMPLE) == SAMPLE_CODE_LINES


@pytest.mark.parametrize(
    "target, count",
    [(".", SAMPLE_CODE_LINES + 1), ("a.py", SAMPLE_CODE_LINES)],
    ids=["folder", "file"],
)
def test_tree_and_script_agree(tmp_path, target, count):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    path = tmp_path / target
    assert code_lines.count_tree(path) == count
    out = subprocess.run(
        [sys.executable, code_lines.__file__, str(path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == [str(count), str(path)]
