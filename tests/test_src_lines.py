"""`tools/src_lines.py`'s line counts: docstrings, comments and blank lines
are not code; any other string is, over all of its lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULE = '''"""Module docstring,
over two lines."""

import math

# a comment alone
TABLE = """not a docstring:
# this line is inside a string, so it is code
"""


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring,

        with a blank line inside."""
        return math.pi  # a trailing comment does not make a comment line


def f():
    x = 1
    "a string statement after the first is not a docstring"
    return x
'''


def test_counts_one_module():
    # code: import, the three TABLE lines, class, def area, return, def f,
    # x = 1, the string statement, return x
    assert src_lines.count(MODULE) == (25, 11)


def test_empty_module():
    assert src_lines.count("") == (0, 0)


def test_tree_totals_sum_the_modules(capsys):
    files = sorted((ROOT / "src" / "mono3d").glob("*.py"))
    counts = [src_lines.count(p.read_text()) for p in files]
    assert src_lines.main([]) == 0
    assert capsys.readouterr().out == "src/mono3d: {} modules, {} lines, {} code lines\n".format(
        len(files), sum(c[0] for c in counts), sum(c[1] for c in counts))
