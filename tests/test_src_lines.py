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


def test_module_changes_name_added_removed_and_changed_modules():
    base = {"same.py": "x = 1\n", "changed.py": "x = 1\n", "removed.py": "y = 2\n"}
    now = {"same.py": "x = 1\n", "changed.py": "x = 1\n\n# note\ny = 2\n", "empty.py": ""}
    assert src_lines.module_changes(base, now) == [
        "  changed.py: lines 1 -> 4 (+3), code lines 1 -> 2 (+1)",
        "  empty.py (added): lines 0 -> 0 (+0), code lines 0 -> 0 (+0)",
        "  removed.py (removed): lines 1 -> 0 (-1), code lines 1 -> 0 (-1)",
    ]


def test_base_prints_a_row_per_changed_module(monkeypatch, capsys):
    now = {p.name: p.read_text() for p in sorted((ROOT / "src" / "mono3d").glob("*.py"))}
    base = dict(now, **{"tensor.py": now["tensor.py"] + "\n# a comment\nX = 1\n",
                        "gone.py": '"""A module the base had."""\n\nY = 2\n'})
    del base["losses.py"]
    monkeypatch.setattr(src_lines, "base_texts", lambda ref: base)
    assert src_lines.main(["--base", "REF"]) == 0
    out = capsys.readouterr().out.splitlines()
    lines, code = src_lines.count(now["tensor.py"])
    added = src_lines.count(now["losses.py"])
    assert out[1].startswith("base REF: {} modules,".format(len(now)))
    assert out[2] == "net: modules +0, lines {:+d}, code lines {:+d}".format(
        added[0] - 3 - 3, added[1] - 1 - 1)
    assert out[3:] == [
        "  gone.py (removed): lines 3 -> 0 (-3), code lines 1 -> 0 (-1)",
        "  losses.py (added): lines 0 -> {0} (+{0}), code lines 0 -> {1} (+{1})".format(*added),
        "  tensor.py: lines {} -> {} (-3), code lines {} -> {} (-1)".format(
            lines + 3, lines, code + 1, code),
    ]
