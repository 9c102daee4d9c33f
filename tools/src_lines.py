"""Count the modules, lines and code lines of `src/mono3d/*.py`.

    python3 tools/src_lines.py [--base REF]

A code line is not blank, not a comment alone (found with `tokenize`) and not
inside a module, class or function docstring (found with `ast`); the lines of
any other string are code, a `#` at the start of one included. So docstrings
added or removed beside a change do not hide its net change in code lines.
With `--base REF` the same counts are printed for the files at git revision
REF, read with `git show`, and the net change of each; then one row per module
whose lines or code lines changed, added and removed modules included (base
-> now, net), so a report shows where the lines went.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/mono3d"


def count(text):
    """(lines, code lines) of one module's source text."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(text).readline)
               if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()}
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and i not in comment and i not in docstring)
    return len(lines), code


def totals(texts):
    """(modules, lines, code lines) over module source texts."""
    counts = [count(t) for t in texts]
    return len(counts), sum(c[0] for c in counts), sum(c[1] for c in counts)


def module_changes(base, now):
    """One row per module whose (lines, code lines) differ between the
    name -> text maps `base` and `now`; a module only one side has is a row
    even if it is empty, and counts (0, 0) on the other side."""
    rows = []
    for name in sorted(base.keys() | now.keys()):
        b = count(base[name]) if name in base else (0, 0)
        n = count(now[name]) if name in now else (0, 0)
        if b != n or (name in base) != (name in now):
            tag = " (added)" if name not in base else " (removed)" if name not in now else ""
            rows.append("  {}{}: lines {} -> {} ({:+d}), code lines {} -> {} ({:+d})".format(
                name, tag, b[0], n[0], n[0] - b[0], b[1], n[1], n[1] - b[1]))
    return rows


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def base_texts(ref):
    """Module name -> source text of the package at git revision `ref`."""
    names = git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {n: git("show", f"{ref}:{PACKAGE}/{n}") for n in names if n.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REF", help="also count REF's files, and the net change")
    args = parser.parse_args(argv)
    texts = {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    now = totals(texts.values())
    row = "{}: {} modules, {} lines, {} code lines"
    print(row.format(PACKAGE, *now))
    if args.base:
        base_by_name = base_texts(args.base)
        base = totals(base_by_name.values())
        print(row.format(f"base {args.base}", *base))
        print("net: modules {:+d}, lines {:+d}, code lines {:+d}".format(
            *(a - b for a, b in zip(now, base))))
        for line in module_changes(base_by_name, texts):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
