"""README.md as the paper-to-code map: it names every name the package root
imports, in backticks; every test and tool path it names exists; it points at
the newest `BENCH_<n>.json` and at every `PAIR_<n>_*.json` of the newest paired
runs; and it stays one page."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MAX_LINES = 200


def package_root_names():
    tree = ast.parse((ROOT / "src" / "mono3d" / "__init__.py").read_text())
    return [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names]


@pytest.mark.parametrize("name", package_root_names())
def test_every_exported_name_is_on_the_map(name):
    assert f"`{name}`" in README


def test_named_test_and_tool_paths_exist():
    paths = set(re.findall(r"\b(?:tests|tools)/[\w./-]+?\.py\b", README))
    assert paths
    missing = sorted(p for p in paths if not (ROOT / p).is_file())
    assert not missing


def test_points_at_the_newest_bench_point():
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert f"`{newest.name}`" in README


def test_points_at_the_newest_paired_runs():
    newest = max(int(p.stem.split("_")[1]) for p in ROOT.glob("PAIR_*.json"))
    missing = [p.name for p in ROOT.glob(f"PAIR_{newest}_*.json") if f"`{p.name}`" not in README]
    assert not missing


def test_stays_one_page():
    assert len(README.splitlines()) <= MAX_LINES
