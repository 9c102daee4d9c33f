"""The package surface the benchmark harness relies on.

`benchmark/workloads.py` imports names from the package, and the span
tracer's constructor looks up every function and method it wraps, so a
renamed or deleted name fails here, not only in the benchmark's smoke run.
"""

import importlib
from pathlib import Path

import mono3d.detector as detector

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_workloads_import_and_tracer_builds(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    importlib.import_module("workloads")
    tracer = importlib.import_module("spans").Tracer()
    # detect's funnel counts candidates by the calls through detector's own binding
    assert any(owner is detector and attr == "decode" for owner, attr, _, _ in tracer._patches)
