"""`tools/bench_point.py`'s aggregation on canned harness records: medians,
interquartile ranges, the traced runs' per-layer metrics and report lines
summarized like the gated ones, no file when a run, a traced seed or the
Tier-1 suite failed or is missing, and no run over an existing point; with
stub runners, the point on disk while Tier-1 runs and gone if it fails."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_point", ROOT / "tools" / "bench_point.py")
bench_point = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_point)

SPEC = {
    "workloads": [{"name": "detect"}, {"name": "eval"}],
    "end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "op_norm_ms.p50", "unit": "ms"}],
    "per_layer": [{"name": "anchors.decode.calls", "unit": "count"},
                  {"name": "trace.overhead_ms", "unit": "ms"}],
}
ENV = {"numpy": "2.x", "nproc": 2}


def record(workload, seed, op_ms, trace=0, **overrides):
    lines = [{"name": "setup_s", "value": 1.0 + seed / 100, "unit": "s", "n": 3},
             {"name": "op_norm_ms.p50", "value": op_ms, "unit": "ms", "n": 50},
             {"name": "detect.scene_ms.p50", "value": op_ms, "unit": "ms", "n": 50}]
    if trace:
        lines += [{"name": "anchors.decode.calls", "value": 86.5, "unit": "count", "n": 40},
                  {"name": "trace.overhead_ms", "value": op_ms / 10, "unit": "ms", "n": 40}]
    return {"workload": workload, "seed": seed, "trace": trace, "returncode": 0,
            "correct": True, "attempted": 100, "failed": 0, "env": ENV, "lines": lines,
            **overrides}


def records():
    out = []
    for workload, base in (("detect", 5.0), ("eval", 160.0)):
        # seeds given out of order; op times 5.0, 5.4, 5.1, 6.0, 5.2 (x base / 5),
        # traced 0.1 ms slower
        ops = list(zip((3, 1, 5, 2, 4), (5.0, 5.4, 5.1, 6.0, 5.2)))
        out += [record(workload, seed, op * base / 5.0) for seed, op in ops]
        out += [record(workload, seed, (op + 0.1) * base / 5.0, trace=1) for seed, op in ops]
    return out


TIER1 = {"command": "pytest", "seconds": 33.0, "returncode": 0,
         "counts": {"passed": 563, "xfailed": 2}, "summary": "563 passed, 2 xfailed in 33.00s"}


def test_medians_and_interquartile_ranges():
    point = bench_point.aggregate(records(), TIER1, SPEC)
    op = point["end_to_end"]["detect"]["op_norm_ms.p50"]
    # sorted 5.0 5.1 5.2 5.4 6.0: inclusive quartiles 5.1 and 5.4
    assert op["median"] == pytest.approx(5.2)
    assert (op["q1"], op["q3"]) == pytest.approx((5.1, 5.4))
    assert op["iqr"] == pytest.approx(0.3)
    assert op["values"] == pytest.approx([5.4, 6.0, 5.0, 5.2, 5.1])   # by seed
    assert point["end_to_end"]["eval"]["op_norm_ms.p50"]["median"] == pytest.approx(166.4)
    assert point["end_to_end"]["detect"]["setup_s"]["median"] == pytest.approx(1.03)
    assert point["seeds"] == [1, 2, 3, 4, 5]


def test_traced_run_and_unmeasured_rows():
    point = bench_point.aggregate(records(), TIER1, SPEC)
    traced = point["per_layer"]["detect"]
    assert set(traced["metrics"]) == {"anchors.decode.calls", "trace.overhead_ms"}
    # every traced seed, summarized like the gated rows: sorted 0.51 0.52 0.53 0.55 0.61
    overhead = traced["metrics"]["trace.overhead_ms"]
    assert overhead["unit"] == "ms"
    assert overhead["values"] == pytest.approx([0.55, 0.61, 0.51, 0.53, 0.52])   # by seed
    assert overhead["median"] == pytest.approx(0.53)
    assert (overhead["q1"], overhead["q3"]) == pytest.approx((0.52, 0.55))
    assert overhead["iqr"] == pytest.approx(0.03)
    assert traced["metrics"]["anchors.decode.calls"] == {
        "unit": "count", "median": 86.5, "iqr": 0.0, "q1": 86.5, "q3": 86.5, "values": [86.5] * 5}
    assert set(traced["report"]) == {"detect.scene_ms.p50"}   # gated lines are not repeated
    scene = traced["report"]["detect.scene_ms.p50"]
    assert scene["median"] == pytest.approx(5.3) and scene["iqr"] == pytest.approx(0.3)
    assert point["per_layer"]["eval"]["report"]["detect.scene_ms.p50"]["median"] == \
        pytest.approx(169.6)
    assert all(row["value"] is None and row["reason"] for row in point["unmeasured"].values())
    assert set(point["unmeasured"]) == {"geometry.iou_pairs", "attention.pa2_pool.backward"}
    assert point["env"] == ENV and point["env_consistent"]
    assert point["tier1"]["counts"] == {"passed": 563, "xfailed": 2}


@pytest.mark.parametrize("bad, match", [
    (dict(correct=False), "detect seed 5 trace 0"),
    (dict(failed=1), "detect seed 5 trace 0"),
    (dict(returncode=1), "detect seed 5 trace 0"),
    (dict(lines=record("detect", 5, 5.1)["lines"][1:]), "detect seed 5: no setup_s line"),
])
def test_failed_run_writes_nothing(tmp_path, bad, match):
    recs = records()
    recs[2] = {**recs[2], **bad}
    out = tmp_path / "BENCH_0.json"
    with pytest.raises(bench_point.BenchError, match=match):
        bench_point.write_point(out, recs, TIER1, SPEC, {"point": 0})
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    dict(returncode=1, counts={"passed": 562, "failed": 1}),
    dict(returncode=0, counts={"passed": 563, "error": 1}),
])
def test_failing_tier1_writes_nothing(tmp_path, bad):
    out = tmp_path / "BENCH_0.json"
    with pytest.raises(bench_point.BenchError, match="Tier-1 failed"):
        bench_point.write_point(out, records(), {**TIER1, **bad}, SPEC, {"point": 0})
    assert not out.exists()


def test_missing_traced_run_writes_nothing(tmp_path):
    out = tmp_path / "BENCH_0.json"
    recs = [r for r in records() if not (r["workload"] == "eval" and r["trace"])]
    with pytest.raises(bench_point.BenchError, match=r"eval: need one traced run per untraced "
                                                     r"seed, got untraced seeds \[1, 2, 3, 4, 5\] "
                                                     r"and traced seeds \[\]"):
        bench_point.write_point(out, recs, TIER1, SPEC, {"point": 0})
    assert not out.exists()


def test_missing_traced_seed_writes_nothing(tmp_path):
    out = tmp_path / "BENCH_0.json"
    recs = [r for r in records() if (r["workload"], r["seed"], r["trace"]) != ("eval", 3, 1)]
    with pytest.raises(bench_point.BenchError, match=r"traced seeds \[1, 2, 4, 5\]"):
        bench_point.write_point(out, recs, TIER1, SPEC, {"point": 0})
    assert not out.exists()


def test_traced_run_missing_a_line_writes_nothing(tmp_path):
    out = tmp_path / "BENCH_0.json"
    recs = records()
    key = ("eval", 3, 1)
    i = next(i for i, r in enumerate(recs) if (r["workload"], r["seed"], r["trace"]) == key)
    recs[i] = {**recs[i], "lines": [ln for ln in recs[i]["lines"]
                                    if ln["name"] != "trace.overhead_ms"]}
    with pytest.raises(bench_point.BenchError,
                       match="eval seed 3: no trace.overhead_ms line in the traced run"):
        bench_point.write_point(out, recs, TIER1, SPEC, {"point": 0})
    assert not out.exists()


def test_point_written(tmp_path):
    out = tmp_path / "BENCH_0.json"
    bench_point.write_point(out, records(), TIER1, SPEC, {"point": 0, "commit": "abc"})
    point = json.loads(out.read_text())
    assert point["point"] == 0 and point["commit"] == "abc"
    assert point["unmeasured"]["geometry.iou_pairs"]["value"] is None


def test_existing_point_is_kept_and_nothing_runs(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a run started over an existing point")

    monkeypatch.setattr(bench_point, "ROOT", tmp_path)
    monkeypatch.setattr(bench_point, "run_harness", must_not_run)
    monkeypatch.setattr(bench_point, "run_tier1", must_not_run)
    out = tmp_path / "BENCH_7.json"
    out.write_bytes(b'{"point": 7}\n')
    assert bench_point.main(["--point", "7", "--repo", str(ROOT)]) == 1
    assert capsys.readouterr().err.strip() == "error: BENCH_7.json exists; no point written"
    assert out.read_bytes() == b'{"point": 7}\n'


def stub_main(tmp_path, monkeypatch, tier1):
    """main() over SPEC's workloads with a stub harness and `tier1` as the
    Tier-1 runner; the point goes to tmp_path/BENCH_9.json."""
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps({**SPEC, "run_seconds": 1}))
    monkeypatch.setattr(bench_point, "ROOT", tmp_path)
    monkeypatch.setattr(bench_point, "commit_meta", lambda repo: {"commit": "abc", "dirty": False})
    monkeypatch.setattr(bench_point, "run_harness",
                        lambda repo, w, seed, trace, seconds: record(w, seed, 5.0 + seed, trace))
    monkeypatch.setattr(bench_point, "run_tier1", tier1)
    return bench_point.main(["--point", "9", "--repo", str(repo)])


def test_tier1_sees_the_point_then_it_holds_the_tier1_record(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_9.json"
    seen = []

    def tier1(repo):
        seen.append(json.loads(out.read_text()))
        return TIER1

    assert stub_main(tmp_path, monkeypatch, tier1) == 0
    assert len(seen) == 1 and seen[0]["tier1"] is None
    assert seen[0]["end_to_end"]["detect"]["op_norm_ms.p50"]["median"] == 8.0
    point = json.loads(out.read_text())
    assert point["tier1"]["counts"] == {"passed": 563, "xfailed": 2}
    assert {k: v for k, v in point.items() if k != "tier1"} == \
        {k: v for k, v in seen[0].items() if k != "tier1"}


def test_failing_tier1_leaves_no_point(tmp_path, monkeypatch, capsys):
    def tier1(repo):
        assert (tmp_path / "BENCH_9.json").exists()
        return {**TIER1, "returncode": 1, "counts": {"passed": 562, "failed": 1}}

    assert stub_main(tmp_path, monkeypatch, tier1) == 1
    assert "Tier-1 failed" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_9.json").exists()


def test_interrupted_tier1_leaves_no_point(tmp_path, monkeypatch):
    def tier1(repo):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        stub_main(tmp_path, monkeypatch, tier1)
    assert not (tmp_path / "BENCH_9.json").exists()
