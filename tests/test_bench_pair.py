"""`tools/bench_pair.py` on canned harness records: the alternating run order,
the per-pair differences and the count of pairs the change ran lower, the
`gain` and `within_bound` verdicts, both sides' summaries, and no file when a
run failed or the file exists."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pair  # noqa: E402

SPEC = {"workloads": [{"name": "block"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "op_norm_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25}]}
ENV = {"numpy": "2.x", "nproc": 2}
# op_norm_ms.p50 per pair: the change is lower in pairs 0, 1 and 3
OPS = {"parent": [80.0, 82.0, 79.0, 85.0], "change": [75.0, 76.0, 81.0, 77.0]}


def record(seed, op_ms, setup_s=0.01, **overrides):
    lines = [{"name": "setup_s", "value": setup_s, "unit": "s", "n": 9},
             {"name": "op_norm_ms.p50", "value": op_ms, "unit": "ms", "n": 64}]
    return {"workload": "block", "seed": seed, "trace": 0, "returncode": 0, "correct": True,
            "attempted": 64, "failed": 0, "env": ENV, "lines": lines, **overrides}


def canned_run(calls, bad=None):
    """A `run(side, seed)` that logs its calls and answers from OPS, seeds from 601."""
    def run(side, seed):
        calls.append((side, seed))
        overrides = bad if (side, seed) == ("change", 602) and bad else {}
        return record(seed, OPS[side][seed - 601], **overrides)
    return run


def test_schedule_alternates_which_side_goes_first():
    assert bench_pair.schedule(4, 601) == [
        (0, 601, "parent"), (0, 601, "change"), (1, 602, "change"), (1, 602, "parent"),
        (2, 603, "parent"), (2, 603, "change"), (3, 604, "change"), (3, 604, "parent")]


def test_runs_follow_the_schedule():
    calls = []
    runs = bench_pair.run_pairs(canned_run(calls), 4, 601)
    assert calls == [(side, seed) for _, seed, side in bench_pair.schedule(4, 601)]
    assert [r["seed"] for r in runs["parent"]] == [601, 602, 603, 604]
    assert [r["seed"] for r in runs["change"]] == [601, 602, 603, 604]


def test_differences_and_counts():
    result = bench_pair.compare(bench_pair.run_pairs(canned_run([]), 4, 601), SPEC)
    assert [p["diff"]["op_norm_ms.p50"] for p in result["pairs"]] == [-5.0, -6.0, 2.0, -8.0]
    assert [p["first"] for p in result["pairs"]] == ["parent", "change", "parent", "change"]
    assert result["pairs"][2] == {"pair": 2, "seed": 603, "first": "parent",
                                  "parent": {"setup_s": 0.01, "op_norm_ms.p50": 79.0},
                                  "change": {"setup_s": 0.01, "op_norm_ms.p50": 81.0},
                                  "diff": {"setup_s": 0.0, "op_norm_ms.p50": 2.0}}
    op = result["verdict"]["op_norm_ms.p50"]
    # sorted diffs -8 -6 -5 2: median -5.5; the parent's median is 81.0
    # lower in 3/4 only; the medians 81.0 and 76.5 are within the bound
    assert op == {"unit": "ms", "median_diff": -5.5, "median_rel": pytest.approx(-5.5 / 81.0),
                  "lower": 3, "pairs": 4, "gain": False, "within_bound": True}
    assert result["verdict"]["setup_s"]["lower"] == 0   # equal is not lower
    assert not result["verdict"]["setup_s"]["gain"] and result["verdict"]["setup_s"]["within_bound"]
    parent = result["summary"]["parent"]["op_norm_ms.p50"]
    assert parent["values"] == OPS["parent"] and parent["median"] == 81.0
    assert result["summary"]["change"]["op_norm_ms.p50"]["median"] == 76.5
    assert result["seeds"] == [601, 602, 603, 604]
    assert result["env"] == {"parent": ENV, "change": ENV} and result["env_consistent"]


# ten parent values: median 104.5, quartiles 102.25 and 106.75, IQR 4.5
PARENT10 = [100.0 + i for i in range(10)]


def verdict(parent, change, better="lower", bound=0.25):
    """The op_norm_ms.p50 verdict of pairs of canned runs, one value per side and pair."""
    spec = {"end_to_end": [{"name": "op_norm_ms.p50", "unit": "ms", "better": better,
                            "bound": bound}]}
    runs = {side: [record(601 + i, v) for i, v in enumerate(values)]
            for side, values in (("parent", parent), ("change", change))}
    return bench_pair.compare(runs, spec)["verdict"]["op_norm_ms.p50"]


@pytest.mark.parametrize("change, better, gain", [
    # lower in 9/10, medians 6.0 apart: a gain
    ([v - 6.0 for v in PARENT10[:9]] + [110.0], "lower", True),
    # lower in 8/10 only
    ([v - 6.0 for v in PARENT10[:8]] + [109.0, 110.0], "lower", False),
    # lower in 10/10, but the medians are 4.0 apart, within the parent's IQR
    ([v - 4.0 for v in PARENT10], "lower", False),
    # 9/10 lower is 9/10 worse where higher is better
    ([v - 6.0 for v in PARENT10[:9]] + [110.0], "higher", False),
    ([v + 6.0 for v in PARENT10[:9]] + [100.0], "higher", True),
], ids=["9_of_10", "8_of_10", "within_iqr", "lower_is_worse", "higher_is_better"])
def test_gain(change, better, gain):
    v = verdict(PARENT10, change, better)
    assert v["gain"] is gain


@pytest.mark.parametrize("shift, better, within", [
    (5.0, "lower", True),     # 5.0 worse, the bound is 0.05 * 104.5 = 5.225
    (6.0, "lower", False),
    (-6.0, "lower", True),    # better is always within
    (-5.0, "higher", True),
    (-6.0, "higher", False),
])
def test_within_bound(shift, better, within):
    v = verdict(PARENT10, [p + shift for p in PARENT10], better, bound=0.05)
    assert v["within_bound"] is within


@pytest.mark.parametrize("bad, match", [
    (dict(correct=False), "block seed 602 trace 0: not correct"),
    (dict(failed=2), "2 of 64 operations failed"),
    (dict(returncode=1), "exited 1"),
])
def test_failed_run_stops_and_writes_nothing(tmp_path, bad, match):
    calls = []
    with pytest.raises(bench_pair.BenchError, match=match):
        bench_pair.run_pairs(canned_run(calls, bad), 4, 601)
    assert calls[-1] == ("change", 602)   # the third run, the first of pair 1
    runs = {side: [record(601 + i, OPS[side][i]) for i in range(4)] for side in OPS}
    runs["change"][1] = {**runs["change"][1], **bad}
    out = tmp_path / "PAIR_0_block.json"
    with pytest.raises(bench_pair.BenchError, match=match):
        bench_pair.write_pair(out, runs, SPEC, {"point": 0})
    assert not out.exists()


def test_mismatched_seeds_write_nothing(tmp_path):
    runs = {side: [record(601 + i, OPS[side][i]) for i in range(4)] for side in OPS}
    runs["change"][3] = record(699, 77.0)
    out = tmp_path / "PAIR_0_block.json"
    with pytest.raises(bench_pair.BenchError, match="different seeds"):
        bench_pair.write_pair(out, runs, SPEC, {"point": 0})
    assert not out.exists()


def test_file_written(tmp_path):
    out = tmp_path / "PAIR_0_block.json"
    runs = bench_pair.run_pairs(canned_run([]), 4, 601)
    bench_pair.write_pair(out, runs, SPEC, {"point": 0, "commits": {"parent": "a"}})
    result = json.loads(out.read_text())
    assert result["point"] == 0 and result["commits"] == {"parent": "a"}
    assert result["verdict"]["op_norm_ms.p50"]["lower"] == 3
    with pytest.raises(FileExistsError):   # never replaced
        bench_pair.write_pair(out, runs, SPEC, {"point": 1})
    assert json.loads(out.read_text())["point"] == 0


def test_existing_file_is_kept_and_nothing_runs(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a run started over an existing file")

    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair.bench_point, "run_harness", must_not_run)
    out = tmp_path / "PAIR_7_block.json"
    out.write_bytes(b'{"point": 7}\n')
    assert bench_pair.main(["--point", "7", "--parent", str(ROOT), "--workload", "block",
                            "--pairs", "4", "--first-seed", "601"]) == 1
    assert capsys.readouterr().err.strip() == "error: PAIR_7_block.json exists; no file written"
    assert out.read_bytes() == b'{"point": 7}\n'
