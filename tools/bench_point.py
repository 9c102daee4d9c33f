"""Write one benchmark trajectory point, `BENCH_<n>.json`, from the one harness.

    python3 tools/bench_point.py --point N [--repo DIR]

For each workload that DIR's `BENCHMARK.json` declares, it runs
`benchmark/run.py` for that file's `run_seconds`, untraced and traced on
seeds 1-5, then runs the Tier-1 command once and times it. All timing is the
harness's own except the Tier-1 wall time. The point holds the commit and the
env, the Tier-1 wall time and counts, and one row per line: each gated
(end-to-end) metric over the untraced runs, each per-layer metric and report
line over the traced runs, every row the median, quartiles, interquartile
range and per-seed values. Rows the harness cannot time yet are `null` with
the reason.

A run that exits non-zero or is not `correct`, a run with `failed > 0`, a
workload whose traced seeds are not its untraced seeds, or a failing Tier-1
run exits with status 1 and writes no file. The point goes to
`BENCH_<n>.json` beside this script's checkout; if that file exists already,
the script exits with status 1 before any run and leaves it as it is. DIR
defaults to that checkout, so a parent commit can be measured from a clone of
it.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)   # each workload runs untraced and traced on every seed
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# aim-1 rows the harness does not time today, with the reason
UNMEASURED = {
    "geometry.iou_pairs": "the IoU pair kernels (iou_2d_pairs, iou_bev_pairs, iou_3d_pairs) "
                          "carry no span; the scalar iou_* counters they replaced read 0",
    "attention.pa2_pool.backward": "attention.pa2_pool.bwd_ms times only the final transpose's "
                                   "closure; the pooling's bin-sum backward lands in "
                                   "tensor.backward_self_ms",
}


class BenchError(Exception):
    """A run or the Tier-1 suite failed: no point is written."""


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def check_run(record):
    """Raise BenchError unless one harness run exited 0, is correct and failed nothing."""
    where = f"{record['workload']} seed {record['seed']} trace {record['trace']}"
    if record["returncode"] != 0:
        raise BenchError(f"{where}: benchmark/run.py exited {record['returncode']}")
    if not record["correct"] or record["failed"] > 0:
        raise BenchError(f"{where}: not correct, {record['failed']} of "
                         f"{record['attempted']} operations failed")


def check_tier1(tier1):
    counts = tier1["counts"]
    if tier1["returncode"] != 0 or counts.get("failed", 0) or counts.get("error", 0):
        raise BenchError(f"Tier-1 failed (exit {tier1['returncode']}): {tier1['summary']}")


def summarize(runs, units):
    """Each named line over `runs`, which are in seed order: {name: row}.

    A row is the unit, the median, the quartiles, the interquartile range
    and the per-seed values. Raises BenchError if a run lacks a line.
    """
    rows = {}
    for name, unit in units.items():
        values = []
        for r in runs:
            value = next((ln["value"] for ln in r["lines"] if ln["name"] == name), None)
            if value is None:
                raise BenchError(f"{r['workload']} seed {r['seed']}: no {name} line"
                                 + (" in the traced run" if r["trace"] else ""))
            values.append(value)
        q1, median, q3 = quartiles(values)
        rows[name] = {"unit": unit, "median": median, "iqr": q3 - q1, "q1": q1, "q3": q3,
                      "values": values}
    return rows


def aggregate(records, tier1, spec):
    """The point's measurements from harness run records and one Tier-1 record.

    `records` are dicts with workload, seed, trace, returncode, correct,
    attempted, failed, env and lines ([{name, value, unit, n}], as
    `benchmark/run.py` writes them); `spec` is the parsed `BENCHMARK.json`.
    Raises BenchError if any run or the Tier-1 suite failed, or if a
    workload's traced seeds are not its untraced seeds.
    """
    for record in records:
        check_run(record)
    check_tier1(tier1)
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end, traced = {}, {}
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in sorted(records, key=lambda r: r["seed"]) if r["workload"] == workload]
        runs = [r for r in mine if not r["trace"]]
        tr = [r for r in mine if r["trace"]]
        seeds, tr_seeds = [r["seed"] for r in runs], [r["seed"] for r in tr]
        if not runs or tr_seeds != seeds:
            raise BenchError(f"{workload}: need one traced run per untraced seed, got "
                             f"untraced seeds {seeds} and traced seeds {tr_seeds}")
        end_to_end[workload] = summarize(runs, gated)
        rows = summarize(tr, {ln["name"]: ln["unit"] for r in tr for ln in r["lines"]
                              if ln["name"] not in gated})
        traced[workload] = {
            "metrics": {k: v for k, v in rows.items() if k in per_layer},
            "report": {k: v for k, v in rows.items() if k not in per_layer},
        }
    return {
        "env": records[0]["env"],
        "env_consistent": all(r["env"] == records[0]["env"] for r in records),
        "seeds": sorted({r["seed"] for r in records if not r["trace"]}),
        "end_to_end": end_to_end,
        "per_layer": traced,
        "unmeasured": {k: {"value": None, "reason": why} for k, why in UNMEASURED.items()},
        "tier1": {k: tier1[k] for k in ("command", "seconds", "counts", "summary")},
    }


def write_point(path, records, tier1, spec, meta):
    """Aggregate, then write the point; nothing is written if aggregation fails."""
    point = {**meta, **aggregate(records, tier1, spec)}
    Path(path).write_text(json.dumps(point, indent=1) + "\n")
    return point


def run_harness(repo, workload, seed, trace, seconds):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "returncode": proc.returncode, "correct": False, "attempted": 0, "failed": 0,
              "env": None, "lines": []}
    if proc.returncode == 0:
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        result = json.loads((Path(repo) / ".bench_out" /
                             f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
        record.update(correct=summary["correct"], attempted=summary["attempted"],
                      failed=summary["failed"], env=result["env"], lines=result["lines"])
    else:
        print(proc.stderr[-2000:], file=sys.stderr)
    return record


def run_tier1(repo):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=repo, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {re.sub("s$", "", k): int(v)
              for v, k in re.findall(r"(\d+) (passed|failed|xfailed|xpassed|skipped|errors?)",
                                     summary)}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "seconds": seconds,
            "returncode": proc.returncode, "counts": counts, "summary": summary}


def git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def commit_meta(repo):
    """The checkout's HEAD and whether a tracked file differs from it."""
    return {"commit": git(repo, "rev-parse", "HEAD"),
            "dirty": bool(git(repo, "status", "--porcelain", "--untracked-files=no"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.point}.json"
    if out.exists():
        print(f"error: {out.name} exists; no point written", file=sys.stderr)
        return 1
    repo = args.repo.resolve()
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    meta = {"point": args.point, **commit_meta(repo),
            "command": "python3 benchmark/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace T"}
    records = []
    try:
        for w in [w["name"] for w in spec["workloads"]]:
            for seed, trace in [(s, 0) for s in SEEDS] + [(s, 1) for s in SEEDS]:
                print(f"# {w} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                records.append(run_harness(repo, w, seed, trace, seconds))
                check_run(records[-1])
        print("# Tier-1", file=sys.stderr, flush=True)
        tier1 = run_tier1(repo)
        write_point(out, records, tier1, spec, meta)
    except BenchError as err:
        print(f"error: {err}; no point written", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
