"""Compare a parent checkout with this one on one workload, in paired runs.

    python3 tools/bench_pair.py --point N --parent DIR --workload W --pairs P --first-seed S

Pair i runs `benchmark/run.py` untraced on seed S + i, once in each checkout,
for the `run_seconds` of this checkout's `BENCHMARK.json`. The parent goes
first in even pairs and this checkout in odd ones, so a drift of the host
weighs on both sides alike. The file holds both commits, the env, each pair's
value of every gated (end-to-end) metric on both sides with the change's
difference, both sides' `bench_point.summarize` rows over all pairs, and per
metric the median per-pair difference, that median over the parent's median,
and how many pairs the change ran lower.

A run that exits non-zero or is not `correct`, or a run with `failed > 0`,
exits with status 1 and writes no file, as `bench_point.py` does. The file
goes to `PAIR_<N>_<W>.json` beside this script's checkout; if it exists
already, the script exits with status 1 before any run and leaves it as it is.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import bench_point
from bench_point import BenchError, check_run, summarize

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def schedule(pairs, first_seed):
    """The run order: (pair, seed, side), the parent first in even pairs."""
    order = []
    for i in range(pairs):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order += [(i, first_seed + i, side) for side in sides]
    return order


def compare(runs, spec):
    """The pairs, both sides' summaries and the per-metric verdict.

    `runs` maps each side to its harness records, in pair order; a record is
    a dict as `bench_point.run_harness` returns it. Raises BenchError if a run
    failed or the two sides did not run the same seeds.
    """
    for side in SIDES:
        for record in runs[side]:
            check_run(record)
    seeds = [[r["seed"] for r in runs[side]] for side in SIDES]
    if seeds[0] != seeds[1]:
        raise BenchError(f"the sides ran different seeds: parent {seeds[0]}, change {seeds[1]}")
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {side: summarize(runs[side], gated) for side in SIDES}
    pairs = []
    for i, seed in enumerate(seeds[0]):
        row = {"pair": i, "seed": seed, "first": SIDES[i % 2]}
        for side in SIDES:
            row[side] = {name: summary[side][name]["values"][i] for name in gated}
        row["diff"] = {name: row["change"][name] - row["parent"][name] for name in gated}
        pairs.append(row)
    verdict = {}
    for name, unit in gated.items():
        diffs = [p["diff"][name] for p in pairs]
        median, base = statistics.median(diffs), summary["parent"][name]["median"]
        verdict[name] = {"unit": unit, "median_diff": median,
                         "median_rel": median / base if base else None,
                         "lower": sum(d < 0 for d in diffs), "pairs": len(diffs)}
    return {"env": {side: runs[side][0]["env"] for side in SIDES},
            "env_consistent": len({json.dumps(r["env"], sort_keys=True)
                                   for side in SIDES for r in runs[side]}) == 1,
            "seeds": seeds[0], "pairs": pairs, "summary": summary, "verdict": verdict}


def write_pair(path, runs, spec, meta):
    """Compare, then write the file; nothing is written if a run failed, and
    an existing file is never replaced."""
    result = {**meta, **compare(runs, spec)}
    with open(path, "x") as f:
        f.write(json.dumps(result, indent=1) + "\n")
    return result


def run_pairs(run, pairs, first_seed):
    """Each side's records from `run(side, seed)`, called in `schedule` order;
    stops at the first failed run."""
    runs = {side: [] for side in SIDES}
    for i, seed, side in schedule(pairs, first_seed):
        print(f"# pair {i} seed {seed} {side}", file=sys.stderr, flush=True)
        runs[side].append(run(side, seed))
        check_run(runs[side][-1])
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", type=int, required=True, help="n of PAIR_<n>_<W>.json")
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    out = ROOT / f"PAIR_{args.point}_{args.workload}.json"
    if out.exists():
        print(f"error: {out.name} exists; no file written", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"]
    repos = {"parent": args.parent.resolve(), "change": ROOT}
    meta = {"point": args.point, "workload": args.workload,
            "command": f"python3 benchmark/run.py --workload {args.workload} --seed S "
                       f"--seconds {seconds:g} --trace 0"}
    meta["commits"] = {side: bench_point.commit_meta(repo) for side, repo in repos.items()}
    try:
        runs = run_pairs(lambda side, seed: bench_point.run_harness(
            repos[side], args.workload, seed, 0, seconds), args.pairs, args.first_seed)
        result = write_pair(out, runs, spec, meta)
    except BenchError as err:
        print(f"error: {err}; no file written", file=sys.stderr)
        return 1
    for name, v in result["verdict"].items():
        rel = "" if v["median_rel"] is None else f" ({100 * v['median_rel']:+.1f}%)"
        print(f"{name}: median diff {v['median_diff']:+.4g} {v['unit']}{rel}, "
              f"lower in {v['lower']}/{v['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
