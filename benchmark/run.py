"""Benchmark entry point.

    python3 benchmark/run.py --workload {train,detect,eval,block} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed (set-up is repeated and its median
reported as `setup_s`), runs a closed loop of operations for S seconds from
one process, checks every output, prints each metric as a line with its
unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones declared in BENCHMARK.json; with --trace 1 a seeded half
of the operations is traced and the metrics are the per-layer ones.
"""

import os

# BLAS and OpenMP must be pinned before numpy loads (threadpoolctl is not assumed).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import PARTS, Calibration, Clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


@dataclass
class Sample:
    traced: bool
    seconds: float      # wall time
    normalized: float   # wall time at the reference host's speed
    items: int
    parts: dict
    ok: bool = True


@dataclass
class Session:
    """Closed-loop operation log: one caller, the next operation starts only
    after the previous one returned. With a tracer, a seeded coin picks the
    traced operations (the first is untraced, the second traced), so one run
    yields both sides of the tracing overhead without aliasing with the
    workloads' input cycles."""

    seconds: float
    tracer: object
    outdir: str
    clock: Clock
    coin: random.Random
    samples: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    tracer_active: bool = False
    _deadline: float = None
    _root: int = -1

    def more(self):
        """Whether to start another operation; the first call starts the run's clock.
        A run holds at least two operations, so that no median rests on one
        (an `eval` batch can take longer than the whole run) and a traced run
        has both an untraced and a traced one."""
        if self._deadline is None:
            self._deadline = time.perf_counter() + self.seconds
        return time.perf_counter() < self._deadline or len(self.samples) < 2

    def begin(self):
        n = len(self.samples)
        self.tracer_active = self.tracer is not None and (
            n == 1 or n > 1 and self.coin.random() < 0.5)
        if self.tracer_active:
            self._root = self.tracer.begin_op(n)
        self.clock.start()

    def elapsed(self):
        """Wall time of the current operation so far, calibration excluded."""
        return self.clock.elapsed()

    def checkpoint(self):
        """Let a long operation calibrate between its steps. Traced operations
        are not normalized, so their spans never contain calibration."""
        if not self.tracer_active:
            self.clock.checkpoint()

    def end(self, items=1, parts=None):
        seconds = self.clock.pause()
        traced, self.tracer_active = self.tracer_active, False
        if traced:
            self.tracer.end_op(self._root)
        self.clock.calibrate(seconds)
        self.samples.append(Sample(traced, self.clock.wall, self.clock.normalized,
                                   items, parts or {}))

    def verdict(self, ok, why):
        """Record the correctness check of the last operation."""
        if not ok:
            self.samples[-1].ok = False
            self.errors.append(f"operation {len(self.samples) - 1}: {why}")

    def untraced(self):
        return [s for s in self.samples if not s.traced]

    def untraced_ms(self):
        return [s.seconds * 1e3 for s in self.untraced()]

    def traced_ms(self):
        return [s.seconds * 1e3 for s in self.samples if s.traced]

    def items_per_s(self):
        samples = self.untraced()
        return sum(s.items for s in samples) / sum(s.seconds for s in samples)


def timed_setups(workload, seed, clock):
    """Run the set-up `setup_repeats` times; returns the last state, one
    Sample per set-up and the distinct input fingerprints."""
    runs, fingerprints = [], set()
    for _ in range(workload.setup_repeats):
        clock.start()
        state = workload.setup(seed, clock)
        wall, normalized = clock.stop()
        runs.append(Sample(False, wall, normalized, 1, {}))
        fingerprints.add(state.fingerprint)
    return state, runs, fingerprints


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "detect", "eval", "block"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mono3d" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mono3d

    if Path(mono3d.__file__).resolve().parent != SRC / "mono3d":
        print(f"error: imported mono3d from {mono3d.__file__}, not {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))

    clock = Clock(Calibration())
    state, setups, fingerprints = timed_setups(workload, args.seed, clock)

    OUT.mkdir(exist_ok=True)
    session = Session(args.seconds, Tracer() if args.trace else None, str(OUT), clock,
                      random.Random(args.seed))
    try:
        workload.run(state, session)
    except Exception:
        traceback.print_exc()
        print(f"error: workload {workload.name} raised after {len(session.samples)} operations",
              file=sys.stderr)
        return 1
    if len(fingerprints) != 1:
        session.samples[0].ok = False
        session.errors.append("repeated set-ups from one seed built different inputs")
    attempted = len(session.samples)
    failed = sum(not s.ok for s in session.samples)
    for err in session.errors[:10]:
        print(f"# check failed: {err}", file=sys.stderr)
    if len(session.errors) > 10:
        print(f"# ... {len(session.errors) - 10} more failed checks", file=sys.stderr)

    lines = workload.report(state, session)
    untraced = session.untraced_ms()
    norm_ms = [s.normalized * 1e3 for s in session.untraced()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": (statistics.median(s.normalized for s in setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "op_norm_ms.p50": (statistics.median(norm_ms), "ms", len(norm_ms)),
    }
    lines += [
        ("setup_s.wall", statistics.median(s.seconds for s in setups), "s", len(setups)),
        ("op_ms.p50.wall", statistics.median(untraced), "ms", len(untraced)),
        *((f"host.cal_{part}_ms.p50", float(np.median([k[i] for k in clock.kernel_times])) * 1e3,
           "ms", len(clock.kernel_times)) for i, part in enumerate(PARTS)),
        ("failed_frac", failed / attempted, "ratio", attempted),
    ]
    lines += [(k, v, u, n) for k, (v, u, n) in e2e.items()]
    if args.trace:
        traced = session.traced_ms()
        metrics = {k: (v, u, len(traced))
                   for k, (v, u) in layer_metrics(session.tracer, traced, untraced).items()}
        declared = per_layer
        lines += [(k, v, u, n) for k, (v, u, n) in metrics.items()]
        session.tracer.write_csv(OUT / f"spans-{workload.name}-seed{args.seed}.csv")
    else:
        metrics, declared = e2e, end_to_end
    if {k: u for k, (_, u, _) in metrics.items()} != declared:
        print("error: measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1

    for name, value, unit, n in lines:
        print(f"{name} {value:.6g} {unit} n={n}")
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
              "attempted": attempted, "failed": failed, "errors": session.errors,
              "lines": [{"name": k, "value": v, "unit": u, "n": n} for k, v, u, n in lines]}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
