"""Train the toy from many initialisations and check that every one learns.

    python3 tools/init_sweep.py

For each sweep seed s, two draws from `numpy.random.default_rng(s)` give the
scenes' seed, for `make_synthetic_scenes(8, (48, 80), seed=...)`, and the
model seed of `train_toy`. A seed's ratio is the mean total loss of the last
two of 200 steps over the mean of the first two. The seeds are the benchmark
README's 50: 401-410, 501-510, 701-710, 901-910 and 1001-1010. The seeds
run in a pool of one worker process per CPU this process may run on, and
their results come back in seed order. It prints one line per seed, then a
markdown table of the count of seeds above `BOUND` (0.5), the median and the
max, and exits 1 if any seed ends above the bound.
"""

import functools
import multiprocessing
import os
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from mono3d.train import make_synthetic_scenes, train_toy  # noqa: E402

SEEDS = [base + i for base in (401, 501, 701, 901, 1001) for i in range(10)]
STEPS = 200
SCENES = 8
IMAGE_HW = (48, 80)
BOUND = 0.5


def draws(seed):
    """(scene seed, model seed), the first two draws of `default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    return int(rng.integers(2**31)), int(rng.integers(2**31))


def loss_ratio(seed, steps=STEPS):
    """The last two steps' mean total loss over the first two's."""
    scene_seed, model_seed = draws(seed)
    trace, _ = train_toy(make_synthetic_scenes(SCENES, IMAGE_HW, seed=scene_seed),
                         steps=steps, seed=model_seed)
    total = [row[5] for row in trace]
    return (total[-2] + total[-1]) / (total[0] + total[1])


def sweep(seeds, steps=STEPS):
    """`loss_ratio` of each seed, yielded in seed order as the pool's workers
    finish them."""
    with multiprocessing.Pool(len(os.sched_getaffinity(0))) as pool:
        yield from pool.imap(functools.partial(loss_ratio, steps=steps), seeds)


def main():
    ratios = []
    for seed, ratio in zip(SEEDS, sweep(SEEDS)):
        ratios.append(ratio)
        print(f"seed {seed}: {ratio:.3f}", flush=True)
    failing = [f"{s} ({r:.2f}x)" for s, r in zip(SEEDS, ratios) if r > BOUND]
    print(f"| init sweep ({len(SEEDS)} seeds, {STEPS} steps) | above {BOUND} | median | max |")
    print("|---|---|---|---|")
    print(f"| loss ratio | {len(failing)}{': ' + ', '.join(failing) if failing else ''} "
          f"| {statistics.median(ratios):.3f} | {max(ratios):.3f} |")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
