"""`tools/init_sweep.py`: its seed draws and its per-seed loss ratio, run for
3 steps, equal an in-process `train_toy` call bitwise, and so do the ratios
its worker pool returns; and the draws that diverge without the gradient
clip train."""

import sys
from pathlib import Path

import numpy as np
import pytest

from mono3d.train import make_synthetic_scenes, train_toy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import init_sweep  # noqa: E402


def test_sweep_is_the_benchmark_readmes_fifty_seeds():
    assert len(init_sweep.SEEDS) == len(set(init_sweep.SEEDS)) == 50
    assert init_sweep.SEEDS[:2] == [401, 402] and init_sweep.SEEDS[-1] == 1010
    assert init_sweep.BOUND == 0.5 and init_sweep.STEPS == 200


def test_per_seed_ratio_equals_train_toy_bitwise():
    rng = np.random.default_rng(905)
    scene_seed, model_seed = int(rng.integers(2**31)), int(rng.integers(2**31))
    assert init_sweep.draws(905) == (scene_seed, model_seed)
    trace, _ = train_toy(make_synthetic_scenes(8, (48, 80), seed=scene_seed), steps=3,
                         seed=model_seed)
    expect = (trace[-2][5] + trace[-1][5]) / (trace[0][5] + trace[1][5])
    assert init_sweep.loss_ratio(905, steps=3).hex() == expect.hex()


def test_pool_returns_the_serial_ratios_in_seed_order():
    seeds = init_sweep.SEEDS[:3]
    pooled = list(init_sweep.sweep(seeds, steps=3))
    assert [r.hex() for r in pooled] == [init_sweep.loss_ratio(s, steps=3).hex() for s in seeds]


@pytest.mark.parametrize("seed", [905, 909])
def test_initialisations_that_diverge_without_the_clip_train(seed):
    # without the gradient clip these end at 1.71x and 0.75x
    assert init_sweep.loss_ratio(seed) <= init_sweep.BOUND
