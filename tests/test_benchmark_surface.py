"""The package surface the benchmark harness relies on.

`benchmark/workloads.py` imports names from the package, and the span
tracer's constructor looks up every function and method it wraps, so a
renamed or deleted name fails here, not only in the benchmark's smoke run.
The calls the workloads make are bound to the current signatures, and the
values their probes read are checked.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np

import mono3d.detector as detector
from mono3d import align, train
from mono3d.anchors import generate_anchor_grid

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_workloads_import_and_tracer_builds(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    importlib.import_module("workloads")
    tracer = importlib.import_module("spans").Tracer()
    # detect's funnel counts candidates by the calls through detector's own binding
    assert any(owner is detector and attr == "decode" for owner, attr, _, _ in tracer._patches)


def test_workload_calls_bind():
    scenes, model = [], object()
    train_toy = inspect.signature(train.train_toy)
    train_toy.bind(scenes, steps=200, detector=model)   # the train workload
    train_toy.bind(scenes, steps=100, seed=0)           # the detect workload's set-up
    inspect.signature(train.lr_at).bind(1, train.TrainConfig())   # both step probes
    inspect.signature(train.SGD).bind([], train.TrainConfig())


def test_train_steps_are_batches_of_four(monkeypatch):
    # the train workload's step probe counts `opt.config.batch_size` scenes
    seen, step = [], train.SGD.step

    def probe(opt, lr):
        seen.append(opt.config.batch_size)
        step(opt, lr)

    monkeypatch.setattr(train.SGD, "step", probe)
    train.train_toy(train.make_synthetic_scenes(count=1, seed=0), steps=1)
    assert seen == [4]


def test_block_shape_alignment_on_block_scores():
    # the block workload's offsets: (24, 80, A) scores at stride 16
    H, W, stride = 24, 80, 16
    templates = generate_anchor_grid((H, W), stride).templates
    scores = np.random.default_rng(0).uniform(size=(H, W, len(templates)))
    off = align.shape_align_offsets(align.select_best_anchor(scores, templates), stride, (3, 3))
    assert off.shape == (H, W, 9, 2)
    w_a, h_a = templates[scores.argmax(axis=-1)].transpose(2, 0, 1)
    # the corner tap (0, 0) sits at (-1, -1) from the center tap
    np.testing.assert_array_equal(off.data[..., 0, 0], -(h_a / (stride * 3) - 1.0))
    np.testing.assert_array_equal(off.data[..., 0, 1], -(w_a / (stride * 3) - 1.0))
