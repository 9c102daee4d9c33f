"""Golden fingerprints: exact outputs of the four pipeline stages.

- `trace`: the 20-step `train_toy` trace on 8 scenes (scene seed 7, model
  seed 0).
- `detect`: `detect(conf_thresh=0)` on 16 seeded held-out scenes with 1-4
  objects, by a model trained 60 steps on the same scenes (a 20-step model
  still scores most anchors above the 0.1 floor); each row is class, score,
  2D box, 3D box and alpha.
- `block`: a shape-aligned `align_conv` then `anab_forward` at 4 ch x 6x10 with
  a batch of 2: the output, the input gradient and every parameter gradient.
- `ap`: the 54 `evaluate_class` cells (3 tasks x 2 modes x 3 classes x 3
  difficulties) on 12 seeded KITTI-shaped frames.

`build` names the numpy version and the BLAS build, with a digest of a few
BLAS and LAPACK results that tells apart the kernels one build picks on
different CPUs. `tests/test_golden.py` compares exactly when the running
build is the recorded one.

Regenerate (only when an output is meant to change):

    PYTHONPATH=src python3 tests/golden_fingerprints.py

Print how far this build's outputs sit from the committed file, writing
nothing (`--drift`, see `drift`):

    PYTHONPATH=src python3 tests/golden_fingerprints.py --drift
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from mono3d.align import align_conv, select_best_anchor, shape_align_offsets
from mono3d.anchors import generate_anchor_grid
from mono3d.attention import AnabParams, PyramidSpec, anab_forward
from mono3d.detector import detect
from mono3d.evaluate import DIFFICULTIES, EvalConfig, evaluate_class
from mono3d.geometry import Box2D, Box3D
from mono3d.kitti import LabelRecord
from mono3d.ops import ConvSpec
from mono3d.postproc import Detection
from mono3d.tensor import Tensor
from mono3d.train import make_synthetic_scenes, train_toy

PATH = Path(__file__).with_suffix(".json")

TRAIN_STEPS = 20
DETECT_TRAIN_STEPS = 60
DETECT_SCENES = 16
CLASSES = ("Car", "Pedestrian", "Cyclist")
TASKS = ("2d", "bev", "3d")
MODES = ("r11", "r40")
DIMS = {"Car": (1.52, 1.63, 3.88), "Pedestrian": (1.76, 0.66, 0.84),
        "Cyclist": (1.74, 0.60, 1.76)}   # (h, w, l), the KITTI class means


def build():
    """numpy version, BLAS build, and a digest of BLAS/LAPACK results."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}"
    except Exception:   # numpy without a dict build config
        name = "unknown"
    rng = np.random.default_rng(0)
    a, b, x = rng.normal(size=(37, 129)), rng.normal(size=(129, 53)), rng.normal(size=(2, 1001))
    probe = np.concatenate([(a @ b).ravel(), [np.dot(x[0], x[1])],
                            np.linalg.solve(a[:, :37], b[:37]).ravel()])
    return {"numpy": np.__version__, "blas": " ".join(name.split()),
            "blas_digest": hashlib.sha256(probe.tobytes()).hexdigest()}


def trace_and_detect():
    scenes = make_synthetic_scenes(count=8, seed=7)
    trace, _ = train_toy(scenes, steps=TRAIN_STEPS, seed=0)
    _, model = train_toy(scenes, steps=DETECT_TRAIN_STEPS, seed=0)
    return [list(map(float, row)) for row in trace], detect_rows(model)


def detect_rows(model):
    """Per scene, one row per detection: class, score, x1 y1 x2 y2,
    x y z w h l yaw, alpha."""
    out = []
    for i in range(DETECT_SCENES):
        scene = make_synthetic_scenes(count=1, objects_per_scene=1 + i % 4, seed=100 + i)[0]
        out.append([[float(d.class_id), d.score, d.box2d.x1, d.box2d.y1, d.box2d.x2, d.box2d.y2,
                     d.box3d.x, d.box3d.y, d.box3d.z, d.box3d.w, d.box3d.h, d.box3d.l,
                     d.box3d.yaw, d.alpha]
                    for d in detect(model, scene, conf_thresh=0.0)])
    return out


def block_outputs():
    rng = np.random.default_rng(3)
    B, C, H, W = 2, 4, 6, 10
    x = Tensor(rng.normal(size=(B, C, H, W)), requires_grad=True)
    conv = ConvSpec.init_random(C, C, (3, 3), 1, 1, rng=rng)
    templates = generate_anchor_grid((H, W), 8, sizes=[16.0, 24.0, 36.0]).templates
    scores = rng.uniform(size=(B, H, W, len(templates)))
    anab = AnabParams.init_random(C, pyramid=PyramidSpec([1, 2, 4]), rng=rng)
    field = shape_align_offsets(select_best_anchor(scores, templates), 8, (3, 3))
    out = anab_forward(align_conv(x, conv, field), anab)
    out.backward(rng.normal(size=out.shape))
    leaves = [x] + conv.params() + anab.params()
    return {"out": out.data.ravel().tolist(),
            "grads": [p.grad.ravel().tolist() for p in leaves]}


def _record(rng, cls):
    h, w, l = (d * rng.uniform(0.9, 1.1) for d in DIMS[cls])
    z = rng.uniform(5.0, 50.0)
    x0 = rng.uniform(20.0, 1150.0)
    y0 = rng.uniform(100.0, 250.0)
    bh = 720.0 * h / z * rng.uniform(0.9, 1.1)
    bw = bh * w / h * rng.uniform(1.0, 2.5)
    return LabelRecord(cls, float(rng.choice([0.0, 0.1, 0.3, 0.45])), int(rng.integers(3)),
                       rng.uniform(-np.pi, np.pi), (x0, y0, x0 + bw, y0 + bh), (h, w, l),
                       (rng.uniform(-15.0, 15.0), rng.uniform(1.4, 1.8), z),
                       rng.uniform(-np.pi, np.pi))


def _detection(rng, g, score):
    x1, y1, x2, y2 = g.box2d
    sx, sy = (x2 - x1) * rng.normal(0.0, 0.08, 2), (y2 - y1) * rng.normal(0.0, 0.08, 2)
    h, w, l = (d * rng.uniform(0.9, 1.1) for d in g.dims)
    x, y, z = np.asarray(g.location) + rng.normal(0.0, [0.3, 0.05, 0.6])
    yaw = g.rotation_y + rng.normal(0.0, 0.1)
    return Detection(CLASSES.index(g.type), score,
                     Box2D(x1 + sx[0], y1 + sy[0], x2 + sx[1], y2 + sy[1]),
                     Box3D(x, y, z, w, h, l, yaw, alpha=g.alpha), g.alpha)


def eval_frames():
    """12 frames: 1-6 objects, a DontCare region in every third frame, each
    object found with probability 0.8, and 0-2 false positives."""
    rng = np.random.default_rng(11)
    frames = []
    for f in range(12):
        gts = [_record(rng, str(rng.choice(CLASSES))) for _ in range(int(rng.integers(1, 7)))]
        dets = [_detection(rng, g, float(rng.uniform(0.3, 1.0))) for g in gts if rng.uniform() < 0.8]
        dets += [_detection(rng, _record(rng, str(rng.choice(CLASSES))), float(rng.uniform(0.0, 0.6)))
                 for _ in range(int(rng.integers(3)))]
        if f % 3 == 0:
            dc = _record(rng, "Car")
            gts.append(LabelRecord("DontCare", 0.0, 0, 0.0, dc.box2d, dc.dims, dc.location, 0.0))
            dets.append(_detection(rng, dc, float(rng.uniform(0.0, 1.0))))  # a Car inside it
        frames.append((dets, gts))
    return frames


def ap_cells():
    """{"task/mode/class/difficulty": AP}, NaN where no ground truth counts."""
    frames = eval_frames()
    cells = {}
    for task in TASKS:
        for mode in MODES:
            cfg = EvalConfig(mode=mode, task=task)
            for k, cls in enumerate(CLASSES):
                by_class = [([d for d in dets if d.class_id == k], gts) for dets, gts in frames]
                for diff in DIFFICULTIES:
                    cells[f"{task}/{mode}/{cls}/{diff}"] = evaluate_class(by_class, cls, cfg, diff)
    return cells


def compute():
    trace, detections = trace_and_detect()
    return {"build": build(), "trace": trace, "detect": detections,
            "block": block_outputs(), "ap": ap_cells()}


def compared(name, section):
    """A section's values as test_golden.py compares them within BLAS_RTOL (the
    trace's loss columns, each scene's detection scores and boxes, the block's
    output and gradients), or exactly (every AP cell), as a list of arrays."""
    if name == "trace":
        return [np.array(section)[:, 2:]]
    if name == "detect":
        return [np.array(s).reshape(-1, 14)[:, 1:] for s in section]
    if name == "block":
        return [np.array(section["out"])] + [np.array(g) for g in section["grads"]]
    return [np.array(list(section.values()))]


def drift(got, want):
    """{section: largest |got - want| over the section's largest |want|}, the
    measure test_golden.py bounds by BLAS_RTOL off the recorded build; None
    where the shapes differ. A NaN on both sides (an AP cell without ground
    truth) counts as equal."""
    out = {}
    for name in ("trace", "detect", "block", "ap"):
        g, w = compared(name, got[name]), compared(name, want[name])
        if [a.shape for a in g] != [a.shape for a in w]:
            out[name] = None
            continue
        g, w = (np.concatenate([a.ravel() for a in arrays]) for arrays in (g, w))
        err = np.where(np.isnan(g) & np.isnan(w), 0.0, np.abs(g - w)).max(initial=0.0)
        scale = np.nanmax(np.abs(w), initial=0.0)
        out[name] = float(err / scale if scale else err)
    return out


def dumps(golden):
    """JSON with one line per dict entry and per innermost list; floats keep
    their shortest round-trip repr, so loading gives the exact values."""
    if isinstance(golden, dict):
        items = (f"{json.dumps(k)}: {dumps(v)}" for k, v in golden.items())
        return "{\n" + ",\n".join(items) + "\n}"
    if isinstance(golden, list) and golden and isinstance(golden[0], list):
        return "[\n" + ",\n".join(map(dumps, golden)) + "\n]"
    return json.dumps(golden)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the golden fingerprints, or print their drift.")
    parser.add_argument("--drift", action="store_true",
                        help="print each section's largest relative difference from the "
                             "committed file and write nothing")
    if parser.parse_args().drift:
        for name, d in drift(compute(), json.loads(PATH.read_text())).items():
            print(f"{name}: {'shape differs' if d is None else f'{d:.2g}'}")
    else:
        PATH.write_text(dumps(compute()) + "\n")
        print(f"wrote {PATH}")
