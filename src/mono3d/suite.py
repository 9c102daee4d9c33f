"""The standard gradient-oracle suite: every differentiable op against
central finite differences. Used by the CLI gradcheck command and the
acceptance tests."""

from __future__ import annotations

import numpy as np

from .align import OffsetField, align_conv
from .attention import AnabParams, PyramidSpec, anab_forward, attention_map, pa2_pool
from .gradcheck import grad_check
from .losses import loss_2d, loss_3d, loss_cls
from .ops import ConvSpec, conv2d, softmax_lastdim
from .tensor import Tensor

__all__ = ["run_gradient_suite"]


def run_gradient_suite(tol=1e-4, step=1e-5, seed=0):
    """Run every differentiable op through the finite-difference oracle."""
    rng = np.random.default_rng(seed)
    reports = []

    x = Tensor(rng.normal(size=(2, 4, 8, 8)), requires_grad=True)
    spec = ConvSpec.init_random(4, 3, (3, 3), 1, 1, rng=rng)
    reports.append(grad_check(lambda a, w, b: conv2d(a, spec),
                              [x, spec.weight, spec.bias], step, tol, name="conv2d"))

    m = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    reports.append(grad_check(lambda a: softmax_lastdim(a), [m], step, tol,
                              name="softmax_lastdim"))

    xa = Tensor(rng.normal(size=(1, 3, 5, 6)), requires_grad=True)
    off = Tensor(rng.normal(size=(5, 6, 9, 2)) * 0.4, requires_grad=True)
    asp = ConvSpec.init_random(3, 2, (3, 3), 1, 1, rng=rng)
    reports.append(grad_check(
        lambda a, o, w, b: align_conv(a, asp, OffsetField(o, (3, 3))),
        [xa, off, asp.weight, asp.bias], step, tol, name="align_conv"))

    xm = Tensor(rng.normal(size=(1, 3, 4, 6)), requires_grad=True)
    attn_spec = ConvSpec.init_random(3, 1, (1, 1), rng=rng)
    reports.append(grad_check(lambda a, w, b: attention_map(a, attn_spec),
                              [xm, attn_spec.weight, attn_spec.bias], step, tol,
                              name="attention_map"))

    feats = Tensor(rng.normal(size=(2, 3, 4, 6)), requires_grad=True)
    attn = Tensor(rng.uniform(0.1, 0.9, size=(2, 1, 4, 6)), requires_grad=True)
    pyr = PyramidSpec([1, 2])
    reports.append(grad_check(lambda f, a: pa2_pool(f, a, pyr), [feats, attn],
                              step, tol, name="pa2_pool"))

    xe = Tensor(rng.normal(size=(1, 8, 6, 10)), requires_grad=True)
    params = AnabParams.init_random(8, pyramid=PyramidSpec([1, 2]), rng=rng)
    reports.append(grad_check(lambda *a: anab_forward(a[0], params),
                              [xe] + params.params(), step, tol, name="anab_forward"))

    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    targets = rng.integers(0, 4, size=6)
    reports.append(grad_check(lambda a: loss_cls(a, targets), [logits], step, tol,
                              name="loss_cls"))

    gt = np.array([[0.0, 0.0, 10.0, 8.0], [5.0, 5.0, 20.0, 18.0]])
    pred = Tensor(gt + rng.uniform(-1.5, 1.5, size=gt.shape), requires_grad=True)
    reports.append(grad_check(lambda a: loss_2d(a, gt), [pred], step, tol,
                              name="loss_2d"))

    tgt = rng.normal(size=(4, 7))
    pd = Tensor(tgt + rng.uniform(-2.0, 2.0, size=tgt.shape), requires_grad=True)
    reports.append(grad_check(lambda a: loss_3d(a, tgt), [pd], step, tol,
                              name="loss_3d"))

    # per-segment means over three segments, one of them a single row
    segments = [3, 1, 2]
    logits_s = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    targets_s = rng.integers(0, 4, size=6)
    reports.append(grad_check(lambda a: loss_cls(a, targets_s, segments), [logits_s], step, tol,
                              name="loss_cls/segments"))

    gt_s = np.concatenate([rng.uniform(0.0, 10.0, size=(6, 2)),
                           rng.uniform(15.0, 25.0, size=(6, 2))], axis=1)
    pred_s = Tensor(gt_s + rng.uniform(-1.5, 1.5, size=gt_s.shape), requires_grad=True)
    reports.append(grad_check(lambda a: loss_2d(a, gt_s, segments), [pred_s], step, tol,
                              name="loss_2d/segments"))

    tgt_s = rng.normal(size=(6, 7))
    pd_s = Tensor(tgt_s + rng.uniform(-2.0, 2.0, size=tgt_s.shape), requires_grad=True)
    reports.append(grad_check(lambda a: loss_3d(a, tgt_s, segments), [pd_s], step, tol,
                              name="loss_3d/segments"))

    return reports
