"""Central finite-difference gradient oracle, and the standard suite that
runs it on every differentiable op.

`grad_check` checks analytic reverse-mode gradients of an arbitrary
Tensor -> Tensor function against (f(x+h) - f(x-h)) / 2h, elementwise, on a
fixed random projection of the output so the check reduces to a scalar.
`run_gradient_suite` serves the CLI gradcheck command and the acceptance
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import align_conv
from .attention import AnabParams, PyramidSpec, anab_forward, attention_map, pa2_pool
from .losses import loss_2d, loss_3d, loss_cls
from .ops import ConvSpec, conv2d, softmax_lastdim
from .tensor import Tensor

__all__ = ["GradReport", "grad_check", "run_gradient_suite"]


@dataclass
class GradReport:
    op_name: str
    max_rel_err: float
    tol: float
    passed: bool
    message: str = ""

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.message})" if self.message else ""
        return f"{status} {self.op_name}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}){extra}"


def _rel_err(a, n):
    return abs(a - n) / max(1.0, abs(a), abs(n))


def grad_check(f, inputs, step=1e-5, tol=1e-6, name=None):
    """Compare analytic and central-difference gradients of f over `inputs`.

    f takes the Tensors in `inputs` positionally and returns one Tensor.
    Only inputs with requires_grad=True are perturbed. Returns a GradReport;
    non-finite values anywhere produce a failure naming the op.
    """
    op_name = name or getattr(f, "__name__", "op")
    for t in inputs:
        t.zero_grad()
    out = f(*inputs)
    if not np.all(np.isfinite(out.data)):
        return GradReport(op_name, np.inf, tol, False, "non-finite forward output")

    proj = np.random.default_rng(0).normal(size=out.data.shape)
    out.backward(proj)

    def scalar_at():
        return float((f(*inputs).data * proj).sum())

    max_err = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        if not np.all(np.isfinite(analytic)):
            return GradReport(op_name, np.inf, tol, False, "non-finite analytic gradient")
        # in place: a reshaped copy of a non-contiguous leaf would perturb nothing
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + step
            plus = scalar_at()
            t.data[i] = orig - step
            minus = scalar_at()
            t.data[i] = orig
            numeric = (plus - minus) / (2.0 * step)
            if not np.isfinite(numeric):
                return GradReport(op_name, np.inf, tol, False, "non-finite finite difference")
            max_err = max(max_err, _rel_err(analytic[i], numeric))

    return GradReport(op_name, max_err, tol, max_err < tol)


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
        lambda a, o, w, b: align_conv(a, asp, o),
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

    # per-segment means over three segments, one of them a single row
    segments = [3, 1, 2]
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    targets = rng.integers(0, 4, size=6)
    reports.append(grad_check(lambda a: loss_cls(a, targets, segments), [logits], step, tol,
                              name="loss_cls/segments"))

    gt = np.concatenate([rng.uniform(0.0, 10.0, size=(6, 2)),
                         rng.uniform(15.0, 25.0, size=(6, 2))], axis=1)
    pred = Tensor(gt + rng.uniform(-1.5, 1.5, size=gt.shape), requires_grad=True)
    reports.append(grad_check(lambda a: loss_2d(a, gt, segments), [pred], step, tol,
                              name="loss_2d/segments"))

    tgt = rng.normal(size=(6, 7))
    pd = Tensor(tgt + rng.uniform(-2.0, 2.0, size=tgt.shape), requires_grad=True)
    reports.append(grad_check(lambda a: loss_3d(a, tgt, segments), [pd], step, tol,
                              name="loss_3d/segments"))

    return reports
