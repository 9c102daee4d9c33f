"""Central finite-difference gradient oracle.

Checks analytic reverse-mode gradients of an arbitrary Tensor -> Tensor
function against (f(x+h) - f(x-h)) / 2h, elementwise, on a fixed random
projection of the output so the check reduces to a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GradReport", "grad_check"]


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


def grad_check(f, inputs, step=1e-5, tol=1e-6, name=None, seed=0):
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

    rng = np.random.default_rng(seed)
    proj = rng.normal(size=out.data.shape)
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
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = scalar_at()
            flat[i] = orig - step
            minus = scalar_at()
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * step)
            if not np.isfinite(numeric):
                return GradReport(op_name, np.inf, tol, False, "non-finite finite difference")
            max_err = max(max_err, _rel_err(aflat[i], numeric))

    return GradReport(op_name, max_err, tol, max_err < tol)
