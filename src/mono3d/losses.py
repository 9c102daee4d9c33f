"""Multi-task detection losses: cross entropy, -log(IoU), smooth L1, mining.

All loss heads accept autodiff Tensors so the whole objective sits on one
tape; plain numpy arrays are coerced to constants.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "loss_cls",
    "loss_2d",
    "loss_3d",
    "smooth_l1",
    "mine_hard",
    "total_loss",
    "per_sample_ce",
]

IOU_FLOOR = 1e-7
LAMBDA_2D = 1.0        # weight of L_2d in the total loss
LAMBDA_3D = 1.0        # weight of L_3d in the total loss
HARD_FRACTION = 0.20   # share of negatives kept by hard-negative mining
POSITIVE_IOU = 0.5     # anchor-to-ground-truth 2D IoU at or above which an anchor is positive
NEGATIVE_IOU = 0.4     # ... below which it is background; in between it is ignored


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def loss_cls(logits, targets):
    """Mean cross entropy of (n, ncls) logits against integer targets."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    n = logits.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match {n} rows")
    # stabilized logsumexp; the row max is treated as a constant shift
    m = logits.data.max(axis=1, keepdims=True)
    lse = ((logits - m).exp().sum(axis=1)).log() + Tensor(m[:, 0])
    picked = logits[np.arange(n), targets]
    return (lse - picked).mean()


def per_sample_ce(logits_data, targets):
    """Tape-free per-sample cross entropy, used for hard-negative ranking."""
    logits_data = np.asarray(logits_data, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.intp)
    m = logits_data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits_data - m).sum(axis=1)) + m[:, 0]
    return lse - logits_data[np.arange(len(targets)), targets]


def iou_2d_tensor(pred, gt):
    """Elementwise IoU of (n, 4) corner boxes, differentiable in `pred`."""
    pred, gt = _as_tensor(pred), _as_tensor(gt)
    ix = (pred[:, 2].minimum(gt[:, 2]) - pred[:, 0].maximum(gt[:, 0])).maximum(Tensor(0.0))
    iy = (pred[:, 3].minimum(gt[:, 3]) - pred[:, 1].maximum(gt[:, 1])).maximum(Tensor(0.0))
    inter = ix * iy
    area_p = (pred[:, 2] - pred[:, 0]) * (pred[:, 3] - pred[:, 1])
    area_g = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    return inter / (area_p + area_g - inter)


def loss_2d(pred, gt):
    """-log IoU of predicted vs ground-truth 2D boxes, mean over rows.

    Zero-overlap pairs are clamped to -log(IOU_FLOOR) to stay finite.
    """
    iou = iou_2d_tensor(pred, gt)
    return -(iou.maximum(Tensor(IOU_FLOOR)).log()).mean()


def smooth_l1(residual):
    """0.5 x^2 below |x| = 1, |x| - 0.5 above; continuous at the knee."""
    r = _as_tensor(residual)
    a = r.abs()
    quad_mask = (a.data < 1.0).astype(np.float64)
    return a * a * 0.5 * quad_mask + (a - 0.5) * (1.0 - quad_mask)


def loss_3d(pred_deltas, target_deltas):
    """Smooth L1 over the 7 regression components, summed per row, mean over rows."""
    pred, tgt = _as_tensor(pred_deltas), _as_tensor(target_deltas)
    if pred.shape != tgt.shape:
        raise ValueError(f"delta shapes differ: {pred.shape} vs {tgt.shape}")
    per_row = smooth_l1(pred - tgt).sum(axis=-1)
    return per_row.mean()


def mine_hard(losses, fraction, protected=None):
    """Indices of the ceil(fraction * n) highest-loss entries.

    Ties resolve to the lower index. Indices in `protected` (positives) are
    always included and do not count against the budget.
    """
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.size
    if n == 0:
        return np.array([], dtype=np.intp)
    protected = np.asarray(protected, dtype=np.intp) if protected is not None else np.array([], dtype=np.intp)
    pool = np.setdiff1d(np.arange(n), protected)
    k = int(np.ceil(fraction * pool.size))
    order = pool[np.argsort(-losses[pool], kind="stable")]
    chosen = np.sort(np.concatenate([protected, order[:k]]))
    return chosen.astype(np.intp)


def total_loss(l_cls, l_2d, l_3d):
    """L = L_cls + LAMBDA_2D * L_2d + LAMBDA_3D * L_3d."""
    return _as_tensor(l_cls) + LAMBDA_2D * _as_tensor(l_2d) + LAMBDA_3D * _as_tensor(l_3d)
