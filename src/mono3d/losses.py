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


def _segments(segments, n):
    """Counts and per-row segment ids of `segments`, the row counts of
    consecutive segments that must cover n rows."""
    counts = np.asarray(segments, dtype=np.intp)
    if counts.ndim != 1 or np.any(counts < 0) or counts.sum() != n:
        raise ValueError(f"segments {counts.tolist()} do not partition {n} rows")
    return counts, np.repeat(np.arange(counts.size), counts)


def _mean(per_row, segments):
    """The (S,) per-segment means of a (n,) per-row loss, taken by segment
    sums; `segments` holds the row counts of consecutive segments. An empty
    segment's mean is 0."""
    counts, seg = _segments(segments, per_row.shape[0])
    scale = 1.0 / np.maximum(counts, 1)

    def bw(g):
        per_row.accumulate_grad((g * scale)[seg], fresh=True)

    out = np.bincount(seg, weights=per_row.data, minlength=counts.size) * scale
    return Tensor.from_op(out, (per_row,), bw)


def _ce_rows(logits, targets):
    """Per-row cross entropy of (n, ncls) logits; the row max is treated as a
    constant shift of the stabilized logsumexp."""
    m = logits.data.max(axis=1, keepdims=True)
    lse = ((logits - m).exp().sum(axis=1)).log() + Tensor(m[:, 0])
    return lse - logits[np.arange(len(targets)), targets]


def loss_cls(logits, targets, segments):
    """Per-segment mean cross entropy of (n, ncls) logits against integer
    targets (see `_mean`)."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    n = logits.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match {n} rows")
    return _mean(_ce_rows(logits, targets), segments)


def per_sample_ce(logits_data, targets):
    """Tape-free per-sample cross entropy, used for hard-negative ranking."""
    return _ce_rows(Tensor(logits_data), np.asarray(targets, dtype=np.intp)).data


def iou_2d_tensor(pred, gt):
    """Elementwise IoU of (n, 4) corner boxes, differentiable in `pred`."""
    pred, gt = _as_tensor(pred), _as_tensor(gt)
    ix = (pred[:, 2].minimum(gt[:, 2]) - pred[:, 0].maximum(gt[:, 0])).maximum(Tensor(0.0))
    iy = (pred[:, 3].minimum(gt[:, 3]) - pred[:, 1].maximum(gt[:, 1])).maximum(Tensor(0.0))
    inter = ix * iy
    area_p = (pred[:, 2] - pred[:, 0]) * (pred[:, 3] - pred[:, 1])
    area_g = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    return inter / (area_p + area_g - inter)


def loss_2d(pred, gt, segments):
    """-log IoU of predicted vs ground-truth 2D boxes, per-segment mean over
    rows (see `_mean`).

    Zero-overlap pairs are clamped to -log(IOU_FLOOR) to stay finite.
    """
    iou = iou_2d_tensor(pred, gt)
    return _mean(-(iou.maximum(Tensor(IOU_FLOOR)).log()), segments)


def smooth_l1(residual):
    """0.5 x^2 below |x| = 1, |x| - 0.5 above; continuous at the knee."""
    r = _as_tensor(residual)
    a = r.abs()
    quad_mask = (a.data < 1.0).astype(np.float64)
    return a * a * 0.5 * quad_mask + (a - 0.5) * (1.0 - quad_mask)


def loss_3d(pred_deltas, target_deltas, segments):
    """Smooth L1 over the 7 regression components, summed per row,
    per-segment mean over rows (see `_mean`)."""
    pred, tgt = _as_tensor(pred_deltas), _as_tensor(target_deltas)
    if pred.shape != tgt.shape:
        raise ValueError(f"delta shapes differ: {pred.shape} vs {tgt.shape}")
    return _mean(smooth_l1(pred - tgt).sum(axis=-1), segments)


def mine_hard(losses, fraction, segments, protected=None):
    """Indices of the ceil(fraction * m) highest-loss entries of each segment
    of m unprotected rows; `segments` holds the row counts of consecutive
    segments.

    Ties resolve to the lower index. Indices in `protected` (positives) are
    always included and do not count against the budget. The result is
    exactly the concatenation of the per-segment calls, shifted to the
    segments' first rows.
    """
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.size
    counts, seg = _segments(segments, n)
    free = np.ones(n, dtype=bool)
    if protected is not None:
        free[np.asarray(protected, dtype=np.intp)] = False
    budget = np.ceil(fraction * np.bincount(seg[free], minlength=counts.size))
    # one stable sort by segment, unprotected rows first, then falling loss:
    # equal keys keep index order, so ties resolve to the lower index
    order = np.lexsort((-losses, ~free, seg))
    rank = np.arange(n) - (np.cumsum(counts) - counts)[seg]  # position in its segment
    chosen = ~free
    chosen[order[rank < budget[seg]]] = True
    return np.flatnonzero(chosen)


def total_loss(l_cls, l_2d, l_3d):
    """L = L_cls + LAMBDA_2D * L_2d + LAMBDA_3D * L_3d."""
    return _as_tensor(l_cls) + LAMBDA_2D * _as_tensor(l_2d) + LAMBDA_3D * _as_tensor(l_3d)
