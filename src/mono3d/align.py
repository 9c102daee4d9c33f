"""Shape/center feature alignment and the offset-sampled convolution.

Shape alignment spreads the sampling taps to cover the best-scoring anchor's
extent; center alignment shifts all taps toward the predicted object center.
Both feed `align_conv`, a convolution that reads its taps at fractional
positions via bilinear interpolation, from one corner table of flat indices
and bilinear factors that `_bilinear_corners` builds for all taps at once.
With an all-zero offset field, align_conv is bit-identical to conv2d.
"""

from __future__ import annotations

import numpy as np

from .ops import _columns_backward, _columns_forward
from .tensor import Tensor

__all__ = [
    "NonFiniteOffsetsError",
    "shape_align_offsets",
    "select_best_anchor",
    "center_align_offsets",
    "align_conv",
]


class NonFiniteOffsetsError(ValueError):
    """An offset field with a NaN or infinite entry."""


def shape_align_offsets(best_anchor_wh, stride, kernel=(3, 3)):
    """Offsets spreading the kernel taps over the best anchor's footprint.

    best_anchor_wh: (H, W, 2) or (B, H, W, 2) array of (w_a, h_a) per
    position. Tap (i, j) gets dy = (h_a/(S*kh) - 1) * (i - kh/2 + 0.5) and the
    analogous dx. Returns the (..., H, W, kh*kw, 2) offset tensor.
    """
    wh = np.asarray(best_anchor_wh, dtype=np.float64)
    if wh.ndim not in (3, 4) or wh.shape[-1] != 2:
        raise ValueError(f"shape_align_offsets expects an (H, W, 2) or (B, H, W, 2) anchor size "
                         f"map, got shape {wh.shape}")
    if np.any(wh <= 0.0):
        raise ValueError("anchor sizes must be positive")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    kh, kw = kernel
    w_a, h_a = wh[..., 0], wh[..., 1]
    i_idx = np.arange(kh) - kh / 2.0 + 0.5
    j_idx = np.arange(kw) - kw / 2.0 + 0.5
    dy = (h_a / (stride * kh) - 1.0)[..., None] * i_idx  # (..., H, W, kh)
    dx = (w_a / (stride * kw) - 1.0)[..., None] * j_idx  # (..., H, W, kw)
    off = np.empty(wh.shape[:-1] + (kh * kw, 2))
    off[..., 0] = np.repeat(dy, kw, axis=-1)
    off[..., 1] = np.tile(dx, kh)
    return Tensor(off)


def select_best_anchor(cls_scores, anchor_sizes_2d):
    """Per-position (w_a, h_a) of the highest-scoring anchor.

    cls_scores: (H, W, A) or (B, H, W, A) confidence per anchor template;
    ties resolve to the lowest template index (numpy argmax convention).
    anchor_sizes_2d: (A, 2) array of (w, h) templates.
    """
    scores = np.asarray(cls_scores, dtype=np.float64)
    sizes = np.asarray(anchor_sizes_2d, dtype=np.float64)
    if sizes.ndim != 2 or sizes.shape[0] == 0:
        raise ValueError("need at least one anchor template")
    if scores.shape[-1] != sizes.shape[0]:
        raise ValueError(
            f"{scores.shape[-1]} score channels vs {sizes.shape[0]} anchor templates"
        )
    return sizes[np.argmax(scores, axis=-1)]


def center_align_offsets(residuals, stride):
    """One shift per position: the predicted center residual / stride.

    residuals: Tensor (H, W, 2) or (B, H, W, 2) of (x_r, y_r) in image
    pixels. Returns the (..., H, W, 1, 2) field (y_r/S, x_r/S), which
    `align_conv` applies to every tap, on the tape so offset gradients flow
    back into the center-regression head.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    r = residuals if isinstance(residuals, Tensor) else Tensor(residuals)
    if r.ndim not in (3, 4) or r.shape[-1] != 2:
        raise ValueError(f"center_align_offsets expects (H, W, 2) or (B, H, W, 2) residuals, "
                         f"got shape {r.shape}")
    return (r[..., ::-1] / stride).reshape(*r.shape[:-1], 1, 2)


def _bilinear_corners(y, x_coord, H, W):
    """The corner table of fractional (y, x) reads on an H x W map.

    y, x_coord: arrays of one shape (N, ...). Returns (flat, wy, wx), each
    (N, 4, ...), with the corners (dy, dx) = (0, 0), (0, 1), (1, 0), (1, 1)
    on axis 1: the corner's flat index y * W + x, clipped into the map, and
    its two bilinear factors, both zero where the corner lies outside the map
    (zero padding). A corner's value is v[flat] * wy * wx, multiplied in that
    order. Coordinates are first clipped to [-2, H + 1] and [-2, W + 1]: past
    that margin every corner is outside the map already, so no weight or
    index changes, and a huge offset does not overflow the integer cast.
    """
    y = np.clip(y, -2.0, H + 1.0)[:, None]
    xq = np.clip(x_coord, -2.0, W + 1.0)[:, None]
    y0, x0 = np.floor(y).astype(np.intp), np.floor(xq).astype(np.intp)
    fy, fx = y - y0, xq - x0
    corner = (4,) + (1,) * (y.ndim - 2)
    dy, dx = np.array([0, 0, 1, 1]).reshape(corner), np.array([0, 1, 0, 1]).reshape(corner)
    yi, xi = y0 + dy, x0 + dx
    valid = (yi >= 0) & (yi < H) & (xi >= 0) & (xi < W)
    flat = np.clip(yi, 0, H - 1) * W + np.clip(xi, 0, W - 1)
    wy = np.where(valid, np.where(dy, fy, 1.0 - fy), 0.0)
    wx = np.where(valid, np.where(dx, fx, 1.0 - fx), 0.0)
    return flat, wy, wx


def align_conv(x, spec, off):
    """Convolution whose taps are displaced by `off` and read bilinearly.

    off: Tensor of per-position (dy, dx) offsets in feature-grid units,
    (H, W, K, 2) shared by every batch item or (B, H, W, K, 2) with one field
    per item (a leading 1 is shared too); K is kh*kw, or 1 for one shift of
    all taps. A NaN or infinite offset raises NonFiniteOffsetsError.

    Stride-1, odd kernels, 'same' padding only: the offset field is defined
    on the output grid, which must coincide with the input grid. Differentiable
    in the input, the conv parameters, and the offsets.

    The taps are read into a column tensor and convolved by the column kernel
    that conv2d uses. The bilinear slopes that the offset gradient needs are
    kept only when the offsets require a gradient, the corner weights that
    scatter the input gradient only when the input requires one.
    """
    if x.ndim != 4:
        raise ValueError(f"align_conv expects a 4-D (B, C, H, W) input, got shape {x.shape}")
    kh, kw = spec.kernel
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"align_conv requires odd kernels, got {spec.kernel}")
    if spec.stride != 1 or spec.padding != kh // 2 or kh // 2 != kw // 2:
        raise ValueError("align_conv requires stride 1 and same-padding (k // 2)")
    if off.ndim not in (4, 5) or off.shape[-2:] not in ((kh * kw, 2), (1, 2)):
        raise ValueError(f"offset field {off.shape} does not match kernel {spec.kernel}: "
                         f"expected (..., H, W, {kh * kw}, 2) or (..., H, W, 1, 2)")
    if not np.all(np.isfinite(off.data)):
        raise NonFiniteOffsetsError("offset field contains non-finite values")
    B, Ci, H, W = x.shape
    if Ci != spec.in_channels:
        raise ValueError(f"input has {Ci} channels, spec expects {spec.in_channels}")
    if off.shape[-4:-2] != (H, W):
        raise ValueError(
            f"offset grid {off.shape[-4:-2]} does not match feature grid {(H, W)}"
        )
    off5 = off.data.reshape((-1,) + off.shape[-4:])  # (B', H, W, K, 2), B' = 1 or B
    if off5.shape[0] not in (1, B):
        raise ValueError(f"offset field has {off5.shape[0]} items, input has {B}")
    ph = kh // 2
    K, P = kh * kw, H * W

    # the corner table of every tap at once: tap t = i * kw + j reads at
    # (h + i - ph + dy, w + j - ph + dx), one (dy, dx) per tap or one for all;
    # one table per field item, shared by every channel. The index map
    # addresses x as (Ci, B*P), item b at b*P, and serves the scatter in the backward.
    tap_y = np.repeat(np.arange(kh) - ph, kw)[:, None, None]
    tap_x = np.tile(np.arange(kw) - ph, kh)[:, None, None]
    ys = np.arange(H)[:, None] + tap_y + off5[..., 0].transpose(0, 3, 1, 2)
    xs = np.arange(W) + tap_x + off5[..., 1].transpose(0, 3, 1, 2)
    flat, wy, wx = _bilinear_corners(ys, xs, H, W)  # each (B', 4, K, H, W)
    idx = flat + (np.arange(B) * P)[:, None, None, None, None]  # (B, 4, K, H, W)
    xc = x.data.transpose(1, 0, 2, 3).reshape(Ci, B * P)

    # one column per tap, gathered and weighted in the per-tap loop's order
    cols = np.empty((B, Ci, K, H, W))
    # d(column)/dy and d(column)/dx, kept only when the offsets need a grad
    dcols = np.empty((2, B, Ci, K, H, W)) if off.requires_grad else None
    for t in range(K):
        v = [xc[:, idx[:, c, t]].transpose(1, 0, 2, 3) for c in range(4)]
        wyt, wxt = wy[:, :, t, None].swapaxes(0, 1), wx[:, :, t, None].swapaxes(0, 1)
        cols[:, :, t] = sum(v[c] * wyt[c] * wxt[c] for c in range(4))
        if dcols is not None:
            dcols[0, :, :, t] = v[2] * wxt[2] - v[0] * wxt[0] + v[3] * wxt[3] - v[1] * wxt[1]
            dcols[1, :, :, t] = v[1] * wyt[1] - v[0] * wyt[0] + v[3] * wyt[3] - v[2] * wyt[2]
    # the scatter weights, kept only when the input needs a grad
    wgt = wy * wx if x.requires_grad else None
    w3 = spec.weight.data.reshape(spec.out_channels, Ci, K)
    out = _columns_forward(cols, w3, spec.bias.data)

    def bw(g):
        gcols = _columns_backward(np.asarray(g), cols, spec, x.requires_grad or off.requires_grad)
        if x.requires_grad:
            # one bincount per channel over all items: each item's pixels are
            # their own bins, summed in the per-item order
            gx = np.empty((Ci, B * P))
            flat = idx.ravel()
            for ci in range(Ci):
                gx[ci] = np.bincount(flat, weights=(wgt * gcols[:, ci, None]).ravel(),
                                     minlength=B * P)
            x.accumulate_grad(gx.reshape(Ci, B, H, W).transpose(1, 0, 2, 3), fresh=True)
        if off.requires_grad:  # unbroadcast sums a shared field's items, a one-tap field's taps
            off.accumulate_grad(np.einsum("bckhw,dbckhw->bhwkd", gcols, dcols), fresh=True)

    return Tensor.from_op(out, (x, off, spec.weight, spec.bias), bw)
