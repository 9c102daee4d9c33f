"""Shape/center feature alignment and the offset-sampled convolution.

Shape alignment spreads the sampling taps to cover the best-scoring anchor's
extent; center alignment shifts all taps toward the predicted object center.
Both feed `align_conv`, a convolution that reads its taps at fractional
positions via bilinear interpolation. With an all-zero offset field,
align_conv is bit-identical to conv2d.
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
    """The four grid corners around fractional (y, x) on an H x W map.

    Returns four (flat, wy, wx) triples, corners (dy, dx) = (0, 0), (0, 1),
    (1, 0), (1, 1) in that order: the corner's flat index y * W + x, clipped
    into the map, and its two bilinear factors, both zero where the corner
    lies outside the map (zero padding). A corner's value is
    v[flat] * wy * wx, multiplied in that order (the per-tap loop's order, so
    reads are bitwise unchanged).
    """
    y = np.asarray(y, dtype=np.float64)
    xq = np.asarray(x_coord, dtype=np.float64)
    y0 = np.floor(y).astype(np.intp)
    x0 = np.floor(xq).astype(np.intp)
    fy, fx = y - y0, xq - x0
    corners = []
    for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        yi, xi = y0 + dy, x0 + dx
        valid = (yi >= 0) & (yi < H) & (xi >= 0) & (xi < W)
        flat = np.clip(yi, 0, H - 1) * W + np.clip(xi, 0, W - 1)
        wy = np.where(valid, fy if dy else 1.0 - fy, 0.0)
        wx = np.where(valid, fx if dx else 1.0 - fx, 0.0)
        corners.append((flat, wy, wx))
    return corners


def _bilinear_slopes(vals, corners):
    """d/dy and d/dx of a bilinear read, from its four corner values."""
    v00, v01, v10, v11 = vals
    (_, wy00, wx00), (_, wy01, wx01), (_, wy10, wx10), (_, wy11, wx11) = corners
    return (v10 * wx10 - v00 * wx00 + v11 * wx11 - v01 * wx01,
            v01 * wy01 - v00 * wy00 + v11 * wy11 - v10 * wy10)


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
    kept only when the offsets require a gradient.
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

    # the bilinear corners of every tap at once: tap t = i * kw + j reads at
    # (h + i - ph + dy, w + j - ph + dx), one (dy, dx) per tap or one for all;
    # one corner map per field item, shared by every channel. The index map
    # addresses x as (Ci, B*P), item b at b*P, and serves the scatter in the backward.
    tap_y = np.repeat(np.arange(kh) - ph, kw)[:, None, None]
    tap_x = np.tile(np.arange(kw) - ph, kh)[:, None, None]
    ys = np.arange(H)[:, None] + tap_y + off5[..., 0].transpose(0, 3, 1, 2)
    xs = np.arange(W) + tap_x + off5[..., 1].transpose(0, 3, 1, 2)
    corners = _bilinear_corners(ys, xs, H, W)  # each (B', K, H, W)
    item = (np.arange(B) * P)[:, None, None, None]
    idx = np.stack([flat + item for flat, _, _ in corners], axis=1)  # (B, 4, K, H, W)
    wgt = np.stack([wy * wx for _, wy, wx in corners], axis=1)  # (B', 4, K, H, W)
    xc = x.data.transpose(1, 0, 2, 3).reshape(Ci, B * P)

    # one column per tap, gathered and weighted in the per-tap loop's order
    cols = np.empty((B, Ci, K, H, W))
    # d(column)/dy and d(column)/dx, kept only when the offsets need a grad
    dcols = np.empty((2, B, Ci, K, H, W)) if off.requires_grad else None
    for t in range(K):
        tap = [(None, wy[:, t, None], wx[:, t, None]) for _, wy, wx in corners]
        vals = [xc[:, idx[:, c, t]].transpose(1, 0, 2, 3) for c in range(4)]
        cols[:, :, t] = sum(v * wy * wx for v, (_, wy, wx) in zip(vals, tap))
        if dcols is not None:
            dcols[0, :, :, t], dcols[1, :, :, t] = _bilinear_slopes(vals, tap)
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
