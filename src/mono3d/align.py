"""Shape/center feature alignment and the offset-sampled convolution.

Shape alignment spreads the sampling taps to cover the best-scoring anchor's
extent; center alignment shifts all taps toward the predicted object center.
Both feed `align_conv`, a convolution that reads its taps at fractional
positions via bilinear interpolation, from one corner table of flat indices
and bilinear factors that `_bilinear_corners` builds for all taps at once.
With an all-zero offset field and a finite input, align_conv is
bit-identical to conv2d.
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


# the bytes that one chunk of align_conv's taps may read, over its 4 corners
_CHUNK_BYTES = 1 << 20


class NonFiniteOffsetsError(ValueError):
    """An offset field with a NaN or infinite entry."""


def shape_align_offsets(best_anchor_wh, stride, kernel=(3, 3)):
    """Offsets spreading the kernel taps over the best anchor's footprint.

    best_anchor_wh: (H, W, 2) or (B, H, W, 2) array of (w_a, h_a) per
    position. Tap (i, j) gets dy = (h_a/(S*kh) - 1) * (i - kh/2 + 0.5) and the
    analogous dx. Returns the (..., H, W, kh*kw, 2) offset tensor. Sizes
    that are not finite and positive are a ValueError.
    """
    wh = np.asarray(best_anchor_wh, dtype=np.float64)
    if wh.ndim not in (3, 4) or wh.shape[-1] != 2:
        raise ValueError(f"best_anchor_wh must be an (H, W, 2) or (B, H, W, 2) anchor size "
                         f"map, got shape {wh.shape}")
    if not ((wh > 0.0) & (wh < np.inf)).all():   # NaN fails both
        raise ValueError("best_anchor_wh must hold finite, positive anchor sizes")
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
    anchor_sizes_2d: (A, 2) array of (w, h) templates. The forward calls
    this on its own scores, so non-finite values pass through: a NaN score
    is the argmax where it stands first.
    """
    scores = np.asarray(cls_scores, dtype=np.float64)
    sizes = np.asarray(anchor_sizes_2d, dtype=np.float64)
    if sizes.ndim != 2 or sizes.shape[1] != 2 or sizes.shape[0] == 0:
        raise ValueError(f"anchor_sizes_2d must be (A, 2) (w, h) templates with A >= 1, got "
                         f"shape {sizes.shape}")
    if scores.shape[-1:] != sizes.shape[:1]:
        raise ValueError(f"cls_scores must end in one channel per anchor template: "
                         f"{len(sizes)} templates, got shape {scores.shape}")
    return sizes[np.argmax(scores, axis=-1)]


def center_align_offsets(residuals, stride):
    """One shift per position: the predicted center residual / stride.

    residuals: Tensor (H, W, 2) or (B, H, W, 2) of (x_r, y_r) in image
    pixels. Returns the (..., H, W, 1, 2) field (y_r/S, x_r/S), which
    `align_conv` applies to every tap, on the tape so offset gradients flow
    back into the center-regression head. It is built from tape ops (a
    reversed slice, a division by the stride, a reshape), so its gradient
    needs no hand-written backward.
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
    y = np.minimum(np.maximum(y, -2.0), H + 1.0)[:, None]
    xq = np.minimum(np.maximum(x_coord, -2.0), W + 1.0)[:, None]
    y0, x0 = np.floor(y).astype(np.intp), np.floor(xq).astype(np.intp)
    fy, fx = y - y0, xq - x0
    corner = (4,) + (1,) * (y.ndim - 2)
    dy, dx = np.array([0, 0, 1, 1]).reshape(corner), np.array([0, 1, 0, 1]).reshape(corner)
    yi, xi = y0 + dy, x0 + dx
    valid = (yi >= 0) & (yi < H) & (xi >= 0) & (xi < W)
    flat = np.minimum(np.maximum(yi, 0), H - 1) * W + np.minimum(np.maximum(xi, 0), W - 1)
    wy = np.where(valid, np.where(dy, fy, 1.0 - fy), 0.0)
    wx = np.where(valid, np.where(dx, fx, 1.0 - fx), 0.0)
    return flat, wy, wx


def align_conv(x, spec, off):
    """Convolution whose taps are displaced by `off` and read bilinearly.

    off: Tensor of per-position (dy, dx) offsets in feature-grid units,
    (H, W, K, 2) shared by every batch item or (B, H, W, K, 2) with one field
    per item (a leading 1 is shared too); K is kh*kw, or 1 for one shift of
    all taps. A NaN or infinite offset raises NonFiniteOffsetsError. This is
    the one place a field is checked (shape against the kernel, the grid and
    the item count, then finiteness): the offset generators only return it.

    Stride-1, odd kernels, 'same' padding only: the offset field is defined
    on the output grid, which must coincide with the input grid. Differentiable
    in the input, the conv parameters, and the offsets. A NaN or infinite
    input is carried to the output, but the zero-offset identity with conv2d
    holds for finite inputs only: each tap sums four weighted corner reads,
    and an infinite read times a zero weight is NaN where conv2d's strided
    read gives +-inf.

    The taps are read into a column tensor and convolved by the column kernel
    that conv2d uses. The taps are read in chunks of consecutive taps, as many
    as keep a chunk's four corner reads within `_CHUNK_BYTES` and at least
    one: all 9 taps of a 3x3 kernel at a small map, one tap per chunk where a
    tap's reads are large (B = 1, 64 channels on 24x80 reads 3.9 MB per tap),
    where a larger chunk no longer saves numpy calls and only costs memory.
    Per chunk, each corner is read by one np.take, which keeps the
    (Ci, B, taps, H, W) layout of the input view; the read is weighted in
    place, by wy and then by wx (the two roundings of v * wy * wx), and the
    four are summed into the first in corner order, from `+ 0.0` so that an
    all -0.0 sum ends at +0.0 as a sum from 0 does. Every value goes through
    the same elementwise operations whatever the chunk length, so the bits do
    not depend on it. The bilinear slopes that the offset gradient needs are
    built from the unweighted reads and kept only when the offsets require a
    gradient, the corner weights that scatter the input gradient only when
    the input requires one.

    The corner table is one per field item (B' is 1 for a shared field) and
    shared by every channel; adding each item's offset b*H*W gives a
    (B, 4, K, H, W) index map into the input viewed as (Ci, B*H*W). The
    backward scatters the input gradient by one np.bincount per channel
    over that map: each item's pixels are their own bins, added in the
    order a per-item bincount adds them. Per channel it holds B*4*K*H*W
    weights, where one flat bincount over all channels would hold four
    column tensors' worth. The offset gradient of a shared or one-tap field
    is summed over the items or taps by accumulate_grad's unbroadcast.
    """
    if x.ndim != 4:
        raise ValueError(f"x must be a 4-D (B, C, H, W) input, got shape {x.shape}")
    kh, kw = spec.kernel
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"align_conv requires odd kernels, got {spec.kernel}")
    if spec.stride != 1 or spec.padding != kh // 2 or kh // 2 != kw // 2:
        raise ValueError("align_conv requires stride 1 and same-padding (k // 2)")
    if off.ndim not in (4, 5) or off.shape[-2:] not in ((kh * kw, 2), (1, 2)):
        raise ValueError(f"offset field off {off.shape} does not match kernel {spec.kernel}: "
                         f"expected (..., H, W, {kh * kw}, 2) or (..., H, W, 1, 2)")
    if not np.all(np.isfinite(off.data)):
        raise NonFiniteOffsetsError("offset field off contains non-finite values")
    B, Ci, H, W = x.shape
    if Ci != spec.in_channels:
        raise ValueError(f"input has {Ci} channels, spec expects {spec.in_channels}")
    if off.shape[-4:-2] != (H, W):
        raise ValueError(f"offset grid of off {off.shape[-4:-2]} does not match the grid of x "
                         f"{(H, W)}")
    off5 = off.data.reshape((-1,) + off.shape[-4:])  # (B', H, W, K, 2), B' = 1 or B
    if off5.shape[0] not in (1, B):
        raise ValueError(f"offset field has {off5.shape[0]} items, input has {B}")
    ph = kh // 2
    K, P = kh * kw, H * W

    # the corner table of every tap at once: tap t = i * kw + j reads at
    # (h + i - ph + dy, w + j - ph + dx), one (dy, dx) per tap or one for all;
    # one table per field item, shared by every channel. The index map
    # addresses x as (Ci, B*P), item b at b*P, and serves the scatter in the backward.
    tap_i, tap_j = np.divmod(np.arange(K), kw)
    ys = np.arange(H)[:, None] + (tap_i - ph)[:, None, None] + off5[..., 0].transpose(0, 3, 1, 2)
    xs = np.arange(W) + (tap_j - ph)[:, None, None] + off5[..., 1].transpose(0, 3, 1, 2)
    flat, wy, wx = _bilinear_corners(ys, xs, H, W)  # each (B', 4, K, H, W)
    idx = flat + (np.arange(B) * P)[:, None, None, None, None]  # (B, 4, K, H, W)
    xc = x.data.transpose(1, 0, 2, 3).reshape(Ci, B * P)

    # the columns of a chunk of consecutive taps at a time: each corner read
    # weighted in place and summed in the per-tap loop's order, then stored
    # once; a chunk holds as many taps as keep its 4 reads of Ci * B * P
    # floats per tap within the budget, and at least one (also when B is 0)
    cols = np.empty((B, Ci, K, H, W))
    # d(column)/dy and d(column)/dx, kept only when the offsets need a grad
    dcols = np.empty((2, B, Ci, K, H, W)) if off.requires_grad else None
    chunk = max(1, _CHUNK_BYTES // max(1, 4 * Ci * B * P * 8))
    for t0 in range(0, K, chunk):
        taps = slice(t0, t0 + chunk)
        v = [np.take(xc, idx[:, c, taps], axis=1) for c in range(4)]  # (Ci, B, taps, H, W)
        # (4, B', taps, H, W)
        wyt, wxt = wy[:, :, taps].swapaxes(0, 1), wx[:, :, taps].swapaxes(0, 1)
        if dcols is not None:  # the slopes take the unweighted reads
            dcols[0, :, :, taps] = (v[2] * wxt[2] - v[0] * wxt[0] + v[3] * wxt[3]
                                    - v[1] * wxt[1]).swapaxes(0, 1)
            dcols[1, :, :, taps] = (v[1] * wyt[1] - v[0] * wyt[0] + v[3] * wyt[3]
                                    - v[2] * wyt[2]).swapaxes(0, 1)
        for c in range(4):
            v[c] *= wyt[c]
            v[c] *= wxt[c]
        v[0] += 0.0  # a sum that starts at +0.0, as sum() did
        for c in range(1, 4):
            v[0] += v[c]
        cols[:, :, taps] = v[0].swapaxes(0, 1)
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
