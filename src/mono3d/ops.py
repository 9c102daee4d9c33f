"""Neural-net primitives on the autodiff tensor: conv, bilinear sampling, softmax, pooling.

conv2d and the offset-sampled convolution (`align.align_conv`) share one
column kernel: each builds a (B, Ci, K = kh*kw, OH, OW) column tensor, by
strided slices or by bilinear reads. The forward adds taps in (kh, kw, ci)
order, one tap-plane at a time, so its floating-point summation order is
identical to the naive nested-loop reference (and align_conv with all offsets
zero is bit-identical to conv2d). The backward is two matrix contractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

__all__ = [
    "ConvSpec",
    "conv2d",
    "bilinear_sample",
    "softmax_lastdim",
    "adaptive_avg_pool",
]


@dataclass
class ConvSpec:
    """Convolution geometry plus its learnable weight/bias tensors."""

    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3)
    stride: int = 1
    padding: int = 0
    weight: Tensor = None
    bias: Tensor = None

    def __post_init__(self):
        kh, kw = self.kernel
        if kh < 1 or kw < 1:
            raise ValueError(f"kernel must be >= 1, got {self.kernel}")
        wshape = (self.out_channels, self.in_channels, kh, kw)
        if self.weight is None:
            self.weight = Tensor(np.zeros(wshape), requires_grad=True)
        if tuple(self.weight.shape) != wshape:
            raise ValueError(f"weight shape {self.weight.shape} != {wshape}")
        if self.bias is None:
            self.bias = Tensor(np.zeros(self.out_channels), requires_grad=True)
        if tuple(self.bias.shape) != (self.out_channels,):
            raise ValueError(f"bias shape {self.bias.shape} != ({self.out_channels},)")

    @staticmethod
    def init_random(in_channels, out_channels, kernel=(3, 3), stride=1, padding=0, rng=None, gain=1.0):
        rng = np.random.default_rng() if rng is None else rng
        kh, kw = kernel
        fan_in = in_channels * kh * kw
        w = rng.normal(0.0, gain / np.sqrt(fan_in), size=(out_channels, in_channels, kh, kw))
        b = np.zeros(out_channels)
        return ConvSpec(
            in_channels, out_channels, kernel, stride, padding,
            weight=Tensor(w, requires_grad=True), bias=Tensor(b, requires_grad=True),
        )

    def params(self):
        return [self.weight, self.bias]


_CHUNK = 1 << 17  # float64 products per ordered reduce (1 MiB, cache-sized)


def _columns_forward(cols, w, b):
    """Convolve a (B, Ci, K, OH, OW) column tensor with (Co, Ci, K) weights.

    Starts from the bias and adds one tap plane at a time in (t, ci) order,
    the naive loop's summation order, so the result is bitwise reproducible
    against it. No BLAS call: a matrix product would reorder the sum.

    Within a tap, the products of a chunk of channels are made by one
    multiply into rows 1.. of a stack whose row 0 holds the running sum, and
    added by one reduce over that outer axis, which adds row after row: each
    element's summation order stays that of the loop. The reduce starts from
    -0.0, the exact additive identity (numpy's default 0.0 would turn a
    -0.0 sum into +0.0). When a chunk would hold fewer than two product
    rows, each product is added in place instead.
    """
    B, Ci, K = cols.shape[:3]
    out = np.empty((B, w.shape[0]) + cols.shape[3:])
    out[:] = b[None, :, None, None]
    n = min(_CHUNK // out.size, Ci)
    if n < 2:
        term = np.empty_like(out)
        for t in range(K):
            for ci in range(Ci):
                np.multiply(cols[:, ci, t, None], w[None, :, ci, t, None, None], out=term)
                out += term
        return out
    xs = cols.transpose(1, 2, 0, 3, 4)[:, :, :, None]  # (Ci, K, B, 1, OH, OW), a view
    ws = w.transpose(1, 2, 0)[:, :, None, :, None, None]  # (Ci, K, 1, Co, 1, 1)
    stack = np.empty((n + 1,) + out.shape)
    for t in range(K):
        for c0 in range(0, Ci, n):
            m = min(n, Ci - c0)
            np.multiply(xs[c0:c0 + m, t], ws[c0:c0 + m, t], out=stack[1:m + 1])
            stack[0] = out
            np.add.reduce(stack[:m + 1], axis=0, out=out, initial=-0.0)
    return out


def _columns_backward(g, cols, w, need_cols, need_w):
    """Gradients of `_columns_forward` for upstream `g` (B, Co, OH, OW).

    Two contractions: gcols = W^T @ G per batch item, shaped like `cols`, and
    gw = sum over b of G_b @ cols_b^T, shaped like `w`. Either is None when
    not needed. The caller scatters gcols back onto its input.
    """
    B, Co = g.shape[:2]
    Ci, K = w.shape[1:]
    G = g.reshape(B, Co, -1)
    gcols = gw = None
    if need_cols:
        gcols = (w.reshape(Co, Ci * K).T @ G).reshape(cols.shape)
    if need_w:
        gw = np.tensordot(G, cols.reshape(B, Ci * K, -1), axes=([0, 2], [0, 2])).reshape(w.shape)
    return gcols, gw


def conv2d(x, spec):
    """Cross-correlation of a (B, Ci, H, W) tensor with `spec`, zero padding."""
    if x.ndim != 4:
        raise ValueError(f"conv2d expects a 4-D input, got shape {x.shape}")
    B, Ci, H, W = x.shape
    if Ci != spec.in_channels:
        raise ValueError(f"input has {Ci} channels, spec expects {spec.in_channels}")
    kh, kw = spec.kernel
    s, p = spec.stride, spec.padding
    OH = (H + 2 * p - kh) // s + 1
    OW = (W + 2 * p - kw) // s + 1
    if OH < 1 or OW < 1:
        raise ValueError(f"empty output for input {H}x{W}, kernel {kh}x{kw}, pad {p}")

    taps = [(i, j) for i in range(kh) for j in range(kw)]
    if (kh, kw, s, p) == (1, 1, 1, 0):
        cols = x.data[:, :, None]
    else:
        padded = np.zeros((B, Ci, H + 2 * p, W + 2 * p))
        padded[:, :, p:p + H, p:p + W] = x.data
        cols = np.empty((B, Ci, kh * kw, OH, OW))
        for t, (i, j) in enumerate(taps):
            cols[:, :, t] = padded[:, :, i:i + OH * s:s, j:j + OW * s:s]
        del padded
    w3 = spec.weight.data.reshape(spec.out_channels, Ci, kh * kw)
    out = _columns_forward(cols, w3, spec.bias.data)

    def bw(g):
        g = np.asarray(g)
        gcols, gw = _columns_backward(g, cols, w3, x.requires_grad, spec.weight.requires_grad)
        if gcols is not None:
            gpad = np.zeros((B, Ci, H + 2 * p, W + 2 * p))
            for t, (i, j) in enumerate(taps):
                gpad[:, :, i:i + OH * s:s, j:j + OW * s:s] += gcols[:, :, t]
            x.accumulate_grad(gpad[:, :, p:p + H, p:p + W])
        if gw is not None:
            spec.weight.accumulate_grad(gw.reshape(spec.weight.shape))
        if spec.bias.requires_grad:
            spec.bias.accumulate_grad(g.sum(axis=(0, 2, 3)))

    return Tensor.from_op(out, (x, spec.weight, spec.bias), bw)


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


def bilinear_sample(x, y, x_coord, b=0, c=0):
    """Sample one value from a (B, C, H, W) tensor at fractional (y, x).

    Zero padding outside the spatial bounds; differentiable in the input
    values and, when y / x_coord are Tensors, in the coordinates too.
    """
    yt = y if isinstance(y, Tensor) else Tensor(y)
    xt = x_coord if isinstance(x_coord, Tensor) else Tensor(x_coord)
    B, C, H, W = x.shape
    b, c = np.asarray(b), np.asarray(c)
    corners = _bilinear_corners(yt.data, xt.data, H, W)
    vals = [x.data.reshape(B, C, H * W)[b, c, flat] for flat, _, _ in corners]
    val = sum(v * wy * wx for v, (_, wy, wx) in zip(vals, corners))

    def bw(g):
        g = np.asarray(g)
        if x.requires_grad:
            gx = np.zeros((B, C, H * W))
            for flat, wy, wx in corners:
                np.add.at(gx, (b, c, flat), g * wy * wx)
            x.accumulate_grad(gx.reshape(x.shape))
        dy, dx = _bilinear_slopes(vals, corners)
        if yt.requires_grad:
            yt.accumulate_grad(g * dy)
        if xt.requires_grad:
            xt.accumulate_grad(g * dx)

    return Tensor.from_op(val, (x, yt, xt), bw)


def softmax_lastdim(x):
    """Row-stabilized softmax over the last dimension, in one output buffer."""
    out = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def bw(g):
        g = np.asarray(g)
        dot = (g * out).sum(axis=-1, keepdims=True)
        x.accumulate_grad(out * (g - dot))

    return Tensor.from_op(out, (x,), bw)


def _bin_grid(hw, bins):
    """Row and column bins of an (nh, nw) grid over (H, W), as (starts, lengths) pairs.

    Bin p of n over H cells covers [floor(p*H/n), floor((p+1)*H/n)).
    """
    grid = []
    for n_in, n_bins in zip(hw, bins):
        edges = np.arange(n_bins + 1) * n_in // n_bins
        grid.append((edges[:-1], edges[1:] - edges[:-1]))
    return grid


def _bin_sum(x, grid):
    """Sum the last two (H, W) axes of `x` over a `_bin_grid`.

    Separable: one `np.add.reduceat` over the row starts, one over the column
    starts; empty bins (more bins than cells) sum to 0. Every bin is summed
    directly, not as a difference of prefix sums, so a one-pixel bin returns
    its pixel exactly.
    """
    (r0, nr), (c0, nc) = grid
    s = np.add.reduceat(np.add.reduceat(x, r0, axis=-2), c0, axis=-1)
    s[..., nr == 0, :] = 0.0
    s[..., nc == 0] = 0.0
    return s


def _bin_spread(g, grid):
    """Transpose of `_bin_sum`: each bin's value copied onto its (H, W) cells."""
    (_, nr), (_, nc) = grid
    return np.repeat(np.repeat(g, nr, axis=-2), nc, axis=-1)


def adaptive_avg_pool(x, bins):
    """Average pool a (B, C, H, W) tensor onto an (nh, nw) grid.

    Bin p covers rows [floor(p*H/n), floor((p+1)*H/n)); empty bins yield 0.
    """
    grid = _bin_grid(x.shape[2:], bins)
    count = np.maximum(np.outer(grid[0][1], grid[1][1]), 1)  # an empty bin sums to 0 and stays 0
    out = _bin_sum(x.data, grid) / count

    def bw(g):
        x.accumulate_grad(_bin_spread(np.asarray(g) / count, grid))

    return Tensor.from_op(out, (x,), bw)
