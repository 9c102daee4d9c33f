"""Neural-net primitives on the autodiff tensor: convolution and softmax.

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

__all__ = ["ConvSpec", "conv2d", "softmax_lastdim"]


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
        if self.stride < 1 or self.padding < 0:
            raise ValueError(f"stride must be >= 1 and padding >= 0, got stride "
                             f"{self.stride} and padding {self.padding}")
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
    def init_random(in_channels, out_channels, kernel=(3, 3), stride=1, padding=0, *, rng, gain=1.0):
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


def _columns_backward(g, cols, spec, need_cols):
    """Backward of `_columns_forward` with `spec`'s weight and bias, for
    upstream `g` (B, Co, OH, OW).

    Accumulates the weight gradient, sum over b of G_b @ cols_b^T, and the
    bias gradient, g summed over items and positions, where `spec` needs
    them. Returns gcols = W^T @ G per batch item, shaped like `cols`, when
    `need_cols`, else None; the caller scatters it back onto its input.
    """
    B, Co = g.shape[:2]
    G = g.reshape(B, Co, -1)
    w = spec.weight
    if w.requires_grad:
        gw = np.tensordot(G, cols.reshape(B, -1, G.shape[2]), axes=([0, 2], [0, 2]))
        w.accumulate_grad(gw.reshape(w.shape), fresh=True)
    if spec.bias.requires_grad:
        spec.bias.accumulate_grad(g.sum(axis=(0, 2, 3)), fresh=True)
    if need_cols:
        return (w.data.reshape(Co, -1).T @ G).reshape(cols.shape)
    return None


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
        gcols = _columns_backward(np.asarray(g), cols, spec, x.requires_grad)
        if gcols is not None:
            gpad = np.zeros((B, Ci, H + 2 * p, W + 2 * p))
            for t, (i, j) in enumerate(taps):
                gpad[:, :, i:i + OH * s:s, j:j + OW * s:s] += gcols[:, :, t]
            x.accumulate_grad(gpad[:, :, p:p + H, p:p + W])

    return Tensor.from_op(out, (x, spec.weight, spec.bias), bw)


def softmax_lastdim(x):
    """Row-stabilized softmax over the last dimension, in one output buffer."""
    out = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def bw(g):
        # one (..., L) temporary; t *= out has the bits of out * (g - dot)
        g = np.asarray(g)
        t = g * out
        dot = t.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=t)
        t *= out
        x.accumulate_grad(t, fresh=True)

    return Tensor.from_op(out, (x,), bw)
