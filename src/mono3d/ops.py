"""Neural-net primitives on the autodiff tensor: convolution and softmax.

conv2d and the offset-sampled convolution (`align.align_conv`) share one
column kernel: each builds a (B, Ci, K = kh*kw, OH, OW) column tensor, by
strided slices or by bilinear reads. The forward is one ordered einsum over a
(1 + K*Ci, B*OH*OW) stack, batch and positions on one axis because einsum
iterates separate batch and position axes 2-5x slower per product. It adds
the products in (kh, kw, ci) order onto a bias row, plus an exact repair of
the two kinds of output where einsum's accumulation differs from the loop's
(NaN, and zero under a -0.0 bias). Its floating-point result is therefore
identical to the naive nested-loop reference, and align_conv with all offsets
zero is bit-identical to conv2d. Those bits need an einsum compiled without
fused multiply-add, as numpy's x86 builds compile it at the X86_V2 baseline;
the bitwise tests check it. The backward is two matrix contractions, the
weight gradient's first: each op frees its column tensor between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

__all__ = ["ConvSpec", "conv2d", "softmax_lastdim"]


def _int_at_least(v, least):
    """Whether `v` is an integer, not a bool, of at least `least`."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


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
        for name in ("in_channels", "out_channels"):
            if not _int_at_least(getattr(self, name), 1):
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        k = self.kernel
        if not (isinstance(k, (tuple, list)) and len(k) == 2 and all(_int_at_least(v, 1) for v in k)):
            raise ValueError(f"kernel must be two integers >= 1, got {k!r}")
        if not (_int_at_least(self.stride, 1) and _int_at_least(self.padding, 0)):
            raise ValueError(f"stride must be an integer >= 1 and padding an integer >= 0, "
                             f"got stride {self.stride!r} and padding {self.padding!r}")
        kh, kw = k
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
        spec = ConvSpec(in_channels, out_channels, kernel, stride, padding)  # validates first
        fan_in = in_channels * kernel[0] * kernel[1]
        spec.weight.data[...] = rng.normal(0.0, gain / np.sqrt(fan_in), size=spec.weight.shape)
        return spec

    def params(self):
        return [self.weight, self.bias]


def _columns_forward(cols, w, b):
    """Convolve a (B, Ci, K, OH, OW) column tensor with (Co, Ci, K) weights.

    Bitwise equal to the naive loop, which starts from the bias and adds one
    product cols[:, ci, t] * w[:, ci, t] at a time in (t, ci) order. One
    einsum with optimize=False contracts a (1 + K*Ci, B*OH*OW) stack of the
    columns in (t, ci) order, whose row 0 is all ones, with a (1 + K*Ci, Co)
    weight matrix, whose row 0 is the bias. It adds the products in row
    order, one multiply and one add each; a BLAS matmul would reorder the sum.
    Batch and positions share the stack's one column axis because einsum
    iterates separate b and p output axes 2-5x slower per product: on a
    batch of 4, (4, 28, 960) x (28, 8) takes 1.03 ms as "bkp,kc->bcp" and
    0.44 ms merged, output copy included. At B = 1 the two forms are the same
    2-D problem. Its accumulation differs from the loop's in two places only:

    - it adds `product + sum` where the loop adds `sum + product`, so where
      two NaNs meet, another payload survives;
    - it starts from +0.0, so where every product is -0.0 in a channel whose
      bias is -0.0, it ends at +0.0 where the loop ends at -0.0.

    Those outputs, NaN or zero under a -0.0 bias, are recomputed bias first
    by np.add.accumulate, which is sequential by definition. The repair runs
    one channel at a time, so it holds at most one stack's worth of products.
    Returns a C-contiguous (B, Co, OH, OW) array.
    """
    B, Ci, K, OH, OW = cols.shape
    Co = w.shape[0]
    stack = np.empty((1 + K * Ci, B * OH * OW))
    stack[0] = 1.0
    stack[1:].reshape(K, Ci, B, OH, OW)[...] = cols.transpose(2, 1, 0, 3, 4)
    wm = np.empty((1 + K * Ci, Co))
    wm[0] = b
    wm[1:] = w.transpose(2, 1, 0).reshape(K * Ci, Co)
    out = np.einsum("kp,kc->cp", stack, wm, optimize=False)
    redo = np.isnan(out) | ((out == 0.0) & np.signbit(b)[:, None])
    for c in np.flatnonzero(redo.any(axis=1)):
        pi = np.flatnonzero(redo[c])
        terms = stack[:, pi]  # (1 + K*Ci, n)
        terms *= wm[:, c, None]
        out[c, pi] = np.add.accumulate(terms, axis=0, out=terms)[-1]
        del terms  # before the next channel's gather
    return np.ascontiguousarray(out.reshape(Co, B, OH, OW).transpose(1, 0, 2, 3))


def _columns_param_grads(g, cols, spec):
    """The weight and bias gradients of `_columns_forward` with `spec`'s
    parameters, for upstream `g` (B, Co, OH, OW): the weight's is the sum
    over b of G_b @ cols_b^T, the bias's is g summed over items and
    positions. Each is accumulated where `spec` needs it.

    This is the last read of `cols` in either convolution's backward: the
    closures drop their column tensor after it, so that it is freed before
    `_columns_input_grad` allocates a column tensor's worth of its own, and
    a backward holds one column tensor at a time, not two.
    """
    B, Co, OH, OW = g.shape
    w = spec.weight
    if w.requires_grad:
        # explicit sizes: -1 cannot be inferred when B is 0
        gw = np.tensordot(g.reshape(B, Co, OH * OW), cols.reshape(B, w.size // Co, OH * OW),
                          axes=([0, 2], [0, 2]))
        w.accumulate_grad(gw.reshape(w.shape), fresh=True)
    if spec.bias.requires_grad:
        spec.bias.accumulate_grad(g.sum(axis=(0, 2, 3)), fresh=True)


def _columns_input_grad(g, w):
    """The column gradient W^T @ G per batch item, (B, Ci, K, OH, OW), for
    upstream `g` (B, Co, OH, OW) and the (Co, Ci, kh, kw) weights `w`; the
    caller scatters it back onto its input.

    This and `_columns_param_grads` sum in another order than the per-tap
    loops, so the gradients are held within 1e-12 of a per-tap reference,
    not bitwise.
    """
    B, Co, OH, OW = g.shape
    _, Ci, kh, kw = w.shape
    return (w.reshape(Co, -1).T @ g.reshape(B, Co, OH * OW)).reshape(B, Ci, kh * kw, OH, OW)


def conv2d(x, spec):
    """Cross-correlation of a (B, Ci, H, W) tensor with `spec`, zero padding.

    The columns are one strided slice of the zero-padded input per tap (for
    a 1x1, stride-1, pad-0 kernel a view of the input), and the backward
    scatters the column gradient back by K strided adds (col2im).
    """
    if x.ndim != 4:
        raise ValueError(f"x must be a 4-D (B, C, H, W) input, got shape {x.shape}")
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
        nonlocal cols
        g = np.asarray(g)
        _columns_param_grads(g, cols, spec)
        cols = None   # freed before the column gradient is allocated
        if x.requires_grad:
            gcols = _columns_input_grad(g, spec.weight.data)
            gpad = np.zeros((B, Ci, H + 2 * p, W + 2 * p))
            for t, (i, j) in enumerate(taps):
                gpad[:, :, i:i + OH * s:s, j:j + OW * s:s] += gcols[:, :, t]
            x.accumulate_grad(gpad[:, :, p:p + H, p:p + W])

    return Tensor.from_op(out, (x, spec.weight, spec.bias), bw)


_CHUNK = 1 << 14   # softmax elements per chunk, 128 KiB: 48 rows of L = 337 stay in cache


def _softmax_rows(x, out):
    """Softmax over the last axis of an (M, L) array into C-contiguous `out`
    (which may be `x`), about `_CHUNK` elements of whole rows at a time:
    subtract the row max, exponentiate, divide by the row sum. Each row sees
    the same ufuncs whatever the chunking."""
    n = max(1, _CHUNK // x.shape[1])
    for r in range(0, len(x), n):
        c = np.subtract(x[r:r + n], x[r:r + n].max(axis=-1, keepdims=True), out=out[r:r + n])
        np.exp(c, out=c)
        c /= c.sum(axis=-1, keepdims=True)


def _softmax_rows_backward(g_rows, p, out):
    """Softmax's input gradient p * (g - sum(g * p)) for an (M, L) output `p`
    into `out` (which may be `p`), in the chunks of `_softmax_rows`.

    `g_rows(rows)` returns the upstream gradient's rows at the slice `rows`,
    in any layout, so a caller may form each chunk of it on demand and never
    hold it whole. Each chunk is first copied to C order as 0.0 + g, the bits
    of `accumulate_grad`'s copy, so every row sum runs over contiguous rows."""
    M, L = p.shape
    n = max(1, _CHUNK // L)
    G = np.empty((min(M, n), L))
    for r in range(0, M, n):
        pc = p[r:r + n]
        gc = np.add(0.0, g_rows(slice(r, r + n)), out=G[:len(pc)])
        dot = (gc * pc).sum(axis=-1, keepdims=True)
        gc -= dot
        np.multiply(gc, pc, out=out[r:r + n])


def softmax_lastdim(x):
    """Row-stabilized softmax over the last dimension, in one output buffer;
    forward and backward run in row chunks (`_softmax_rows`)."""
    out = np.empty(x.shape)
    L = out.shape[-1]
    _softmax_rows(x.data.reshape(-1, L), out.reshape(-1, L))

    def bw(g):
        t = np.empty_like(out)
        _softmax_rows_backward(np.asarray(g).reshape(-1, L).__getitem__, out.reshape(-1, L),
                               t.reshape(-1, L))
        x.accumulate_grad(t, fresh=True)

    return Tensor.from_op(out, (x,), bw)
