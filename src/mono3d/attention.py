"""Asymmetric non-local attention with attention-weighted pyramid pooling.

The query branch stays at full resolution (N = H*W positions); the key and
value branches are pooled down to L pyramid descriptors by a weighted average
whose weights come from a learned sigmoid attention map. Similarity is then
an N x L (instead of N x N) matrix, giving O(N*L*C) cost.

Pooling is linear, so the block pools its input once, with a ones channel
appended that carries each bin's bias factor S/(S+eps), and applies the four
projections as matmuls: key and value on the L pooled rows, query and output
folded into the N x L similarity and attention products. No projection runs
at full resolution; only the 1-channel attention map is a convolution.

The one bin primitive, `_bin_sum`, is a tape op, so the tape differentiates
`pa2_pool`; the tests check both directions against per-bin loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import ConvSpec, _softmax_rows, _softmax_rows_backward, conv2d
from .tensor import Tensor

__all__ = [
    "PyramidSpec",
    "AnabParams",
    "attention_map",
    "pa2_pool",
    "anab_forward",
    "write_pgm",
]

EPSILON = 1e-6   # added to each bin's attention sum: a bin with no attention pools to 0


def _level_bins(level):
    return tuple(level) if isinstance(level, (tuple, list)) else (level, level)


@dataclass
class PyramidSpec:
    """Pyramid levels for key/value pooling. An int level n means n x n bins;
    a (nh, nw) pair is allowed for non-square degenerate cases (e.g. one bin
    per pixel)."""

    levels: list = field(default_factory=lambda: [1, 4, 8, 16])

    def __post_init__(self):
        if not self.levels:
            raise ValueError("pyramid needs at least one level")
        for level in self.levels:
            bins = _level_bins(level)
            if len(bins) != 2 or not all(isinstance(n, (int, np.integer))
                                         and not isinstance(n, bool) and n >= 1 for n in bins):
                raise ValueError(f"pyramid level {level!r} must be an integer n >= 1 or a pair "
                                 f"(nh, nw) of integers both >= 1")
        counts = [nh * nw for nh, nw in map(_level_bins, self.levels)]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError(f"pyramid levels must be strictly increasing, got {self.levels}")

    @property
    def descriptor_count(self):
        return sum(nh * nw for nh, nw in map(_level_bins, self.levels))


@dataclass
class AnabParams:
    """The block's four projections, attention-map conv and pyramid, for C channels.

    Query, key and value are (C, C+1) `[W | b]` leaf matrices, the affine
    maps the block multiplies; the output projection is a (C, C) weight and
    a (C, 1, 1) bias.
    """

    query: Tensor        # (C, C+1) [W | b], the affine map anab_forward multiplies
    key: Tensor          # (C, C+1) [W | b]
    value: Tensor        # (C, C+1) [W | b]
    out_weight: Tensor   # (C, C)
    out_bias: Tensor     # (C, 1, 1)
    attention: ConvSpec  # 1x1, C -> 1
    pyramid: PyramidSpec = field(default_factory=PyramidSpec)

    @staticmethod
    def init_random(channels, pyramid=None, *, rng):
        """W ~ N(0, 1/C) for query, key, value and out, then the attention conv; zero biases."""
        C = channels
        draw = lambda: rng.normal(0.0, 1.0 / np.sqrt(C), size=(C, C))
        affine = lambda: Tensor(np.hstack([draw(), np.zeros((C, 1))]), requires_grad=True)
        return AnabParams(
            query=affine(), key=affine(), value=affine(),
            out_weight=Tensor(draw(), requires_grad=True),
            out_bias=Tensor(np.zeros((C, 1, 1)), requires_grad=True),
            attention=ConvSpec.init_random(C, 1, (1, 1), rng=rng),
            pyramid=pyramid or PyramidSpec(),
        )

    def params(self):
        return [self.query, self.key, self.value, self.out_weight, self.out_bias,
                *self.attention.params()]


def attention_map(x, conv1x1):
    """Sigmoid-squashed spatial weight map, (B, 1, H, W) with entries in (0, 1)."""
    if conv1x1.out_channels != 1:
        raise ValueError("attention conv must have a single output channel")
    return conv2d(x, conv1x1).sigmoid()


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
    """Sum tensor `x`'s last two (H, W) axes over a `_bin_grid`: the one bin primitive.

    Separable: one `np.add.reduceat` over the row starts, one over the column
    starts; empty bins (more bins than cells) sum to 0. Every bin is summed
    directly, not as a difference of prefix sums, so a one-pixel bin returns
    its pixel exactly. The backward repeats each bin's gradient onto its cells.
    """
    (r0, nr), (c0, nc) = grid
    s = np.add.reduceat(np.add.reduceat(x.data, r0, axis=-2), c0, axis=-1)
    s[..., nr == 0, :] = 0.0
    s[..., nc == 0] = 0.0

    def bw(g):
        x.accumulate_grad(np.repeat(np.repeat(g, nr, axis=-2), nc, axis=-1), fresh=True)

    return Tensor.from_op(s, (x,), bw)


def pa2_pool(features, attn, spec):
    """Attention-weighted pyramid pooling of (B, C, H, W) features to (B, L, C) rows.

    `attn` is the (B, 1, H, W) map. Each bin's descriptor is
    sum(a*f)/(sum(a) + EPSILON) over the bin; levels are concatenated in ascending
    order, bins row-major within a level. The tape differentiates it. It
    loops over the levels only, never over bins or batch items; under a
    constant attention map it is an adaptive average pool. Shapes other than
    these are a ValueError naming both.
    """
    if features.ndim != 4 or attn.shape != (features.shape[0], 1) + features.shape[2:]:
        raise ValueError(f"pa2_pool expects (B, C, H, W) features and a (B, 1, H, W) attention "
                         f"map attn, got features {features.shape} and attention map {attn.shape}")
    B, C, H, W = features.shape
    af = features * attn
    rows = []
    for level in spec.levels:
        grid = _bin_grid((H, W), _level_bins(level))
        desc = _bin_sum(af, grid) / (_bin_sum(attn, grid) + EPSILON)   # (B, C, nh, nw)
        rows.append(desc.reshape(B, C, -1))
    return Tensor.concat(rows, axis=2).transpose(0, 2, 1)


def _attend(xt, q, a):
    """a @ softmax(xt @ q)^T as one tape op, for xt (B, N, C+1), q (B, C+1, L)
    and a (B, C, L): the block's N x L product, (B, C, N).

    The forward runs the softmax in place on the similarity product, so the
    op holds one N x L map, the probabilities P. Its two products are
    `Tensor` matmuls on detached operands, which record no node. The backward
    forms a^T g (B, L, N), not (g^T a)^T, whose last bits differ, and reads
    it transposed, chunk by chunk, into the softmax backward, which writes
    the similarity gradient over P's buffer. Every value goes through the
    ufuncs and BLAS calls, on the operand layouts, that `xt @ q`,
    `softmax_lastdim`, a transpose and `a @ P^T` as four tape ops use, so
    the output and every gradient keep their bits.
    """
    p = (Tensor(xt.data) @ Tensor(q.data)).data            # B x N x L
    B, N, L = p.shape
    _softmax_rows(p.reshape(B * N, L), p.reshape(B * N, L))
    out = (Tensor(a.data) @ Tensor(p.transpose(0, 2, 1))).data

    def bw(g):
        g = np.asarray(g)
        if a.requires_grad:
            a.accumulate_grad(g @ p, fresh=True)
        if xt.requires_grad or q.requires_grad:
            gpt = a.data.swapaxes(-1, -2) @ g               # B x L x N
            for i in range(B):
                _softmax_rows_backward(gpt[i].T, p[i], p[i])
            del gpt   # before the two products allocate theirs
            if xt.requires_grad:
                xt.accumulate_grad(p @ q.data.swapaxes(-1, -2), fresh=True)
            if q.requires_grad:
                q.accumulate_grad(xt.data.swapaxes(-1, -2) @ p, fresh=True)

    return Tensor.from_op(out, (xt, q, a), bw)


def anab_forward(x, params):
    """Full attention block on a (B, C, H, W) tensor.

    Only the attention map is a convolution. The input with a ones channel
    appended, X = [x; 1] (B, C+1, N), is pooled once to P (B, L, C+1).
    Pooling is linear and a bin's weights sum to S/(S+eps), which is P's ones
    column, so the pooled key and value projections are k = P [Wk|bk]^T and
    v = P [Wv|bv]^T. The query projection folds into the similarity,
    s = X^T ([Wq|bq]^T k^T) (N x L), and the output projection into the
    values: y = (Wo v^T) softmax(s)^T + bo (C x N), plus the residual. Every
    product runs over the whole batch at once, and the N x L part of y,
    from X^T to the product with softmax(s)^T, is one tape op (`_attend`).

    In exact arithmetic this equals projecting at full resolution and then
    pooling, as asymmetric pyramid non-local blocks do (Zhu et al. 2019,
    arXiv:1908.07678); the tests keep that order as a reference, beside the
    standard non-local block. The matmuls cost N*L*(2C+1) + L*C*(4C+3)
    multiply-adds per item, linear in N, against 2*N^2*C for that block.
    On `align_conv` plus this block at 8 channels, the graph holds 1.76 N x L
    maps when the forward returns, of which `_attend` keeps one, and the
    backward peaks 1.16 maps above that; as four tape ops (two matmuls, a
    softmax and a transpose) the product held 2.76 and peaked 2.04 above.
    """
    if x.ndim != 4:
        raise ValueError(f"x must be a 4-D (B, C, H, W) input, got shape {x.shape}")
    B, C, H, W = x.shape
    want = [(C, C + 1)] * 3 + [(C, C), (C, 1, 1)]
    got = [t.shape for t in (params.query, params.key, params.value, params.out_weight, params.out_bias)]
    if got != want:
        raise ValueError(f"input has {C} channels: projections need shapes {want}, got {got}")
    N = H * W
    attn = attention_map(x, params.attention)
    xs = Tensor.concat([x, Tensor(np.ones((B, 1, H, W)))], axis=1)
    w_q, w_k, w_v, w_o = params.query, params.key, params.value, params.out_weight

    p = pa2_pool(xs, attn, params.pyramid)                 # B x L x (C+1)
    k = p @ w_k.T                                          # B x L x C
    v = p @ w_v.T                                          # B x L x C
    m_out = _attend(xs.reshape(B, C + 1, N).transpose(0, 2, 1),   # B x N x (C+1)
                    w_q.T @ k.transpose(0, 2, 1),                  # B x (C+1) x L
                    w_o @ v.transpose(0, 2, 1))                    # B x C x L
    return m_out.reshape(B, C, H, W) + params.out_bias + x


def write_pgm(gray, path):
    """Min-max normalized 8-bit binary PGM (P5); a non-finite entry raises ValueError."""
    g = np.asarray(gray, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"gray must be a 2-D map for PGM export, got shape {g.shape}")
    bad = int(np.count_nonzero(~np.isfinite(g)))
    if bad:
        raise ValueError(f"gray must be finite for PGM export, got {bad} non-finite of {g.size} entries")
    lo, hi = g.min(), g.max()
    scaled = np.zeros_like(g) if hi == lo else (g - lo) / (hi - lo)
    pix = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode())
        f.write(pix.tobytes())
