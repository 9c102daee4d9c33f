"""Asymmetric non-local attention with attention-weighted pyramid pooling.

The query branch stays at full resolution (N = H*W positions); the key and
value branches are pooled down to L pyramid descriptors by a weighted average
whose weights come from a learned sigmoid attention map. Similarity is then
an N x L (instead of N x N) matrix, giving O(N*L*C) cost.

Pooling is linear, so the block pools its input once, with a ones channel
appended that carries each bin's bias factor S/(S+eps), and applies the four
1x1 projections as matmuls: key and value on the L pooled rows, query and
output folded into the N x L similarity and attention products. No
projection runs at full resolution; only the 1-channel attention map is a
convolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import ConvSpec, conv2d, softmax_lastdim
from .tensor import Tensor

__all__ = [
    "PyramidSpec",
    "AnabParams",
    "attention_map",
    "pa2_pool",
    "anab_forward",
    "reference_nonlocal",
    "write_pgm",
]


def _level_bins(level):
    return tuple(level) if isinstance(level, (tuple, list)) else (int(level), int(level))


@dataclass
class PyramidSpec:
    """Pyramid levels for key/value pooling. An int level n means n x n bins;
    a (nh, nw) pair is allowed for non-square degenerate cases (e.g. one bin
    per pixel)."""

    levels: list = field(default_factory=lambda: [1, 4, 8, 16])
    epsilon: float = 1e-6

    def __post_init__(self):
        if not self.levels:
            raise ValueError("pyramid needs at least one level")
        for level in self.levels:
            bins = _level_bins(level)
            if len(bins) != 2 or min(bins) < 1:
                raise ValueError(f"pyramid level {level!r} must be n >= 1 or a pair "
                                 f"(nh, nw) with both >= 1")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"pyramid epsilon must be finite and >= 0, got {self.epsilon}")
        counts = [nh * nw for nh, nw in map(_level_bins, self.levels)]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError(f"pyramid levels must be strictly increasing, got {self.levels}")

    @property
    def descriptor_count(self):
        return sum(nh * nw for nh, nw in map(_level_bins, self.levels))


@dataclass
class AnabParams:
    """1x1 projections (query/key/value/output), attention conv, and pyramid."""

    query: ConvSpec
    key: ConvSpec
    value: ConvSpec
    out: ConvSpec
    attention: ConvSpec
    pyramid: PyramidSpec = field(default_factory=PyramidSpec)

    @staticmethod
    def init_random(channels, pyramid=None, rng=None):
        rng = np.random.default_rng() if rng is None else rng
        mk = lambda co: ConvSpec.init_random(channels, co, kernel=(1, 1), rng=rng)
        return AnabParams(
            query=mk(channels), key=mk(channels), value=mk(channels),
            out=mk(channels), attention=mk(1),
            pyramid=pyramid or PyramidSpec(),
        )

    def params(self):
        specs = (self.query, self.key, self.value, self.out, self.attention)
        return [p for s in specs for p in s.params()]


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


def pa2_pool(features, attn, spec):
    """Attention-weighted pyramid pooling of a (C, H, W) map to (L, C) rows.

    Each bin's descriptor is sum(a*f)/(sum(a) + eps) over the bin; levels are
    concatenated in ascending order, bins row-major within a level.
    """
    if features.ndim != 3:
        raise ValueError(f"pa2_pool expects 3-D (C, H, W) features, got shape {features.shape}")
    C, H, W = features.shape
    if attn.shape[-2:] != (H, W):
        raise ValueError(f"attention map {attn.shape} does not match features {features.shape}")
    a = attn.data.reshape(H, W)
    f = features.data
    af = f * a
    grids, dens, descs = [], [], []
    for level in spec.levels:
        grids.append(_bin_grid((H, W), _level_bins(level)))
        dens.append(_bin_sum(a, grids[-1]) + spec.epsilon)
        descs.append(_bin_sum(af, grids[-1]) / dens[-1])  # (C, nh, nw)
    out = np.concatenate([d.reshape(C, -1).T for d in descs], axis=0)

    def bw(g):
        g = np.asarray(g)
        # d desc_c / d f_c(p) = a(p) / den and d desc_c / d a(p) = (f_c(p) - desc_c) / den
        spread = np.zeros_like(f)     # sum over levels of spread(g / den), (C, H, W)
        spread_dot = np.zeros((H, W))  # sum over levels of spread(sum_c (g / den) * desc)
        row = 0
        for grid, den, desc in zip(grids, dens, descs):
            n = den.size
            gd = g[row:row + n].T.reshape(desc.shape) / den
            row += n
            spread += _bin_spread(gd, grid)
            spread_dot += _bin_spread((gd * desc).sum(axis=0), grid)
        if features.requires_grad:
            features.accumulate_grad(a * spread)
        if attn.requires_grad:
            attn.accumulate_grad(((f * spread).sum(axis=0) - spread_dot).reshape(attn.shape))

    return Tensor.from_op(out, (features, attn), bw)


def _affine(spec):
    """A 1x1 conv's weight and bias as one (Co, Ci + 1) matrix [W | b]."""
    w = spec.weight.reshape(spec.out_channels, spec.in_channels)
    return Tensor.concat([w, spec.bias.reshape(spec.out_channels, 1)], axis=1)


def anab_forward(x, params):
    """Full attention block on a (B, C, H, W) tensor.

    Only the attention map is a convolution. Per item, the input with a ones
    channel appended, X = [x_b; 1] (C+1, N), is pooled once to P (L, C+1).
    Pooling is linear and a bin's weights sum to S/(S+eps), which is P's ones
    column, so the pooled key and value projections are k = P [Wk|bk]^T and
    v = P [Wv|bv]^T. The query projection folds into the similarity,
    s = X^T ([Wq|bq]^T k^T) (N x L), and the output projection into the
    values: y = (Wo v^T) softmax(s)^T + bo (C x N), plus the residual.
    """
    if x.ndim != 4:
        raise ValueError(f"anab_forward expects a 4-D (B, C, H, W) input, got shape {x.shape}")
    B, C, H, W = x.shape
    if C != params.query.in_channels:
        raise ValueError(f"input has {C} channels, params expect {params.query.in_channels}")
    N = H * W
    attn = attention_map(x, params.attention)
    xs = Tensor.concat([x, Tensor(np.ones((B, 1, H, W)))], axis=1)
    w_q, w_k, w_v = _affine(params.query), _affine(params.key), _affine(params.value)
    w_o = params.out.weight.reshape(C, C)

    outs = []
    for b in range(B):
        x_b = xs[b]
        p = pa2_pool(x_b, attn[b], params.pyramid)       # L x (C+1)
        k = p @ w_k.T                                    # L x C
        v = p @ w_v.T                                    # L x C
        s = x_b.reshape(C + 1, N).T @ (w_q.T @ k.T)      # N x L
        m_out = (w_o @ v.T) @ softmax_lastdim(s).T       # C x N
        outs.append(m_out.reshape(1, C, H, W))
    y = outs[0] if B == 1 else Tensor.concat(outs, axis=0)
    return y + params.out.bias.reshape(1, C, 1, 1) + x


def reference_nonlocal(x):
    """Standard non-local block with identity embeddings: the O(N^2 C) oracle.

    y = softmax(M M^T) M + x, with M the (N, C) reshaped feature map.
    """
    B, C, H, W = x.shape
    N = H * W
    outs = []
    for b in range(B):
        m = x[b].reshape(C, N).T
        s = m @ m.T
        o = softmax_lastdim(s) @ m
        outs.append(o.T.reshape(1, C, H, W))
    return (outs[0] if B == 1 else Tensor.concat(outs, axis=0)) + x


def write_pgm(gray, path):
    """Min-max normalized 8-bit binary PGM (P5); a non-finite entry raises ValueError."""
    g = np.asarray(gray, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"PGM export needs a 2-D map, got shape {g.shape}")
    bad = int(np.count_nonzero(~np.isfinite(g)))
    if bad:
        raise ValueError(f"PGM export needs a finite map, got {bad} non-finite of {g.size} entries")
    lo, hi = g.min(), g.max()
    scaled = np.zeros_like(g) if hi == lo else (g - lo) / (hi - lo)
    pix = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode())
        f.write(pix.tobytes())
