"""The shared column kernel of conv2d and align_conv against per-tap references.

The references below are the per-(kh, kw, ci) loops that conv2d and
align_conv ran before they shared one column kernel: the forward adds one
tap plane at a time, the backward loops over every (tap, channel) with
einsum and np.add.at. The forward must match them bitwise; the gradients,
whose summation order changed, within 1e-12 relative to each array's largest
entry. The column forward itself, one ordered einsum plus the repair of its
NaN and -0.0 outputs, is checked bitwise against one product at a time, and
align_conv's all-tap corner math against the per-tap corner loop it replaced,
at every chunk length of its tap loop.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from mono3d import align as align_module
from mono3d.align import (_bilinear_corners, align_conv, select_best_anchor,
                          shape_align_offsets)
from mono3d.anchors import generate_anchor_grid
from mono3d.ops import ConvSpec, _columns_forward, conv2d
from mono3d.tensor import Tensor, no_grad

RTOL = 1e-12


def ref_conv2d(x, w, b, stride, pad, g):
    """Per-tap conv2d: returns (out, gx, gw, gb) for upstream grad `g`."""
    B, Ci, H, W = x.shape
    Co, _, kh, kw = w.shape
    s, p = stride, pad
    OH = (H + 2 * p - kh) // s + 1
    OW = (W + 2 * p - kw) // s + 1
    padded = np.zeros((B, Ci, H + 2 * p, W + 2 * p))
    padded[:, :, p:p + H, p:p + W] = x
    out = np.empty((B, Co, OH, OW))
    out[:] = b[None, :, None, None]
    for i in range(kh):
        for j in range(kw):
            for ci in range(Ci):
                patch = padded[:, ci, i:i + OH * s:s, j:j + OW * s:s]
                out += patch[:, None] * w[None, :, ci, i, j, None, None]
    if g is None:
        return out, None, None, None
    gpad = np.zeros_like(padded)
    gw = np.empty_like(w)
    for i in range(kh):
        for j in range(kw):
            for ci in range(Ci):
                gpad[:, ci, i:i + OH * s:s, j:j + OW * s:s] += np.einsum(
                    "bohw,o->bhw", g, w[:, ci, i, j])
                patch = padded[:, ci, i:i + OH * s:s, j:j + OW * s:s]
                gw[:, ci, i, j] = np.einsum("bohw,bhw->o", g, patch)
    return out, gpad[:, :, p:p + H, p:p + W], gw, g.sum(axis=(0, 2, 3))


def ref_gather_bilinear(data, b, c, y, x_coord):
    """Per-corner bilinear gather with its own zero-padding masks."""
    _, _, H, W = data.shape
    y0 = np.floor(y).astype(np.intp)
    x0 = np.floor(x_coord).astype(np.intp)
    fy, fx = y - y0, x_coord - x0
    corners = []
    for dy, dx, wy, wx in ((0, 0, 1.0 - fy, 1.0 - fx), (0, 1, 1.0 - fy, fx),
                           (1, 0, fy, 1.0 - fx), (1, 1, fy, fx)):
        yi, xi = y0 + dy, x0 + dx
        valid = (yi >= 0) & (yi < H) & (xi >= 0) & (xi < W)
        yc, xc = np.clip(yi, 0, H - 1), np.clip(xi, 0, W - 1)
        v = data[b, c, yc, xc] * valid
        corners.append((v, valid, yc, xc, wy, wx, dy, dx))
    val = sum(v * wy * wx for v, _, _, _, wy, wx, _, _ in corners)

    def backward(g, gx_accum):
        gy, gxc = 0.0, 0.0
        for v, valid, yc, xc, wy, wx, dy, dx in corners:
            np.add.at(gx_accum, (b, c, yc, xc), g * wy * wx * valid)
            gy = gy + g * v * (1.0 if dy else -1.0) * wx
            gxc = gxc + g * v * (1.0 if dx else -1.0) * wy
        return gy, gxc

    return val, backward


def ref_align_conv(x, w, b, off, g):
    """Per-tap offset-sampled conv: returns (out, gx, gw, gb, goff)."""
    B, Ci, H, W = x.shape
    Co, _, kh, kw = w.shape
    ph = kh // 2
    oh, ow = np.arange(H)[:, None], np.arange(W)[None, :]
    b_idx = np.arange(B)[:, None, None, None]
    c_idx = np.arange(Ci)[None, :, None, None]
    out = np.empty((B, Co, H, W))
    out[:] = b[None, :, None, None]
    taps = []
    for i in range(kh):
        for j in range(kw):
            t = i * kw + j
            ys = oh + (i - ph) + off[:, :, t, 0]
            xs = ow + (j - ph) + off[:, :, t, 1]
            samp, backward = ref_gather_bilinear(x, b_idx, c_idx, ys, xs)
            for ci in range(Ci):
                out += samp[:, ci][:, None] * w[None, :, ci, i, j, None, None]
            taps.append((t, i, j, samp, backward))
    if g is None:
        return out, None, None, None, None
    gx, goff, gw = np.zeros_like(x), np.zeros_like(off), np.zeros_like(w)
    for t, i, j, samp, backward in taps:
        gsamp = np.einsum("bohw,oc->bchw", g, w[:, :, i, j])
        gy, gxc = backward(gsamp, gx)
        goff[:, :, t, 0] = gy.sum(axis=(0, 1))
        goff[:, :, t, 1] = gxc.sum(axis=(0, 1))
        gw[:, :, i, j] = np.einsum("bohw,bchw->oc", g, samp)
    return out, gx, gw, g.sum(axis=(0, 2, 3)), goff


def assert_close(got, want, name):
    scale = np.abs(want).max()
    err = np.abs(got - want).max()
    assert err <= RTOL * scale, f"{name}: max error {err:.3g} vs scale {scale:.3g}"


def random_spec(rng, ci, co, kernel, stride, pad):
    spec = ConvSpec.init_random(ci, co, kernel, stride, pad, rng=rng)
    spec.bias.data[:] = rng.normal(size=co)
    return spec


class TestConv2dColumns:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_per_tap_reference(self, stride, pad):
        rng = np.random.default_rng(10 * stride + pad)
        x = Tensor(rng.normal(size=(2, 3, 7, 9)), requires_grad=True)
        spec = random_spec(rng, 3, 4, (2, 3), stride, pad)
        out = conv2d(x, spec)
        g = rng.normal(size=out.shape)
        out.backward(g)
        want, gx, gw, gb = ref_conv2d(x.data, spec.weight.data, spec.bias.data, stride, pad, g)
        assert np.array_equal(out.data, want)
        assert_close(x.grad, gx, "x")
        assert_close(spec.weight.grad, gw, "w")
        assert_close(spec.bias.grad, gb, "b")

    def test_pointwise_reads_the_input_in_place(self):
        # the 1x1 stride-1 pad-0 column tensor is a view of the input
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 5, 4, 6)), requires_grad=True)
        spec = random_spec(rng, 5, 3, (1, 1), 1, 0)
        out = conv2d(x, spec)
        g = rng.normal(size=out.shape)
        out.backward(g)
        want, gx, gw, _ = ref_conv2d(x.data, spec.weight.data, spec.bias.data, 1, 0, g)
        assert np.array_equal(out.data, want)
        assert_close(x.grad, gx, "x")
        assert_close(spec.weight.grad, gw, "w")


def run_align(rng, off, B=2, Ci=3, Co=4, H=5, W=6, kernel=(3, 3)):
    x = Tensor(rng.normal(size=(B, Ci, H, W)), requires_grad=True)
    spec = random_spec(rng, Ci, Co, kernel, 1, kernel[0] // 2)
    offt = Tensor(off, requires_grad=True)
    out = align_conv(x, spec, offt)
    g = rng.normal(size=out.shape)
    out.backward(g)
    ref = ref_align_conv(x.data, spec.weight.data, spec.bias.data, off, g)
    return out.data, (x.grad, spec.weight.grad, spec.bias.grad, offt.grad), ref


class TestAlignConvColumns:
    def test_fractional_border_crossing_forward_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            # offsets up to 3 cells push taps across every border
            off = rng.uniform(-3.0, 3.0, size=(5, 6, 9, 2))
            out, _, ref = run_align(rng, off)
            assert np.array_equal(out, ref[0])

    @pytest.mark.parametrize("kind", ["integer", "fractional"])
    def test_gradients_match_per_tap_reference(self, kind):
        rng = np.random.default_rng(3 if kind == "integer" else 4)
        if kind == "integer":
            off = rng.integers(-3, 4, size=(5, 6, 9, 2)).astype(np.float64)
        else:
            off = rng.uniform(-3.0, 3.0, size=(5, 6, 9, 2))
        out, grads, ref = run_align(rng, off)
        assert np.array_equal(out, ref[0])
        for got, want, name in zip(grads, (ref[1], ref[2], ref[3], ref[4]), "xwbo"):
            assert_close(got, want, name)

    def test_pointwise_kernel(self):
        # the 1x1 center-alignment shape, offsets crossing the border
        rng = np.random.default_rng(5)
        off = rng.uniform(-2.0, 2.0, size=(4, 7, 1, 2))
        out, grads, ref = run_align(rng, off, H=4, W=7, kernel=(1, 1))
        assert np.array_equal(out, ref[0])
        for got, want, name in zip(grads, (ref[1], ref[2], ref[3], ref[4]), "xwbo"):
            assert_close(got, want, name)

    def test_offsets_without_grad_skip_their_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 2, 4, 5)), requires_grad=True)
        spec = random_spec(rng, 2, 3, (3, 3), 1, 1)
        off = Tensor(rng.uniform(-1.5, 1.5, size=(4, 5, 9, 2)))
        out = align_conv(x, spec, off)
        g = rng.normal(size=out.shape)
        out.backward(g)
        _, gx, gw, _, _ = ref_align_conv(x.data, spec.weight.data, spec.bias.data, off.data, g)
        assert off.grad is None
        assert_close(x.grad, gx, "x")
        assert_close(spec.weight.grad, gw, "w")


def brute_columns_forward(cols, w, b):
    """One (tap, channel) product at a time added in place onto the bias."""
    B, Ci, K, OH, OW = cols.shape
    out = np.empty((B, w.shape[0], OH, OW))
    out[:] = b[None, :, None, None]
    for t in range(K):
        for ci in range(Ci):
            out += cols[:, ci, t][:, None] * w[:, ci, t][None, :, None, None]
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def with_specials(rng, a, p=0.01):
    """`a` with a share `p` of its entries each -0.0, +inf, -inf and NaN."""
    a = a.copy()
    u = rng.random(a.shape)
    for k, v in enumerate((-0.0, np.inf, -np.inf, np.nan)):
        a[(u >= k * p) & (u < (k + 1) * p)] = v
    return a


def unrepaired_columns_forward(cols, w, b):
    """The column kernel's einsum alone: its (tap, channel) stack, batch and
    positions on one axis, under a row of ones, contracted with the bias row
    over the weights, no repair."""
    B, Ci, K, OH, OW = cols.shape
    stack = np.concatenate([np.ones((1, B * OH * OW)),
                            cols.transpose(2, 1, 0, 3, 4).reshape(K * Ci, B * OH * OW)])
    wm = np.concatenate([b[None], w.transpose(2, 1, 0).reshape(K * Ci, -1)])
    out = np.einsum("kp,kc->cp", stack, wm, optimize=False)
    return out.reshape(-1, B, OH, OW).transpose(1, 0, 2, 3)


class TestColumnsForwardChunks:
    # (B, Ci, K, Co, OH, OW)
    CASES = {
        "several_chunks": (1, 12, 3, 4, 64, 100),         # 37 rows over 6400 positions
        "one_channel_last_chunk": (2, 7, 2, 4, 32, 200),  # two items, odd channel count
        "wide_chunk": (1, 40, 2, 3, 9, 11),               # 81 rows over only 99 positions
        "in_place_row": (1, 3, 2, 8, 128, 128),           # 7 rows over 2**14 positions
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bitwise_against_one_product_at_a_time(self, name):
        B, Ci, K, Co, OH, OW = self.CASES[name]
        rng = np.random.default_rng(sorted(self.CASES).index(name))
        cols = with_specials(rng, rng.normal(size=(B, Ci, K, OH, OW)))
        w = rng.normal(size=(Co, Ci, K))
        w[0] = -np.abs(w[0])  # channel 0 of a zero column sums -0.0 products only
        cols[:, :, :, 0, 0] = 0.0
        b = rng.normal(size=Co)
        b[0] = -0.0
        with np.errstate(invalid="ignore"):  # inf - inf
            got = _columns_forward(cols, w, b)
            want = brute_columns_forward(cols, w, b)
        assert np.signbit(want[:, 0, 0, 0]).all() and (want[:, 0, 0, 0] == 0.0).all()
        assert np.isnan(want).any() and np.isinf(want).any()
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cases_reach_both_repairs(self, name):
        # the inputs of test_bitwise_against_one_product_at_a_time
        B, Ci, K, Co, OH, OW = self.CASES[name]
        rng = np.random.default_rng(sorted(self.CASES).index(name))
        cols = with_specials(rng, rng.normal(size=(B, Ci, K, OH, OW)))
        w = rng.normal(size=(Co, Ci, K))
        w[0] = -np.abs(w[0])
        cols[:, :, :, 0, 0] = 0.0
        b = rng.normal(size=Co)
        b[0] = -0.0
        with np.errstate(invalid="ignore"):
            raw = unrepaired_columns_forward(cols, w, b)
            want = brute_columns_forward(cols, w, b)
        differ = bits(raw) != bits(want)
        nan = np.isnan(want)
        assert (differ & nan).any()  # another NaN payload survives
        assert differ[:, 0, 0, 0].all() and (raw[:, 0, 0, 0] == 0.0).all()  # +0.0, not -0.0
        assert not (differ & ~nan & (want != 0.0)).any()  # nowhere else

    @pytest.mark.parametrize("B,Ci,K,Co,OH,OW", [
        (1, 64, 9, 64, 24, 80),  # block: align_conv 64 -> 64, 3x3 at 24x80
        (4, 3, 9, 8, 24, 40),    # train: the first backbone conv on a batch of 4
        (4, 8, 9, 12, 12, 20),   # train: the second backbone conv
        (4, 12, 9, 16, 6, 10),   # train: the third backbone conv
        (4, 16, 9, 16, 6, 10),   # train: the shape-alignment conv
        (4, 16, 1, 36, 6, 10),   # train: the 1x1 2D and 3D box heads
        (4, 16, 1, 18, 6, 10),   # train: the other 1x1 convs, class head first
        (4, 16, 1, 16, 6, 10),
        (4, 16, 1, 9, 6, 10),
        (4, 16, 1, 2, 6, 10),
        (4, 16, 1, 1, 6, 10),
        (4, 16, 1, 12, 6, 10),   # a 1x1 head
    ])
    def test_bitwise_at_workload_shapes(self, B, Ci, K, Co, OH, OW):
        rng = np.random.default_rng(Ci * K + Co)
        cols = rng.normal(size=(B, Ci, K, OH, OW))
        w = rng.normal(size=(Co, Ci, K))
        b = rng.normal(size=Co)
        got = _columns_forward(cols, w, b)
        assert np.array_equal(bits(got), bits(brute_columns_forward(cols, w, b)))

    def test_repair_maps_merged_positions_back_to_their_items(self):
        # NaNs, infinities and the all-zero column sit in items 1-3 only, at
        # different positions in each, so a repair that confuses items or
        # positions on the merged (item, position) axis writes the wrong outputs
        B, Ci, K, Co, OH, OW = 4, 5, 3, 6, 7, 9
        rng = np.random.default_rng(13)
        cols = rng.normal(size=(B, Ci, K, OH, OW))
        cols[1:] = with_specials(rng, cols[1:], p=0.02)
        for item, (i, j) in zip((1, 2, 3), ((0, 0), (3, 5), (6, 8))):
            cols[item, :, :, i, j] = 0.0
        w = rng.normal(size=(Co, Ci, K))
        w[0] = -np.abs(w[0])
        b = rng.normal(size=Co)
        b[0] = -0.0
        with np.errstate(invalid="ignore"):
            got = _columns_forward(cols, w, b)
            raw = unrepaired_columns_forward(cols, w, b)
            want = brute_columns_forward(cols, w, b)
        assert np.isfinite(want[0]).all() and (want[0] != 0.0).all()
        differ = bits(raw) != bits(want)
        assert not differ[0].any() and (differ[1:] & np.isnan(want[1:])).any()
        assert differ[1, 0, 0, 0] and differ[2, 0, 3, 5] and differ[3, 0, 6, 8]
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("B", [0, 1, 4])
    def test_output_is_c_contiguous_items_first(self, B):
        # downstream reductions add in memory order, so the layout is part of the bits
        rng = np.random.default_rng(14)
        cols = rng.normal(size=(B, 3, 4, 5, 6))
        w = rng.normal(size=(7, 3, 4))
        got = _columns_forward(cols, w, rng.normal(size=7))
        assert got.shape == (B, 7, 5, 6)
        assert got.flags.c_contiguous

    def test_repair_memory_stays_near_the_stack(self):
        # every output of an all-NaN block-shaped input is recomputed; one
        # channel at a time, the repair holds one stack's worth of products
        B, Ci, K, Co, OH, OW = 1, 64, 9, 64, 24, 80
        rng = np.random.default_rng(12)
        cols = np.where(rng.random((B, Ci, K, OH, OW)) < 0.5, np.nan, -np.nan)
        w = rng.normal(size=(Co, Ci, K))
        b = rng.normal(size=Co)
        tracemalloc.start()
        try:
            got = _columns_forward(cols, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = B * (1 + K * Ci) * OH * OW * 8
        assert peak <= 2.5 * (stack + got.nbytes)
        assert np.array_equal(bits(got), bits(brute_columns_forward(cols, w, b)))

    @pytest.mark.parametrize("B,Ci,Co,H,W,kernel,stride,pad", [
        (2, 7, 5, 9, 11, (3, 3), 1, 1),
        (2, 7, 5, 9, 11, (3, 3), 2, 1),
        (2, 8, 6, 100, 120, (3, 3), 2, 1),  # strided, 50x60 outputs per item
        (2, 11, 4, 30, 70, (1, 1), 1, 0),   # pointwise: the columns are a view of the input
        (1, 5, 3, 33, 41, (1, 1), 2, 0),
    ])
    def test_conv2d_bitwise_with_non_finite_inputs(self, B, Ci, Co, H, W, kernel, stride, pad):
        rng = np.random.default_rng(B * 1000 + Ci * 10 + stride)
        x = Tensor(with_specials(rng, rng.normal(size=(B, Ci, H, W))))
        spec = random_spec(rng, Ci, Co, kernel, stride, pad)
        with np.errstate(invalid="ignore"):
            out = conv2d(x, spec)
            want, _, _, _ = ref_conv2d(x.data, spec.weight.data, spec.bias.data, stride, pad, None)
        assert np.array_equal(bits(out.data), bits(want))


def per_tap_align_columns(x, off, kernel):
    """align_conv's column build as it ran one tap at a time: (cols, idx, wgt, dcols).

    off: (H, W, k, 2) or (B, H, W, k, 2), k the kernel's taps or 1. idx and
    wgt are each field item's (B', 4, K, H, W) corner indices into its own
    H*W map and corner weights.
    """
    kh, kw = kernel
    B, Ci, H, W = x.shape
    off5 = off.reshape((-1,) + off.shape[-4:])
    Bf, ph, K = off5.shape[0], kh // 2, kh * kw
    grid_y, grid_x = np.arange(H)[:, None], np.arange(W)[None, :]
    xf = x.reshape(B, Ci, H * W)
    cols = np.empty((B, Ci, K, H, W))
    idx = np.empty((Bf, 4, K, H, W), dtype=np.intp)
    wgt = np.empty((Bf, 4, K, H, W))
    dcols = np.empty((2, B, Ci, K, H, W))
    for i in range(kh):
        for j in range(kw):
            t = i * kw + j
            tf = t if off5.shape[3] == K else 0
            ys = grid_y + (i - ph) + off5[:, :, :, tf, 0]
            xs = grid_x + (j - ph) + off5[:, :, :, tf, 1]
            flat, wy, wx = _bilinear_corners(ys, xs, H, W)  # each (B', 4, H, W)
            items = np.broadcast_to(flat, (B, 4, H, W))
            v00, v01, v10, v11 = vals = [np.stack([xf[b][:, items[b, c]] for b in range(B)])
                                         for c in range(4)]
            wy00, wy01, wy10, wy11 = wys = wy[:, :, None].transpose(1, 0, 2, 3, 4)
            wx00, wx01, wx10, wx11 = wxs = wx[:, :, None].transpose(1, 0, 2, 3, 4)
            cols[:, :, t] = sum(v * a * b for v, a, b in zip(vals, wys, wxs))
            idx[:, :, t], wgt[:, :, t] = flat, wy * wx
            # each slope: the far corners' values less the near ones', by the other factor
            dcols[0, :, :, t] = v10 * wx10 - v00 * wx00 + v11 * wx11 - v01 * wx01
            dcols[1, :, :, t] = v01 * wy01 - v00 * wy00 + v11 * wy11 - v10 * wy10
    return cols, idx, wgt, dcols


# (kernel, offset field shape, offsets need a grad, forward under no_grad)
FIELD_FORMS = {
    "shared9": ((3, 3), (6, 7, 9, 2), True, False),    # shared 9-tap field
    "item1": ((1, 1), (2, 6, 7, 1, 2), True, False),   # center alignment: per-item, one tap
    "item9": ((3, 3), (2, 6, 7, 9, 2), False, False),  # shape alignment: no offset grad
    "no_grad": ((3, 3), (2, 6, 7, 9, 2), False, True),
}


def assert_bitwise_per_tap(monkeypatch, rng, x, spec, offt, untaped=False):
    """align_conv on x and offt, bitwise against the per-tap corner loop: the
    columns it hands the column kernel, its output and, on the tape, the
    input, weight, bias and offset gradients. Returns the loop's corner
    indices and weights."""
    kernel = spec.kernel
    kh, kw = kernel
    K, (B, Ci, H, W), Co = kh * kw, x.shape, spec.out_channels
    seen = []

    def spy(cols, w, b):
        seen.append(cols)
        return _columns_forward(cols, w, b)

    monkeypatch.setattr(align_module, "_columns_forward", spy)
    if untaped:
        with no_grad():
            out = align_conv(x, spec, offt)
    else:
        out = align_conv(x, spec, offt)

    off = offt.data
    cols, idx, wgt, dcols = per_tap_align_columns(x.data, off, kernel)
    w3 = spec.weight.data.reshape(Co, Ci, K)
    assert np.array_equal(bits(seen[0]), bits(cols))
    assert np.array_equal(bits(out.data), bits(_columns_forward(cols, w3, spec.bias.data)))
    if untaped:
        assert not out.requires_grad
        return idx, wgt
    g = rng.normal(size=out.shape)
    out.backward(g)
    # the backward, fed the per-tap loop's index map, weights and slopes
    gcols = (w3.reshape(Co, Ci * K).T @ g.reshape(B, Co, -1)).reshape(cols.shape)
    gx = np.empty((B, Ci, H * W))
    for b in range(B):
        item = b % len(idx)
        for ci in range(Ci):
            gx[b, ci] = np.bincount(idx[item].ravel(),
                                    weights=(wgt[item] * gcols[b, ci]).ravel(),
                                    minlength=H * W)
    assert np.array_equal(bits(x.grad), bits(gx.reshape(x.shape)))
    gw = np.tensordot(g.reshape(B, Co, H * W), cols.reshape(B, Ci * K, H * W),
                      axes=([0, 2], [0, 2]))
    assert np.array_equal(bits(spec.weight.grad), bits(gw.reshape(spec.weight.shape)))
    assert np.array_equal(bits(spec.bias.grad), bits(g.sum(axis=(0, 2, 3))))
    if not offt.requires_grad:
        assert offt.grad is None
        return idx, wgt
    # one contraction per item, then summed over a shared field's items
    # and a one-tap field's taps, in that order
    goff = np.einsum("bckhw,dbckhw->bhwkd", gcols, dcols)
    if off.ndim == 4:
        goff = goff.sum(axis=0)
    if off.shape[-2] == 1:
        goff = goff.sum(axis=-2, keepdims=True)
    assert np.array_equal(bits(offt.grad), bits(goff))
    return idx, wgt


class TestAlignConvAllTapCorners:
    @pytest.mark.parametrize(
        "kernel, field, off_grad, untaped, edges",
        [pytest.param(*form, edges, id=name + ("_edges" if edges else ""))
         for edges in (False, True) for name, form in FIELD_FORMS.items()])
    def test_bitwise_against_per_tap_corner_loop(self, monkeypatch, kernel, field, off_grad,
                                                 untaped, edges):
        rng = np.random.default_rng(11)
        B, Ci, Co, H, W = 2, 4, 5, 6, 7
        kh, kw = kernel
        off = rng.uniform(-2.5, 2.5, size=field)
        off[..., 0, 0, :, 0] = -2.0  # integer offsets on the border too
        # the offsets cross the border on several taps
        ty = np.repeat(np.arange(kh) - kh // 2, kw)[:, None, None]
        tx = np.tile(np.arange(kw) - kw // 2, kh)[:, None, None]
        ys = np.arange(H)[:, None] + ty + np.moveaxis(off[..., 0], -1, -3)
        xs = np.arange(W) + tx + np.moveaxis(off[..., 1], -1, -3)
        outside = (ys < 0) | (ys > H - 1) | (xs < 0) | (xs > W - 1)
        assert outside.any(axis=(-2, -1)).sum() >= min(5, outside[..., 0, 0].size)
        xd = rng.normal(size=(B, Ci, H, W))
        if edges:
            # -0.0, +-inf and NaN reads, and an inf at the corner that the
            # border's out-of-map corners clip to
            xd = with_specials(np.random.default_rng(12), xd, p=0.03)
            xd[:, 0, 0, 0] = np.inf
        x = Tensor(xd, requires_grad=not untaped)
        spec = random_spec(rng, Ci, Co, kernel, 1, kh // 2)
        offt = Tensor(off, requires_grad=off_grad)
        # only the edge inputs may warn (inf - inf, 0 * inf); the finite ones
        # still run under the error::RuntimeWarning filter
        with np.errstate(invalid="ignore") if edges else contextlib.nullcontext():
            idx, wgt = assert_bitwise_per_tap(monkeypatch, rng, x, spec, offt, untaped)
        if edges:  # the inf is read with weight zero
            assert np.any((idx == 0) & (wgt == 0.0))

    @pytest.mark.parametrize("off_grad", [False, True], ids=["shape", "shape_offgrad"])
    def test_bitwise_at_the_block_shape(self, monkeypatch, off_grad):
        """One item, 64 -> 64 channels, 3x3 on 24x80, shape-alignment offsets."""
        rng = np.random.default_rng(13)
        H, W, stride = 24, 80, 16
        templates = generate_anchor_grid((H, W), stride).templates
        best = select_best_anchor(rng.uniform(size=(H, W, len(templates))), templates)
        field = shape_align_offsets(best, stride, (3, 3))
        offt = Tensor(field.data, requires_grad=off_grad)
        x = Tensor(rng.normal(size=(1, 64, H, W)), requires_grad=True)
        spec = random_spec(rng, 64, 64, (3, 3), 1, 1)
        idx, wgt = assert_bitwise_per_tap(monkeypatch, rng, x, spec, offt)
        assert np.any(wgt == 0.0) and np.any((wgt > 0.0) & (wgt < 1.0))


class CountTakes:
    """numpy as align_conv sees it, logging the index shape of every np.take."""

    def __init__(self):
        self.index_shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, a, indices, axis):
        self.index_shapes.append(indices.shape)
        return np.take(a, indices, axis=axis)


# (kernel, offset field shape, offsets need a grad)
CHUNK_FIELDS = {
    "shared9_offgrad": ((3, 3), (6, 7, 9, 2), True),   # the slope path
    "item9": ((3, 3), (2, 6, 7, 9, 2), False),
    "item1": ((1, 1), (2, 6, 7, 1, 2), True),
}
# taps per chunk: one, two (a 3x3 kernel's last chunk then holds one) or all
CHUNK_TAPS = {"one_tap": 1, "two_taps": 2, "all_taps": 9}


class TestAlignConvChunks:
    """The tap loop reads chunks of as many taps as fit its byte budget; the
    bits must not depend on where the chunks begin and end."""

    @pytest.mark.parametrize("taps", CHUNK_TAPS.values(), ids=CHUNK_TAPS)
    @pytest.mark.parametrize("kernel, field, off_grad", CHUNK_FIELDS.values(), ids=CHUNK_FIELDS)
    def test_bitwise_at_every_chunk_length(self, monkeypatch, kernel, field, off_grad, taps):
        rng = np.random.default_rng(17)
        B, Ci, Co, H, W = 2, 4, 5, 6, 7
        kh, kw = kernel
        per_tap = 4 * Ci * B * H * W * 8   # the four corner reads of one tap
        # a budget just short of one more tap still holds `taps` taps
        monkeypatch.setattr(align_module, "_CHUNK_BYTES", (taps + 1) * per_tap - 1)
        takes = CountTakes()
        monkeypatch.setattr(align_module, "np", takes)
        x = Tensor(rng.normal(size=(B, Ci, H, W)), requires_grad=True)
        spec = random_spec(rng, Ci, Co, kernel, 1, kh // 2)
        offt = Tensor(rng.uniform(-2.5, 2.5, size=field), requires_grad=off_grad)
        assert_bitwise_per_tap(monkeypatch, rng, x, spec, offt)
        K = kh * kw
        lengths = [shape[1] for shape in takes.index_shapes]
        want = [min(taps, K - t0) for t0 in range(0, K, taps)]
        assert lengths == [n for n in want for _ in range(4)]   # one take per corner per chunk

    @pytest.mark.parametrize("budget", [1, align_module._CHUNK_BYTES], ids=["one_byte", "default"])
    def test_empty_batch(self, monkeypatch, budget):
        """B = 0 reads zero bytes per tap; every tap fits one chunk."""
        monkeypatch.setattr(align_module, "_CHUNK_BYTES", budget)
        rng = np.random.default_rng(18)
        spec = random_spec(rng, 3, 4, (3, 3), 1, 1)
        x = Tensor(np.zeros((0, 3, 5, 6)), requires_grad=True)
        offt = Tensor(rng.uniform(-1.0, 1.0, size=(5, 6, 9, 2)), requires_grad=True)
        out = align_conv(x, spec, offt)
        assert out.shape == (0, 4, 5, 6)
        out.backward(np.zeros(out.shape))
        assert x.grad.shape == x.shape
        for grad in (spec.weight.grad, spec.bias.grad, offt.grad):
            assert np.array_equal(bits(grad), bits(np.zeros(grad.shape)))
        assert offt.grad.shape == offt.shape
