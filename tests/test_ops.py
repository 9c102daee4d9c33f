import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3d import attention
from mono3d.align import align_conv
from mono3d.attention import PyramidSpec, pa2_pool
from mono3d.gradcheck import grad_check
from mono3d.ops import ConvSpec, conv2d, softmax_lastdim
from mono3d.tensor import Tensor


def naive_conv2d(x, spec):
    """Seven-loop reference with the same scalar accumulation order as conv2d:
    start from the bias, then add taps in (kh, kw, ci) order."""
    B, Ci, H, W = x.shape
    kh, kw = spec.kernel
    s, p = spec.stride, spec.padding
    OH = (H + 2 * p - kh) // s + 1
    OW = (W + 2 * p - kw) // s + 1
    padded = np.zeros((B, Ci, H + 2 * p, W + 2 * p))
    padded[:, :, p:p + H, p:p + W] = x
    w, bias = spec.weight.data, spec.bias.data
    out = np.empty((B, spec.out_channels, OH, OW))
    for b in range(B):
        for co in range(spec.out_channels):
            for oh in range(OH):
                for ow in range(OW):
                    acc = bias[co]
                    for i in range(kh):
                        for j in range(kw):
                            for ci in range(Ci):
                                acc += padded[b, ci, oh * s + i, ow * s + j] * w[co, ci, i, j]
                    out[b, co, oh, ow] = acc
    return out


class TestConv2d:
    def test_all_ones_3x3(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        spec = ConvSpec(1, 1, (3, 3), weight=Tensor(np.ones((1, 1, 3, 3))))
        out = conv2d(x, spec)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 9.0))

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 6, 7)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        spec = ConvSpec(1, 1, (3, 3), padding=1, weight=Tensor(w))
        np.testing.assert_array_equal(conv2d(x, spec).data, x.data)

    def test_matches_naive_reference_bitwise(self):
        rng = np.random.default_rng(3)
        for stride, pad in ((1, 0), (1, 1), (2, 1)):
            x = rng.normal(size=(2, 3, 7, 9))
            spec = ConvSpec.init_random(3, 4, (3, 3), stride, pad, rng=rng)
            spec.bias.data[:] = rng.normal(size=4)
            got = conv2d(Tensor(x), spec).data
            want = naive_conv2d(x, spec)
            assert np.array_equal(got, want), f"stride={stride} pad={pad}"

    def test_shape_errors(self):
        spec = ConvSpec(1, 1, (3, 3))
        with pytest.raises(ValueError, match="4-D"):
            conv2d(Tensor(np.ones((1, 5, 5))), spec)
        with pytest.raises(ValueError, match="channels"):
            conv2d(Tensor(np.ones((1, 2, 5, 5))), spec)
        with pytest.raises(ValueError, match="empty output"):
            conv2d(Tensor(np.ones((1, 1, 2, 2))), spec)

    @pytest.mark.parametrize("stride,padding", [(0, 0), (-1, 0), (1, -1)])
    def test_rejects_bad_geometry(self, stride, padding):
        with pytest.raises(ValueError, match=f"got stride {stride} and padding {padding}"):
            ConvSpec(3, 2, (3, 3), stride=stride, padding=padding)

    @pytest.mark.parametrize("args,kwargs,message", [
        ((3, 0), {}, "out_channels must be an integer >= 1, got 0"),
        ((-1, 4), {}, "in_channels must be an integer >= 1, got -1"),
        ((3.0, 4), {}, "in_channels must be an integer >= 1, got 3.0"),
        ((3, True), {}, "out_channels must be an integer >= 1, got True"),
        ((3, 4, (3, 0)), {}, r"kernel must be two integers >= 1, got \(3, 0\)"),
        ((3, 4, (3,)), {}, r"kernel must be two integers >= 1, got \(3,\)"),
        ((3, 4, (2.5, 3)), {}, r"kernel must be two integers >= 1, got \(2.5, 3\)"),
        ((3, 4), {"stride": 1.5}, "got stride 1.5 and padding 0"),
        ((3, 4), {"padding": 0.5}, "got stride 1 and padding 0.5"),
    ])
    def test_rejects_bad_sizes(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ConvSpec(*args, **kwargs)
        with pytest.raises(ValueError, match=message):
            ConvSpec.init_random(*args, **kwargs, rng=np.random.default_rng(0))

    def test_accepts_numpy_integers(self):
        spec = ConvSpec(np.int64(2), np.int32(3), (np.intp(3), 3), np.int64(2), np.int64(1))
        assert spec.weight.shape == (3, 2, 3, 3)

    @pytest.mark.parametrize("kernel,stride,pad,op", [
        ((3, 3), 1, 1, "conv2d"), ((3, 3), 2, 1, "conv2d"), ((1, 1), 1, 0, "conv2d"),
        ((3, 3), 1, 1, "align_conv"), ((1, 1), 1, 0, "align_conv"),
    ])
    def test_empty_batch(self, kernel, stride, pad, op):
        rng = np.random.default_rng(8)
        spec = ConvSpec.init_random(3, 4, kernel, stride, pad, rng=rng)
        x = Tensor(np.zeros((0, 3, 5, 6)), requires_grad=True)
        if op == "conv2d":
            out = conv2d(x, spec)
        else:
            off = Tensor(np.zeros((5, 6, kernel[0] * kernel[1], 2)), requires_grad=True)
            out = align_conv(x, spec, off)
        oh, ow = (5 + 2 * pad - kernel[0]) // stride + 1, (6 + 2 * pad - kernel[1]) // stride + 1
        assert out.shape == (0, 4, oh, ow)
        out.backward(np.zeros(out.shape))
        assert x.grad.shape == x.shape
        np.testing.assert_array_equal(spec.weight.grad, np.zeros(spec.weight.shape))
        np.testing.assert_array_equal(spec.bias.grad, np.zeros(4))
        if op == "align_conv":
            np.testing.assert_array_equal(off.grad, np.zeros(off.shape))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        spec = ConvSpec.init_random(2, 3, (3, 3), 2, 1, rng=rng)
        r = grad_check(lambda a, w, b: conv2d(a, spec),
                       [x, spec.weight, spec.bias], name="conv2d_s2")
        assert r.passed, str(r)


def read_at(x, dy, dx):
    """align_conv with a 1x1 identity kernel, zero bias and one uniform offset
    (dy, dx): output (h, w) reads the (1, 1, H, W) map x bilinearly at
    (h + dy, w + dx). Returns the output's (H, W) plane."""
    H, W = x.shape[2:]
    spec = ConvSpec(1, 1, (1, 1), weight=Tensor(np.ones((1, 1, 1, 1))))
    off = Tensor(np.broadcast_to([dy, dx], (H, W, 1, 2)))
    return align_conv(x, spec, off).data[0, 0]


class TestBilinear:
    """The bilinear tap read, through align_conv, its one user."""

    def test_integer_coordinates_exact(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 1, 4, 5)))
        out = read_at(x, 2.0, 3.0)
        np.testing.assert_array_equal(out[:2, :2], x.data[0, 0, 2:, 3:])
        assert not out[2:].any() and not out[:, 2:].any()

    def test_midpoint_average(self):
        x = Tensor(np.array([[[[0.0, 2.0], [4.0, 6.0]]]]))
        assert read_at(x, 0.5, 0.5)[0, 0] == pytest.approx(3.0)

    def test_outside_is_zero(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        np.testing.assert_array_equal(read_at(x, -3.0, 1.0), 0.0)
        np.testing.assert_array_equal(read_at(x, 1.0, 10.0), 0.0)

    def test_boundary_fade(self):
        # half a cell past the edge keeps half the corner value
        x = Tensor(np.ones((1, 1, 3, 3)) * 4.0)
        out = read_at(x, -0.5, 0.0)
        np.testing.assert_allclose(out[0], 2.0)
        np.testing.assert_allclose(out[1:], 4.0)

    def test_continuity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 1, 6, 6)))
        # reads that cross grid lines and the map border as the offset moves
        for dy, dx in [(0.0, 0.0), (-1.0, 2.0), (0.999, -0.5)]:
            base = read_at(x, dy, dx)
            for eps in (1e-7, -1e-7):
                np.testing.assert_allclose(read_at(x, dy + eps, dx), base, atol=1e-5)
                np.testing.assert_allclose(read_at(x, dy, dx + eps), base, atol=1e-5)

    def test_coordinate_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 1, 5, 6)), requires_grad=True)
        off = Tensor(np.broadcast_to([1.3, -0.7], (5, 6, 1, 2)) + rng.uniform(-0.2, 0.2, (5, 6, 1, 2)),
                     requires_grad=True)
        spec = ConvSpec(1, 1, (1, 1), weight=Tensor(np.ones((1, 1, 1, 1))))
        r = grad_check(lambda a, o: align_conv(a, spec, o), [x, off], name="bilinear")
        assert r.passed, str(r)


class TestSoftmax:
    def test_uniform(self):
        out = softmax_lastdim(Tensor(np.zeros((2, 4)))).data
        np.testing.assert_allclose(out, 0.25)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-50.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed, shift):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=10.0, size=(3, 5))
        out = softmax_lastdim(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out > 0.0)
        shifted = softmax_lastdim(Tensor(x + shift)).data
        np.testing.assert_allclose(shifted, out, atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax_lastdim(Tensor(np.array([[1e4, 1e4 - 1.0]]))).data
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_backward_bitwise_against_the_three_temporary_form(self):
        # the in-place backward against out * (g - dot) read through the same
        # fresh-gradient add, on rows with -0.0, large and tiny entries
        rng = np.random.default_rng(9)
        x = np.concatenate([
            [[0.0, -0.0, 1e-300, -1e-300, 5.0],
             [700.0, -700.0, 1e3, 1e-3, -1e3],
             [1e4, 1e4 - 1.0, 1e4 - 2.0, 0.0, -0.0]],
            rng.normal(scale=10.0, size=(4, 5))])
        g = rng.normal(size=x.shape)
        g[0, :2], g[1, 2], g[2, 3], g[3] = -0.0, 1e300, 1e-300, -0.0
        xt = Tensor(x, requires_grad=True)
        y = softmax_lastdim(xt)
        y.backward(g)
        out = y.data
        dot = (g * out).sum(axis=-1, keepdims=True)
        assert xt.grad.tobytes() == np.add(0.0, out * (g - dot)).tobytes()


def avg_pool(x, bins, eps=0.0):
    """pa2_pool of a (B, C, H, W) map under unit attention at one (nh, nw) level:
    each bin's sum over its cell count plus eps. Returns (B, C, nh, nw)."""
    B, C, H, W = x.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attention, "EPSILON", eps)
        out = pa2_pool(x, Tensor(np.ones((B, 1, H, W))), PyramidSpec([bins]))
    return out.transpose(0, 2, 1).reshape(B, C, *bins)


class TestAdaptivePool:
    """Adaptive average pooling as pa2_pool under constant attention, the bin
    primitive's one user."""

    def test_known_2x2(self):
        x = Tensor(np.arange(24.0).reshape(1, 1, 4, 6))
        out = avg_pool(x, (2, 2)).data[0, 0]
        np.testing.assert_allclose(out, [[4.0, 7.0], [16.0, 19.0]])

    def test_4x4_to_2x2(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool(x, (2, 2)).data[0, 0]
        np.testing.assert_allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_identity_bins(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 2, 3, 5)))
        np.testing.assert_array_equal(avg_pool(x, (3, 5)).data, x.data)

    def test_global_pool_is_mean(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 6, 4, 5)))
        out = avg_pool(x, (1, 1)).data
        np.testing.assert_allclose(out[0, :, 0, 0], x.data[0].mean(axis=(1, 2)), atol=1e-12)

    def test_more_bins_than_pixels(self):
        # bins past the input size are empty; with eps > 0 they read 0
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = avg_pool(x, (3, 3), eps=1e-6).data[0, 0]
        assert np.count_nonzero(out) == 4
        assert out.sum() == pytest.approx(4.0, rel=1e-5)

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 2, 5, 7)), requires_grad=True)
        r = grad_check(lambda a: avg_pool(a, (2, 3)), [x], name="pool")
        assert r.passed, str(r)
