import re
import warnings

import numpy as np
import pytest

from mono3d.align import (NonFiniteOffsetsError, align_conv, center_align_offsets, select_best_anchor,
                          shape_align_offsets)
from mono3d.gradcheck import grad_check
from mono3d.ops import ConvSpec, conv2d
from mono3d.tensor import Tensor

from oracles import align_conv_peaks


def tap_offset(w_a, h_a, stride, kh, kw, i, j):
    """Independent one-line evaluator of the per-tap offset formula."""
    dy = (h_a / (stride * kh) - 1.0) * (i - kh / 2.0 + 0.5)
    dx = (w_a / (stride * kw) - 1.0) * (j - kw / 2.0 + 0.5)
    return dy, dx


class TestShapeAlign:
    def test_randomized_table(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            kh, kw = rng.choice([1, 3, 5]), rng.choice([1, 3, 5])
            stride = int(rng.choice([1, 2, 4, 8, 16]))
            H, W = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            wh = rng.uniform(1.0, 400.0, size=(H, W, 2))
            off = shape_align_offsets(wh, stride, (kh, kw))
            h0, w0 = rng.integers(0, H), rng.integers(0, W)
            i, j = rng.integers(0, kh), rng.integers(0, kw)
            dy, dx = tap_offset(wh[h0, w0, 0], wh[h0, w0, 1], stride, kh, kw, i, j)
            got = off.data[h0, w0, i * kw + j]
            assert abs(got[0] - dy) <= 1e-12
            assert abs(got[1] - dx) <= 1e-12

    def test_antisymmetric_in_taps(self):
        wh = np.full((2, 3, 2), 57.0)
        off = shape_align_offsets(wh, 8, (3, 3)).data
        for i in range(3):
            for j in range(3):
                fwd = off[:, :, i * 3 + j]
                rev = off[:, :, (2 - i) * 3 + (2 - j)]
                np.testing.assert_allclose(fwd, -rev, atol=1e-15)

    def test_scale_free_in_anchor_and_stride(self):
        # scaling both the anchor and the stride leaves the offsets unchanged
        wh = np.full((1, 1, 2), 48.0)
        a = shape_align_offsets(wh, 8, (3, 3)).data
        b = shape_align_offsets(wh * 4.0, 32, (3, 3)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_anchor_equal_to_kernel_extent_is_identity(self):
        # h_a = S * kh makes the taps land on the plain conv grid
        wh = np.full((2, 2, 2), 24.0)
        off = shape_align_offsets(wh, 8, (3, 3)).data
        np.testing.assert_array_equal(off, 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            shape_align_offsets(np.zeros((1, 1, 2)), 8)
        with pytest.raises(ValueError, match="stride"):
            shape_align_offsets(np.ones((1, 1, 2)), 0)

    @pytest.mark.parametrize("shape", [(5, 6, 3), (6, 2), (1, 2, 5, 6, 2)])
    def test_rejects_a_size_map_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=rf"\(H, W, 2\) or \(B, H, W, 2\) anchor size map, "
                                             rf"got shape {re.escape(str(shape))}"):
            shape_align_offsets(np.ones(shape), 8)


class TestSelectBestAnchor:
    def test_picks_argmax(self):
        scores = np.zeros((1, 2, 3))
        scores[0, 0, 2] = 0.9
        scores[0, 1, 0] = 0.8
        sizes = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        out = select_best_anchor(scores, sizes)
        np.testing.assert_array_equal(out[0, 0], [50.0, 60.0])  # (w, h) of template 2
        np.testing.assert_array_equal(out[0, 1], [10.0, 20.0])

    def test_ties_take_lowest_index(self):
        scores = np.full((1, 1, 4), 0.5)
        sizes = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(select_best_anchor(scores, sizes)[0, 0], [1.0, 2.0])

    def test_mismatched_templates(self):
        with pytest.raises(ValueError, match="templates"):
            select_best_anchor(np.zeros((1, 1, 3)), np.ones((2, 2)))


class TestCenterAlign:
    def test_known_residual(self):
        res = np.zeros((1, 1, 2))
        res[0, 0] = [4.0, -8.0]  # (x_r, y_r)
        off = center_align_offsets(res, 8).data
        np.testing.assert_array_equal(off[0, 0, 0], [-1.0, 0.5])  # (dy, dx)

    def test_replicated_over_taps(self):
        # one shift row per position, which align_conv applies to all 9 taps:
        # the output and the x, residual, weight and bias gradients are
        # bitwise those of the same field copied onto every tap
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 5, 6)), requires_grad=True)
        res = Tensor(rng.normal(size=(2, 5, 6, 2)) * 4.0, requires_grad=True)
        spec = ConvSpec.init_random(3, 4, (3, 3), 1, 1, rng=rng)
        spec.bias.data[:] = rng.normal(size=4)
        g = rng.normal(size=(2, 4, 5, 6))
        leaves = (x, res, spec.weight, spec.bias)
        runs = []
        for copies in (None, 9):
            for p in leaves:
                p.zero_grad()
            field = center_align_offsets(res, 4)
            if copies:
                field = field * Tensor(np.ones((copies, 1)))
            assert field.shape == (2, 5, 6, copies or 1, 2)
            out = align_conv(x, spec, field)
            out.backward(g)
            runs.append([out.data.tobytes()] + [p.grad.tobytes() for p in leaves])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("shape", [(5, 6, 3), (5, 6, 1), (6, 2), (1, 2, 5, 6, 2)])
    def test_rejects_residuals_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=rf"\(H, W, 2\) or \(B, H, W, 2\) residuals, "
                                             rf"got shape {re.escape(str(shape))}"):
            center_align_offsets(np.zeros(shape), 8)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        r1, r2 = rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 2, 2))
        o1 = center_align_offsets(r1, 8).data
        o2 = center_align_offsets(r2, 8).data
        o12 = center_align_offsets(r1 + 2.0 * r2, 8).data
        np.testing.assert_allclose(o12, o1 + 2.0 * o2, atol=1e-12)

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3)], ids=["1x1", "3x3"])
    def test_gradient_reaches_residuals(self, kernel):
        # each residual component feeds its shift to every tap, scaled by 1/S:
        # its gradient is the tap sum of a per-tap field's offset gradient / S
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 2, 4, 5)))
        spec = ConvSpec.init_random(2, 3, kernel, 1, kernel[0] // 2, rng=rng)
        res = Tensor(rng.normal(size=(4, 5, 2)) * 4.0, requires_grad=True)
        align_conv(x, spec, center_align_offsets(res, 8)).sum().backward()
        per_tap = Tensor(np.repeat(res.data[..., None, ::-1] / 8, kernel[0] * kernel[1], axis=-2),
                         requires_grad=True)
        align_conv(x, spec, per_tap).sum().backward()
        np.testing.assert_allclose(res.grad, per_tap.grad.sum(axis=-2)[..., ::-1] / 8,
                                   rtol=0, atol=1e-15)

    def test_gradient_through_align_conv(self):
        # finite differences of the composed center offsets at K = 9, B = 2
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 5, 6)), requires_grad=True)
        r = Tensor(rng.normal(size=(2, 5, 6, 2)) * 2.0, requires_grad=True)
        spec = ConvSpec.init_random(3, 2, (3, 3), 1, 1, rng=rng)
        rep = grad_check(lambda a, b: align_conv(a, spec, center_align_offsets(b, 4)), [x, r])
        assert rep.passed, str(rep)


class TestAlignConv:
    def test_zero_offsets_bit_identical_to_conv2d(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 6, 8)))
        spec = ConvSpec.init_random(3, 4, (3, 3), 1, 1, rng=rng)
        spec.bias.data[:] = rng.normal(size=4)
        off = Tensor(np.zeros((6, 8, 9, 2)))
        assert np.array_equal(align_conv(x, spec, off).data, conv2d(x, spec).data)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the zero-offset identity holds for finite inputs only: each tap reads all four "
        "bilinear corners, and an infinite read times a zero weight is NaN where conv2d's "
        "strided read gives +-inf"))
    def test_zero_offsets_with_an_inf_input_match_conv2d(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(1, 2, 5, 6))
        data[0, 0, 2, 3] = np.inf
        spec = ConvSpec.init_random(2, 2, (3, 3), 1, 1, rng=rng)
        off = Tensor(np.zeros((5, 6, 9, 2)))
        with np.errstate(invalid="ignore"):
            got, want = align_conv(Tensor(data), spec, off).data, conv2d(Tensor(data), spec).data
        assert np.array_equal(got, want, equal_nan=True)

    def test_integer_offsets_shift_the_receptive_field(self):
        # a uniform (0, +1) offset equals plain conv on the left-shifted input
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 2, 5, 7))
        spec = ConvSpec.init_random(2, 3, (3, 3), 1, 1, rng=rng)
        off = np.zeros((5, 7, 9, 2))
        off[..., 1] = 1.0
        got = align_conv(Tensor(x), spec, Tensor(off)).data
        shifted = np.zeros_like(x)
        shifted[..., :-1] = x[..., 1:]
        want = conv2d(Tensor(shifted), spec).data
        # boundary columns read different zero-padding; compare the interior
        np.testing.assert_allclose(got[..., 1:-2], want[..., 1:-2], atol=1e-12)

    def test_huge_finite_offsets_read_like_offsets_past_the_border(self):
        # past a two-cell margin every corner is outside the map, so 1e20 and
        # -1e300 read, and differentiate, like +-50, with no numpy warning
        def run(far):
            rng = np.random.default_rng(12)
            off = rng.uniform(-1.5, 1.5, size=(2, 5, 6, 9, 2))
            off[0, 2, 3, 4, 0], off[1, 0, 0, :, 1], off[1, 4, 5, 0] = far, -far, (far, -far)
            x = Tensor(rng.normal(size=(2, 3, 5, 6)), requires_grad=True)
            spec = ConvSpec.init_random(3, 4, (3, 3), 1, 1, rng=rng)
            offt = Tensor(off, requires_grad=True)
            out = align_conv(x, spec, offt)
            out.backward(rng.normal(size=out.shape))
            return [out.data, x.grad, offt.grad, spec.weight.grad, spec.bias.grad]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = run(50.0)
            for far in (1e20, -1e300):
                for got, want in zip(run(far), near):
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("shape", [(1, 4, 4), (1, 1, 1, 4, 4)])
    def test_rejects_input_of_another_rank(self, shape):
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        with pytest.raises(ValueError,
                           match=rf"4-D \(B, C, H, W\) input, got shape {re.escape(str(shape))}"):
            align_conv(Tensor(np.ones(shape)), spec, Tensor(np.zeros((4, 4, 9, 2))))

    def test_requires_same_padding(self):
        spec = ConvSpec(1, 1, (3, 3), padding=0)
        off = Tensor(np.zeros((4, 4, 9, 2)))
        with pytest.raises(ValueError, match="same-padding"):
            align_conv(Tensor(np.ones((1, 1, 4, 4))), spec, off)

    def test_rejects_even_kernel(self):
        spec = ConvSpec(1, 1, (2, 2), padding=1)
        off = Tensor(np.zeros((4, 4, 4, 2)))
        with pytest.raises(ValueError, match="odd"):
            align_conv(Tensor(np.ones((1, 1, 4, 4))), spec, off)

    def test_offset_field_validation(self):
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        x = Tensor(np.ones((1, 1, 2, 2)))
        for taps in (4, 2, 0):   # neither the kernel's 9 taps nor one shift for all
            with pytest.raises(ValueError, match=r"does not match kernel \(3, 3\): expected "
                                                 r"\(\.\.\., H, W, 9, 2\) or \(\.\.\., H, W, 1, 2\)"):
                align_conv(x, spec, Tensor(np.zeros((2, 2, taps, 2))))
        bad = np.zeros((2, 2, 9, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteOffsetsError, match="non-finite"):
            align_conv(x, spec, Tensor(bad))


class TestBatchedFields:
    """A (B, H, W, K, 2) field aligns each item by its own offsets."""

    def test_offset_builders_take_a_batch_axis(self):
        rng = np.random.default_rng(6)
        wh = rng.uniform(4.0, 60.0, size=(3, 4, 5, 2))
        scores = rng.uniform(size=(3, 4, 5, 9))
        templates = rng.uniform(4.0, 60.0, size=(9, 2))
        res = rng.normal(size=(3, 4, 5, 2))
        batched = [shape_align_offsets(wh, 8, (3, 3)).data,
                   select_best_anchor(scores, templates),
                   center_align_offsets(Tensor(res), 8).data]
        for b in range(3):
            single = [shape_align_offsets(wh[b], 8, (3, 3)).data,
                      select_best_anchor(scores[b], templates),
                      center_align_offsets(Tensor(res[b]), 8).data]
            for got, want in zip(batched, single):
                assert np.array_equal(got[b], want)

    def test_per_item_fields_equal_per_item_calls(self):
        rng = np.random.default_rng(7)
        B, Ci, Co, H, W = 3, 4, 5, 6, 7
        x = Tensor(rng.normal(size=(B, Ci, H, W)), requires_grad=True)
        off = Tensor(rng.uniform(-2.5, 2.5, size=(B, H, W, 9, 2)), requires_grad=True)
        spec = ConvSpec.init_random(Ci, Co, (3, 3), 1, 1, rng=rng)
        out = align_conv(x, spec, off)
        g = rng.normal(size=out.shape)
        out.backward(g)
        got = [x.grad, off.grad, spec.weight.grad, spec.bias.grad]
        for p in (x, off, spec.weight, spec.bias):
            p.zero_grad()
        for b in range(B):
            xb = Tensor(x.data[b:b + 1], requires_grad=True)
            ob = Tensor(off.data[b], requires_grad=True)
            ref = align_conv(xb, spec, ob)
            assert np.array_equal(ref.data, out.data[b:b + 1])
            ref.backward(g[b:b + 1])
            assert np.array_equal(xb.grad, got[0][b:b + 1])
            np.testing.assert_allclose(ob.grad, got[1][b], rtol=0, atol=1e-12)
        for p, want in zip((spec.weight, spec.bias), got[2:]):
            np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)

    def test_shared_field_forms_agree(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 5, 6)), requires_grad=True)
        spec = ConvSpec.init_random(3, 2, (3, 3), 1, 1, rng=rng)
        off = rng.uniform(-1.5, 1.5, size=(5, 6, 9, 2))
        outs = []
        for field in (off, off[None], np.stack([off, off])):
            t = Tensor(field, requires_grad=True)
            y = align_conv(x, spec, t)
            y.backward(np.ones(y.shape))
            outs.append((y.data, t.grad.reshape(-1, 5, 6, 9, 2).sum(axis=0)))
        for y, goff in outs[1:]:
            assert np.array_equal(y, outs[0][0])
            np.testing.assert_allclose(goff, outs[0][1], rtol=0, atol=1e-12)

    def test_rejects_item_count_mismatch(self):
        off = Tensor(np.zeros((3, 4, 4, 9, 2)))
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        with pytest.raises(ValueError, match="3 items, input has 2"):
            align_conv(Tensor(np.ones((2, 1, 4, 4))), spec, off)

    def test_rejects_extra_axes(self):
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        with pytest.raises(ValueError, match="does not match kernel"):
            align_conv(Tensor(np.ones((1, 1, 2, 2))), spec, Tensor(np.zeros((1, 2, 2, 2, 9, 2))))


class TestAlignConvMemory:
    """`align_conv`'s peaks in column tensors (`oracles.align_conv_peaks`, at
    64 channels): each large temporary is freed at its last read."""

    def test_forward_peak_at_most_two_and_a_half_column_tensors(self):
        # 2.35: the columns, the column kernel's stack and the output; with
        # the four corner reads and the corner table alive it read 3.01
        forward, _ = align_conv_peaks()
        assert forward <= 2.5, forward

    def test_backward_peak_at_most_0_4_column_tensors(self):
        # 0.29 above the held graph: the columns are freed before W^T G
        # allocates their gradient; with both alive it read 1.29
        _, backward = align_conv_peaks()
        assert backward <= 0.4, backward
