import numpy as np
import pytest

from mono3d.attention import (AnabParams, PyramidSpec, anab_forward, attention_map,
                              pa2_pool, reference_nonlocal, write_pgm)
from mono3d.gradcheck import grad_check
from mono3d.ops import ConvSpec, conv2d, softmax_lastdim
from mono3d.tensor import Tensor


def identity_params(channels, pyramid, attn_bias=5.0):
    """1x1 identity projections, saturated attention: the oracle configuration."""
    eye = np.eye(channels)[:, :, None, None]
    mk = lambda: ConvSpec(channels, channels, (1, 1), weight=Tensor(eye.copy()))
    attn = ConvSpec(channels, 1, (1, 1))
    attn.bias.data[:] = attn_bias
    return AnabParams(query=mk(), key=mk(), value=mk(), out=mk(),
                      attention=attn, pyramid=pyramid)


RTOL = 1e-12


def ref_bins(n_in, n_bins):
    return [((p * n_in) // n_bins, ((p + 1) * n_in) // n_bins) for p in range(n_bins)]


def ref_pa2_pool(f, a, levels, eps, g):
    """Per-bin pa2_pool: returns (out, gf, ga) for upstream grad `g` (L, C)."""
    C, H, W = f.shape
    a = a.reshape(H, W)
    rows, gf, ga = [], np.zeros_like(f), np.zeros((H, W))
    for level in levels:
        nh, nw = level if isinstance(level, tuple) else (level, level)
        for r0, r1 in ref_bins(H, nh):
            for c0, c1 in ref_bins(W, nw):
                fb, ab = f[:, r0:r1, c0:c1], a[r0:r1, c0:c1]
                den = ab.sum() + eps
                desc = (fb * ab).sum(axis=(1, 2)) / den
                gl = g[len(rows)]
                gf[:, r0:r1, c0:c1] += gl[:, None, None] * ab / den
                ga[r0:r1, c0:c1] += np.einsum("c,chw->hw", gl, fb - desc[:, None, None]) / den
                rows.append(desc)
    return np.stack(rows), gf, ga.reshape(1, H, W)


def ref_adaptive_avg_pool(x, bins, g):
    """Per-bin adaptive average pooling of a (C, H, W) map: returns (out, gx)
    for upstream grad `g` (C, nh, nw). An empty bin reads 0."""
    nh, nw = bins
    out, gx = np.zeros(x.shape[:1] + (nh, nw)), np.zeros_like(x)
    for p, (r0, r1) in enumerate(ref_bins(x.shape[1], nh)):
        for q, (c0, c1) in enumerate(ref_bins(x.shape[2], nw)):
            cnt = (r1 - r0) * (c1 - c0)
            if cnt:
                out[:, p, q] = x[:, r0:r1, c0:c1].sum(axis=(1, 2)) / cnt
                gx[:, r0:r1, c0:c1] += g[:, p, q, None, None] / cnt
    return out, gx


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * max(1.0, np.abs(want).max()))


class TestBinPrimitiveAgainstPerBinLoop:
    """pa2_pool sums each bin with one separable reduceat/repeat pair; the
    per-bin loops above are the reference."""

    @pytest.mark.parametrize("hw,levels,eps", [
        ((3, 5), [1, (4, 7)], 1e-6),              # empty bins: more bins than pixels
        ((6, 10), [(1, 2), (2, 3), (3, 5)], 1e-6),  # non-square levels
        ((1, 9), [1, (1, 4), (2, 9)], 1e-6),      # H = 1, empty bin rows
        ((7, 1), [1, (3, 1), (7, 1)], 1e-6),      # W = 1
        ((6, 10), [1, (2, 3), (6, 10)], 0.0),     # eps = 0, one bin per pixel
        ((8, 8), [1, 4], 1e-6),
    ])
    def test_pa2_pool(self, hw, levels, eps):
        rng = np.random.default_rng(100 * hw[0] + 10 * hw[1] + len(levels))
        f = rng.normal(size=(3,) + hw)
        a = rng.uniform(0.05, 1.0, size=(1,) + hw)
        spec = PyramidSpec(levels, epsilon=eps)
        g = rng.normal(size=(spec.descriptor_count, 3))
        ft, at = Tensor(f, requires_grad=True), Tensor(a, requires_grad=True)
        out = pa2_pool(ft, at, spec)
        out.backward(g)
        want, gf, ga = ref_pa2_pool(f, a, levels, eps, g)
        assert_close(out.data, want)
        assert_close(ft.grad, gf)
        assert_close(at.grad, ga)

    @pytest.mark.parametrize("hw,bins", [
        ((5, 7), (2, 3)), ((3, 5), (4, 7)), ((1, 9), (1, 4)), ((1, 9), (2, 5)),
        ((7, 1), (3, 1)), ((6, 10), (6, 10)),
    ])
    def test_adaptive_avg_pool(self, hw, bins):
        # unit attention, and an eps far below one pixel's weight: a non-empty
        # bin divides by its exact cell count, an empty bin reads 0
        rng = np.random.default_rng(sum(hw) * 31 + sum(bins))
        x = rng.normal(size=(6,) + hw)
        g = rng.normal(size=(6,) + bins)
        xt = Tensor(x, requires_grad=True)
        out = pa2_pool(xt, Tensor(np.ones((1,) + hw)), PyramidSpec([bins], epsilon=1e-20))
        out.backward(g.reshape(6, -1).T)
        want, gx = ref_adaptive_avg_pool(x, bins, g)
        assert_close(out.data.T.reshape(want.shape), want)
        assert_close(xt.grad, gx)


class TestPyramidSpec:
    def test_descriptor_count_default(self):
        # sum of squares over {1, 4, 8, 16}
        assert PyramidSpec().descriptor_count == 1 + 16 + 64 + 256 == 337

    @pytest.mark.xfail(reason="1 + 16 + 64 + 256 = 337; a row count of 377 for "
                              "these levels is arithmetically impossible",
                       strict=True)
    def test_descriptor_count_published_value(self):
        assert PyramidSpec().descriptor_count == 377

    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PyramidSpec([4, 4])
        with pytest.raises(ValueError, match="at least one"):
            PyramidSpec([])

    def test_rectangular_level(self):
        assert PyramidSpec([(2, 3)]).descriptor_count == 6

    @pytest.mark.parametrize("levels,bad", [
        ([0, 1], "level 0 "), ([(2, 0), (2, 2)], r"level \(2, 0\)"), ([(1, 2, 3)], r"level \(1, 2, 3\)"),
    ])
    def test_rejects_empty_or_malformed_level(self, levels, bad):
        with pytest.raises(ValueError, match=bad):
            PyramidSpec(levels)

    @pytest.mark.parametrize("eps", [-16.0, float("nan"), float("inf")])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError, match=f"epsilon must be finite and >= 0, got {eps}"):
            PyramidSpec([1, 2], epsilon=eps)


class TestAttentionMap:
    def test_zero_weights_give_half(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4, 5)))
        conv = ConvSpec(3, 1, (1, 1))
        np.testing.assert_allclose(attention_map(x, conv).data, 0.5)

    def test_saturation(self):
        x = Tensor(np.zeros((1, 2, 3, 3)))
        conv = ConvSpec(2, 1, (1, 1))
        conv.bias.data[:] = 40.0
        np.testing.assert_allclose(attention_map(x, conv).data, 1.0, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 4, 5, 6)))
        conv = ConvSpec.init_random(4, 1, (1, 1), rng=rng)
        a = attention_map(x, conv).data
        assert np.all((a > 0.0) & (a < 1.0))

    def test_rejects_multichannel(self):
        with pytest.raises(ValueError, match="single output channel"):
            attention_map(Tensor(np.zeros((1, 2, 3, 3))), ConvSpec(2, 2, (1, 1)))


class TestPa2Pool:
    def test_constant_attention_matches_average_pooling(self):
        rng = np.random.default_rng(2)
        f = Tensor(rng.normal(size=(3, 8, 8)))
        attn = Tensor(np.full((1, 8, 8), 0.7))
        spec = PyramidSpec([1, 2, 4], epsilon=0.0)
        out = pa2_pool(f, attn, spec).data
        row = 0
        for level in (1, 2, 4):
            pooled, _ = ref_adaptive_avg_pool(f.data, (level, level), np.zeros((3, level, level)))
            for p in range(level):
                for q in range(level):
                    np.testing.assert_allclose(out[row], pooled[:, p, q], atol=1e-12)
                    row += 1

    def test_indicator_attention_selects_one_pixel(self):
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(2, 4, 4)))
        a = np.zeros((1, 4, 4))
        a[0, 1, 2] = 1.0  # inside the single global bin
        out = pa2_pool(f, Tensor(a), PyramidSpec([1], epsilon=0.0)).data
        np.testing.assert_allclose(out[0], f.data[:, 1, 2], atol=1e-12)

    def test_row_count_and_order(self):
        f = Tensor(np.zeros((2, 8, 8)))
        attn = Tensor(np.ones((1, 8, 8)))
        assert pa2_pool(f, attn, PyramidSpec([1, 2, 4])).shape == (21, 2)

    def test_zero_attention_with_epsilon_is_finite(self):
        f = Tensor(np.ones((2, 4, 4)))
        out = pa2_pool(f, Tensor(np.zeros((1, 4, 4))), PyramidSpec([1, 2])).data
        np.testing.assert_allclose(out, 0.0, atol=1e-5)

    def test_within_bin_permutation_invariance(self):
        # shuffling (feature, attention) pairs inside the global bin changes nothing
        rng = np.random.default_rng(4)
        f = rng.normal(size=(3, 2, 6))
        a = rng.uniform(0.1, 0.9, size=(1, 2, 6))
        spec = PyramidSpec([1])
        out = pa2_pool(Tensor(f), Tensor(a), spec).data
        perm = rng.permutation(12)
        fp = f.reshape(3, 12)[:, perm].reshape(3, 2, 6)
        ap = a.reshape(12)[perm].reshape(1, 2, 6)
        outp = pa2_pool(Tensor(fp), Tensor(ap), spec).data
        np.testing.assert_allclose(outp, out, atol=1e-12)

    def test_rejects_batched_features(self):
        with pytest.raises(ValueError, match=r"3-D \(C, H, W\) features, got shape \(1, 2, 4, 4\)"):
            pa2_pool(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 4, 4))), PyramidSpec([1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            pa2_pool(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3))), PyramidSpec([1]))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        f = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        a = Tensor(rng.uniform(0.2, 0.8, size=(1, 4, 6)), requires_grad=True)
        r = grad_check(lambda ff, aa: pa2_pool(ff, aa, PyramidSpec([1, 2])), [f, a],
                       name="pa2_pool")
        assert r.passed, str(r)


class TestAnabForward:
    def test_matches_reference_nonlocal(self):
        # one full-resolution pyramid level + saturated attention = plain non-local
        rng = np.random.default_rng(6)
        H, W = 6, 10
        pyramid = PyramidSpec([(H, W)], epsilon=0.0)
        params = identity_params(8, pyramid, attn_bias=40.0)
        worst = 0.0
        for _ in range(20):
            x = Tensor(rng.normal(size=(1, 8, H, W)))
            got = anab_forward(x, params).data
            want = reference_nonlocal(x).data
            worst = max(worst, np.abs(got - want).max())
        assert worst < 1e-6

    def test_uniform_query_averages_values(self):
        # zero query weights -> uniform softmax -> every position gets mean(M_V)
        rng = np.random.default_rng(8)
        pyramid = PyramidSpec([1, 2], epsilon=0.0)
        params = identity_params(4, pyramid, attn_bias=40.0)
        params.query.weight.data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 4, 4, 4)))
        out = (anab_forward(x, params).data - x.data)[0].reshape(4, -1).T
        m_v = pa2_pool(x[0], attention_map(x, params.attention)[0], pyramid).data
        np.testing.assert_allclose(out, np.tile(m_v.mean(axis=0), (16, 1)), atol=1e-9)

    def test_query_shift_invariance(self):
        # a constant shift of the similarity rows cancels in the softmax
        rng = np.random.default_rng(9)
        pyramid = PyramidSpec([1, 2])
        params = identity_params(8, pyramid)
        x = Tensor(rng.normal(size=(1, 8, 3, 4)))
        base = anab_forward(x, params).data
        # bias direction c with M_K c = 1: underdetermined, exact for L=5 < C=8
        k = pa2_pool(x[0], attention_map(x, params.attention)[0], pyramid).data
        ones_dir = np.linalg.lstsq(k, np.ones(len(k)), rcond=None)[0]
        np.testing.assert_allclose(k @ ones_dir, 1.0, atol=1e-5)
        shifted = identity_params(8, pyramid)
        shifted.query.bias.data[:] = 3.0 * ones_dir
        np.testing.assert_allclose(anab_forward(x, shifted).data, base, atol=1e-5)

    def test_batched(self):
        rng = np.random.default_rng(10)
        params = identity_params(3, PyramidSpec([1, 2]))
        x2 = rng.normal(size=(2, 3, 4, 5))
        both = anab_forward(Tensor(x2), params).data
        for b in range(2):
            single = anab_forward(Tensor(x2[b:b + 1]), params).data
            np.testing.assert_allclose(both[b:b + 1], single, atol=1e-12)

    def test_rejects_unbatched_input(self):
        params = identity_params(4, PyramidSpec([1]))
        with pytest.raises(ValueError, match=r"4-D \(B, C, H, W\) input, got shape \(4, 4, 4\)"):
            anab_forward(Tensor(np.zeros((4, 4, 4))), params)

    def test_channel_mismatch(self):
        params = identity_params(4, PyramidSpec([1]))
        with pytest.raises(ValueError, match="channels"):
            anab_forward(Tensor(np.zeros((1, 3, 4, 4))), params)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        params = AnabParams.init_random(6, pyramid=PyramidSpec([1, 2]), rng=rng)
        x = Tensor(rng.normal(size=(1, 6, 4, 6)), requires_grad=True)
        r = grad_check(lambda *a: anab_forward(a[0], params), [x] + params.params(),
                       name="anab")
        assert r.passed, str(r)


def project_then_pool(x, params):
    """The block before the projections were folded: full-resolution 1x1
    query/key/value convs, keys and values pooled separately, the output
    conv on the attended map."""
    B, C, H, W = x.shape
    attn = attention_map(x, params.attention)
    q, k, v = (conv2d(x, spec) for spec in (params.query, params.key, params.value))
    outs = []
    for b in range(B):
        m_q = q[b].reshape(C, H * W).T
        m_k = pa2_pool(k[b], attn[b], params.pyramid)
        m_v = pa2_pool(v[b], attn[b], params.pyramid)
        m_out = softmax_lastdim(m_q @ m_k.T) @ m_v
        outs.append(m_out.T.reshape(1, C, H, W))
    return conv2d(Tensor.concat(outs, axis=0), params.out) + x


class TestFoldedProjections:
    """anab_forward pools [x; 1] once and folds the four 1x1 projections into
    L-row matmuls; the project-then-pool block above is the reference. With
    `residual` False both outputs are compared with x subtracted, so the
    tolerance scales with the attention term alone."""

    @pytest.mark.parametrize("B,hw,levels,eps,residual", [
        (2, (4, 6), [1, 2], 1e-6, True),                # batch of two, non-square map
        (1, (3, 7), [1, (2, 3), (5, 9)], 1e-6, False),  # empty bins, no residual
        (2, (5, 5), [1, 2, 4], 0.5, True),              # bias factor S/(S+eps) far from 1
        (1, (6, 4), [1, 2, (4, 8)], 0.5, False),        # large eps with empty bins
    ])
    def test_matches_project_then_pool(self, B, hw, levels, eps, residual):
        rng = np.random.default_rng(B * 1000 + 10 * hw[0] + hw[1])
        C = 5
        params = AnabParams.init_random(C, pyramid=PyramidSpec(levels, epsilon=eps), rng=rng)
        for spec in (params.query, params.key, params.value, params.out, params.attention):
            spec.bias.data[:] = rng.normal(size=spec.bias.shape)
        x = Tensor(rng.normal(size=(B, C) + hw), requires_grad=True)
        g = rng.normal(size=x.shape)
        leaves = [x] + params.params()
        results = []
        for block in (anab_forward, project_then_pool):
            for t in leaves:
                t.zero_grad()
            out = block(x, params) if residual else block(x, params) - x
            out.backward(g)
            results.append([out.data] + [t.grad for t in leaves])
        assert len(results[0]) == 12  # output, x, and the 10 parameters
        for got, want in zip(*results):
            assert_close(got, want)


class TestWritePgm:
    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(np.array([[0.0, 1.0], [0.5, 0.25]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pix = np.frombuffer(raw[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
        np.testing.assert_array_equal(pix, [0, 255, 128, 64])

    def test_constant_map(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(np.full((2, 3), 7.0), path)
        assert path.read_bytes().endswith(b"\x00" * 6)

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_pgm(np.zeros((2, 2, 2)), tmp_path / "x.pgm")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, tmp_path, bad):
        # one non-finite entry would otherwise black out the whole image
        path = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match="got 2 non-finite of 4 entries"):
            write_pgm(np.array([[bad, 1.0], [0.0, bad]]), path)
        assert not path.exists()
