import re

import numpy as np
import pytest

from mono3d import attention, ops
from mono3d.attention import AnabParams, PyramidSpec, anab_forward, attention_map, pa2_pool, write_pgm
from mono3d.gradcheck import grad_check
from mono3d.ops import ConvSpec, conv2d, softmax_lastdim
from mono3d.tensor import Tensor

from oracles import attention_block_graph, composed_attend, reference_nonlocal


def identity_params(channels, pyramid, attn_bias=5.0):
    """Identity projections, saturated attention: the oracle configuration."""
    C = channels
    affine = lambda: Tensor(np.hstack([np.eye(C), np.zeros((C, 1))]))
    attn = ConvSpec(C, 1, (1, 1))
    attn.bias.data[:] = attn_bias
    return AnabParams(query=affine(), key=affine(), value=affine(), out_weight=Tensor(np.eye(C)),
                      out_bias=Tensor(np.zeros((C, 1, 1))), attention=attn, pyramid=pyramid)


def randomize_biases(params, rng):
    """Normal draws into every bias: the [W | b] columns, the output's, the attention conv's."""
    for affine in (params.query, params.key, params.value):
        affine.data[:, -1] = rng.normal(size=affine.shape[0])
    for bias in (params.out_bias, params.attention.bias):
        bias.data[:] = rng.normal(size=bias.shape)


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
    def test_pa2_pool(self, hw, levels, eps, monkeypatch):
        # a batch of two against the per-bin reference on each item, and
        # bitwise against pa2_pool on that item alone
        rng = np.random.default_rng(100 * hw[0] + 10 * hw[1] + len(levels))
        f = rng.normal(size=(2, 3) + hw)
        a = rng.uniform(0.05, 1.0, size=(2, 1) + hw)
        monkeypatch.setattr(attention, "EPSILON", eps)
        spec = PyramidSpec(levels)
        g = rng.normal(size=(2, spec.descriptor_count, 3))
        ft, at = Tensor(f, requires_grad=True), Tensor(a, requires_grad=True)
        out = pa2_pool(ft, at, spec)
        out.backward(g)
        for b in range(2):
            want, gf, ga = ref_pa2_pool(f[b], a[b], levels, eps, g[b])
            assert_close(out.data[b], want)
            assert_close(ft.grad[b], gf)
            assert_close(at.grad[b], ga)
            fb, ab = Tensor(f[b:b + 1], requires_grad=True), Tensor(a[b:b + 1], requires_grad=True)
            one = pa2_pool(fb, ab, spec)
            one.backward(g[b:b + 1])
            np.testing.assert_array_equal(out.data[b:b + 1], one.data)
            np.testing.assert_array_equal(ft.grad[b:b + 1], fb.grad)
            np.testing.assert_array_equal(at.grad[b:b + 1], ab.grad)

    @pytest.mark.parametrize("hw,bins", [
        ((5, 7), (2, 3)), ((3, 5), (4, 7)), ((1, 9), (1, 4)), ((1, 9), (2, 5)),
        ((7, 1), (3, 1)), ((6, 10), (6, 10)),
    ])
    def test_adaptive_avg_pool(self, hw, bins, monkeypatch):
        # unit attention, and an eps far below one pixel's weight: a non-empty
        # bin divides by its exact cell count, an empty bin reads 0
        rng = np.random.default_rng(sum(hw) * 31 + sum(bins))
        x = rng.normal(size=(1, 6) + hw)
        g = rng.normal(size=(6,) + bins)
        xt = Tensor(x, requires_grad=True)
        monkeypatch.setattr(attention, "EPSILON", 1e-20)
        out = pa2_pool(xt, Tensor(np.ones((1, 1) + hw)), PyramidSpec([bins]))
        out.backward(g.reshape(1, 6, -1).transpose(0, 2, 1))
        want, gx = ref_adaptive_avg_pool(x[0], bins, g)
        assert_close(out.data[0].T.reshape(want.shape), want)
        assert_close(xt.grad[0], gx)


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
        ([2.5], "level 2.5 "), ([(2, 1.5)], r"level \(2, 1.5\)"),
    ])
    def test_rejects_empty_or_malformed_level(self, levels, bad):
        with pytest.raises(ValueError, match=bad):
            PyramidSpec(levels)

    @pytest.mark.parametrize("levels,bad", [
        ([True], "level True "), ([(True, 2)], r"level \(True, 2\)"),
        ([1, (2, True)], r"level \(2, True\)"),
    ])
    def test_rejects_bool_bin_count(self, levels, bad):
        # bool is an int subclass: these once built 1-, 2- and 3-bin pyramids
        with pytest.raises(ValueError, match=bad):
            PyramidSpec(levels)

    def test_numpy_integer_bin_counts(self):
        spec = PyramidSpec([np.int64(1), (np.int32(2), np.uint8(3))])
        assert spec.descriptor_count == 7


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
    def test_constant_attention_matches_average_pooling(self, monkeypatch):
        rng = np.random.default_rng(2)
        f = Tensor(rng.normal(size=(1, 3, 8, 8)))
        attn = Tensor(np.full((1, 1, 8, 8), 0.7))
        monkeypatch.setattr(attention, "EPSILON", 0.0)
        spec = PyramidSpec([1, 2, 4])
        out = pa2_pool(f, attn, spec).data[0]
        row = 0
        for n in (1, 2, 4):
            pooled, _ = ref_adaptive_avg_pool(f.data[0], (n, n), np.zeros((3, n, n)))
            for p in range(n):
                for q in range(n):
                    np.testing.assert_allclose(out[row], pooled[:, p, q], atol=1e-12)
                    row += 1

    def test_indicator_attention_selects_one_pixel(self, monkeypatch):
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(1, 2, 4, 4)))
        a = np.zeros((1, 1, 4, 4))
        a[0, 0, 1, 2] = 1.0  # inside the single global bin
        monkeypatch.setattr(attention, "EPSILON", 0.0)
        out = pa2_pool(f, Tensor(a), PyramidSpec([1])).data
        np.testing.assert_allclose(out[0, 0], f.data[0, :, 1, 2], atol=1e-12)

    def test_row_count_and_order(self):
        f = Tensor(np.zeros((1, 2, 8, 8)))
        attn = Tensor(np.ones((1, 1, 8, 8)))
        assert pa2_pool(f, attn, PyramidSpec([1, 2, 4])).shape == (1, 21, 2)

    def test_zero_attention_with_epsilon_is_finite(self):
        f = Tensor(np.ones((1, 2, 4, 4)))
        out = pa2_pool(f, Tensor(np.zeros((1, 1, 4, 4))), PyramidSpec([1, 2])).data
        np.testing.assert_allclose(out, 0.0, atol=1e-5)

    def test_within_bin_permutation_invariance(self):
        # shuffling (feature, attention) pairs inside the global bin changes nothing
        rng = np.random.default_rng(4)
        f = rng.normal(size=(1, 3, 2, 6))
        a = rng.uniform(0.1, 0.9, size=(1, 1, 2, 6))
        spec = PyramidSpec([1])
        out = pa2_pool(Tensor(f), Tensor(a), spec).data
        perm = rng.permutation(12)
        fp = f.reshape(3, 12)[:, perm].reshape(1, 3, 2, 6)
        ap = a.reshape(12)[perm].reshape(1, 1, 2, 6)
        outp = pa2_pool(Tensor(fp), Tensor(ap), spec).data
        np.testing.assert_allclose(outp, out, atol=1e-12)

    def test_rejects_unbatched_features(self):
        with pytest.raises(ValueError, match=r"got features \(2, 4, 4\) and attention map \(1, 4, 4\)"):
            pa2_pool(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 4, 4))), PyramidSpec([1]))

    def test_shape_mismatch(self):
        # spatial size, a multi-channel map, batch size, no batch axis
        for attn_shape in [(1, 1, 3, 3), (1, 2, 4, 4), (2, 1, 4, 4), (1, 4, 4)]:
            with pytest.raises(ValueError, match=rf"got features \(1, 2, 4, 4\) and attention "
                                                 rf"map {re.escape(str(attn_shape))}"):
                pa2_pool(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros(attn_shape)),
                         PyramidSpec([1]))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        f = Tensor(rng.normal(size=(1, 2, 4, 6)), requires_grad=True)
        a = Tensor(rng.uniform(0.2, 0.8, size=(1, 1, 4, 6)), requires_grad=True)
        r = grad_check(lambda ff, aa: pa2_pool(ff, aa, PyramidSpec([1, 2])), [f, a],
                       name="pa2_pool")
        assert r.passed, str(r)


class TestAnabForward:
    def test_matches_reference_nonlocal(self, monkeypatch):
        # one full-resolution pyramid level + saturated attention = plain non-local
        rng = np.random.default_rng(6)
        H, W = 6, 10
        monkeypatch.setattr(attention, "EPSILON", 0.0)
        pyramid = PyramidSpec([(H, W)])
        params = identity_params(8, pyramid, attn_bias=40.0)
        worst = 0.0
        for _ in range(20):
            x = Tensor(rng.normal(size=(1, 8, H, W)))
            got = anab_forward(x, params).data
            want = reference_nonlocal(x).data
            worst = max(worst, np.abs(got - want).max())
        assert worst < 1e-6

    def test_uniform_query_averages_values(self, monkeypatch):
        # zero query weights -> uniform softmax -> every position gets mean(M_V)
        rng = np.random.default_rng(8)
        monkeypatch.setattr(attention, "EPSILON", 0.0)
        pyramid = PyramidSpec([1, 2])
        params = identity_params(4, pyramid, attn_bias=40.0)
        params.query.data[:, :-1] = 0.0
        x = Tensor(rng.normal(size=(1, 4, 4, 4)))
        out = (anab_forward(x, params).data - x.data)[0].reshape(4, -1).T
        m_v = pa2_pool(x, attention_map(x, params.attention), pyramid).data[0]
        np.testing.assert_allclose(out, np.tile(m_v.mean(axis=0), (16, 1)), atol=1e-9)

    def test_query_shift_invariance(self):
        # a constant shift of the similarity rows cancels in the softmax
        rng = np.random.default_rng(9)
        pyramid = PyramidSpec([1, 2])
        params = identity_params(8, pyramid)
        x = Tensor(rng.normal(size=(1, 8, 3, 4)))
        base = anab_forward(x, params).data
        # bias direction c with M_K c = 1: underdetermined, exact for L=5 < C=8
        k = pa2_pool(x, attention_map(x, params.attention), pyramid).data[0]
        ones_dir = np.linalg.lstsq(k, np.ones(len(k)), rcond=None)[0]
        np.testing.assert_allclose(k @ ones_dir, 1.0, atol=1e-5)
        shifted = identity_params(8, pyramid)
        shifted.query.data[:, -1] = 3.0 * ones_dir
        np.testing.assert_allclose(anab_forward(x, shifted).data, base, atol=1e-5)

    def test_batched(self):
        # output and input gradient bitwise the per-item calls; a parameter's
        # gradient is the per-item sum up to the order of the batch sum
        rng = np.random.default_rng(10)
        params = AnabParams.init_random(3, pyramid=PyramidSpec([1, 2]), rng=rng)
        randomize_biases(params, rng)
        x = Tensor(rng.normal(size=(4, 3, 4, 5)), requires_grad=True)
        g = rng.normal(size=x.shape)
        both = anab_forward(x, params)
        both.backward(g)
        batch_grads = [p.grad for p in params.params()]
        item_sums = [np.zeros(p.shape) for p in params.params()]
        for b in range(4):
            for p in params.params():
                p.zero_grad()
            xb = Tensor(x.data[b:b + 1], requires_grad=True)
            single = anab_forward(xb, params)
            single.backward(g[b:b + 1])
            np.testing.assert_array_equal(both.data[b:b + 1], single.data)
            np.testing.assert_array_equal(x.grad[b:b + 1], xb.grad)
            for acc, p in zip(item_sums, params.params()):
                acc += p.grad
        for got, want in zip(batch_grads, item_sums):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_rejects_unbatched_input(self):
        params = identity_params(4, PyramidSpec([1]))
        with pytest.raises(ValueError, match=r"4-D \(B, C, H, W\) input, got shape \(4, 4, 4\)"):
            anab_forward(Tensor(np.zeros((4, 4, 4))), params)

    def test_channel_mismatch(self):
        params = identity_params(4, PyramidSpec([1]))
        with pytest.raises(ValueError, match="channels"):
            anab_forward(Tensor(np.zeros((1, 3, 4, 4))), params)

    def test_rejects_a_projection_of_another_shape(self):
        # a conv-style (C,) output bias would broadcast over W when W == C
        params = identity_params(4, PyramidSpec([1]))
        params.out_bias = Tensor(np.zeros(4))
        with pytest.raises(ValueError, match=re.escape("need shapes [(4, 5), (4, 5), (4, 5), (4, 4), "
                                                       "(4, 1, 1)], got [(4, 5), (4, 5), (4, 5), "
                                                       "(4, 4), (4,)]")):
            anab_forward(Tensor(np.zeros((1, 4, 4, 4))), params)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        params = AnabParams.init_random(6, pyramid=PyramidSpec([1, 2]), rng=rng)
        x = Tensor(rng.normal(size=(1, 6, 4, 6)), requires_grad=True)
        r = grad_check(lambda *a: anab_forward(a[0], params), [x] + params.params(),
                       name="anab")
        assert r.passed, str(r)


class TestAttendOp:
    """`attention._attend`, the block's N x L product a @ softmax(xt @ q)^T as
    one tape op, against `composed_attend`'s four tape ops: the output and
    all three input gradients bitwise. xt is the transposed view of a
    (B, C+1, N) leaf, as `anab_forward` passes it."""

    @staticmethod
    def leaves(rng, B, C, N, L):
        """(xs, q, a) leaves and an upstream gradient with planted 0.0 and -0.0;
        row 0's logits are +-700, so its -700 entries' probabilities underflow
        to 0."""
        xs = rng.normal(size=(B, C + 1, N))
        q = rng.normal(size=(B, C + 1, L))
        xs[:, :, 0], xs[:, 0, 0] = 0.0, 1.0
        q[:, 0] = np.where(np.arange(L) % 2, -700.0, 700.0)
        g = rng.normal(size=(B, C, N))
        g.flat[::3], g.flat[1::5] = 0.0, -0.0
        return ([Tensor(v, requires_grad=True) for v in (xs, q, rng.normal(size=(B, C, L)))], g)

    @staticmethod
    def run(op, leaves, g):
        xs, q, a = leaves
        for t in leaves:
            t.zero_grad()
        out = op(xs.transpose(0, 2, 1), q, a)
        out.backward(g)
        return [out.data] + [t.grad for t in leaves]

    def assert_same_bits(self, leaves, g):
        got, want = self.run(attention._attend, leaves, g), self.run(composed_attend, leaves, g)
        for u, w in zip(got, want):
            assert u.shape == w.shape
            assert np.array_equal(u.view(np.int64), w.view(np.int64))
        return got

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("C", [1, 8, 64])
    # at L = 337, 130 rows: 48 + 48 + 34, and 49 rows: 48 + 1
    @pytest.mark.parametrize("N", [1, 7, 49, 60, 130, 1920])
    @pytest.mark.parametrize("L", [1, 5, 337])
    def test_bitwise_equal_to_four_tape_ops(self, B, C, N, L):
        rng = np.random.default_rng(B * 1000 + C * 100 + N + L)
        got = self.assert_same_bits(*self.leaves(rng, B, C, N, L))
        assert all(np.all(np.isfinite(v)) for v in got)

    @pytest.mark.parametrize("B, C, N, L", [(1, 1, 1, 1), (1, 8, 7, 5), (3, 8, 130, 337),
                                            (1, 64, 1920, 337)])
    def test_an_infinite_logit_gives_the_same_nans(self, B, C, N, L):
        rng = np.random.default_rng(12)
        (xs, q, a), g = self.leaves(rng, B, C, N, L)
        xs.data[:, 1, N - 1] = np.inf   # row N-1: +-inf logits, inf - inf = NaN
        with np.errstate(invalid="ignore"):
            got = self.assert_same_bits([xs, q, a], g)
        assert np.isnan(got[0]).any()

    def test_gradcheck(self, monkeypatch):
        monkeypatch.setattr(ops, "_CHUNK", 16)   # 3 rows of L = 5 per chunk
        rng = np.random.default_rng(14)
        xs = Tensor(rng.normal(size=(2, 4, 70)), requires_grad=True)
        q = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        a = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        r = grad_check(lambda x_, q_, a_: attention._attend(x_.transpose(0, 2, 1), q_, a_),
                       [xs, q, a], name="attend")
        assert r.passed, str(r)


class TestBlockedProduct:
    """`_attend`'s backward forms a^T g one softmax row chunk at a time
    (`_at_g_rows`). Every block must carry the bits of the whole product's
    rows, or the gradients drift from the four-op tape's; a BLAS whose
    products depend on the blocking fails here by name."""

    @staticmethod
    def blocks_seen(monkeypatch):
        """Spy on `_at_g_rows`: each block is checked bitwise against the
        whole product as `_attend` calls it; returns the list of row slices."""
        seen, blocked = [], attention._at_g_rows

        def spy(at, g, rows):
            got = blocked(at, g, rows)
            want = (at @ g).T[rows]
            assert got.shape == want.shape, rows
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), rows
            seen.append(rows)
            return got

        monkeypatch.setattr(attention, "_at_g_rows", spy)
        return seen

    @staticmethod
    def chunk_starts(B, N, L):
        return [r for _ in range(B) for r in range(0, N, max(1, ops._CHUNK // L))]

    def test_every_block_bitwise_on_the_oracle_graph(self, monkeypatch):
        seen = self.blocks_seen(monkeypatch)
        _, out, g = attention_block_graph()
        out.backward(g)
        _, _, H, W = out.shape
        assert [r.start for r in seen] == self.chunk_starts(1, H * W, 337)

    @pytest.mark.parametrize("B, C, N", [(1, 64, 1920), (2, 8, 49)],
                             ids=["block-workload", "one-row-tail"])
    def test_every_block_bitwise_in_attend_at(self, B, C, N, monkeypatch):
        seen = self.blocks_seen(monkeypatch)
        (xs, q, a), g = TestAttendOp.leaves(np.random.default_rng(N), B, C, N, 337)
        attention._attend(xs.transpose(0, 2, 1), q, a).backward(g)
        assert [r.start for r in seen] == self.chunk_starts(B, N, 337)


class TestAnabParams:
    def test_init_draws_in_projection_order(self):
        # query, key, value and out W blocks, then the attention conv, each
        # bitwise one N(0, 1/C) draw; every bias zero
        C, seed = 5, 12
        params = AnabParams.init_random(C, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want = [rng.normal(0.0, 1.0 / np.sqrt(C), (C, C)) for _ in range(4)]
        attn = rng.normal(0.0, 1.0 / np.sqrt(C), (1, C, 1, 1))
        for affine, w in zip((params.query, params.key, params.value), want):
            assert affine.shape == (C, C + 1)
            assert affine.data[:, :C].tobytes() == w.tobytes()
            assert not affine.data[:, C].any()
        assert params.out_weight.data.tobytes() == want[3].tobytes()
        assert params.out_bias.shape == (C, 1, 1) and not params.out_bias.data.any()
        assert params.attention.weight.data.tobytes() == attn.tobytes()
        assert not params.attention.bias.data.any()
        assert all(p.requires_grad for p in params.params())


def conv1x1(weight, bias):
    """A (C, C) weight and a C-element bias as the 1x1 conv they stand for, on the tape."""
    C = weight.shape[0]
    return ConvSpec(C, C, (1, 1), weight=weight.reshape(C, C, 1, 1), bias=bias.reshape(C))


def project_then_pool(x, params):
    """The block before the projections were folded: full-resolution 1x1
    query/key/value convs, keys and values pooled separately, the output
    conv on the attended map."""
    B, C, H, W = x.shape
    attn = attention_map(x, params.attention)
    q, k, v = (conv2d(x, conv1x1(a[:, :C], a[:, C])) for a in (params.query, params.key, params.value))
    outs = []
    for b in range(B):
        m_q = q[b].reshape(C, H * W).T
        m_k = pa2_pool(k[b:b + 1], attn[b:b + 1], params.pyramid)[0]
        m_v = pa2_pool(v[b:b + 1], attn[b:b + 1], params.pyramid)[0]
        m_out = softmax_lastdim(m_q @ m_k.T) @ m_v
        outs.append(m_out.T.reshape(1, C, H, W))
    return conv2d(Tensor.concat(outs, axis=0), conv1x1(params.out_weight, params.out_bias)) + x


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
    def test_matches_project_then_pool(self, B, hw, levels, eps, residual, monkeypatch):
        rng = np.random.default_rng(B * 1000 + 10 * hw[0] + hw[1])
        C = 5
        monkeypatch.setattr(attention, "EPSILON", eps)
        params = AnabParams.init_random(C, pyramid=PyramidSpec(levels), rng=rng)
        randomize_biases(params, rng)
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
        assert len(results[0]) == 9  # output, x, and the 7 parameters
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
