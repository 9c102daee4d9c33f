import re
import tracemalloc

import numpy as np
import pytest

from mono3d.align import align_conv, shape_align_offsets
from mono3d.attention import AnabParams, PyramidSpec, anab_forward
from mono3d.gradcheck import grad_check
from mono3d.ops import ConvSpec, conv2d
from mono3d.tensor import Tensor, no_grad
from mono3d.train import make_synthetic_scenes, train_toy
from oracles import attention_block_graph, attention_block_maps


def test_elementwise_grads():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    for name, f in [
        ("add", lambda a, b: a + b),
        ("mul", lambda a, b: a * b),
        ("div", lambda a, b: a / (b * b + 1.0)),
        ("sub", lambda a, b: a - 2.0 * b),
        ("sigmoid", lambda a, b: a.sigmoid() + b.sigmoid()),
        ("exp", lambda a, b: (a * 0.3).exp() + b),
        ("matmul", lambda a, b: a @ b.T),
        ("maxmin", lambda a, b: a.maximum(b) + a.minimum(b * 0.5)),
    ]:
        r = grad_check(f, [x, y], name=name)
        assert r.passed, str(r)
    # stacked operands: the broadcast operand's gradient sums over the batch
    for name, shapes in [("matmul 3-D @ 2-D", ((2, 3, 4), (4, 5))),
                         ("matmul 2-D @ 3-D", ((3, 4), (2, 4, 5)))]:
        a, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in shapes)
        r = grad_check(lambda p, q: p @ q, [a, b], name=name)
        assert r.passed, str(r)
    # a kept size-1 axis, as a (B, 1, H, W) attention map against (B, C, H, W)
    # features: the size-1 operand's gradient sums over that axis
    for name, f, shapes in [
        ("mul (B, C, H, W) * (B, 1, H, W)", lambda p, q: p * q, ((2, 3, 4, 5), (2, 1, 4, 5))),
        ("mul (B, 1, H, W) * (B, C, H, W)", lambda p, q: p * q, ((2, 1, 4, 5), (2, 3, 4, 5))),
        ("div (B, C, H, W) / (B, 1, H, W)", lambda p, q: p / (q * q + 1.0), ((2, 3, 4, 5), (2, 1, 4, 5))),
        ("div (B, 1, H, W) / (B, C, H, W)", lambda p, q: p / (q * q + 1.0), ((2, 1, 4, 5), (2, 3, 4, 5))),
    ]:
        a, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in shapes)
        r = grad_check(f, [a, b], name=name)
        assert r.passed, str(r)


def test_grad_check_perturbs_a_non_contiguous_leaf():
    # a transposed leaf: reshaping its data gives a copy, so a check that
    # perturbed that copy saw a zero finite difference on a correct op
    x = Tensor(np.arange(6.0).reshape(2, 3).T, requires_grad=True)
    r = grad_check(lambda a: a * 2.0, [x], name="scale")
    assert r.passed and r.max_rel_err < 1e-9, str(r)
    assert np.array_equal(x.data, np.arange(6.0).reshape(2, 3).T)


def test_broadcast_backward():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (x + b).sum().backward()
    assert b.grad.shape == (3,)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


class TestItem:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1, 1)])
    def test_any_one_element_tensor(self, shape):
        got = Tensor(np.full(shape, 3.0)).item()
        assert type(got) is float and got == 3.0

    @pytest.mark.parametrize("shape", [(2,), (0,), (1, 3)])
    def test_rejects_other_sizes_naming_the_shape(self, shape):
        with pytest.raises(ValueError, match=rf"one-element tensor, got shape {re.escape(str(shape))}"):
            Tensor(np.zeros(shape)).item()


def test_reused_node_accumulates():
    x = Tensor(2.0, requires_grad=True)
    y = x * x + x * 3.0
    y.backward()
    assert x.grad == pytest.approx(2 * 2.0 + 3.0)


class TestInteriorGradientsFreed:
    """`backward` frees an interior node's gradient once its closure has run;
    leaves and the root keep theirs, and the leaf gradients do not change."""

    @staticmethod
    def graph():
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 2, 6, 7)), requires_grad=True)
        spec = ConvSpec.init_random(2, 3, (3, 3), 1, 1, rng=rng)
        h = conv2d(x, spec).relu()
        loss = (h * h.sigmoid() + h * 0.5).sum()   # h feeds three ops
        return [x] + spec.params(), h, loss

    @staticmethod
    def backward_keeping_gradients(root):
        """The sweep without freeing: the same topological order, every node
        keeps its gradient."""
        topo, seen = [], {id(root)}
        stack = [(root, iter(root._parents))]
        while stack:
            cur, it = stack[-1]
            for p in it:
                if id(p) not in seen and p.requires_grad:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                topo.append(cur)
                stack.pop()
        root.accumulate_grad(np.ones_like(root.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def test_leaf_gradients_bitwise_unchanged(self):
        leaves, h, loss = self.graph()
        loss.backward()
        ref_leaves, ref_h, ref_loss = self.graph()
        self.backward_keeping_gradients(ref_loss)
        assert ref_h.grad is not None
        for got, want in zip(leaves, ref_leaves):
            assert np.array_equal(got.grad, want.grad)

    def test_interior_gradient_freed_root_kept(self):
        leaves, h, loss = self.graph()
        loss.backward()
        assert h.grad is None
        assert loss.grad == 1.0
        assert all(t.grad is not None for t in leaves)


class TestBackwardConsumesTheGraph:
    """`backward` drops each swept node's closure and parent links; a later
    sweep that reaches such a node raises before any gradient changes."""

    def test_second_backward_from_the_same_root_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        y = (a * 3.0).sum()
        y.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            y.backward()
        np.testing.assert_array_equal(a.grad, [3.0, 3.0, 3.0])
        assert y.grad == 1.0

    def test_new_graph_on_a_consumed_interior_node_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        h = a * 3.0
        h.sum().backward()
        z = (b * 2.0 + h).sum()
        with pytest.raises(RuntimeError, match="consumed"):
            z.backward()
        np.testing.assert_array_equal(a.grad, [3.0, 3.0, 3.0])
        assert b.grad is None and z.grad is None

    def test_swept_nodes_hold_no_parents(self):
        leaves, h, loss = TestInteriorGradientsFreed.graph()
        loss.backward()
        assert h._parents == () and loss._parents == ()

    def test_leaves_feed_a_new_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 3.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [5.0, 5.0, 5.0])

    def test_releases_the_closures_while_the_output_is_held(self):
        # shape-aligned conv, then the attention block; after out.backward(g)
        # with `out` still held, only out's data and gradient and the leaf
        # gradients remain: not the conv columns, nor the attention maps
        rng = np.random.default_rng(0)
        C, H, W = 16, 12, 20
        x = Tensor(rng.normal(size=(1, C, H, W)), requires_grad=True)
        spec = ConvSpec.init_random(C, C, (3, 3), 1, 1, rng=rng)
        anab = AnabParams.init_random(C, PyramidSpec([1, 2, 4]), rng=rng)
        off = shape_align_offsets(rng.uniform(8.0, 64.0, size=(H, W, 2)), 8, (3, 3))
        g = rng.normal(size=(1, C, H, W))
        leaves = [x] + spec.params() + anab.params()

        def forward_backward():
            out = anab_forward(align_conv(x, spec, off), anab)
            out.backward(g)
            return out

        forward_backward()   # warm any first-call allocation
        for p in leaves:
            p.zero_grad()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = forward_backward()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = out.data.nbytes + out.grad.nbytes + sum(p.grad.nbytes for p in leaves)
        assert retained <= kept + 16 * 1024, (retained, kept)


class TestBackwardSeed:
    def test_seed_of_another_shape_is_rejected(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        y = a * 2.0
        with pytest.raises(ValueError, match=r"\(4, 2, 3\).*\(2, 3\)"):
            y.backward(np.ones((4, 2, 3)))
        with pytest.raises(ValueError, match=r"\(3,\).*\(2, 3\)"):
            y.backward(np.ones(3))
        assert a.grad is None and y.grad is None
        y.backward(np.ones((2, 3)))   # a rejected seed consumes nothing
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))


class TestAccumulateGrad:
    def test_first_negative_zero_reads_positive_zero(self):
        t = Tensor(np.ones(3), requires_grad=True)
        t.accumulate_grad(np.array([-0.0, 1.0, -0.0]))
        assert not np.signbit(t.grad).any()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])

    def test_zero_d_gradient_stays_an_ndarray(self):
        t = Tensor(2.0, requires_grad=True)
        t.accumulate_grad(np.float64(3.0))
        assert isinstance(t.grad, np.ndarray) and t.grad.shape == ()
        t.accumulate_grad(1.5)
        assert isinstance(t.grad, np.ndarray) and t.grad == 4.5

    def test_does_not_alias_the_callers_array(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        g = np.ones((2, 2))
        t.accumulate_grad(g)
        g[0, 0] = 7.0
        np.testing.assert_array_equal(t.grad, np.ones((2, 2)))
        t.accumulate_grad(g)
        g[:] = 0.0
        np.testing.assert_array_equal(t.grad, [[8.0, 2.0], [2.0, 2.0]])

    def test_broadcast_gradient_sums_down(self):
        t = Tensor(np.zeros((1, 3)), requires_grad=True)
        t.accumulate_grad(np.arange(12.0).reshape(4, 1, 3))
        np.testing.assert_array_equal(t.grad, [[18.0, 22.0, 26.0]])
        assert t.grad.shape == (1, 3)

    def test_fresh_first_write_adopts_the_callers_array(self):
        t = Tensor(np.ones(3), requires_grad=True)
        g = np.array([-0.0, 1.0, -0.0])
        t.accumulate_grad(g, fresh=True)
        assert t.grad is g
        assert not np.signbit(g).any()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])
        t.accumulate_grad(np.ones(3), fresh=True)   # a later write adds into it
        assert t.grad is g
        np.testing.assert_array_equal(g, [1.0, 2.0, 1.0])

    @staticmethod
    def fresh_array(layout):
        g = np.array([[-0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        if layout == "non_contiguous":
            return g.T
        if layout == "read_only":
            g.flags.writeable = False
            return g
        return g.ravel()   # the wrong shape, which the unbroadcast reshapes to fit

    @pytest.mark.parametrize("layout, shape", [
        ("non_contiguous", (3, 2)), ("read_only", (2, 3)), ("wrong_shape", (2, 3))])
    def test_fresh_array_of_another_layout_is_copied(self, layout, shape):
        t = Tensor(np.zeros(shape), requires_grad=True)
        g = self.fresh_array(layout)
        t.accumulate_grad(g, fresh=True)
        assert not np.shares_memory(t.grad, g)
        assert t.grad.flags.c_contiguous and t.grad.shape == shape
        assert np.signbit(g.ravel()[0]) and not np.signbit(t.grad).any()
        np.testing.assert_array_equal(t.grad, np.reshape(g, shape))

    def test_sum_parents_get_independent_gradients(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).backward(np.array([1.0, 2.0, 3.0]))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad[0] = 9.0
        np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])

    def test_backward_leaves_the_seed_unchanged(self):
        a = Tensor(np.ones(3), requires_grad=True)
        y = a * 2.0
        seed = np.array([-0.0, 1.0, -0.0])
        y.backward(seed)
        assert np.signbit(seed).tolist() == [True, False, True]
        assert not np.shares_memory(y.grad, seed)
        np.testing.assert_array_equal(a.grad, [0.0, 2.0, 0.0])


class TestFreshGradients:
    """Closures hand the gradients they make to their inputs: the attention
    block's backward holds fewer N x L maps, and every gradient keeps the bits
    the always-copy path gives."""

    def test_attention_backward_transient_at_most_one_and_a_quarter_maps(self):
        # 1.16 maps: a^T g, while the softmax backward writes over P's buffer;
        # the always-copy four-op tape read 3.0, with fresh gradients 2.04
        _, transient = attention_block_maps()
        assert transient <= 1.25, transient

    def test_attention_forward_holds_at_most_1_85_maps(self):
        # 1.76 maps: the product keeps only P, where the four-op tape kept the
        # scores too and read 2.76
        held, _ = attention_block_maps()
        assert held <= 1.85, held

    @staticmethod
    def gradients_both_ways(monkeypatch, run):
        """run()'s gradients, then those of run() with every gradient copied."""
        got = run()
        copy = Tensor.accumulate_grad
        monkeypatch.setattr(Tensor, "accumulate_grad",
                            lambda self, g, *, fresh=False: copy(self, g))
        return got, run()

    @staticmethod
    def assert_same_bits(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_toy_train_step_gradients_bitwise_equal_to_copying(self, monkeypatch):
        def run():
            _, model = train_toy(make_synthetic_scenes(count=4, seed=3), steps=1, seed=0)
            return [p.grad for p in model.params()]

        self.assert_same_bits(*self.gradients_both_ways(monkeypatch, run))

    def test_attention_block_gradients_bitwise_equal_to_copying(self, monkeypatch):
        def run():
            leaves, out, g = attention_block_graph()
            out.backward(g)
            return [p.grad for p in leaves]

        self.assert_same_bits(*self.gradients_both_ways(monkeypatch, run))


def test_getitem_scatter():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    idx = np.array([0, 0, 2])
    y = x[idx]
    y.sum().backward()
    expect = np.zeros((3, 4))
    expect[0] = 2.0
    expect[2] = 1.0
    np.testing.assert_array_equal(x.grad, expect)


class TestGetitemBackward:
    """The slice backward adds into the input's gradient at the index only."""

    @staticmethod
    def whole_input_scatter(shape, idx, g, grad=None):
        """The backward as it was: np.add.at into zeros of the whole input, then accumulate."""
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        t = Tensor(np.zeros(shape))
        t.grad = None if grad is None else grad.copy()
        t.accumulate_grad(full)
        return t.grad

    @staticmethod
    def backward(x, idx, g, grad=None):
        t = Tensor(x, requires_grad=True)
        t.grad = None if grad is None else grad.copy()
        t[idx].backward(g)
        return t.grad

    REPEATS = (np.array([0, 2, 0, 0, 1]), np.array([3, 1, 3, 3, 0]))
    INDICES = {
        "int": 1,
        "slice": (slice(None), slice(1, 3)),
        "strided": (slice(2, None, -2), 0),
        "advanced with repeats": REPEATS,
        "advanced with a slice": (np.array([2, 0]), slice(None), np.array([1, 1])),
    }

    @pytest.mark.parametrize("name", list(INDICES))
    @pytest.mark.parametrize("existing", [False, True])
    def test_bitwise_against_whole_input_scatter(self, name, existing):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4, 2))
        idx = self.INDICES[name]
        g = rng.normal(size=x[idx].shape)
        grad = rng.normal(size=x.shape) if existing else None
        if existing and name == "advanced with repeats":
            # repeats now add one after another into the existing gradient,
            # (grad + g1) + g2 rather than grad + (g1 + g2): equal bitwise
            # where those sums are exact, as for these multiples of 1/8
            g = rng.integers(-16, 17, size=g.shape) / 8.0
            grad = rng.integers(-16, 17, size=grad.shape) / 8.0
        got = self.backward(x, idx, g, grad)
        want = self.whole_input_scatter(x.shape, idx, g, grad)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_repeats_add_in_order_into_an_existing_gradient(self):
        rng = np.random.default_rng(4)
        grad = rng.normal(size=(3, 4, 2))
        g = rng.normal(size=(5, 2))
        got = self.backward(np.zeros((3, 4, 2)), self.REPEATS, g, grad)
        want = grad.copy()
        for k, (i, j) in enumerate(zip(*self.REPEATS)):
            want[i, j] += g[k]
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got, self.whole_input_scatter((3, 4, 2), self.REPEATS, g, grad),
                                   rtol=1e-15, atol=1e-15)

    def test_untouched_negative_zero_stays(self):
        grad = np.array([-0.0, 1.0, -0.0])
        got = self.backward(np.zeros(3), slice(1, 2), np.array([2.0]), grad)
        np.testing.assert_array_equal(got, [0.0, 3.0, 0.0])
        assert np.signbit(got[[0, 2]]).all()

    def test_fresh_gradient_reads_positive_zero(self):
        got = self.backward(np.zeros(3), 1, np.array(-0.0))
        assert not np.signbit(got).any()


class TestNoGrad:
    def test_records_no_tape(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        spec = ConvSpec.init_random(2, 3, (3, 3), 1, 1, rng=rng)
        with no_grad():
            y = (conv2d(x, spec) * 2.0).sum()
        assert not y.requires_grad and y._backward is None and y._parents == ()
        z = conv2d(x, spec).sum()  # recording resumes after the block
        assert z.requires_grad
        with no_grad():
            assert np.array_equal(y.data, (conv2d(x, spec) * 2.0).sum().data)

    def test_nests_and_restores_after_an_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not (x * 2.0).requires_grad
                raise RuntimeError
        assert (x * 2.0).requires_grad


def test_matmul_shape_error():
    with pytest.raises(ValueError, match="inner dimensions"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))
