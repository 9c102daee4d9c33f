import numpy as np
import pytest

from mono3d.gradcheck import grad_check
from mono3d.ops import ConvSpec, conv2d
from mono3d.tensor import Tensor, no_grad


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


def test_broadcast_backward():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (x + b).sum().backward()
    assert b.grad.shape == (3,)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


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


def test_pow_rejects_non_scalar_exponent():
    with pytest.raises(TypeError, match="exponent"):
        Tensor(np.ones(3)) ** np.array([1.0, 2.0, 3.0])
