import numpy as np
import pytest

from mono3d.gradcheck import grad_check
from mono3d.tensor import Tensor, dump_text, load_tensor, save_tensor


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


def test_matmul_shape_error():
    with pytest.raises(ValueError, match="inner dimensions"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    t = Tensor(rng.normal(size=(2, 3, 4, 5)))
    path = tmp_path / "t.m3tn"
    save_tensor(t, path)
    back = load_tensor(path)
    np.testing.assert_array_equal(back.data, t.data)
    with open(path, "rb") as f:
        assert f.read(4) == b"M3TN"


def test_serialization_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_tensor(path)


@pytest.mark.parametrize("cut", [4 + 7, 4 + 16 + 8 * 5])
def test_serialization_rejects_truncated_file(tmp_path, cut):
    # cut inside the shape header, then inside the payload
    path = tmp_path / "t.m3tn"
    save_tensor(Tensor(np.ones((1, 2, 3, 4))), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="t.m3tn"):
        load_tensor(path)


def test_pow_rejects_non_scalar_exponent():
    with pytest.raises(TypeError, match="exponent"):
        Tensor(np.ones(3)) ** np.array([1.0, 2.0, 3.0])


def test_serialization_requires_4d(tmp_path):
    with pytest.raises(ValueError, match="4-D"):
        save_tensor(Tensor(np.ones((2, 2))), tmp_path / "x.m3tn")


def test_text_dump(tmp_path):
    path = tmp_path / "t.txt"
    dump_text(Tensor(np.arange(6.0).reshape(1, 1, 2, 3)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "shape 1 1 2 3"
    assert [float(v) for v in lines[1].split()] == [0.0, 1.0, 2.0]
