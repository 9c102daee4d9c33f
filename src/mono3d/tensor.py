"""Dense f64 tensor with reverse-mode autodiff.

Everything is float64 and single-threaded by design: the point of this core
is that gradients can be checked against finite differences, not throughput.
The tape is a plain list of (parent, closure) edges per node; backward() does
a topological sort and replays it. No graph rewriting, no fusion.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["Tensor", "no_grad"]

_recording = True  # False inside `no_grad`


@contextmanager
def no_grad():
    """Record no tape inside the block: every op's result is a plain leaf.

    An op's backward closure is dropped at once, so nothing it holds (conv
    columns, bilinear slopes) outlives the call. For inference paths.
    """
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _basic_index(idx):
    """Whether `idx` selects by basic indexing only (a view, no repeats)."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    # leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Numpy-backed value with a gradient plane and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(data, parents, backward):
        out = Tensor(data)
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        g = _unbroadcast(np.asarray(g, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # a fresh array equal to zeros + g bitwise (a -0.0 reads +0.0), never g itself
            self.grad = np.add(0.0, g, out=np.empty(self.data.shape))
        else:
            self.grad += g

    # -- autodiff -------------------------------------------------------------

    def backward(self, grad=None):
        """Reverse-mode sweep from this node. `grad` defaults to ones.

        An interior node's gradient is freed once its backward closure has
        run; leaves and this node keep theirs.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo, seen = [], set()

        def visit(node):
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                cur, it = stack[-1]
                advanced = False
                for p in it:
                    if id(p) not in seen and p.requires_grad:
                        seen.add(id(p))
                        stack.append((p, iter(p._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(cur)
                    stack.pop()

        visit(self)
        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def bw(g):
            if self.requires_grad:
                self.accumulate_grad(g)
            if other.requires_grad:
                other.accumulate_grad(g)

        return Tensor.from_op(out_data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def bw(g):
            if self.requires_grad:
                self.accumulate_grad(g * other.data)
            if other.requires_grad:
                other.accumulate_grad(g * self.data)

        return Tensor.from_op(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def bw(g):
            if self.requires_grad:
                self.accumulate_grad(g / other.data)
            if other.requires_grad:
                other.accumulate_grad(-g * self.data / other.data ** 2)

        return Tensor.from_op(out_data, (self, other), bw)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError(f"exponent must be an int or float scalar, got {type(p).__name__}")
        out_data = self.data ** p

        def bw(g):
            self.accumulate_grad(g * p * self.data ** (p - 1))

        return Tensor.from_op(out_data, (self,), bw)

    # -- elementwise functions -----------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def bw(g):
            self.accumulate_grad(g * out_data)

        return Tensor.from_op(out_data, (self,), bw)

    def log(self):
        out_data = np.log(self.data)

        def bw(g):
            self.accumulate_grad(g / self.data)

        return Tensor.from_op(out_data, (self,), bw)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def bw(g):
            self.accumulate_grad(g * out_data * (1.0 - out_data))

        return Tensor.from_op(out_data, (self,), bw)

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def bw(g):
            self.accumulate_grad(g * (self.data > 0.0))

        return Tensor.from_op(out_data, (self,), bw)

    def maximum(self, other):
        """Elementwise max; at ties the gradient goes to `self` (subgradient)."""
        other = self._coerce(other)
        take_self = self.data >= other.data
        out_data = np.where(take_self, self.data, other.data)

        def bw(g):
            if self.requires_grad:
                self.accumulate_grad(g * take_self)
            if other.requires_grad:
                other.accumulate_grad(g * ~take_self)

        return Tensor.from_op(out_data, (self, other), bw)

    def minimum(self, other):
        other = self._coerce(other)
        take_self = self.data <= other.data
        out_data = np.where(take_self, self.data, other.data)

        def bw(g):
            if self.requires_grad:
                self.accumulate_grad(g * take_self)
            if other.requires_grad:
                other.accumulate_grad(g * ~take_self)

        return Tensor.from_op(out_data, (self, other), bw)

    def abs(self):
        sign = np.where(self.data >= 0.0, 1.0, -1.0)
        out_data = np.abs(self.data)

        def bw(g):
            self.accumulate_grad(g * sign)

        return Tensor.from_op(out_data, (self,), bw)

    # -- reductions / shaping -------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.accumulate_grad(np.broadcast_to(g, self.data.shape))

        return Tensor.from_op(out_data, (self,), bw)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bw(g):
            self.accumulate_grad(np.asarray(g).reshape(self.data.shape))

        return Tensor.from_op(out_data, (self,), bw)

    def transpose(self, *axes):
        axes = axes or None
        out_data = self.data.transpose(axes) if axes else self.data.T
        inv = np.argsort(axes) if axes else None

        def bw(g):
            g = np.asarray(g)
            self.accumulate_grad(g.transpose(inv) if inv is not None else g.T)

        return Tensor.from_op(out_data, (self,), bw)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        out_data = self.data[idx]
        basic = _basic_index(idx)

        def bw(g):
            # straight into the gradient at idx, so a slice costs its own size
            if self.grad is None:
                self.grad = np.zeros(self.data.shape)
            if basic:
                self.grad[idx] += g
            else:  # advanced indices may repeat
                np.add.at(self.grad, idx, g)

        return Tensor.from_op(out_data, (self,), bw)

    @staticmethod
    def concat(tensors, axis=0):
        datas = [t.data for t in tensors]
        out_data = np.concatenate(datas, axis=axis)
        offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

        def bw(g):
            g = np.asarray(g)
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t.accumulate_grad(g[tuple(sl)])

        return Tensor.from_op(out_data, tuple(tensors), bw)

    # -- linear algebra -------------------------------------------------------

    def matmul(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ValueError(
                f"matmul inner dimensions differ: {a.shape} @ {b.shape}"
            )
        out_data = a @ b

        def bw(g):
            g = np.asarray(g)
            if self.requires_grad:
                self.accumulate_grad(g @ b.T)
            if other.requires_grad:
                other.accumulate_grad(a.T @ g)

        return Tensor.from_op(out_data, (self, other), bw)

    __matmul__ = matmul

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.grad is not None else 'no'})"

