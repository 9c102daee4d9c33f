"""Dense f64 tensor with reverse-mode autodiff.

Everything is float64 and single-threaded by design: the point of this core
is that gradients can be checked against finite differences, not throughput.
The tape is a plain list of (parent, closure) edges per node; backward() does
a topological sort and replays it. No graph rewriting, no fusion.

backward() consumes the graph it sweeps, as PyTorch does by default
(`retain_graph=False`): each node's closure and parent links are dropped as
the sweep passes it, so the buffers the closures hold (conv columns,
attention maps) are freed during the sweep even while the caller still holds
the output. A second backward() that reaches a swept node raises
RuntimeError; build the graph again instead.

An op whose backward hands each input its own gradient builds its node with
`Tensor._op`, the one place where adopt-or-copy is decided for such ops: an
op whose gradients are new arrays (a product, a matmul product) passes
`adopt=True`, and the input's first write adopts that array rather than
copying it; a pass-through or view gradient (a sum, a reshape, a transpose, a
concat's slices), which another holder may still read, is copied. Only the
layout a copy would have (C-contiguous float64 of the input's shape) is
adopted, so the bits of every gradient stay those of the copy. The ops whose
backwards interleave work between inputs (indexing, the convolutions,
softmax, the attention product) register their closures with
`Tensor.from_op` and decide per write.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter

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


def _consumed(g):
    """The backward closure of a node whose graph backward() has swept."""
    raise RuntimeError("backward through a graph that backward() has already consumed")


def _basic_index(idx):
    """Whether `idx` selects by basic indexing only (a view, no repeats)."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def _identity(g):
    """The gradient of a pass-through input: the upstream one itself."""
    return g


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

    @staticmethod
    def _op(data, parents, grads, adopt=False):
        """The node of an op whose backward hands `parents[i]` the gradient
        `grads[i](g)` of the upstream `g`, in input order, for each input
        that requires one.

        The one place where such an op's hand-off is decided: with
        `adopt=True` every `grads[i]` makes a new array that nothing else
        holds (a product, a quotient, a matmul product), which the input's
        first write adopts (`accumulate_grad(..., fresh=True)`); by default
        it may return `g` itself or a view of it, which the input copies.
        """
        if not _recording:   # under no_grad, build no backward closure
            return Tensor(data)

        def backward(g):
            for t, grad in zip(parents, grads):
                if t.requires_grad:
                    t.accumulate_grad(grad(g), fresh=adopt)

        return Tensor.from_op(data, parents, backward)

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
        """The one element of a size-1 tensor, of any shape, as a Python float."""
        if self.data.size != 1:
            raise ValueError(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g, *, fresh=False):
        """Add `g` to this tensor's gradient, summing broadcast axes away.

        The first write stores zeros + g bitwise (a -0.0 reads +0.0). By
        default it goes into a new array, so the gradient never aliases the
        caller's `g`. With `fresh=True`, for a `g` that the caller made and
        keeps no reference to, the gradient adopts `g`, zeroing its -0.0 in
        place, and no second copy of it exists. `Tensor._op` is the one place
        that decides this for the ops it builds; the closures that pass
        `fresh=True` themselves are `conv2d`'s (its weight and bias sums),
        `align_conv`'s (its input and offset gradients), `softmax_lastdim`'s
        (its `t`) and `attention._attend`'s (every input's). A pass-through
        `g`, the backward seed and views, which another holder may still
        read, keep the default and are copied. Only a writeable, C-contiguous
        float64 array of exactly this tensor's shape is adopted; any other
        `g` (a transposed or strided view, a broadcast) is copied, so the
        gradient's layout, and the summation order of every later op that
        reads it, is that of the copy.
        """
        g = np.asarray(g, dtype=np.float64)
        adopt = (fresh and self.grad is None and g.shape == self.data.shape
                 and g.flags.c_contiguous and g.flags.writeable)
        g = _unbroadcast(g, self.data.shape)
        if self.grad is not None:
            self.grad += g
        else:
            self.grad = np.add(0.0, g, out=g if adopt else np.empty(self.data.shape))

    # -- autodiff -------------------------------------------------------------

    def backward(self, grad=None):
        """Reverse-mode sweep from this node. `grad` defaults to ones and must
        have this node's shape (else ValueError).

        The sweep consumes the graph: once a node's closure has run (or no
        gradient reached it), the closure and the node's parent links are
        dropped, so the arrays they hold are freed as the sweep passes. An
        interior node's gradient is freed too; leaves and this node keep
        theirs. A later backward() that reaches a consumed node, from this
        node again or from a new graph built on one of its interior nodes,
        raises RuntimeError before any gradient changes.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ValueError(f"backward seed has shape {np.shape(grad)}, "
                             f"the output has shape {self.data.shape}")
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
                    if cur._backward is _consumed:
                        raise RuntimeError(
                            "backward() reached a node whose graph an earlier "
                            "backward() consumed; build the graph again")
                    topo.append(cur)
                    stack.pop()

        visit(self)
        self.accumulate_grad(grad)
        while topo:
            node = topo.pop()   # the list holds no swept node
            if node._backward is None:
                continue        # a leaf
            if node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None
            node._backward, node._parents = _consumed, ()

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(x):
        """`x` itself if it is a Tensor, else `x` as a constant leaf: the tape's one coercion."""
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._coerce(other)
        return Tensor._op(self.data + other.data, (self, other), (_identity, _identity))

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return Tensor._op(self.data * other.data, (self, other),
                          (lambda g: g * other.data, lambda g: g * self.data), adopt=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return Tensor._op(self.data / other.data, (self, other),
                          (lambda g: g / other.data, lambda g: -g * self.data / other.data ** 2),
                          adopt=True)

    # -- elementwise functions -----------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return Tensor._op(out_data, (self,), (lambda g: g * out_data,), adopt=True)

    def log(self):
        return Tensor._op(np.log(self.data), (self,), (lambda g: g / self.data,), adopt=True)

    def sigmoid(self):
        with np.errstate(over="ignore"):  # exp(-x) is inf below x ~ -709, where 0.0 is right
            out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._op(out_data, (self,), (lambda g: g * out_data * (1.0 - out_data),), adopt=True)

    def relu(self):
        return Tensor._op(np.maximum(self.data, 0.0), (self,),
                          (lambda g: g * (self.data > 0.0),), adopt=True)

    def maximum(self, other):
        """Elementwise max; at ties the gradient goes to `self` (subgradient)."""
        return self._select(other, np.greater_equal)

    def minimum(self, other):
        """Elementwise min; at ties the gradient goes to `self` (subgradient)."""
        return self._select(other, np.less_equal)

    def _select(self, other, keep_self):
        """`self` where `keep_self(self, other)` holds, else `other`."""
        other = self._coerce(other)
        take_self = keep_self(self.data, other.data)
        return Tensor._op(np.where(take_self, self.data, other.data), (self, other),
                          (lambda g: g * take_self, lambda g: g * ~take_self), adopt=True)

    def abs(self):
        sign = np.where(self.data >= 0.0, 1.0, -1.0)
        return Tensor._op(np.abs(self.data), (self,), (lambda g: g * sign,), adopt=True)

    # -- reductions / shaping -------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def grad(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)

        return Tensor._op(self.data.sum(axis=axis, keepdims=keepdims), (self,), (grad,))

    def reshape(self, *shape):
        return Tensor._op(self.data.reshape(shape), (self,), (lambda g: g.reshape(self.data.shape),))

    def transpose(self, *axes):
        """The axes permuted as numpy's `transpose` takes them: as separate
        ints, as one tuple or list, or none (or None) to reverse them."""
        if len(axes) == 1 and (axes[0] is None or isinstance(axes[0], (tuple, list))):
            axes = axes[0] or ()
        data = self.data.transpose(tuple(axes) or None)
        inv = np.argsort(np.mod(axes, self.ndim)) if axes else None   # None reverses the axes
        return Tensor._op(data, (self,), (lambda g: g.transpose(inv),))

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        """`self.data[idx]` on the tape. The backward adds into the input's
        gradient at `idx` only (`np.add.at` for advanced indices, which may
        repeat), so a per-item loop over a batch stays linear in its size."""
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
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        lead = (slice(None),) * (axis % out_data.ndim)
        bounds = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        parts = [itemgetter(lead + (slice(lo, hi),)) for lo, hi in zip(bounds, bounds[1:])]
        return Tensor._op(out_data, tuple(tensors), parts)

    # -- linear algebra -------------------------------------------------------

    def matmul(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ValueError(
                f"matmul inner dimensions differ: {a.shape} @ {b.shape}"
            )
        # stacked operands broadcast; accumulate_grad sums the batch axes away
        return Tensor._op(a @ b, (self, other),
                          (lambda g: g @ b.swapaxes(-1, -2), lambda g: a.swapaxes(-1, -2) @ g),
                          adopt=True)

    __matmul__ = matmul

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.grad is not None else 'no'})"

