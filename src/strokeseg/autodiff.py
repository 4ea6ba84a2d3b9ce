"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough machinery for layer-normalized LSTMs, mixture-density output
heads and small MLPs: broadcasting arithmetic, matmul, a few activations,
reductions, slicing and concatenation. Non-Tensor operands (floats,
ndarrays) are treated as constants, so masks and data batches never grow
the tape. Everything runs in float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "as_tensor", "concat", "logsumexp", "log_softmax"]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An ndarray with an optional gradient tape behind it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accum(self, g: np.ndarray) -> None:
        # Copy on first write: `g` may alias a buffer shared with siblings.
        if self.grad is None:
            self.grad = np.array(g, copy=True)
        else:
            self.grad += g

    def _track(self, parents, backward) -> "Tensor":
        if any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._parents = parents
            self._backward = backward
        return self

    def backward(self, grad=None) -> None:
        """Backpropagate from this node; leaf gradients land in `.grad`."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float64).reshape(self.data.shape)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- arithmetic ----

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return out._track((self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data)

        def bw(g):
            if self.requires_grad:
                self._accum(-g)

        return out._track((self,), bw)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return out._track((self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / (other.data * other.data),
                                          other.data.shape))

        return out._track((self, other), bw)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data ** exponent)

        def bw(g):
            if self.requires_grad:
                self._accum(g * exponent * self.data ** (exponent - 1))

        return out._track((self,), bw)

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)

        return out._track((self, other), bw)

    # ---- elementwise functions ----

    def exp(self):
        # Backward closures capture out.data, not out: out -> _backward -> out
        # would be a reference cycle that keeps the tape alive until the
        # cyclic collector runs.
        value = np.exp(self.data)
        out = Tensor(value)

        def bw(g):
            if self.requires_grad:
                self._accum(g * value)

        return out._track((self,), bw)

    def log(self):
        out = Tensor(np.log(self.data))

        def bw(g):
            if self.requires_grad:
                self._accum(g / self.data)

        return out._track((self,), bw)

    def tanh(self):
        value = np.tanh(self.data)
        out = Tensor(value)

        def bw(g):
            if self.requires_grad:
                self._accum(g * (1.0 - value * value))

        return out._track((self,), bw)

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0))

        def bw(g):
            if self.requires_grad:
                self._accum(g * (self.data > 0.0))

        return out._track((self,), bw)

    # ---- reductions and shape ----

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))

        def bw(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accum(np.broadcast_to(g, self.data.shape))
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(gg, self.data.shape))

        return out._track((self,), bw)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape))

        def bw(g):
            if self.requires_grad:
                self._accum(g.reshape(self.data.shape))

        return out._track((self,), bw)

    def __getitem__(self, idx):
        out = Tensor(self.data[idx])

        def bw(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[idx] = g
                self._accum(full)

        return out._track((self,), bw)

    def item(self) -> float:
        return float(self.data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accum(g[tuple(index)])

    return out._track(tuple(tensors), bw)


def logsumexp(t: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max-shifted log-sum-exp; the shift is a constant, so gradients are exact."""
    t = as_tensor(t)
    m = np.max(t.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = (t - m).exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        out = out.reshape(tuple(d for i, d in enumerate(out.shape) if i != (axis % out.data.ndim)))
    return out


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    return as_tensor(t) - logsumexp(t, axis=axis, keepdims=True)
