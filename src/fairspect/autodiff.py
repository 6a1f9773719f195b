"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: every Tensor produced by an operation keeps its parents and a
closure routing the output gradient back to them. Only the handful of fused
operations the classifier needs are implemented, each with a hand-written
adjoint; their correctness is pinned by central-finite-difference tests
rather than by construction.

Everything runs in float64. Constants (graph data, eigenvector bases) enter
as Tensors with ``requires_grad=False`` and receive no gradient.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; every op lives in a module function below
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        """Accumulate gradients of this scalar into every reachable Tensor."""
        if self.data.size != 1:
            raise ValueError("backward() is defined for scalar outputs only")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._grad_fn is not None and node.grad is not None:
                node._grad_fn(node.grad)


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, grad_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _accumulate(t: Tensor, grad: np.ndarray):
    """Add ``grad`` into ``t.grad``.

    ``t.grad`` may become the very array passed in, so it can share memory
    with another tensor's gradient. That is safe because no gradient is ever
    mutated in place: every update here and in every consumer builds a new
    array.
    """
    if not t.requires_grad:
        return
    grad = _unbroadcast(grad, t.data.shape)
    t.grad = grad if t.grad is None else t.grad + grad


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def grad_fn(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def grad_fn(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), grad_fn)


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def grad_fn(g):
        # constants (P, H) are most operands; skip adjoints nobody receives
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), grad_fn)


def transpose(a) -> Tensor:
    a = _ensure(a)

    def grad_fn(g):
        _accumulate(a, g.T)

    return _make(a.data.T, (a,), grad_fn)


def concat_cols(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    split = a.data.shape[1]

    def grad_fn(g):
        _accumulate(a, g[:, :split])
        _accumulate(b, g[:, split:])

    return _make(np.concatenate([a.data, b.data], axis=1), (a, b), grad_fn)


def take_rows(a, indices) -> Tensor:
    a = _ensure(a)
    indices = np.asarray(indices, dtype=np.int64)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, indices, g)
        _accumulate(a, full)

    return _make(a.data[indices], (a,), grad_fn)


def relu(a) -> Tensor:
    a = _ensure(a)
    mask = a.data > 0

    def grad_fn(g):
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), grad_fn)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU: x * Phi(x)."""
    a = _ensure(a)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI

    def grad_fn(g):
        _accumulate(a, g * (cdf + a.data * pdf))

    return _make(a.data * cdf, (a,), grad_fn)


def softmax_rows(a) -> Tensor:
    a = _ensure(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    y = exp / exp.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        _accumulate(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _make(y, (a,), grad_fn)


def layer_norm_rows(a, eps: float = 1e-5) -> Tensor:
    """Normalise each row to zero mean, unit variance (population)."""
    a = _ensure(a)
    mean = a.data.mean(axis=-1, keepdims=True)
    var = ((a.data - mean) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mean) * inv

    def grad_fn(g):
        dx = inv * (
            g
            - g.mean(axis=-1, keepdims=True)
            - y * (g * y).mean(axis=-1, keepdims=True)
        )
        _accumulate(a, dx)

    return _make(y, (a,), grad_fn)


def mean_cross_entropy(logits, labels) -> Tensor:
    """Mean two-or-more-class cross entropy from raw logits."""
    logits = _ensure(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n == 0:
        raise ValueError("cross entropy over an empty batch is undefined")
    if logits.data.shape[0] != n:
        raise ValueError("one label per logits row required")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    neg_log_probs = np.log(np.exp(shifted).sum(axis=-1, keepdims=True)) - shifted
    losses = neg_log_probs[np.arange(n), labels]
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        _accumulate(logits, float(g) * d / n)

    return _make(losses.mean(), (logits,), grad_fn)
