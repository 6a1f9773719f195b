"""Elementary autodiff operations: the tests' reference for the program's nodes.

The program trains through one closed-form node, ``model.loss``, built from
two closed forms: ``model.spectral_stage`` and ``autodiff.relu_layers_loss``.
The tests hold both against the same network composed from the operations
here, each of which is checked against central finite differences in
``test_autodiff.py``.

``Tensor`` here is the package's ``Tensor`` with operator overloads; the
operations take either kind, so a reference graph may start from the
program's parameters and nodes, and its ``backward`` (the package's own)
accumulates into those parameters.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from fairspect import autodiff as ad
from fairspect.autodiff import _checked_labels, _cross_entropy_rows
from fairspect.model import INV_SQRT2, INV_SQRT_2PI, LAYER_NORM_EPS


class Tensor(ad.Tensor):
    __slots__ = ()

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


def _ensure(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else Tensor(x)


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


def _accumulate(t: ad.Tensor, grad: np.ndarray):
    """The package's accumulation, after summing out the broadcast axes."""
    ad._accumulate(t, _unbroadcast(grad, t.data.shape))


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


def concat_rows(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    split = a.data.shape[0]

    def grad_fn(g):
        _accumulate(a, g[:split])
        _accumulate(b, g[split:])

    return _make(np.concatenate([a.data, b.data], axis=0), (a, b), grad_fn)


def slice_rows(a, start: int, stop: int | None = None) -> Tensor:
    """Rows ``start:stop`` of ``a``; the adjoint is zero outside them."""
    a = _ensure(a)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accumulate(a, full)

    return _make(a.data[start:stop], (a,), grad_fn)


def relu(a) -> Tensor:
    a = _ensure(a)

    def grad_fn(g):
        # the mask is built only when a gradient is asked for
        _accumulate(a, g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), grad_fn)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU: x * Phi(x)."""
    a = _ensure(a)
    cdf = 0.5 * (1.0 + erf(a.data * INV_SQRT2))
    pdf = np.exp(-0.5 * a.data * a.data) * INV_SQRT_2PI

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


def layer_norm_rows(a, eps: float = LAYER_NORM_EPS) -> Tensor:
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
    """Mean two-or-more-class cross entropy from raw logits, by the per-row
    kernel the loss node streams its blocks through."""
    logits = _ensure(logits)
    labels = _checked_labels(labels, len(logits.data))
    n = len(labels)
    losses, d = _cross_entropy_rows(logits.data, labels)

    def grad_fn(g):
        _accumulate(logits, float(g) * d / n)

    return _make(losses.mean(), (logits,), grad_fn)
