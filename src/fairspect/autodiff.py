"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: every Tensor produced by an operation keeps its parents and a
closure routing the output gradient back to them. Only the handful of fused
operations the classifier needs are implemented, each with a hand-written
adjoint; their correctness is pinned by central-finite-difference tests
rather than by construction. Besides the elementwise and structural ops
(matmul, relu, concat, slices, GELU, softmax, layer norm), the fused ones
are ``mean_cross_entropy`` and ``relu_layers_loss``: the whole per-row
network (ReLU fusion layers and the linear head) and its mean cross entropy
as one node, which streams the rows in blocks of ``BLOCK_ELEMENTS`` and keeps
only the gradient sums. ``relu_layers_logits`` runs the same block loop for
prediction and builds no node. ``fused`` makes a node from a closed form
written elsewhere (``model.spectral_stage``).

A block's arrays are all released before the next block allocates its own,
so each block reuses the memory the last one freed rather than touching
fresh memory. An adjoint may overwrite an array only if it allocated that
array itself, and only before handing it on; an array it received or passed
to ``_accumulate`` is never written again.

Everything runs in float64. Constants (graph data, eigenvector bases) enter
as Tensors with ``requires_grad=False`` and receive no gradient.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

# the constants of ``gelu`` and ``layer_norm_rows``, shared with the closed
# form of the same stage (``model.spectral_stage``)
INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-5

# elements of one rows x hidden block of the per-row network: 256 KiB of
# float64, so a block's arrays, allocated where the last block's were freed,
# stay in a core's L2 cache
BLOCK_ELEMENTS = 1 << 15


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


def fused(data, parents, adjoint) -> Tensor:
    """A node computed in closed form: ``adjoint(g)`` returns the gradient of
    each parent, in order, for the upstream gradient ``g``."""

    def grad_fn(g):
        for parent, grad in zip(parents, adjoint(g)):
            _accumulate(parent, grad)

    return _make(data, parents, grad_fn)


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
    with another tensor's gradient or with the gradient an adjoint received.
    That is safe because an adjoint overwrites only an array it allocated
    itself, and only before handing it on: once an array reaches this
    function, nothing writes to it again.
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


def _row_blocks(rows: int, hidden: int) -> list[slice]:
    """Blocks of ``BLOCK_ELEMENTS // hidden`` rows, the last one ragged."""
    step = max(1, BLOCK_ELEMENTS // hidden)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _relu_layers(x: np.ndarray, side: np.ndarray, weights):
    """The ReLU layers over one block of rows: each layer's input, and the last
    activation.

    h = x, then h = ReLU(inp W) per weight, where inp is x for the first weight
    and [h | side] after it. Every ReLU is written over its pre-activation,
    whose mask ``act > 0`` is the same (also for -0.0 and NaN). An earlier
    layer's activation is the first columns of the next layer's input.
    """
    inputs = []
    h = x
    for layer, w in enumerate(weights):
        inputs.append(h if layer == 0 else np.concatenate([h, side], axis=1))
        h = inputs[-1] @ w
        np.maximum(h, 0.0, out=h)
    return inputs, h


def relu_layers_logits(x: np.ndarray, side: np.ndarray, weights, head_w: np.ndarray,
                       head_b: np.ndarray) -> np.ndarray:
    """Logits of the per-row network, (rows, classes): the ReLU layers
    (``_relu_layers``), then h head_w + head_b, block by block.

    Plain arrays in and out, no node: prediction needs no gradient.
    """
    logits = np.empty((len(x), head_w.shape[1]))
    for rows in _row_blocks(len(x), head_w.shape[0]):
        inputs, h = _relu_layers(x[rows], side[rows], weights)
        np.add(h @ head_w, head_b, out=logits[rows])
        del inputs, h
    return logits


def relu_layers_loss(x: np.ndarray, side: np.ndarray, weights, head_w, head_b,
                     labels) -> Tensor:
    """Mean cross entropy of the per-row network's logits, as one node.

    ``x`` and ``side`` are constants; the parents are the weights and the head.
    The network runs block by block (``_row_blocks``), and each block is
    differentiated as soon as it is computed: the row-local gradient
    (p - y) / N goes back through the head and the ReLU layers, masked in
    place, into running sums of the parameter gradients. Those sums are all
    the node keeps besides the per-row losses; no rows x hidden array
    outlives its block. The adjoint scales them by the upstream gradient.
    Loss and gradients are those of ``mean_cross_entropy`` over the network
    composed from elementary nodes, up to the rounding of the block sums.
    """
    weights = [_ensure(w) for w in weights]
    head_w, head_b = _ensure(head_w), _ensure(head_b)
    labels = _checked_labels(labels, len(x))
    n = len(labels)
    hidden = head_w.data.shape[0]
    losses = np.empty(n)
    parents = (*weights, head_w, head_b)
    totals = [np.zeros_like(t.data) for t in parents]
    *grad_ws, grad_head_w, grad_head_b = totals
    arrays = [w.data for w in weights]
    for rows in _row_blocks(n, hidden):
        inputs, h = _relu_layers(x[rows], side[rows], arrays)
        logits = h @ head_w.data
        logits += head_b.data
        losses[rows], g = _cross_entropy_rows(logits, labels[rows])
        g /= n
        grad_head_w += h.T @ g
        grad_head_b += g.sum(axis=0)
        gh = g @ head_w.data.T
        acts = [inp[:, :hidden] for inp in inputs[1:]] + [h]
        for layer in reversed(range(len(weights))):
            # gh is this block's own array, not yet handed on
            np.multiply(gh, acts[layer] > 0, out=gh)
            grad_ws[layer] += inputs[layer].T @ gh
            if layer:
                gh = gh @ arrays[layer][:hidden].T
        del inputs, h, logits, g, gh, acts
    return fused(losses.mean(), parents, lambda g: [float(g) * t for t in totals])


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


def _checked_labels(labels, rows: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ValueError("cross entropy over an empty batch is undefined")
    if len(labels) != rows:
        raise ValueError("one label per logits row required")
    return labels


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray):
    """Per-row cross entropy from raw logits, and its gradient p - y per row."""
    # class by class over the columns: a reduction along the short class axis
    # costs far more than one pass per column, and below eight classes numpy
    # sums that axis in this same order
    columns = logits.T
    top = columns[0]
    for column in columns[1:]:
        top = np.maximum(top, column)
    shifted = logits - top[:, None]
    exp = np.exp(shifted)
    sums = exp[:, 0]
    for c in range(1, exp.shape[1]):
        sums = sums + exp[:, c]
    rows = np.arange(len(labels))
    losses = np.log(sums) - shifted[rows, labels]
    d = exp / sums[:, None]
    d[rows, labels] -= 1.0
    return losses, d


def mean_cross_entropy(logits, labels) -> Tensor:
    """Mean two-or-more-class cross entropy from raw logits."""
    logits = _ensure(logits)
    labels = _checked_labels(labels, len(logits.data))
    n = len(labels)
    losses, d = _cross_entropy_rows(logits.data, labels)

    def grad_fn(g):
        _accumulate(logits, float(g) * d / n)

    return _make(losses.mean(), (logits,), grad_fn)
