"""Reverse-mode automatic differentiation over numpy arrays, for the nodes
training runs.

A small tape: every Tensor produced by a node keeps its parents and a closure
routing the output gradient back to them. A step's tape holds two kinds of
node, each with a hand-written adjoint whose correctness the tests pin
against finite differences and against the same network composed from
elementary operations (``tests/elementary.py``): ``fused`` makes a node from
a closed form written elsewhere (``model.spectral_stage``), and
``relu_layers_loss`` is the whole per-row network (ReLU fusion layers and
the linear head) and its mean cross entropy as one node, which streams the
rows in blocks of ``BLOCK_ELEMENTS`` and keeps only the gradient sums.
``slice_rows`` cuts a layer's weight out of the stage's stacked value, and
``relu_layers_logits`` runs the loss's block loop for prediction and builds
no node.

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


def fused(data, parents, adjoint) -> Tensor:
    """A node computed in closed form: ``adjoint(g)`` returns the gradient of
    each parent, in order and in that parent's shape, for the upstream
    gradient ``g``."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):

        def grad_fn(g):
            for parent, grad in zip(parents, adjoint(g)):
                _accumulate(parent, grad)

        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


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
    t.grad = grad if t.grad is None else t.grad + grad


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def slice_rows(a: Tensor, start: int, stop: int | None = None) -> Tensor:
    """Rows ``start:stop`` of ``a``; the adjoint is zero outside them."""

    def adjoint(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return [full]

    return fused(a.data[start:stop], (a,), adjoint)


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
    Loss and gradients are those of the mean cross entropy over the network
    composed from elementary nodes, up to the rounding of the block sums.
    """
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
