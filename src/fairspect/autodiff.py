"""Reverse-mode automatic differentiation over numpy arrays, and the per-row
network that training differentiates.

A small tape: every Tensor produced by a node keeps its parents and a closure
routing the output gradient back to them. ``fused`` makes a node from a
closed form written elsewhere; a training step's tape is one such node,
``model.loss``. ``relu_layers_loss`` is the closed form it wraps for the
per-row network (ReLU fusion layers and the linear head): it streams the rows
in blocks of ``BLOCK_ELEMENTS`` and returns the mean cross entropy and the
gradient sums as plain arrays. ``relu_layers_logits`` runs the same block
loop for prediction. The tests pin both against finite differences and
against the network composed from elementary operations
(``tests/elementary.py``).

A block's arrays are all released before the next block allocates its own,
so each block reuses the memory the last one freed rather than touching
fresh memory. An adjoint may overwrite an array only if it allocated that
array itself, and only before handing it on; an array it received or passed
to ``_accumulate`` is never written again.

The loss's B blocks can be split between two processes (``LossHelper``): a
forked helper takes blocks 0, 1, ... and the caller blocks B - 1, B - 2, ...,
one at a time from a shared count, until none is left; with both sides
equally fast each runs about half. The helper adds its blocks, a prefix of
the B, into sums that start at zero, as the serial loop's do; the caller
keeps each of its blocks' terms and then adds them onto the helper's sums
one block at a time, in block order. Every sum is so formed in the serial
order, and loss and gradients keep the serial loop's bits.

Everything runs in float64. Constants (graph data, eigenvector bases) enter
as plain arrays, closed over by the nodes that read them, and receive no
gradient; only the elementary reference in ``tests/elementary.py`` wraps
them in Tensors.
"""

from __future__ import annotations

import contextlib
import os

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


def relu_layers_loss(x: np.ndarray, side: np.ndarray, weights, head_w: np.ndarray,
                     head_b: np.ndarray, labels, helper: LossHelper | None = None):
    """Mean cross entropy of the per-row network's logits, and its gradient
    with respect to each weight, then the head's weight and bias.

    The network runs block by block (``_row_blocks``), and each block is
    differentiated as soon as it is computed: the row-local gradient
    (p - y) / N goes back through the head and the ReLU layers, masked in
    place, into running sums of the parameter gradients. Those sums are all
    that is kept besides the per-row losses; no rows x hidden array outlives
    its block. Loss and gradients are those of the mean cross entropy over
    the network composed from elementary nodes, up to the rounding of the
    block sums.

    With a ``helper`` started for these rows, the blocks are split between
    the helper and this process (``LossHelper.sums``); every sum is still
    formed in block order, so loss and gradients are bit-identical to the
    serial loop.
    """
    labels = _checked_labels(labels, len(x))
    n = len(labels)
    losses = np.empty(n)
    arrays = [*weights, head_w, head_b]
    if helper is None:
        totals = [np.zeros_like(a) for a in arrays]
        for rows in _row_blocks(n, head_w.shape[0]):
            losses[rows], terms = _block_terms(x, side, arrays, labels, rows)
            _add_terms(totals, terms)
    else:
        if x is not helper.x:
            raise ValueError("the helper was started for other rows")
        totals = helper.sums(arrays, losses)
    return losses.mean(), totals


def _block_terms(x, side, arrays, labels, rows):
    """One block's per-row losses and its terms of the gradient sums, one per
    array of ``arrays`` (the layer weights, then the head's weight and bias).

    ``labels`` holds every row's label; the row-local gradient is divided by
    their count. The block's rows x hidden arrays are freed on return.
    """
    *weights, head_w, head_b = arrays
    hidden = head_w.shape[0]
    inputs, h = _relu_layers(x[rows], side[rows], weights)
    logits = h @ head_w
    logits += head_b
    losses, g = _cross_entropy_rows(logits, labels[rows])
    g /= len(labels)
    terms = [None] * len(weights) + [h.T @ g, g.sum(axis=0)]
    gh = g @ head_w.T
    acts = [inp[:, :hidden] for inp in inputs[1:]] + [h]
    for layer in reversed(range(len(weights))):
        # gh is this block's own array, not yet handed on
        np.multiply(gh, acts[layer] > 0, out=gh)
        terms[layer] = inputs[layer].T @ gh
        if layer:
            gh = gh @ weights[layer][:hidden].T
    return losses, terms


def _add_terms(totals, terms):
    for total, term in zip(totals, terms):
        total += term


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


class HelperDiedError(RuntimeError):
    """The loss helper process died, or failed, before handing back its blocks."""


# the shared buffer: three int64 words, a failure message, then the floats.
# The words start at zero; the caller sets _COMMAND to _CLOSE to stop the
# helper, and the helper sets _STATUS to _FAILED when a block raised
_COMMAND, _STATUS, _MESSAGE_LENGTH = range(3)
_CLOSE = _FAILED = 1
_MESSAGE_START = 64
_HEADER_BYTES = 1024
# acquire(False) attempts between liveness checks of the other process
_SPINS_PER_CHECK = 256
_CLOSE_TIMEOUT_S = 10.0


class LossHelper:
    """A forked process that runs row blocks of every ``relu_layers_loss`` over
    the rows ``x``, ``side`` and ``labels``, beside the calling process.

    Each call hands out its B blocks through a shared count: the helper takes
    them one at a time from the front (0, 1, ...) and the caller from the back
    (B - 1, B - 2, ...), so a side that falls behind, say because another
    process holds its CPU, leaves more blocks to the other. The helper adds
    its blocks into sums that start at zero; the caller keeps each of its
    blocks' terms and adds them onto the helper's sums in block order.

    The weights go out, and the helper's sums and per-row losses come back,
    through one shared anonymous ``mmap`` made before the fork. Each hand-off
    spins on fork-context semaphores with ``acquire(False)``: a blocking
    hand-off costs a scheduler wake-up, far more than a block. So the helper
    keeps its CPU busy for as long as it is open; each miss yields the CPU
    (``sched_yield``), so a process that shares it still runs. The helper
    exits when it is closed, when its parent process changes, or after it
    reports an error; ``sums`` raises ``HelperDiedError`` if it died or
    failed, and closes it on any error. ``shapes`` are those of the loss's
    arrays: the layer weights, then the head's weight and bias.
    """

    def __init__(self, x: np.ndarray, side: np.ndarray, labels, shapes):
        import mmap
        import multiprocessing

        self.x, self._side = x, side
        self._labels = _checked_labels(labels, len(x))
        self._blocks = _row_blocks(len(x), shapes[-2][0])
        sizes = [int(np.prod(shape)) for shape in shapes]
        params = sum(sizes)
        self._buffer = mmap.mmap(-1, _HEADER_BYTES + 8 * (2 * params + len(x)))
        self._words = np.frombuffer(self._buffer, dtype=np.int64, count=3)
        floats = np.frombuffer(self._buffer, dtype=np.float64, offset=_HEADER_BYTES)
        bounds = np.cumsum([0, *sizes])
        self._params = [floats[a:b].reshape(shape)
                        for a, b, shape in zip(bounds, bounds[1:], shapes)]
        self._totals = [floats[params + a:params + b].reshape(shape)
                        for a, b, shape in zip(bounds, bounds[1:], shapes)]
        self._losses = floats[2 * params:]
        context = multiprocessing.get_context("fork")
        # go: a call's weights are in place; done: the helper's sums are;
        # unclaimed: one permit per block of the call not yet taken by a side
        self._go, self._done, self._unclaimed = (context.Semaphore(0) for _ in range(3))
        self._process = context.Process(target=self._serve, args=(os.getpid(),), daemon=True)
        self._process.start()

    def sums(self, arrays, losses: np.ndarray) -> list[np.ndarray]:
        """Run every block on the parameters ``arrays`` across both processes:
        write each row's loss into ``losses`` and return the gradient sums,
        formed in block order."""
        try:
            for view, array in zip(self._params, arrays):
                view[...] = array
            for _ in self._blocks:
                self._unclaimed.release()
            self._go.release()
            held = []
            while self._unclaimed.acquire(False):
                rows = self._blocks[-1 - len(held)]
                losses[rows], terms = _block_terms(self.x, self._side, arrays,
                                                   self._labels, rows)
                held.append(terms)
            self._wait_for_helper()
        except BaseException:
            self.close()
            raise
        helped = len(self._blocks) - len(held)
        if helped:
            stop = self._blocks[helped - 1].stop
            losses[:stop] = self._losses[:stop]
        totals = [total.copy() for total in self._totals]
        for terms in reversed(held):
            _add_terms(totals, terms)
        return totals

    def _wait_for_helper(self):
        spins = 0
        while not self._done.acquire(False):
            os.sched_yield()
            spins += 1
            if not spins % _SPINS_PER_CHECK and not self._process.is_alive():
                code = self._process.exitcode
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise HelperDiedError(f"the loss helper process died ({how})")
        if self._words[_STATUS] == _FAILED:
            length = int(self._words[_MESSAGE_LENGTH])
            message = self._buffer[_MESSAGE_START:_MESSAGE_START + length].decode(
                errors="replace")
            raise HelperDiedError(f"the loss helper process failed: {message}")

    def close(self):
        """Stop the helper and reap it; it finishes the blocks it took first."""
        if self._process.is_alive():
            self._words[_COMMAND] = _CLOSE
            self._go.release()
            self._process.join(_CLOSE_TIMEOUT_S)
            if self._process.is_alive():
                self._process.kill()
        self._process.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _serve(self, parent):
        """The helper's loop, in the forked process; it never returns."""
        code = 1
        try:
            while True:
                spins = 0
                while not self._go.acquire(False):
                    os.sched_yield()
                    spins += 1
                    if not spins % _SPINS_PER_CHECK and os.getppid() != parent:
                        return
                if self._words[_COMMAND] == _CLOSE:
                    code = 0
                    return
                try:
                    for total in self._totals:
                        total[...] = 0.0
                    for rows in self._blocks:
                        if not self._unclaimed.acquire(False):
                            break
                        self._losses[rows], terms = _block_terms(
                            self.x, self._side, self._params, self._labels, rows)
                        _add_terms(self._totals, terms)
                except Exception as exc:
                    message = f"{type(exc).__name__}: {exc}".encode()
                    message = message[:_HEADER_BYTES - _MESSAGE_START]
                    self._buffer[_MESSAGE_START:_MESSAGE_START + len(message)] = message
                    self._words[_MESSAGE_LENGTH] = len(message)
                    self._words[_STATUS] = _FAILED
                    self._done.release()
                    return
                self._done.release()
        finally:
            # skip the parent's exit handlers and its inherited stdio buffers
            os._exit(code)


def loss_helper(x: np.ndarray, side: np.ndarray, labels, shapes, cpus: int):
    """A started ``LossHelper`` for these rows when ``cpus`` leaves a second CPU
    and the rows span at least two blocks; otherwise a context that yields None."""
    if cpus < 2 or len(_row_blocks(len(x), shapes[-2][0])) < 2:
        return contextlib.nullcontext()
    return LossHelper(x, side, labels, shapes)
