"""Every adjoint is checked against central finite differences: the
program's nodes and the elementary operations of the tests' reference."""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from fairspect import autodiff as ad

import elementary as ops
from elementary import Tensor


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        plus = f()
        x[idx] = orig - h
        minus = f()
        x[idx] = orig
        g[idx] = (plus - minus) / (2 * h)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """Check the adjoint of a 2-D-output op against finite differences.

    The scalar under test is a fixed weighted sum of the op's output, so
    every output entry contributes a distinct gradient path.
    """
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    probe = build(*tensors)
    assert probe.data.ndim == 2
    weights = np.arange(1, probe.data.size + 1, dtype=np.float64).reshape(probe.data.shape)

    def scalar():
        return float((build(*tensors).data * weights).sum())

    weighted = ops.mul(build(*tensors), Tensor(weights))
    col = weighted @ Tensor(np.ones((weighted.data.shape[1], 1)))
    total = ops.transpose(col) @ Tensor(np.ones((col.data.shape[0], 1)))
    total.backward()
    for t in tensors:
        numeric = fd_grad(scalar, t.data)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.allclose(analytic, numeric, atol=tol), (analytic, numeric)


class TestElementwiseOps:
    def test_add(self):
        check_op(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast_bias(self):
        check_op(lambda a, b: a + b, (3, 4), (4,))

    def test_mul(self):
        check_op(lambda a, b: a * b, (2, 5), (2, 5))

    def test_mul_broadcast_column(self):
        check_op(lambda a, b: a * b, (4, 3), (4, 1))

    def test_relu(self):
        check_op(ops.relu, (4, 4), seed=3)

    def test_gelu(self):
        check_op(ops.gelu, (4, 4), seed=4)

    def test_softmax(self):
        check_op(ops.softmax_rows, (3, 5), seed=5)

    def test_layer_norm(self):
        check_op(ops.layer_norm_rows, (4, 6), seed=6)


class TestStructuralOps:
    def test_matmul(self):
        check_op(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_transpose(self):
        check_op(ops.transpose, (3, 5))

    def test_concat_cols(self):
        check_op(ops.concat_cols, (3, 2), (3, 4))

    def test_concat_rows(self):
        check_op(ops.concat_rows, (2, 3), (4, 3))

    @pytest.mark.parametrize("start,stop", [(0, 2), (2, None), (1, 4)])
    def test_slice_rows(self, start, stop):
        check_op(lambda a: ops.slice_rows(a, start, stop), (5, 3))

    def test_slices_of_one_tensor_accumulate(self):
        check_op(lambda a, b: ops.concat_rows(ops.slice_rows(a, 0, 2),
                                              ops.matmul(ops.slice_rows(a, 2), b)),
                 (5, 3), (3, 3))

    def test_reused_node_accumulates(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = (x * x) + (x * 3.0)  # dy/dx = 2x + 3
        out = y @ Tensor(np.ones((2, 1)))
        out.backward()
        assert np.allclose(x.grad, 2 * x.data + 3.0)


class TestFusedRowLoss:
    # hidden 4: one block, and blocks of 2 rows with a ragged last block of 1
    @pytest.mark.parametrize("block_elements", [ad.BLOCK_ELEMENTS, 8])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_relu_layers_loss(self, layers, block_elements, monkeypatch):
        """Central finite differences of the loss's gradient sums."""
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(9)
        x, side = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        labels = np.array([0, 1, 1, 0, 1])
        shapes = [(3, 4)] + [(6, 4)] * (layers - 1) + [(4, 2), (2,)]
        params = [rng.standard_normal(s) for s in shapes]

        def loss():
            return ad.relu_layers_loss(x, side, params[:-2], params[-2], params[-1], labels)

        _, grads = loss()
        for param, grad in zip(params, grads, strict=True):
            numeric = fd_grad(lambda: float(loss()[0]), param)
            assert np.allclose(grad, numeric, atol=1e-6), (grad, numeric)


def helper_case(rows, layers, hidden=4, seed=11):
    """Rows, labels, parameter shapes and parameters of a small per-row network."""
    rng = np.random.default_rng(seed)
    x, side = rng.standard_normal((rows, 3)), rng.standard_normal((rows, 2))
    labels = rng.integers(0, 2, rows)
    shapes = [(3, hidden)] + [(hidden + 2, hidden)] * (layers - 1) + [(hidden, 2), (2,)]
    params = [rng.standard_normal(s) for s in shapes]
    return x, side, labels, shapes, params


def helped_loss(x, side, labels, params, helper):
    return ad.relu_layers_loss(x, side, params[:-2], params[-2], params[-1], labels, helper)


def slow_down(monkeypatch, side):
    """Make each block take 20 ms longer in ``side``: "helper" or "caller"."""
    if side is None:
        return
    caller, kernel = os.getpid(), ad._cross_entropy_rows

    def slowed(*args):
        if (os.getpid() == caller) == (side == "caller"):
            time.sleep(0.02)
        return kernel(*args)

    monkeypatch.setattr(ad, "_cross_entropy_rows", slowed)


def process_gone(pid: int) -> bool:
    """Whether ``pid`` has exited: no such process, or a zombie nobody reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLossHelper:
    """A forked helper runs a prefix of the loss's row blocks; every sum
    keeps the serial order, so value and gradients keep their bits."""

    # hidden 4 at 8 elements a block: 2 rows a block, so 3 rows are 2 blocks
    # with a ragged last one, 5 rows 3 blocks, 8 rows 4 and 9 rows 5; a side
    # slowed down leaves most blocks to the other
    @pytest.mark.parametrize("slow", [None, "helper", "caller"])
    @pytest.mark.parametrize("rows", [3, 5, 8, 9, 40])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_bit_identical_to_serial(self, rows, layers, slow, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 8)
        x, side, labels, shapes, params = helper_case(rows, layers)
        slow_down(monkeypatch, slow)

        def value_and_grads(helper):
            value, grads = helped_loss(x, side, labels, params, helper)
            return [np.asarray(value), *grads]

        with ad.LossHelper(x, side, labels, shapes) as helper:
            # each call hands the helper new parameters through the same buffer
            for step in range(3):
                serial = value_and_grads(None)
                helped = value_and_grads(helper)
                for a, b in zip(helped, serial):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                params[:] = [a + 0.25 * np.sin(a + step) for a in params]
        assert_no_child_left()

    @pytest.mark.parametrize("slow", ["helper", "caller"])
    def test_the_faster_side_runs_more_blocks(self, slow, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 8)
        x, side, labels, shapes, params = helper_case(16, 1)  # 8 blocks
        slow_down(monkeypatch, slow)
        caller, block_terms, ran = os.getpid(), ad._block_terms, []

        def counted(*args):
            if os.getpid() == caller:
                ran.append(args[-1])
            return block_terms(*args)

        monkeypatch.setattr(ad, "_block_terms", counted)
        with ad.LossHelper(x, side, labels, shapes) as helper:
            helped_loss(x, side, labels, params, helper)
        # the caller takes blocks from the back, one at a time
        assert ran == ad._row_blocks(16, 4)[::-1][:len(ran)]
        assert len(ran) >= 6 if slow == "helper" else len(ran) <= 2

    def test_helper_serves_its_own_rows_only(self, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 8)
        x, side, labels, shapes, params = helper_case(8, 1)
        with ad.LossHelper(x, side, labels, shapes) as helper:
            with pytest.raises(ValueError, match="other rows"):
                helped_loss(x.copy(), side, labels, params, helper)

    def test_one_cpu_or_one_block_starts_no_process(self, monkeypatch):
        x, side, labels, shapes, _ = helper_case(40, 1)
        monkeypatch.setattr(ad, "LossHelper", None)  # any start would fail
        for block_elements, cpus in ((8, 1), (4 * 40, 2)):
            monkeypatch.setattr(ad, "BLOCK_ELEMENTS", block_elements)
            with ad.loss_helper(x, side, labels, shapes, cpus) as helper:
                assert helper is None

    def test_failing_helper_reports_its_error_and_exits(self, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 8)
        x, side, labels, shapes, params = helper_case(8, 1)
        parent, kernel = os.getpid(), ad._cross_entropy_rows

        def failing_in_the_helper(*args):
            if os.getpid() != parent:
                raise MemoryError("no room for the block")
            time.sleep(0.02)  # leave the helper blocks to take
            return kernel(*args)

        monkeypatch.setattr(ad, "_cross_entropy_rows", failing_in_the_helper)
        with ad.LossHelper(x, side, labels, shapes) as helper:
            with pytest.raises(ad.HelperDiedError,
                               match="failed: MemoryError: no room for the block"):
                helped_loss(x, side, labels, params, helper)
            helper._process.join(10)
            assert helper._process.exitcode == 1
        assert_no_child_left()

    def test_killed_helper_raises(self, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 8)
        x, side, labels, shapes, params = helper_case(8, 1)
        with ad.LossHelper(x, side, labels, shapes) as helper:
            helped_loss(x, side, labels, params, helper)
            os.kill(helper._process.pid, signal.SIGKILL)
            with pytest.raises(ad.HelperDiedError, match=r"died \(killed by signal 9\)"):
                helped_loss(x, side, labels, params, helper)
        assert_no_child_left()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_helper_exits_when_its_parent_dies(self, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 8)
        x, side, labels, shapes, _ = helper_case(8, 1)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)

        def orphan_a_helper():
            helper = ad.LossHelper(x, side, labels, shapes)
            writer.send(helper._process.pid)
            os._exit(0)  # neither closes nor reaps the helper

        middle = context.Process(target=orphan_a_helper)
        middle.start()
        assert reader.poll(10)
        pid = reader.recv()
        middle.join(10)
        assert middle.exitcode == 0
        deadline = time.monotonic() + 10
        while not process_gone(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert process_gone(pid)


class TestAgainstPlainFormulas:
    """relu and cross entropy agree exactly with their textbook formulas."""

    def test_relu_values_and_gradient(self):
        x = np.array([[-2.0, -0.0, 0.0, 1e-300], [3.5, -1e-300, 0.0, -4.0]])
        weights = np.arange(1.0, 9.0).reshape(2, 4)
        a = Tensor(x, requires_grad=True)
        out = ops.relu(a)
        (ops.transpose((out * Tensor(weights)) @ Tensor(np.ones((4, 1))))
         @ Tensor(np.ones((2, 1)))).backward()
        assert np.array_equal(out.data, x * (x > 0))
        assert np.array_equal(a.grad, weights * (x > 0))
        assert a.grad[0, 1] == a.grad[0, 2] == a.grad[1, 2] == 0.0

    def test_cross_entropy_values_and_gradient(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((7, 3))
        logits[0] = 0.0  # a row of exact ties
        logits[1, 2] = 0.0
        labels = np.array([0, 2, 1, 1, 0, 2, 2])
        shifted = logits - logits.max(axis=-1, keepdims=True)
        neg_log_probs = np.log(np.exp(shifted).sum(axis=-1, keepdims=True)) - shifted
        expected_loss = neg_log_probs[np.arange(7), labels].mean()
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(7), labels] -= 1.0
        expected_grad = 3.0 * probs / 7
        t = Tensor(logits, requires_grad=True)
        loss = ops.mean_cross_entropy(t, labels)
        (loss * 3.0).backward()
        assert float(loss.data) == expected_loss
        assert np.array_equal(t.grad, expected_grad)


def axis_cross_entropy(logits, labels, scale):
    """Loss and gradient of ``scale * mean_cross_entropy``, reduced along the class axis."""
    n = len(labels)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=-1, keepdims=True)
    losses = np.log(sums[:, 0]) - shifted[np.arange(n), labels]
    probs = exp / sums
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return losses.mean(), scale * d / n


def cross_entropy_cases(classes):
    """(logits, labels) batches with exact ties, logits of +-700 and a single row."""
    rng = np.random.default_rng(classes)
    logits = rng.standard_normal((40, classes))
    logits[0] = 0.0
    logits[1, :2] = 1.5
    logits[2] = 700.0
    logits[3, 0], logits[4, -1] = 700.0, -700.0
    logits[5] = -700.0
    logits[6, 1:] = 700.0
    labels = rng.integers(0, classes, size=40)
    labels[:7] = np.arange(7) % classes
    return [(logits, labels), (logits[3:4], labels[3:4]), (logits[7:8], labels[7:8])]


class TestCrossEntropyByColumns:
    """The loss reduces class by class over columns; below eight classes that is
    the order numpy sums the class axis in, so the bits agree."""

    def loss_and_grad(self, logits, labels, scale):
        t = Tensor(logits, requires_grad=True)
        loss = ops.mean_cross_entropy(t, labels)
        (loss * scale).backward()
        return float(loss.data), t.grad

    @pytest.mark.parametrize("classes", [2, 3])
    def test_bit_identical_to_axis_reduction(self, classes):
        for logits, labels in cross_entropy_cases(classes):
            loss, grad = self.loss_and_grad(logits, labels, 3.0)
            ref_loss, ref_grad = axis_cross_entropy(logits, labels, 3.0)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)

    def test_nine_classes_within_rounding(self):
        # numpy sums nine entries pairwise, the columns sum in sequence
        for logits, labels in cross_entropy_cases(9):
            loss, grad = self.loss_and_grad(logits, labels, 1.0)
            ref_loss, ref_grad = axis_cross_entropy(logits, labels, 1.0)
            assert abs(loss - ref_loss) <= 1e-15 * abs(ref_loss)
            assert np.abs(grad - ref_grad).max() <= 1e-15 * np.abs(ref_grad).max()


class TestCrossEntropy:
    def test_matches_manual_log_softmax(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, size=6)
        loss = ops.mean_cross_entropy(Tensor(logits), labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), labels].mean()
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)

    def test_gradient_against_fd(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=5)

        def scalar():
            return float(ops.mean_cross_entropy(logits, labels).data)

        loss = ops.mean_cross_entropy(logits, labels)
        loss.backward()
        numeric = fd_grad(scalar, logits.data)
        assert np.allclose(logits.grad, numeric, atol=1e-6)

    def test_scaling_loss_scales_gradient(self):
        rng = np.random.default_rng(10)
        logits = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        labels = np.array([0, 1, 1, 0])
        ops.mean_cross_entropy(logits, labels).backward()
        g1 = logits.grad.copy()
        logits.grad = None
        (ops.mean_cross_entropy(logits, labels) * 2.0).backward()
        assert np.allclose(logits.grad, 2.0 * g1, rtol=1e-14)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 1.0).backward()

    def test_empty_batch_rejected(self):
        logits = Tensor(np.empty((0, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="empty batch"):
            ops.mean_cross_entropy(logits, np.empty(0, dtype=np.int64))

    def test_constants_receive_no_grad(self):
        const = Tensor(np.ones((2, 2)))
        var = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (const * var) @ Tensor(np.ones((2, 1)))
        scalar = ops.transpose(out) @ Tensor(np.ones((2, 1)))
        scalar.backward()
        assert const.grad is None
        assert var.grad is not None


def test_package_holds_the_program_nodes_only():
    """The elementary operations and the Tensor arithmetic live in the tests'
    reference (``elementary.py``); the package keeps what training runs."""
    for name in ("add", "mul", "matmul", "transpose", "concat_cols", "concat_rows", "relu",
                 "gelu", "softmax_rows", "layer_norm_rows", "mean_cross_entropy", "_ensure",
                 "_unbroadcast", "slice_rows"):
        assert not hasattr(ad, name), name
    for method in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "__matmul__"):
        assert not hasattr(ad.Tensor, method), method
