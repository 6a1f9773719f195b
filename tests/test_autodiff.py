"""Every adjoint is checked against central finite differences: the
program's nodes and the elementary operations of the tests' reference."""

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
        check_op(lambda a: ad.slice_rows(a, start, stop), (5, 3))

    def test_slices_of_one_tensor_accumulate(self):
        check_op(lambda a, b: ops.concat_rows(ad.slice_rows(a, 0, 2),
                                              ops.matmul(ad.slice_rows(a, 2), b)),
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
        """Central finite differences of the loss node, scaled upstream."""
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(9)
        x, side = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        labels = np.array([0, 1, 1, 0, 1])
        shapes = [(3, 4)] + [(6, 4)] * (layers - 1) + [(4, 2), (2,)]
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]

        def loss():
            return ad.relu_layers_loss(x, side, params[:-2], params[-2], params[-1], labels)

        ops.mul(loss(), 3.0).backward()
        for t in params:
            numeric = fd_grad(lambda: 3.0 * float(loss().data), t.data)
            assert np.allclose(t.grad, numeric, atol=1e-6), (t.grad, numeric)


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
                 "_unbroadcast"):
        assert not hasattr(ad, name), name
    for method in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "__matmul__"):
        assert not hasattr(ad.Tensor, method), method
