import numpy as np
import pytest

from fairspect.encoding import (
    DegenerateVectorError,
    cosine_alignment,
    eigenvalue_position_encoding,
    propagate_k_hop,
    zero_pad,
)
from fairspect.graph import AttributeMatrix
from fairspect.limits import _normalized_cosine_series

from conftest import sensitive_column


def attrs_from(features, s_index):
    return AttributeMatrix(features=np.asarray(features, dtype=np.float64),
                           sensitive_index=s_index)


class TestZeroPad:
    def test_all_present_is_identity(self):
        attrs = attrs_from([[1.0, 1.0], [2.0, 0.0]], 1)
        padded = zero_pad(attrs, sensitive_column([1, 0]))
        assert np.array_equal(padded, attrs.features)
        assert padded is not attrs.features

    def test_masked_node_zeroed(self):
        attrs = attrs_from([[0.3, 1.0], [0.1, 0.0], [0.7, 1.0]], 1)
        sens = sensitive_column([1, 0, 1], present=[True, True, False])
        padded = zero_pad(attrs, sens)
        assert padded[:, 1].tolist() == [1.0, 0.0, 0.0]
        assert padded[:, 0].tolist() == [0.3, 0.1, 0.7]
        changed = padded != attrs.features
        assert changed.sum() == 1 and changed[2, 1]

    def test_only_masked_entries_touched(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((20, 5))
        feats[:, 2] = rng.integers(0, 2, size=20)
        attrs = attrs_from(feats, 2)
        present = rng.random(20) > 0.5
        present[0] = True
        sens = sensitive_column(feats[:, 2].astype(int), present=present)
        padded = zero_pad(attrs, sens)
        untouched = np.ones_like(feats, dtype=bool)
        untouched[~present, 2] = False
        assert np.array_equal(padded[untouched], feats[untouched])
        assert np.all(padded[~present, 2] == 0.0)


class TestPropagateKHop:
    def test_zero_hops_is_identity(self, k3):
        x = np.array([[1.0], [0.0], [1.0]])
        assert np.array_equal(propagate_k_hop(k3, x, 0), x)

    def test_hand_values_on_triangle(self, k3):
        col = np.array([1.0, 0.0, 1.0])
        assert np.allclose(propagate_k_hop(k3, col, 1), [1.0, 2.0, 1.0])
        assert np.allclose(propagate_k_hop(k3, col, 2), [3.0, 2.0, 3.0])

    def test_long_normalised_run_reaches_dominant_direction(self, k3):
        # the limits lab's renormalised series: its cosines against the unit
        # vectors are the coordinates of the unit-norm propagated column
        col = np.array([1.0, 0.0, 1.0])
        out = [_normalized_cosine_series(k3, col, unit, 50)[-1] for unit in np.eye(3)]
        assert np.allclose(out, np.ones(3) / np.sqrt(3), atol=1e-9)

    def test_negative_k(self, k3):
        with pytest.raises(ValueError):
            propagate_k_hop(k3, np.ones(3), -1)

    def test_normalisation_preserves_cosines(self, c4, k3):
        rng = np.random.default_rng(7)
        for graph in (c4, k3):
            col = rng.standard_normal(graph.n)
            ref = rng.standard_normal(graph.n)
            scaled = _normalized_cosine_series(graph, col, ref, 30)
            for k in range(1, 31):
                plain = propagate_k_hop(graph, col, k)
                assert abs(cosine_alignment(plain, ref) - scaled[k - 1]) <= 1e-10


class TestCosineAlignment:
    def test_self_alignment_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(8)
            assert cosine_alignment(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_hand_values(self):
        assert cosine_alignment([1, 2, 1], [1, 0, 1]) == pytest.approx(2 / np.sqrt(12), abs=1e-12)
        p1 = np.ones(3) / np.sqrt(3)
        assert cosine_alignment(p1, [1, 0, 1]) == pytest.approx(2 / np.sqrt(6), abs=1e-12)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        base = cosine_alignment(x, y)
        assert cosine_alignment(3.7 * x, y) == pytest.approx(base, abs=1e-12)
        assert cosine_alignment(x, 0.002 * y) == pytest.approx(base, abs=1e-12)

    def test_zero_vector_is_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            cosine_alignment(np.zeros(3), np.ones(3))
        with pytest.raises(DegenerateVectorError):
            cosine_alignment(np.ones(3), np.zeros(3))


class TestEigenvaluePositionEncoding:
    def test_zero_eigenvalue(self):
        enc = eigenvalue_position_encoding(np.array([0.0]), 6)
        assert np.allclose(enc[0, 0::2], 0.0)
        assert np.allclose(enc[0, 1::2], 1.0)

    def test_direct_evaluation(self):
        enc = eigenvalue_position_encoding(np.array([2.0]), 4)
        assert enc[0, 0] == pytest.approx(np.sin(2.0), abs=1e-12)
        assert enc[0, 1] == pytest.approx(np.cos(2.0), abs=1e-12)
        assert enc[0, 2] == pytest.approx(np.sin(2.0 / 100.0), abs=1e-12)
        assert enc[0, 3] == pytest.approx(np.cos(2.0 / 100.0), abs=1e-12)

    def test_bounded_for_huge_eigenvalues(self):
        lams = np.linspace(-1e6, 1e6, 41)
        enc = eigenvalue_position_encoding(lams, 8)
        assert enc.shape == (41, 8)
        assert np.all(enc >= -1.0) and np.all(enc <= 1.0)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue_position_encoding(np.array([1.0]), 5)
        with pytest.raises(ValueError):
            eigenvalue_position_encoding(np.array([1.0]), 0)
