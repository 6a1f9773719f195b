import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairspect.limits import (
    AlignmentSeries,
    DegenerateAlignmentError,
    RESIDUAL_NOISE_FLOOR,
    NotEstimableError,
    RepeatedDominantError,
    build_alignment_battery,
    build_multiplicity_battery,
    estimate_decay_rate,
    limit_check,
    multiplicity_bound_check,
)
from fairspect.spectral import SpectralTruncation, dense_eigendecomposition, spectral_gap
from fairspect.synthetic import SyntheticSpec, gen_synthetic

from conftest import array_digest, sensitive_column


class TestLimitCheckTriangle:
    """Hand-computable anchors on the 3-clique with column (1, 0, 1)."""

    def test_complete_column_series_and_limit(self, k3):
        sens = sensitive_column([1, 0, 1])
        series = limit_check("thm1", k3, sens, k_max=30)
        assert series.cosines[0] == pytest.approx(2 / np.sqrt(12), abs=1e-12)
        assert series.cosines[1] == pytest.approx(6 / np.sqrt(44), abs=1e-12)
        assert series.limit == pytest.approx(2 / np.sqrt(6), abs=1e-12)
        assert series.residuals[-1] <= 1e-8

    def test_padded_column_recovers_complete_limit(self, k3):
        sens = sensitive_column([1, 0, 1], present=[True, True, False])
        series = limit_check("thm3", k3, sens, k_max=30)
        assert series.limit == pytest.approx(2 / np.sqrt(6), abs=1e-12)
        assert series.companion_cosines is not None
        assert series.companion_gap[-1] <= 1e-8
        assert series.residuals[-1] <= 1e-8

    def test_lemma_variant_equals_thm1_on_unmasked_input(self, k3):
        sens = sensitive_column([1, 0, 1])
        a = limit_check("lemma1", k3, sens, k_max=12)
        b = limit_check("thm1", k3, sens, k_max=12)
        assert np.allclose(a.cosines, b.cosines, atol=1e-15)

    def test_cross_variant_converges_to_padded_limit(self, k3):
        sens = sensitive_column([1, 0, 1], present=[True, True, False])
        series = limit_check("thm2", k3, sens, k_max=30)
        oracle = dense_eigendecomposition(k3)
        padded = sens.padded_vector()
        expected = float(oracle.principal() @ padded / np.linalg.norm(padded))
        assert series.limit == pytest.approx(expected, abs=1e-12)
        assert series.residuals[-1] <= 1e-8

    def test_principal_eigenvector_is_a_fixed_point(self, k3):
        oracle = dense_eigendecomposition(k3)
        series = limit_check("thm1", k3, oracle.principal(), k_max=10)
        assert np.allclose(series.cosines, 1.0, atol=1e-12)
        assert np.allclose(series.residuals, 0.0, atol=1e-12)


class TestLimitCheckGuards:
    def test_repeated_dominant_redirects(self, two_triangles):
        sens = sensitive_column([1, 1, 1, 0, 0, 0])
        with pytest.raises(RepeatedDominantError):
            limit_check("thm1", two_triangles, sens, k_max=10)

    def test_bipartite_oscillation_diagnostics(self, c4):
        series = limit_check("thm1", c4, np.array([1.0, 0.0, 0.0, 0.0]), k_max=40)
        assert series.oscillating
        assert np.isnan(series.limit)
        assert series.even_tail == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert series.odd_tail == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_source_is_degenerate(self, k3):
        # orthogonal to the all-ones dominant eigenvector
        vec = np.array([1.0, -2.0, 1.0])
        with pytest.raises(DegenerateAlignmentError):
            limit_check("thm1", k3, vec, k_max=10)

    def test_zero_target_rejected(self, k3):
        sens = sensitive_column([0, 0, 1], present=[True, True, False])
        # padded column is all zeros -> thm1 source degenerate
        with pytest.raises(Exception):
            limit_check("thm1", k3, sens, k_max=5)

    def test_unknown_variant(self, k3):
        with pytest.raises(ValueError):
            limit_check("thm9", k3, sensitive_column([1, 0, 1]))


class TestDecayRate:
    def test_triangle_rate_half(self, k3):
        sens = sensitive_column([1, 0, 1])
        oracle = dense_eigendecomposition(k3)
        series = limit_check("thm1", k3, sens, k_max=45, trunc=oracle)
        empirical, predicted = estimate_decay_rate(series, oracle)
        assert predicted == pytest.approx(-0.5, abs=1e-12)  # signed ratio
        assert abs(empirical - 0.5) <= 0.05 * 0.5

    def test_block_model_rate_matches_oracle(self):
        spec = SyntheticSpec(kind="sbm", n=100,
                             params={"block_sizes": [50, 50], "p_in": 0.3, "p_out": 0.02},
                             seed=5)
        graph, _, _, _ = gen_synthetic(spec)
        oracle = dense_eigendecomposition(graph)
        values = np.zeros(100, dtype=np.int64)
        values[:50] = 1
        sens = sensitive_column(values)
        series = limit_check("thm1", graph, sens, k_max=90, trunc=oracle)
        empirical, predicted = estimate_decay_rate(series, oracle)
        assert abs(empirical - abs(predicted)) <= 0.10 * abs(predicted)

    def test_residuals_spanning_under_four_decades_not_estimable(self, k3):
        """Residuals that fall from 1 to 1e-3 carry too little decay to
        compare against the spectral ratio."""
        oracle = dense_eigendecomposition(k3)
        hops = np.arange(1, 31)
        residuals = 0.5 ** (hops * 10.0 / 30)
        series = AlignmentSeries(variant="thm1", hops=hops, cosines=1.0 - residuals,
                                 limit=1.0, residuals=residuals)
        with pytest.raises(NotEstimableError, match="4 decades"):
            estimate_decay_rate(series, oracle)

    def test_converged_series_not_estimable(self, k3):
        oracle = dense_eigendecomposition(k3)
        series = limit_check("thm1", k3, oracle.principal(), k_max=20, trunc=oracle)
        with pytest.raises(NotEstimableError):
            estimate_decay_rate(series, oracle)


def reference_decay_rate(series, trunc):
    """``estimate_decay_rate`` as a loop over the residuals, one at a time."""
    predicted = float(trunc.eigenvalues[1] / trunc.eigenvalues[0])
    res = series.residuals
    usable = np.isfinite(res) & (res > RESIDUAL_NOISE_FLOOR)
    best_start = best_len = 0
    start = length = 0
    for i, ok in enumerate(usable):
        if ok:
            if length == 0:
                start = i
            length += 1
            if length > best_len:
                best_start, best_len = start, length
        else:
            length = 0
    if best_len < 5:
        raise NotEstimableError("fewer than five consecutive residuals above the noise floor")
    above = res[usable]
    if above.max() / above.min() < 1e4:
        raise NotEstimableError("residuals above the noise floor span fewer than 4 decades")
    evens = [i for i in range(len(res)) if series.hops[i] % 2 == 0 and usable[i]]
    if len(evens) >= 6:
        evens = evens[len(evens) // 2:]
    if len(evens) < 2:
        evens = [best_start, best_start + best_len - 1]
    first, last = evens[0], evens[-1]
    span = float(series.hops[last] - series.hops[first])
    return float((res[last] / res[first]) ** (1.0 / span)), predicted


# residuals above the noise floor, spanning up to 12 decades, and below it
ABOVE_FLOOR = st.sampled_from([1.0, 0.3, 1e-2, 1e-5, 1e-9, 1e-11])
BELOW_FLOOR = st.sampled_from([0.0, 1e-13, np.nan, np.inf])


@st.composite
def residual_series(draw):
    """Residuals made of runs above and below the floor, at increasing hops;
    hops two apart from an odd start leave no even hop, so the window falls
    back to the longest run."""
    residuals = []
    for usable, length in draw(st.lists(st.tuples(st.booleans(), st.integers(1, 8)),
                                        max_size=8)):
        residuals += draw(st.lists(ABOVE_FLOOR if usable else BELOW_FLOOR,
                                   min_size=length, max_size=length))
    first = draw(st.integers(0, 3))
    strides = draw(st.sampled_from([[1], [2], [1, 2]]))
    steps = draw(st.lists(st.sampled_from(strides), min_size=len(residuals),
                          max_size=len(residuals)))
    return np.array(residuals, dtype=np.float64), first + np.cumsum(steps, dtype=np.int64)


def decay_outcome(estimate, residuals, hops):
    """``estimate``'s (empirical, predicted) pair, or its NotEstimableError message."""
    series = AlignmentSeries(variant="thm1", hops=hops, cosines=np.zeros(len(hops)),
                             limit=0.0, residuals=residuals)
    trunc = SpectralTruncation(eigenvalues=np.array([2.0, -1.0]), eigenvectors=np.eye(3, 2))
    try:
        return estimate(series, trunc)
    except NotEstimableError as exc:
        return str(exc)


class TestDecayRateMatchesLoop:
    @given(residual_series())
    # two runs of six at odd hops only: the first run gives the window
    @example((np.array([1.0, 1e-2, 1e-5, 1e-5, 1e-5, 1e-9, 0.0,
                        1.0, 1.0, 1e-11, 1e-11, 1e-11, 1.0]), np.arange(1, 27, 2)))
    # no usable run at all
    @example((np.array([0.0, np.nan, 1e-13, np.inf]), np.arange(1, 5)))
    @example((np.array([]), np.array([], dtype=np.int64)))
    def test_matches_reference_loop(self, drawn):
        residuals, hops = drawn
        expected = decay_outcome(reference_decay_rate, residuals, hops)
        assert decay_outcome(estimate_decay_rate, residuals, hops) == expected


class TestMultiplicityBound:
    def test_component_indicator_on_two_triangles(self, two_triangles):
        sens = sensitive_column([1, 1, 1, 0, 0, 0])
        bound = multiplicity_bound_check(two_triangles, sens, k_max=50)
        assert bound.multiplicity == 2
        assert not bound.degenerate
        assert bound.lhs == pytest.approx(1.0, abs=1e-10)
        assert bound.holds
        assert bound.lhs >= bound.rhs - 1e-8

    def test_equal_projection_input_attains_equality(self, two_triangles):
        oracle = dense_eigendecomposition(two_triangles)
        equal_mix = oracle.eigenvectors[:, :2].sum(axis=1)
        bound = multiplicity_bound_check(two_triangles, equal_mix, k_max=60)
        assert bound.holds
        assert abs(bound.lhs - bound.rhs) <= 1e-8

    def test_orthogonal_input_flagged_inconclusive(self, two_triangles):
        oracle = dense_eigendecomposition(two_triangles)
        ortho = oracle.eigenvectors[:, 3]  # inside the -1 eigenspace
        bound = multiplicity_bound_check(two_triangles, ortho, k_max=20)
        assert bound.degenerate
        assert bound.holds is None

    def test_simple_dominant_rejected(self, k3):
        with pytest.raises(ValueError, match="simple"):
            multiplicity_bound_check(k3, sensitive_column([1, 0, 1]))

    def test_bipartite_dominant_rejected(self, c4):
        with pytest.raises(ValueError):
            multiplicity_bound_check(c4, np.array([1.0, 0.0, 0.0, 0.0]))


class TestBruteForceAgreement:
    """Normalised propagation must match explicit dense powers exactly."""

    def test_dense_power_cosines(self):
        spec = SyntheticSpec(kind="erdos_renyi", n=24, params={"p": 0.3}, seed=17)
        graph, _, _, _ = gen_synthetic(spec)
        rng = np.random.default_rng(3)
        values = (rng.random(24) < 0.5).astype(np.int64)
        values[0] = 1
        sens = sensitive_column(values)
        series = limit_check("thm1", graph, sens, k_max=20)
        dense = graph.to_dense()
        h = sens.complete_vector()
        for k in range(1, 21):
            power = np.linalg.matrix_power(dense, k) @ h
            direct = power @ h / (np.linalg.norm(power) * np.linalg.norm(h))
            assert series.cosines[k - 1] == pytest.approx(direct, abs=1e-10)


@pytest.fixture(scope="module")
def envelope_battery():
    return build_alignment_battery(12, seed=42)


class TestRateEnvelopes:
    """Residuals sit under a fitted geometric envelope at the gap ratio."""

    NOISE_FLOOR = 1e-12
    FIT_SLACK = 1.1  # the early-hop fit of C can undershoot the envelope

    def test_masked_self_alignment_envelope(self, envelope_battery):
        battery = envelope_battery
        for _gid, graph, sens, oracle in battery:
            series = limit_check("thm1", graph, sens, k_max=40, trunc=oracle)
            rate = spectral_gap(oracle)
            res = series.residuals
            fitted = max(res[k - 1] / rate ** k for k in (1, 2, 3, 4, 5))
            for k in (5, 10, 20, 40):
                bound = max(self.FIT_SLACK * fitted * rate ** k, self.NOISE_FLOOR)
                assert res[k - 1] <= bound, (_gid, k)

    def test_padded_recovery_gap_bound(self, envelope_battery):
        for _gid, graph, sens, oracle in envelope_battery:
            series = limit_check("thm3", graph, sens, k_max=40, trunc=oracle)
            rate = spectral_gap(oracle)
            assert series.companion_gap[-1] <= max(1e-6, 10 * rate ** 40)

    def test_cross_alignment_rate_bound(self, envelope_battery):
        for _gid, graph, sens, oracle in envelope_battery:
            series = limit_check("thm2", graph, sens, k_max=40, trunc=oracle)
            rate = spectral_gap(oracle)
            assert series.residuals[-1] <= max(1e-6, 10 * rate ** 40)


class TestBatteries:
    def test_alignment_battery_properties(self):
        battery = build_alignment_battery(6, seed=1)
        assert len(battery) == 6
        for graph_id, graph, sens, oracle in battery:
            assert 20 <= graph.n <= 200
            ratio = 1.0 / spectral_gap(oracle)
            assert ratio >= 1.5
            assert sens.padded_vector().sum() > 0
        again = build_alignment_battery(6, seed=1)
        assert [b[0] for b in battery] == [b[0] for b in again]

    def test_alignment_battery_pinned(self):
        """The battery's graphs and masked columns are pinned: a sampler
        change that redraws them updates this digest on purpose."""
        arrays = []
        for graph_id, graph, sens, _ in build_alignment_battery(30, seed=0):
            arrays += [np.array(graph_id), graph.row_offsets, graph.col_indices,
                       sens.values, sens.present]
        expected = "94973d28dd99aa783de4e919a503e6161f12fb075e8165eea41916a4da5961ca"
        assert array_digest(*arrays) == expected

    def test_multiplicity_battery_shapes(self):
        battery = build_multiplicity_battery(10, seed=2)
        assert len(battery) == 10
        for _, graph, sens in battery:
            oracle = dense_eigendecomposition(graph)
            assert abs(oracle.eigenvalues[0] - oracle.eigenvalues[1]) <= 1e-9
            assert sens.values.sum() > 0
