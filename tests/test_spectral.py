import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairspect.graph import from_edges
from fairspect.spectral import (
    ConvergenceError,
    dense_eigendecomposition,
    spectral_gap,
    top_m_eigenpairs,
)
from fairspect.synthetic import SyntheticSpec, gen_synthetic

from conftest import subspace_residual


def random_graph(n, p, seed):
    spec = SyntheticSpec(kind="erdos_renyi", n=n, params={"p": p}, seed=seed)
    graph, _, _, _ = gen_synthetic(spec)
    return graph


class TestMatvec:
    """The adjacency product the eigensolver runs: y[i] sums x over i's neighbours."""

    def test_hand_sum_on_triangle(self, k3):
        y = k3.to_scipy() @ np.array([1.0, 0.0, 1.0])
        assert np.allclose(y, [1.0, 2.0, 1.0])

    def test_zero_vector(self, c4):
        assert np.allclose(c4.to_scipy() @ np.zeros(4), 0.0)

    def test_all_ones_gives_degrees(self, c4):
        assert np.allclose(c4.to_scipy() @ np.ones(4), [2.0, 2.0, 2.0, 2.0])

    def test_length_mismatch(self, k3):
        with pytest.raises(ValueError):
            k3.to_scipy() @ np.ones(4)


class TestDenseOracle:
    def test_triangle_spectrum(self, k3):
        trunc = dense_eigendecomposition(k3)
        assert np.allclose(trunc.eigenvalues, [2.0, -1.0, -1.0])
        assert np.allclose(np.abs(trunc.eigenvectors[:, 0]), 1 / np.sqrt(3))

    def test_cycle_spectrum(self, c4):
        trunc = dense_eigendecomposition(c4)
        assert np.allclose(trunc.eigenvalues, [2.0, -2.0, 0.0, 0.0], atol=1e-12)

    def test_edgeless_graph(self):
        g = from_edges(3, [])
        trunc = dense_eigendecomposition(g)
        assert np.allclose(trunc.eigenvalues, 0.0)
        gram = trunc.eigenvectors.T @ trunc.eigenvectors
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_size_cap(self):
        g = from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="cap"):
            dense_eigendecomposition(g, oracle_cap=2)


class TestTopMEigenpairs:
    def test_triangle_top_two(self, k3):
        trunc = top_m_eigenpairs(k3, 2)
        assert np.allclose(trunc.eigenvalues, [2.0, -1.0], atol=1e-9)
        p1 = trunc.eigenvectors[:, 0]
        assert np.allclose(p1, np.ones(3) / np.sqrt(3), atol=1e-9)

    def test_degenerate_dominant_pair(self, two_triangles):
        trunc = top_m_eigenpairs(two_triangles, 2)
        assert np.allclose(trunc.eigenvalues, [2.0, 2.0], atol=1e-9)
        gram = trunc.eigenvectors.T @ trunc.eigenvectors
        assert np.abs(gram - np.eye(2)).max() <= 1e-8
        # the dominant eigenspace is spanned by the per-component constants
        oracle = dense_eigendecomposition(two_triangles)
        for i in range(2):
            assert subspace_residual(trunc.eigenvectors[:, i],
                                     trunc.eigenvalues[i], oracle) <= 1e-6

    def test_cycle_magnitude_tie_prefers_positive(self, c4):
        trunc = top_m_eigenpairs(c4, 1)
        assert np.allclose(trunc.eigenvalues, [2.0], atol=1e-9)

    def test_bad_m(self, k3):
        with pytest.raises(ValueError):
            top_m_eigenpairs(k3, 0)
        with pytest.raises(ValueError):
            top_m_eigenpairs(k3, 4)

    def test_convergence_error_carries_residuals(self):
        g = random_graph(40, 0.3, seed=9)
        with pytest.raises(ConvergenceError) as excinfo:
            top_m_eigenpairs(g, 3, tol=1e-30, max_iter=3)
        assert excinfo.value.residuals.shape == (3,)
        assert np.all(excinfo.value.residuals > 0)

    @pytest.mark.usefixtures("nan_eigenvector")
    def test_nan_residual_raises(self):
        g = random_graph(40, 0.3, seed=9)
        with pytest.raises(ConvergenceError) as excinfo:
            top_m_eigenpairs(g, 3)
        assert np.isnan(excinfo.value.residuals).any()

    def test_single_node(self):
        g = from_edges(1, [])
        trunc = top_m_eigenpairs(g, 1)
        assert trunc.eigenvalues.tolist() == [0.0]
        assert abs(abs(trunc.eigenvectors[0, 0]) - 1.0) < 1e-12

    def test_high_multiplicity_dominant(self):
        # forty disjoint 5-cliques: dominant eigenvalue 4 with multiplicity 40
        edges = []
        for c in range(40):
            base = 5 * c
            edges += [(base + i, base + j) for i in range(5) for j in range(i + 1, 5)]
        g = from_edges(200, edges)
        trunc = top_m_eigenpairs(g, 10)
        assert np.allclose(trunc.eigenvalues, 4.0, atol=1e-9)
        gram = trunc.eigenvectors.T @ trunc.eigenvectors
        assert np.abs(gram - np.eye(10)).max() <= 1e-8

    def test_near_degenerate_dominant_pair(self):
        # two 20-cliques joined by one bridge edge: dominant pair split only
        # by the bridge perturbation
        edges = []
        for base in (0, 20):
            edges += [(base + i, base + j) for i in range(20) for j in range(i + 1, 20)]
        edges.append((19, 20))
        g = from_edges(40, edges)
        trunc = top_m_eigenpairs(g, 4)
        oracle = dense_eigendecomposition(g)
        assert np.allclose(trunc.eigenvalues, oracle.eigenvalues[:4], atol=1e-9)
        for i in range(4):
            assert subspace_residual(trunc.eigenvectors[:, i],
                                     trunc.eigenvalues[i], oracle) <= 1e-6


class TestOracleEquivalence:
    def test_random_graphs_match_oracle(self):
        rng = np.random.default_rng(123)
        started = time.perf_counter()
        for trial in range(15):
            n = int(rng.integers(10, 120))
            p = float(rng.uniform(0.1, 0.6))
            m = int(rng.integers(1, min(8, n) + 1))
            g = random_graph(n, p, seed=int(rng.integers(0, 2**31)))
            trunc = top_m_eigenpairs(g, m)
            oracle = dense_eigendecomposition(g)
            for i in range(m):
                lam, lam_oracle = trunc.eigenvalues[i], oracle.eigenvalues[i]
                assert abs(lam - lam_oracle) <= 1e-8 * max(1.0, abs(lam_oracle))
                assert subspace_residual(trunc.eigenvectors[:, i], lam, oracle) <= 1e-6
        assert time.perf_counter() - started < 20.0

    def test_rayleigh_consistency(self):
        g = random_graph(60, 0.25, seed=4)
        trunc = top_m_eigenpairs(g, 5)
        for i in range(5):
            v = trunc.eigenvectors[:, i]
            rq = float(v @ (g.to_scipy() @ v)) / float(v @ v)
            assert abs(rq - trunc.eigenvalues[i]) <= 1e-8

    def test_orthonormal_columns(self):
        g = random_graph(80, 0.2, seed=5)
        trunc = top_m_eigenpairs(g, 6)
        gram = trunc.eigenvectors.T @ trunc.eigenvectors
        assert np.abs(gram - np.eye(6)).max() <= 1e-8

    def test_sign_convention_reproducible_for_simple_eigenvalues(self):
        g = random_graph(50, 0.3, seed=6)
        oracle = dense_eigendecomposition(g)
        trunc = top_m_eigenpairs(g, 4)
        for i in range(4):
            gaps = np.abs(oracle.eigenvalues - trunc.eigenvalues[i])
            if np.sort(gaps)[1] < 1e-6:  # skip (near-)degenerate eigenvalues
                continue
            assert np.allclose(trunc.eigenvectors[:, i],
                               oracle.eigenvectors[:, i], atol=1e-6)

    def test_eigenvectors_are_c_ordered_on_every_route(self):
        """The products that consume the eigenvectors round by their memory
        layout, so every route returns C-ordered ones, whatever its solver gave."""
        g = random_graph(40, 0.2, seed=3)
        routes = [top_m_eigenpairs(g, 5),  # ARPACK
                  top_m_eigenpairs(g, 39),  # dense, for m >= n - 1
                  top_m_eigenpairs(from_edges(4, []), 2),  # no edges
                  dense_eigendecomposition(g)]
        for trunc in routes:
            assert trunc.eigenvectors.flags.c_contiguous
            assert trunc.eigenvalues.flags.c_contiguous

    def test_determinism(self):
        g = random_graph(70, 0.2, seed=8)
        a = top_m_eigenpairs(g, 5)
        b = top_m_eigenpairs(g, 5)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


# Edge lists of small graphs from the families where a Krylov solver meets
# trouble: symmetric spectra (bipartite), repeated eigenvalues (equal
# cliques), invariant subspaces that hide components (disjoint unions).
@st.composite
def _erdos_renyi(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, kept in zip(pairs, keep) if kept]


@st.composite
def _even_cycle(draw):
    n = 2 * draw(st.integers(2, 8))
    return n, [(i, (i + 1) % n) for i in range(n)]


@st.composite
def _star(draw):
    leaves = draw(st.integers(1, 12))
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


@st.composite
def _complete_bipartite(draw):
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


@st.composite
def _tree(draw):
    n = draw(st.integers(2, 16))
    return n, [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]


@st.composite
def _equal_cliques(draw):
    copies, size = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    return copies * size, [(c * size + i, c * size + j) for c in range(copies)
                           for i in range(size) for j in range(i + 1, size)]


_component = st.one_of(_erdos_renyi(), _even_cycle(), _star(), _complete_bipartite(),
                       _tree(), _equal_cliques())


@st.composite
def _graph_and_m(draw):
    n, edges = 0, []
    for size, part in draw(st.lists(_component, min_size=1, max_size=3)):
        edges += [(u + n, v + n) for u, v in part]
        n += size
    return from_edges(n, edges), draw(st.integers(1, n))


class TestOracleProperties:
    @settings(max_examples=200, deadline=None)
    @given(_graph_and_m())
    def test_matches_dense_oracle(self, graph_and_m):
        g, m = graph_and_m
        trunc = top_m_eigenpairs(g, m)
        oracle = dense_eigendecomposition(g)
        for i in range(m):
            lam, lam_oracle = trunc.eigenvalues[i], oracle.eigenvalues[i]
            assert abs(lam - lam_oracle) <= 1e-8 * max(1.0, abs(lam_oracle))
            assert subspace_residual(trunc.eigenvectors[:, i], lam, oracle) <= 1e-6
        gram = trunc.eigenvectors.T @ trunc.eigenvectors
        assert np.abs(gram - np.eye(m)).max() <= 1e-8
        again = top_m_eigenpairs(g, m)
        assert np.array_equal(trunc.eigenvalues, again.eigenvalues)
        assert np.array_equal(trunc.eigenvectors, again.eigenvectors)


def planted_partition(n, blocks, avg_degree, seed):
    """O(E) planted partition: 80% of edges inside a block, 20% across two.

    Endpoints are drawn uniformly; self-loops are dropped and repeats
    collapse, so the mean degree ends slightly below ``avg_degree``.
    """
    rng = np.random.default_rng(seed)
    draws = n * avg_degree // 2
    size = n // blocks
    u = rng.integers(0, n, draws)
    home = u // size
    other = (home + rng.integers(1, blocks, draws)) % blocks
    v = np.where(rng.random(draws) < 0.8, home, other) * size + rng.integers(0, size, draws)
    keep = u != v
    return from_edges(n, np.column_stack([u[keep], v[keep]]))


class TestScale:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top16_of_50k_node_planted_partition(self, seed):
        g = planted_partition(50_000, blocks=4, avg_degree=10, seed=seed)
        trunc = top_m_eigenpairs(g, 16)
        A = g.to_scipy()
        residuals = np.linalg.norm(
            A @ trunc.eigenvectors - trunc.eigenvectors * trunc.eigenvalues, axis=0)
        assert residuals.max() <= 1e-10


class TestSpectralGap:
    def test_triangle(self, k3):
        assert abs(spectral_gap(top_m_eigenpairs(k3, 2)) - 0.5) < 1e-9

    def test_repeated_dominant(self, two_triangles):
        assert abs(spectral_gap(top_m_eigenpairs(two_triangles, 2)) - 1.0) < 1e-9

    def test_star_bipartite_ratio_is_one(self, star4):
        trunc = dense_eigendecomposition(star4)
        assert np.allclose(np.abs(trunc.eigenvalues[:2]), np.sqrt(3.0))
        assert abs(spectral_gap(trunc) - 1.0) < 1e-9

    def test_errors(self, k3):
        with pytest.raises(ValueError):
            spectral_gap(top_m_eigenpairs(k3, 1))
        edgeless = dense_eigendecomposition(from_edges(3, []))
        with pytest.raises(ValueError):
            spectral_gap(edgeless)
