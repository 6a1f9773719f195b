import tracemalloc

import numpy as np
import pytest

from fairspect.graph import (from_edges, is_connected, load_attributes, load_edge_list,
                             to_edge_list_text)
from fairspect.spectral import dense_eigendecomposition
from fairspect.synthetic import (SyntheticSpec, _build_topology, attributes_to_csv_text,
                                 gen_synthetic)

from conftest import array_digest


class TestGenerators:
    def test_disjoint_cliques_spectrum(self):
        spec = SyntheticSpec(kind="disjoint_cliques", n=6, params={"sizes": [3, 3]}, seed=0)
        graph, _, _, _ = gen_synthetic(spec)
        assert graph.edge_count == 6
        trunc = dense_eigendecomposition(graph)
        assert np.allclose(trunc.eigenvalues[:2], [2.0, 2.0], atol=1e-12)

    def test_complete_graph_from_full_probability(self):
        spec = SyntheticSpec(kind="erdos_renyi", n=50, params={"p": 1.0}, seed=0)
        graph, _, _, _ = gen_synthetic(spec)
        assert graph.edge_count == 50 * 49 // 2
        trunc = dense_eigendecomposition(graph)
        assert trunc.eigenvalues[0] == pytest.approx(49.0, abs=1e-9)

    def test_determinism(self):
        spec = SyntheticSpec(kind="sbm", n=40,
                             params={"block_sizes": [20, 20], "p_in": 0.4, "p_out": 0.05},
                             sensitive_correlation=0.8, label_flip=0.2, seed=123)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert np.array_equal(a[0].col_indices, b[0].col_indices)
        assert np.array_equal(a[1].features, b[1].features)
        assert np.array_equal(a[2].values, b[2].values)
        assert np.array_equal(a[3], b[3])

    def test_sbm_blocks_denser_inside(self):
        spec = SyntheticSpec(kind="sbm", n=100,
                             params={"block_sizes": [50, 50], "p_in": 0.4, "p_out": 0.02},
                             seed=7)
        graph, _, sens, _ = gen_synthetic(spec)
        dense = graph.to_dense()
        within = dense[:50, :50].sum() + dense[50:, 50:].sum()
        across = dense[:50, 50:].sum() * 2
        assert within > 4 * across
        # perfect correlation keeps the block structure in the sensitive column
        assert sens.values[:50].mean() == 0.0
        assert sens.values[50:].mean() == 1.0

    def test_sensitive_flip_rate(self):
        spec = SyntheticSpec(kind="sbm", n=400,
                             params={"block_sizes": [200, 200], "p_in": 0.05, "p_out": 0.01},
                             sensitive_correlation=0.7, seed=11)
        _, _, sens, _ = gen_synthetic(spec)
        blocks = np.repeat([0, 1], 200)
        agreement = float(np.mean(sens.values == blocks))
        assert 0.6 < agreement < 0.8

    def test_label_correlation(self):
        spec = SyntheticSpec(kind="sbm", n=400,
                             params={"block_sizes": [200, 200], "p_in": 0.05, "p_out": 0.01},
                             label_flip=0.25, seed=13)
        _, _, sens, labels = gen_synthetic(spec)
        agreement = float(np.mean(labels == (sens.values % 2)))
        assert 0.65 < agreement < 0.85

    def test_custom_edges(self):
        spec = SyntheticSpec(kind="custom", n=4, params={"edges": [(0, 1), (2, 3)]}, seed=0)
        graph, attrs, sens, labels = gen_synthetic(spec)
        assert graph.edge_count == 2
        assert not is_connected(graph)
        assert attrs.n == 4 and len(labels) == 4 and sens.n == 4

    def test_custom_edges_must_be_pairs(self):
        for edges in ([(0, 1, 2), (3, 4, 5)], [0, 1, 2, 3]):
            with pytest.raises(ValueError, match="pairs"):
                gen_synthetic(SyntheticSpec(kind="custom", n=6, params={"edges": edges}))

    def test_many_small_cliques_cost_their_edges_only(self):
        # 1000 cliques of 4: 6000 edges among 8 million node pairs. Building
        # the cliques block by block allocates a few hundred kB; a pass over
        # every pair would allocate over 100 MB.
        spec = SyntheticSpec(kind="disjoint_cliques", n=4000, params={"sizes": [4] * 1000})
        tracemalloc.start()
        try:
            edges, blocks = _build_topology(spec, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert edges.shape == (6000, 2)
        assert np.all(blocks[edges[:, 0]] == blocks[edges[:, 1]])
        graph = from_edges(spec.n, edges)
        assert graph.edge_count == 6000
        assert np.all(np.diff(graph.row_offsets) == 3)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="nope", n=4)
        with pytest.raises(ValueError):
            gen_synthetic(SyntheticSpec(kind="sbm", n=10, params={"block_sizes": [4, 4]}))
        with pytest.raises(ValueError):
            SyntheticSpec(kind="erdos_renyi", n=4, sensitive_correlation=1.5)

    @pytest.mark.parametrize("kind, params", [
        ("erdos_renyi", {"p": 1.5}),
        ("erdos_renyi", {"p": float("nan")}),
        ("sbm", {"block_sizes": [2, 2], "p_in": -0.1}),
        ("sbm", {"block_sizes": [2, 2], "p_out": float("nan")}),
        ("disjoint_cliques", {"sizes": [2, 2], "p_in": 2.0}),
    ])
    def test_rejects_probabilities_outside_unit_interval(self, kind, params):
        with pytest.raises(ValueError, match="must be a probability in"):
            SyntheticSpec(kind=kind, n=4, params=params)


class TestSamplerPinned:
    """The generators' draws are pinned: a change that redraws any kind's
    graph, features, sensitive classes or labels fails here, and a sampler
    change that means to redraw updates these digests on purpose."""

    SPECS = {
        "erdos_renyi": SyntheticSpec(kind="erdos_renyi", n=60, params={"p": 0.15},
                                     label_flip=0.2, seed=3),
        "sbm2": SyntheticSpec(kind="sbm", n=50,
                              params={"block_sizes": [30, 20], "p_in": 0.4, "p_out": 0.05},
                              sensitive_correlation=0.8, label_flip=0.1, seed=4),
        "sbm3": SyntheticSpec(kind="sbm", n=45,
                              params={"block_sizes": [10, 15, 20], "p_in": 0.5, "p_out": 0.1},
                              sensitive_correlation=0.7, sensitive_classes=3,
                              noise_scale=0.3, seed=5),
        "cliques": SyntheticSpec(kind="disjoint_cliques", n=12, params={"sizes": [3, 4, 5]},
                                 sensitive_correlation=0.9, label_flip=0.3, seed=6),
        "custom": SyntheticSpec(kind="custom", n=6,
                                params={"edges": [(0, 1), (1, 2), (4, 3), (2, 0)]},
                                sensitive_classes=3, seed=7),
    }
    # sha256 of (row_offsets, col_indices, features, sensitive, labels)
    DIGESTS = {
        "erdos_renyi": "716d576ac80cf9d6fc7092f7a7c8a7f912103d66cb83de5be947caa54de8477f",
        "sbm2": "2e1379e8a8e898ffbd2a15491c0f9c02abf6d1d08eaa70d2e39bb3111af8274f",
        "sbm3": "82cf3a5db552173857365c57072997784bab742b006ca40eea520dd240d0323d",
        "cliques": "3d078b43839ff7e4fdbdc2b9ac90a15a7ab316baa4fa93d70ddd531be5469347",
        "custom": "29cbd974f857324e80a4dea41570a64e7fbb138abc09f729e37ca8f956963cdf",
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_output_digest(self, name):
        graph, attrs, sens, labels = gen_synthetic(self.SPECS[name])
        assert array_digest(graph.row_offsets, graph.col_indices, attrs.features,
                            sens.values, labels) == self.DIGESTS[name]


class TestSerialisation:
    def test_files_round_trip_through_loaders(self):
        spec = SyntheticSpec(kind="sbm", n=30,
                             params={"block_sizes": [15, 15], "p_in": 0.5, "p_out": 0.1},
                             label_flip=0.1, seed=21)
        graph, attrs, sens, labels = gen_synthetic(spec)
        graph2 = load_edge_list(to_edge_list_text(graph))
        assert np.array_equal(graph2.col_indices, graph.col_indices)
        attrs2, sens2, labels2 = load_attributes(
            attributes_to_csv_text(attrs, sens, labels), expected_n=30)
        assert np.array_equal(attrs2.features, attrs.features)
        assert attrs2.sensitive_index == attrs.sensitive_index
        assert np.array_equal(sens2.values, sens.values)
        assert np.array_equal(labels2, labels)
