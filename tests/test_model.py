import os
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from fairspect import autodiff as ad
from fairspect import model
from fairspect.encoding import eigenvalue_position_encoding, propagate_k_hop, zero_pad
from fairspect.graph import SensitiveColumn, Split, apply_missing_mask, make_split
from fairspect.model import (
    Adam,
    PreparedData,
    TrainConfig,
    TrainingDivergedError,
    forward,
    gradients,
    init_params,
    layer_weights,
    load_checkpoint,
    loss_on,
    predict,
    prepare_inputs,
    save_checkpoint,
    train,
)
from fairspect.spectral import dense_eigendecomposition, top_m_eigenpairs
from fairspect.synthetic import SyntheticSpec, gen_synthetic

import elementary as ops
from composed import (
    attention,
    attention_weights,
    composed_layer_weights,
    spectral_filter,
    transformer_block,
)
from elementary import Tensor


def desk_fixture(missing_rate=0.3, layers=2, hidden=8, d_m=4, heads=2,
                 spectral_fusion=True, seed=7):
    """Six-node graph with masked sensitive column, used by the grad checks."""
    spec = SyntheticSpec(
        kind="custom", n=6,
        params={"edges": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]},
        seed=3,
    )
    graph, attrs, sens, labels = gen_synthetic(spec)
    if missing_rate:
        sens = apply_missing_mask(sens, missing_rate, seed=5)
    config = TrainConfig(m=2, hidden=hidden, d_m=d_m, heads=heads, layers=layers,
                         epochs=1, seed=seed, spectral_fusion=spectral_fusion)
    split = make_split(6, None, 0)
    data = prepare_inputs(graph, attrs, sens, labels, split, config)
    return data, config


class TestPreparedData:
    @pytest.mark.parametrize("spectral_fusion", [True, False])
    def test_inputs_are_padded_attributes_next_to_side(self, spectral_fusion):
        spec = SyntheticSpec(kind="erdos_renyi", n=10, params={"p": 0.5}, seed=2)
        graph, attrs, sens, labels = gen_synthetic(spec)
        sens = apply_missing_mask(sens, 0.3, seed=1)
        config = TrainConfig(m=3, d_m=4, heads=1, spectral_fusion=spectral_fusion)
        data = prepare_inputs(graph, attrs, sens, labels, make_split(10, None, 0), config)
        padded = zero_pad(attrs, sens)
        assert data.width == padded.shape[1]
        assert np.array_equal(data.inputs[:, :data.width], padded)
        if spectral_fusion:
            trunc = top_m_eigenpairs(graph, config.m)
            assert np.array_equal(data.inputs[:, data.width:], trunc.eigenvectors)
            assert np.array_equal(data.tokens,
                                  eigenvalue_position_encoding(trunc.eigenvalues, config.d_m))
            assert np.array_equal(data.coeffs, trunc.eigenvectors.T @ padded)
        else:
            assert np.array_equal(data.inputs[:, data.width:],
                                  propagate_k_hop(graph, padded, config.k_hops))
            assert data.tokens is None and data.coeffs is None

    def test_eigensolve_runs_before_the_padded_copy(self, monkeypatch):
        # the n x d padded copy must not be resident at the solve's peak
        spec = SyntheticSpec(kind="erdos_renyi", n=10, params={"p": 0.5}, seed=2)
        graph, attrs, sens, labels = gen_synthetic(spec)
        calls = []

        def recorded(name):
            real = getattr(model, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("structural_truncation", "zero_pad"):
            monkeypatch.setattr(model, name, recorded(name))
        prepare_inputs(graph, attrs, sens, labels, make_split(10, None, 0),
                       TrainConfig(m=3, d_m=4, heads=1))
        assert calls == ["structural_truncation", "zero_pad"]

    def test_row_mismatch_fails_before_the_eigensolve(self, monkeypatch):
        spec = SyntheticSpec(kind="erdos_renyi", n=10, params={"p": 0.5}, seed=2)
        graph, attrs, sens, labels = gen_synthetic(spec)
        short = SensitiveColumn(values=sens.values[:9], present=sens.present[:9])

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the row check")

        monkeypatch.setattr(model, "structural_truncation", no_solve)
        with pytest.raises(ValueError, match="disagree on n"):
            prepare_inputs(graph, attrs, short, labels, make_split(10, None, 0),
                           TrainConfig(m=3, d_m=4, heads=1))

    @pytest.mark.parametrize("field", [f.name for f in fields(PreparedData)])
    def test_fields_cannot_be_reassigned(self, field):
        data, _ = desk_fixture()
        with pytest.raises(FrozenInstanceError):
            setattr(data, field, getattr(data, field))


class TestAttention:
    def test_single_token_reduces_to_value_projection(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 4)))
        wq, wk, wv = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        out = attention(x, wq, wk, wv)
        assert np.allclose(out.data, x.data @ wv.data, atol=1e-12)

    def test_zero_projections_give_uniform_attention(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((5, 3)))
        zeros = Tensor(np.zeros((3, 3)))
        wv = Tensor(rng.standard_normal((3, 3)))
        out = attention(x, zeros, zeros, wv)
        expected = np.tile((x.data @ wv.data).mean(axis=0), (5, 1))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4))
        wq, wk = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        weights = attention_weights(x, wq, wk)
        assert np.all(weights >= 0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_multi_head_matches_padded_single_head(self):
        # two heads sharing query/key projections, value split across heads,
        # against one head with zero-padded projections and rescaled keys
        rng = np.random.default_rng(3)
        m, d_m = 4, 8
        x = Tensor(rng.standard_normal((m, d_m)))
        wq = rng.standard_normal((d_m, 4))
        wk = rng.standard_normal((d_m, 4))
        wv1 = rng.standard_normal((d_m, 4))
        wv2 = rng.standard_normal((d_m, 4))
        multi = ops.concat_cols(
            attention(x, Tensor(wq), Tensor(wk), Tensor(wv1)),
            attention(x, Tensor(wq), Tensor(wk), Tensor(wv2)),
        )
        pad = np.zeros((d_m, 4))
        single = attention(
            x,
            Tensor(np.hstack([wq, pad])),
            Tensor(np.hstack([np.sqrt(2.0) * wk, pad])),
            Tensor(np.hstack([wv1, wv2])),
        )
        assert np.allclose(multi.data, single.data, atol=1e-12)


class TestTransformerBlock:
    def test_zero_weights_pass_through(self):
        config = TrainConfig(m=3, d_m=4, heads=2, hidden=4)
        params = init_params(config, feature_width=2)
        for name, tensor in params.items():
            if name.startswith(("attn_", "ffn_")):
                tensor.data = np.zeros_like(tensor.data)
        rng = np.random.default_rng(4)
        e_pe = Tensor(rng.standard_normal((3, 4)))
        out = transformer_block(e_pe, params)
        assert np.allclose(out.data, e_pe.data, atol=1e-12)

    def test_output_shape(self):
        config = TrainConfig(m=5, d_m=8, heads=4, hidden=4)
        params = init_params(config, feature_width=3)
        e_pe = Tensor(np.random.default_rng(5).standard_normal((5, 8)))
        assert transformer_block(e_pe, params).data.shape == (5, 8)


class TestSpectralFilter:
    def test_full_basis_identity(self):
        spec = SyntheticSpec(kind="erdos_renyi", n=5, params={"p": 0.6}, seed=9)
        graph, _, _, _ = gen_synthetic(spec)
        oracle = dense_eigendecomposition(graph)
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 3))
        p = oracle.eigenvectors
        out = spectral_filter(Tensor(p), Tensor(np.ones((5, 1))), Tensor(p.T @ h))
        assert np.allclose(out.data, h, atol=1e-10)

    def test_zero_gate_kills_filtered_path(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((6, 2))
        h = rng.standard_normal((6, 3))
        out = spectral_filter(Tensor(p), Tensor(np.zeros((2, 1))), Tensor(p.T @ h))
        assert np.allclose(out.data, 0.0)

    def test_triangle_hand_value(self, k3):
        oracle = dense_eigendecomposition(k3)
        p1 = oracle.eigenvectors[:, :1]
        h = np.array([[1.0], [0.0], [1.0]])
        out = spectral_filter(Tensor(p1), Tensor(np.ones((1, 1))), Tensor(p1.T @ h))
        assert np.allclose(out.data[:, 0], 2.0 / 3.0, atol=1e-12)

    def test_folded_weight_depends_only_on_prev_when_gate_zero(self):
        # zero gates zero the folded block diag(g) C W_lower, so C cannot matter
        data, config = desk_fixture()
        params = init_params(config, data.width)
        for name, tensor in params.items():
            if name.startswith("gate_"):
                tensor.data = np.zeros_like(tensor.data)
        other = replace(data, coeffs=np.random.default_rng(8).standard_normal(data.coeffs.shape))
        m = data.coeffs.shape[0]
        weights, _ = layer_weights(other, params, config)
        for weight in weights:
            assert np.all(weight[-m:] == 0.0)
        assert np.array_equal(forward(other, params, config),
                              forward(data, params, config))


def stage_fixture(heads, layers, m):
    """The stage's inputs with every parameter moved off its initial value, so
    no gradient is zero by symmetry (unit scales, zero shifts and biases)."""
    config = TrainConfig(m=m, hidden=5, d_m=4, heads=heads, layers=layers, seed=heads)
    width = 3
    rng = np.random.default_rng(10 * m + layers)
    no_rows = np.empty(0, dtype=np.int64)
    data = PreparedData(inputs=rng.standard_normal((2, width + m)), width=width,
                        labels=np.zeros(2, dtype=np.int64),
                        split=Split(train=no_rows, val=no_rows, test=no_rows),
                        tokens=eigenvalue_position_encoding(rng.uniform(-3.0, 3.0, m),
                                                            config.d_m),
                        coeffs=rng.standard_normal((m, width)))
    params = init_params(config, width)
    for t in params.values():
        t.data = t.data + 0.5 * rng.standard_normal(t.data.shape)
    probes = [rng.standard_normal(w.data.shape)
              for w in composed_layer_weights(data, params, config)]
    # the stage reads every parameter but the head's
    stage_params = {name: t for name, t in params.items() if not name.startswith("cls_")}
    return data, config, stage_params, probes


def probed_sum(weights, probes):
    """sum_l <W_l, R_l> as a node: every entry of every weight gets its own slope."""
    total = None
    for weight, probe in zip(weights, probes):
        col = ops.mul(weight, Tensor(probe)) @ Tensor(np.ones((probe.shape[1], 1)))
        part = ops.transpose(col) @ Tensor(np.ones((probe.shape[0], 1)))
        total = part if total is None else total + part
    return total


class TestClosedFormStage:
    """``spectral_stage`` against the stage composed from elementary nodes.

    The probed sum sum_l <W_l, R_l> has gradient R_l with respect to W_l, so
    the pullback of the probes is that sum's gradient by parameter."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_matches_composed_stage(self, heads, layers, m):
        data, config, params, probes = stage_fixture(heads, layers, m)
        weights, pullback = layer_weights(data, params, config)
        reference = composed_layer_weights(data, params, config)
        assert len(weights) == layers
        for weight, ref in zip(weights, reference, strict=True):
            assert type(weight) is np.ndarray
            assert np.array_equal(weight, ref.data)
        grads = pullback(probes)
        ad.zero_grads(params.values())
        probed_sum(reference, probes).backward()
        assert grads.keys() == params.keys()
        for name, t in params.items():
            assert grads[name].shape == t.grad.shape, name
            assert np.abs(grads[name] - t.grad).max() <= 1e-12 * np.abs(t.grad).max(), name

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradient_against_fd(self, heads, layers, m):
        data, config, params, probes = stage_fixture(heads, layers, m)

        def value():
            weights, _ = layer_weights(data, params, config)
            return sum(float((w * r).sum()) for w, r in zip(weights, probes))

        _, pullback = layer_weights(data, params, config)
        grads = pullback(probes)
        for name, t in params.items():
            analytic = grads[name]
            numeric = np.zeros_like(t.data)
            for at in np.ndindex(t.data.shape):
                orig = t.data[at]
                t.data[at] = orig + 1e-6
                plus = value()
                t.data[at] = orig - 1e-6
                minus = value()
                t.data[at] = orig
                numeric[at] = (plus - minus) / 2e-6
            assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-7), name


def unfolded_forward(data, params, config):
    """Reference forward: build the filtered attributes P diag(g) C, then
    concatenate them to h_prev and mix with ``fuse_w``, layer by layer."""
    e_gt = transformer_block(Tensor(data.tokens), params)
    p_st, coeffs = Tensor(data.inputs[:, data.width:]), Tensor(data.coeffs)
    h = Tensor(data.inputs[:, :data.width])
    for layer in range(config.layers):
        gates = e_gt @ params[f"gate_w_{layer}"] + params[f"gate_b_{layer}"]
        filtered = spectral_filter(p_st, gates, coeffs)
        h = ops.relu(ops.concat_cols(h, filtered) @ params[f"fuse_w_{layer}"])
    return h @ params["cls_w"] + params["cls_b"]


class TestFoldedFusion:
    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_unfolded_reference(self, layers):
        spec = SyntheticSpec(kind="sbm", n=40,
                             params={"block_sizes": [20, 20], "p_in": 0.4, "p_out": 0.05},
                             seed=4)
        graph, attrs, sens, labels = gen_synthetic(spec)
        sens = apply_missing_mask(sens, 0.3, seed=1)
        config = TrainConfig(m=5, hidden=12, d_m=4, heads=2, layers=layers, seed=2)
        data = prepare_inputs(graph, attrs, sens, labels, make_split(40, None, 0), config)
        params = init_params(config, data.width)

        ad.zero_grads(params.values())
        model.loss(data, params, config).backward()
        grads = {name: t.grad for name, t in params.items()}
        ad.zero_grads(params.values())
        ref_logits = unfolded_forward(data, params, config)
        ops.mean_cross_entropy(ref_logits, data.labels).backward()
        ref_grads = {name: t.grad for name, t in params.items()}
        assert np.abs(forward(data, params, config) - ref_logits.data).max() <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert np.any(ref_grads[name] != 0.0), name
            assert np.abs(grad - ref_grads[name]).max() <= 1e-12, name


def composed_forward(data, params, config):
    """``forward`` built from the elementary ops ``matmul``, ``relu``,
    ``concat_cols`` and ``add``: the per-row network as a chain of nodes, over
    the stage composed from elementary nodes."""
    side = Tensor(data.inputs[:, data.width:])
    h = Tensor(data.inputs)
    weights = (composed_layer_weights(data, params, config) if config.spectral_fusion
               else [params[f"fuse_w_{layer}"] for layer in range(config.layers)])
    for layer, weight in enumerate(weights):
        h = ops.relu((h if layer == 0 else ops.concat_cols(h, side)) @ weight)
    return h @ params["cls_w"] + params["cls_b"]


def composed_loss_and_grads(data, params, config, scale):
    """``mean_cross_entropy`` over ``composed_forward``, backward from ``scale``."""
    ad.zero_grads(params.values())
    ref = ops.mean_cross_entropy(composed_forward(data, params, config), data.labels)
    (ref * scale).backward()
    return float(ref.data), {name: t.grad for name, t in params.items()}


def check_against_composed(layers, spectral_fusion, case):
    """The fused loss node and ``forward`` against the composed network: the
    loss, every parameter gradient and the logits within 1e-12, and NaN where
    the reference is NaN."""
    data, config = desk_fixture(layers=layers, spectral_fusion=spectral_fusion)
    params = init_params(config, data.width)
    inputs = data.inputs.copy()
    if case == "exact_zeros":
        # a zero row is a zero pre-activation in every layer; a zero weight
        # column is one in every row
        inputs[1] = 0.0
        for layer in range(layers):
            params[f"fuse_w_{layer}"].data[:, layer] = 0.0
    elif case == "nan_row":
        inputs[4] = np.nan
    data = replace(data, inputs=inputs)
    ref_value, ref_grads = composed_loss_and_grads(data, params, config, 3.0)
    ad.zero_grads(params.values())
    fused = model.loss(data, params, config)
    ops.mul(fused, 3.0).backward()
    grads = {name: t.grad for name, t in params.items()}
    np.testing.assert_allclose(float(fused.data), ref_value, rtol=0, atol=1e-12)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(forward(data, params, config),
                               composed_forward(data, params, config).data, rtol=0, atol=1e-12)
    if case == "exact_zeros":
        assert not np.any(grads["fuse_w_0"][:, 0])
    assert np.isnan(ref_value) == (case == "nan_row")
    return data, config, params


class TestFusedRowNetwork:
    """``loss`` is one node over the parameters, its composition up to the
    rounding of the gradient sums; ``forward`` builds no node."""

    @pytest.mark.parametrize("case", ["random", "exact_zeros", "nan_row"])
    @pytest.mark.parametrize("spectral_fusion", [True, False])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_bit_identical_to_elementary_ops(self, layers, spectral_fusion, case):
        check_against_composed(layers, spectral_fusion, case)

    # hidden 8: one row per block, blocks of 2 rows that split the 6 rows
    # evenly, and blocks of 4 rows with a ragged last block
    @pytest.mark.parametrize("block_elements,sizes", [(8, [1] * 6), (16, [2, 2, 2]),
                                                      (32, [4, 2])])
    @pytest.mark.parametrize("spectral_fusion", [True, False])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_row_blocks_match_elementary_ops(self, layers, spectral_fusion, block_elements,
                                             sizes, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", block_elements)
        for case in ("random", "exact_zeros"):
            data, config, params = check_against_composed(layers, spectral_fusion, case)
        blocks = ad._row_blocks(len(data.inputs), config.hidden)
        assert [len(data.inputs[rows]) for rows in blocks] == sizes

    @pytest.mark.parametrize("spectral_fusion", [True, False])
    def test_loss_is_one_node_over_the_parameters(self, spectral_fusion):
        # the parameters are leaves: the loss is the only node of a step's tape
        data, config = desk_fixture(spectral_fusion=spectral_fusion)
        params = init_params(config, data.width)
        stage = layer_weights(data, params, config)
        assert all(type(w) is np.ndarray for w in stage[0])
        step_loss = model.loss(data, params, config, stage)
        assert step_loss._parents == tuple(params.values())
        assert all(not t._parents for t in step_loss._parents)
        assert type(forward(data, params, config, stage)) is np.ndarray

    def test_empty_batch_rejected(self):
        data, config = desk_fixture()
        params = init_params(config, data.width)
        with pytest.raises(ValueError, match="empty batch"):
            loss_on(data, params, config, np.empty(0, dtype=np.int64))

    def test_nan_row_diverges(self):
        data, config = separable_toy()
        inputs = data.inputs.copy()
        inputs[data.split.train[1]] = np.nan
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(replace(data, inputs=inputs), config)
        assert excinfo.value.epoch == 0

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def many_rows():
        rows, width = 20_000, 6
        config = TrainConfig(m=4, hidden=32, d_m=4, heads=1)
        rng = np.random.default_rng(0)
        no_rows = np.empty(0, dtype=np.int64)
        data = PreparedData(inputs=rng.standard_normal((rows, width + config.m)),
                            width=width, labels=rng.integers(0, 2, rows),
                            split=Split(train=np.arange(rows), val=no_rows, test=no_rows),
                            tokens=rng.standard_normal((config.m, config.d_m)),
                            coeffs=rng.standard_normal((config.m, width)))
        return data, config, init_params(config, width)

    def test_loss_peak_below_inputs_and_a_few_blocks(self):
        """A block's arrays are freed before the next block allocates: one loss
        and its backward hold the taken input rows, a float and a label per row,
        and one block's arrays. Those are its activation h and its gradient gh,
        ``BLOCK_ELEMENTS`` floats each, and arrays that are all smaller than a
        third: the ReLU mask, its cast and the arrays as wide as the logits."""
        data, config, params = self.many_rows()
        peak = self.traced_peak(
            lambda: loss_on(data, params, config, data.split.train).backward())
        per_row = data.inputs.shape[1] + 2
        assert peak < len(data.labels) * per_row * 8 + 3 * ad.BLOCK_ELEMENTS * 8

    def test_forward_peak_below_logits_and_one_block(self):
        """``forward`` holds the logits and one block's arrays: its activation h,
        ``BLOCK_ELEMENTS`` floats, and arrays that add up to less than half of
        that: those as wide as the logits, and the stage's few rows."""
        data, config, params = self.many_rows()
        peak = self.traced_peak(lambda: forward(data, params, config))
        classes = params["cls_w"].data.shape[1]
        assert peak < len(data.labels) * classes * 8 + 1.5 * ad.BLOCK_ELEMENTS * 8


class TestForward:
    def test_zero_classifier_gives_zero_logits_and_class_zero(self):
        data, config = desk_fixture()
        params = init_params(config, data.width)
        params["cls_w"].data = np.zeros_like(params["cls_w"].data)
        params["cls_b"].data = np.zeros_like(params["cls_b"].data)
        logits = forward(data, params, config)
        assert np.allclose(logits, 0.0)
        assert predict(params, data, config).tolist() == [0] * 6

    def test_node_permutation_equivariance(self):
        data, config = desk_fixture()
        params = init_params(config, data.width)
        logits = forward(data, params, config)
        perm = np.array([3, 0, 5, 1, 4, 2])
        # the tokens and P^T H are invariant under a node permutation
        permuted = replace(data, inputs=data.inputs[perm], labels=data.labels[perm])
        logits_perm = forward(permuted, params, config)
        assert np.allclose(logits_perm, logits[perm], atol=1e-12)

    def test_logits_finite(self):
        for spectral in (True, False):
            data, config = desk_fixture(spectral_fusion=spectral)
            params = init_params(config, data.width)
            assert np.all(np.isfinite(forward(data, params, config)))

    @pytest.mark.parametrize("spectral_fusion", [True, False])
    def test_forward_on_taken_rows_matches_full_forward(self, spectral_fusion):
        data, config = desk_fixture(spectral_fusion=spectral_fusion)
        params = init_params(config, data.width)
        full = forward(data, params, config)
        for rows in (np.array([4, 0, 2]), np.array([5]), np.arange(6)):
            taken = data.take(rows)
            assert np.array_equal(taken.inputs, data.inputs[rows])
            assert np.array_equal(taken.labels, data.labels[rows])
            assert np.allclose(forward(taken, params, config), full[rows],
                               rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("head_bias, expected", [
        ([0.2, 0.9], 1), ([0.4, 0.4], 0), ([np.nan, 0.0], 0), ([0.0, np.nan], 1)])
    def test_predict_tie_rules(self, head_bias, expected):
        """With a zero head weight every row's logits are the head bias: an exact
        tie goes to the first class, and a NaN counts as the maximum."""
        data, config = desk_fixture()
        params = init_params(config, data.width)
        params["cls_w"].data = np.zeros_like(params["cls_w"].data)
        params["cls_b"].data = np.array(head_bias)
        assert predict(params, data, config).tolist() == [expected] * 6


class TestGradients:
    def _check_fd(self, data, config, tol=1e-4, h=1e-5):
        params = init_params(config, data.width)
        grads = gradients(params, data, config)
        idx = data.split.train
        for name, tensor in params.items():
            it = np.nditer(tensor.data, flags=["multi_index"])
            for _ in it:
                at = it.multi_index
                orig = tensor.data[at]
                tensor.data[at] = orig + h
                plus = float(loss_on(data, params, config, idx).data)
                tensor.data[at] = orig - h
                minus = float(loss_on(data, params, config, idx).data)
                tensor.data[at] = orig
                numeric = (plus - minus) / (2 * h)
                analytic = grads[name][at]
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                assert rel <= tol, (name, at, numeric, analytic)

    def test_finite_difference_agreement_spectral(self):
        data, config = desk_fixture()
        self._check_fd(data, config)

    def test_finite_difference_agreement_ablation(self):
        data, config = desk_fixture(spectral_fusion=False, layers=1)
        self._check_fd(data, config)

    def test_saturated_regime_has_vanishing_gradients(self):
        spec = SyntheticSpec(kind="custom", n=4,
                             params={"edges": [(0, 1), (1, 2), (2, 3), (0, 2)]}, seed=1)
        graph, _, _, _ = gen_synthetic(spec)
        labels = np.array([0, 0, 1, 1])
        features = labels.astype(np.float64)[:, None]
        config = TrainConfig(m=2, hidden=1, d_m=4, heads=1, layers=1, seed=0)
        split = Split(train=np.arange(4), val=np.empty(0, dtype=np.int64),
                      test=np.empty(0, dtype=np.int64))
        trunc = dense_eigendecomposition(graph)
        p = trunc.eigenvectors[:, :2].copy()
        data = PreparedData(inputs=np.concatenate([features, p], axis=1), width=1,
                            labels=labels, split=split,
                            tokens=eigenvalue_position_encoding(trunc.eigenvalues[:2],
                                                               config.d_m),
                            coeffs=p.T @ features)
        params = init_params(config, 1)
        for name, tensor in params.items():
            if name.startswith(("attn_", "ffn_", "gate_")):
                tensor.data = np.zeros_like(tensor.data)
        params["fuse_w_0"].data = np.array([[20.0], [0.0]])
        params["cls_w"].data = np.array([[-2.0, 2.0]])
        params["cls_b"].data = np.array([20.0, 0.0])
        loss = loss_on(data, params, config, split.train)
        assert float(loss.data) < 1e-6  # perfectly separated, saturated softmax
        grads = gradients(params, data, config)
        for g in grads.values():
            assert np.linalg.norm(g) < 1e-6

    def test_doubling_loss_doubles_gradients(self):
        data, config = desk_fixture()
        params = init_params(config, data.width)
        ad.zero_grads(params.values())
        loss_on(data, params, config, data.split.train).backward()
        singles = {k: t.grad.copy() for k, t in params.items()}
        ad.zero_grads(params.values())
        ops.mul(loss_on(data, params, config, data.split.train), 2.0).backward()
        for k, t in params.items():
            assert np.allclose(t.grad, 2.0 * singles[k], rtol=1e-13, atol=0)


def separable_toy(seed=0):
    spec = SyntheticSpec(kind="erdos_renyi", n=8, params={"p": 0.5}, seed=11)
    graph, attrs, sens, _ = gen_synthetic(spec)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    feats = attrs.features.copy()
    feats[:, 0] = np.where(labels == 1, 2.0, -2.0)  # a linear head suffices
    attrs = type(attrs)(features=feats, sensitive_index=attrs.sensitive_index)
    config = TrainConfig(m=3, hidden=8, d_m=4, heads=1, layers=1, epochs=300,
                         seed=seed, train_size=4)
    split = make_split(8, 4, seed=0)
    data = prepare_inputs(graph, attrs, sens, labels, split, config)
    return data, config


def two_forward_train(data, config):
    """Reference loop: a loss forward per step, then a ``predict`` forward to score it."""
    params = init_params(config, data.width)
    optimizer = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    history = {"train_loss": [], "val_acc": []}
    select = len(data.split.val) > 0
    best_acc = -1.0
    best_values = {k: t.data.copy() for k, t in params.items()}
    for _ in range(config.epochs):
        ad.zero_grads(params.values())
        loss = loss_on(data, params, config, data.split.train)
        loss.backward()
        optimizer.step()
        if select:
            val_pred = predict(params, data, config)[data.split.val]
            val_acc = float(np.mean(val_pred == data.labels[data.split.val]))
        else:
            val_acc = float("nan")
        history["train_loss"].append(float(loss.data))
        history["val_acc"].append(val_acc)
        if select and val_acc > best_acc:
            best_acc = val_acc
            best_values = {k: t.data.copy() for k, t in params.items()}
    if select:
        for k, t in params.items():
            t.data = best_values[k]
    return params, history


class TestTrain:
    def test_each_step_forwards_only_train_and_val_rows(self, monkeypatch):
        # the loss covers the train rows and the validation forward the val rows
        data, config = separable_toy()
        config.epochs = 20
        rows = []

        def counting(original):
            def counted(data, *args, **kwargs):
                rows.append(data.inputs.shape[0])
                return original(data, *args, **kwargs)
            return counted

        monkeypatch.setattr(model, "loss", counting(model.loss))
        monkeypatch.setattr(model, "forward", counting(model.forward))
        train(data, config)
        n_train, n_val = len(data.split.train), len(data.split.val)
        assert 0 < n_train + n_val < len(data.labels)
        assert rows == [n_train, n_val] * config.epochs

    def test_transformer_runs_once_per_optimiser_step(self, monkeypatch):
        # the stage runs once before the first step and once after each:
        # validation and the next step's loss share one weight computation
        data, config = separable_toy()
        config.epochs = 12
        calls = []
        original = model.spectral_stage
        monkeypatch.setattr(model, "spectral_stage",
                            lambda *args: calls.append(1) or original(*args))
        train(data, config)
        assert len(calls) == config.epochs + 1

    @pytest.mark.parametrize("with_val", [True, False])
    @pytest.mark.parametrize("spectral_fusion", [True, False])
    def test_matches_two_forward_reference(self, with_val, spectral_fusion):
        data, config = (separable_toy(seed=2) if spectral_fusion
                        else desk_fixture(spectral_fusion=False))
        if not with_val:
            data = replace(data, split=Split(
                train=np.concatenate([data.split.train, data.split.val]),
                val=np.empty(0, dtype=np.int64), test=data.split.test))
        config.epochs = 80
        params, history = train(data, config)
        ref_params, ref_history = two_forward_train(data, config)
        assert history["train_loss"] == ref_history["train_loss"]
        assert np.array_equal(history["val_acc"], ref_history["val_acc"], equal_nan=True)
        assert params.keys() == ref_params.keys()
        for k, t in params.items():
            assert np.array_equal(t.data, ref_params[k].data), k

    def test_separable_toy_reaches_full_train_accuracy(self):
        data, config = separable_toy()
        params, history = train(data, config)
        yhat = predict(params, data, config)
        assert np.all(yhat[data.split.train] == data.labels[data.split.train])
        assert len(history["train_loss"]) == config.epochs

    def test_same_seed_bit_identical(self):
        data, config = separable_toy(seed=3)
        params_a, hist_a = train(data, config)
        params_b, hist_b = train(data, config)
        for k, t in params_a.items():
            assert np.array_equal(t.data, params_b[k].data)
        assert hist_a == hist_b

    def test_zero_learning_rate_keeps_initial_params(self):
        data, config = separable_toy(seed=5)
        config.lr = 0.0
        config.epochs = 10
        params, history = train(data, config)
        fresh = init_params(config, data.width)
        for k, t in params.items():
            assert np.array_equal(t.data, fresh[k].data)
        assert len(set(history["val_acc"])) == 1

    def test_empty_validation_set_keeps_final_params(self):
        # without a validation signal the last epoch wins, not the first
        data, config = separable_toy()
        data = replace(data, split=Split(train=np.arange(8), val=np.empty(0, dtype=np.int64),
                                         test=np.empty(0, dtype=np.int64)))
        config.epochs = 150
        params, history = train(data, config)
        yhat = predict(params, data, config)
        assert np.all(yhat == data.labels)
        assert all(np.isnan(v) for v in history["val_acc"])

    def test_divergence_aborts_with_epoch(self):
        spec = SyntheticSpec(kind="erdos_renyi", n=6, params={"p": 0.6}, seed=2)
        graph, attrs, sens, labels = gen_synthetic(spec)
        config = TrainConfig(m=2, hidden=4, d_m=4, heads=1, epochs=5, seed=0)
        split = make_split(6, None, 0)
        attrs = type(attrs)(features=np.full_like(attrs.features, 1e308),
                            sensitive_index=attrs.sensitive_index)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow in matmul
            data = prepare_inputs(graph, attrs, sens, labels, split, config)
            with pytest.raises(TrainingDivergedError) as excinfo:
                train(data, config)
        assert excinfo.value.epoch == 0


    @pytest.mark.parametrize("spectral_fusion", [True, False])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_helper_keeps_the_bits_of_one_cpu(self, layers, spectral_fusion, monkeypatch):
        """At two CPUs a forked helper runs about half of every loss's row
        blocks for the whole run; parameters and history keep the bits of one
        CPU."""
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 64)  # hidden 8: 8 rows a block
        spec = SyntheticSpec(kind="sbm", n=60,
                             params={"block_sizes": [30, 30], "p_in": 0.3, "p_out": 0.05},
                             label_flip=0.2, seed=6)
        graph, attrs, sens, labels = gen_synthetic(spec)
        sens = apply_missing_mask(sens, 0.3, seed=2)
        config = TrainConfig(m=3, hidden=8, d_m=4, heads=2, layers=layers, epochs=25,
                             seed=1, spectral_fusion=spectral_fusion)
        data = prepare_inputs(graph, attrs, sens, labels, make_split(60, None, 1), config)
        assert len(ad._row_blocks(len(data.split.train), config.hidden)) == 4
        started = record_helpers(monkeypatch)
        serial_params, serial_history = train(data, config, cpus=1)
        assert started == []
        params, history = train(data, config, cpus=2)
        assert len(started) == 1
        assert history == serial_history
        assert params.keys() == serial_params.keys()
        for name, t in params.items():
            assert t.data.tobytes() == serial_params[name].data.tobytes(), name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_block_of_train_rows_starts_no_helper(self, monkeypatch):
        data, config = separable_toy()
        config.epochs = 5
        monkeypatch.setattr(ad, "LossHelper", None)  # any start would fail
        train(data, config, cpus=2)


def record_helpers(monkeypatch) -> list:
    """The loss helpers started from now on, in this process."""
    started = []

    class Recorded(ad.LossHelper):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(ad, "LossHelper", Recorded)
    return started


class TestAdamAndCheckpoint:
    def test_adam_moves_against_gradient(self):
        t = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        opt = Adam({"t": t}, lr=0.1)
        t.grad = np.array([1.0, -1.0])
        opt.step()
        assert t.data[0] < 1.0 and t.data[1] > -1.0

    def test_flat_step_matches_per_tensor_loop(self):
        rng = np.random.default_rng(12)
        shapes = {"w": (3, 4), "b": (4,), "s": (1,), "frozen": (2, 2)}
        tensors = {k: Tensor(rng.standard_normal(s), requires_grad=True)
                   for k, s in shapes.items()}
        lr, decay, beta1, beta2, eps = 0.01, 5e-4, 0.9, 0.999, 1e-8
        ref = {k: t.data.copy() for k, t in tensors.items()}
        first = {k: np.zeros(s) for k, s in shapes.items()}
        second = {k: np.zeros(s) for k, s in shapes.items()}
        opt = Adam(tensors, lr=lr, weight_decay=decay)
        for step in range(1, 51):
            for k, t in tensors.items():
                t.grad = None if k == "frozen" else rng.standard_normal(shapes[k])
            grads = {k: t.grad for k, t in tensors.items()}
            opt.step()
            for k in ref:
                g = np.zeros_like(ref[k]) if grads[k] is None else grads[k]
                g = g + decay * ref[k]
                first[k] = beta1 * first[k] + (1 - beta1) * g
                second[k] = beta2 * second[k] + (1 - beta2) * g * g
                ref[k] = ref[k] - lr * (first[k] / (1.0 - beta1 ** step)) / (
                    np.sqrt(second[k] / (1.0 - beta2 ** step)) + eps)
            for k, t in tensors.items():
                assert np.array_equal(t.data, ref[k]), (step, k)

    @pytest.mark.parametrize("decay", [0.0, 5e-4])
    def test_step_matches_expression(self, decay):
        """The step gives the bits of the plain expression."""
        rng = np.random.default_rng(13)
        size = 100_000
        t = Tensor(rng.standard_normal(size), requires_grad=True)
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        values, first, second = t.data.copy(), np.zeros(size), np.zeros(size)
        opt = Adam({"t": t}, lr=lr, weight_decay=decay)
        for step in range(1, 21):
            t.grad = rng.standard_normal(size)
            g = t.grad + decay * values if decay else t.grad
            first = beta1 * first + (1 - beta1) * g
            second = beta2 * second + (1 - beta2) * g * g
            values -= lr * (first / (1.0 - beta1 ** step)) / (
                np.sqrt(second / (1.0 - beta2 ** step)) + eps)
            opt.step()
            assert np.array_equal(t.data, values), step

    def test_checkpoint_round_trip(self, tmp_path):
        data, config = desk_fixture()
        params = init_params(config, data.width)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, config)
        loaded = load_checkpoint(path, config, data.width)
        for k, t in params.items():
            assert np.array_equal(t.data, loaded[k].data)

    def test_checkpoint_shape_validation(self, tmp_path):
        data, config = desk_fixture()
        params = init_params(config, data.width)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, config)
        wrong = TrainConfig(**{**config.as_dict(), "hidden": config.hidden * 2})
        with pytest.raises(ValueError):
            load_checkpoint(path, wrong, data.width)

    def test_checkpoint_rejects_config_with_same_shapes(self, tmp_path):
        # m and lr leave every parameter shape unchanged
        data, config = desk_fixture()
        params = init_params(config, data.width)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, config)
        other = TrainConfig(**{**config.as_dict(), "m": config.m + 1, "lr": config.lr * 2})
        with pytest.raises(ValueError, match=r"lr \(stored .*\), m \(stored"):
            load_checkpoint(path, other, data.width)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("lr", -0.1), ("m", 0), ("k_hops", -1), ("layers", 0),
        ("hidden", 0), ("d_m", 5), ("heads", 3), ("missing_rate", 1.0),
    ])
    def test_rejects_bad_values(self, field, value):
        config = TrainConfig(d_m=16, heads=2)
        setattr(config, field, value)
        with pytest.raises(ValueError):
            config.validate()
