"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import time
import warnings

import numpy as np
import pytest

from fairspect.cli import main
from fairspect.fairness import (
    accuracy,
    equal_opportunity,
    multiclass_variance_metrics,
    statistical_parity,
)
from fairspect.graph import AttributeMatrix, apply_missing_mask, make_split
from fairspect.limits import (
    build_alignment_battery,
    build_multiplicity_battery,
    estimate_decay_rate,
    limit_check,
    multiplicity_bound_check,
)
from fairspect.model import (
    TrainConfig,
    gradients,
    init_params,
    loss_on,
    predict,
    prepare_inputs,
    train,
)
from fairspect.spectral import (
    dense_eigendecomposition,
    subspace_residual,
    top_m_eigenpairs,
)
from fairspect.synthetic import SyntheticSpec, gen_synthetic

from conftest import sensitive_column


def _criterion(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def alignment_battery():
    return build_alignment_battery(20, seed=42)


def test_criterion_1_theorem_convergence(alignment_battery):
    started = time.perf_counter()
    worst_residual = 0.0
    worst_gap = 0.0
    for _gid, graph, sens, oracle in alignment_battery:
        for variant in ("lemma1", "thm1", "thm2"):
            series = limit_check(variant, graph, sens, k_max=40, trunc=oracle)
            worst_residual = max(worst_residual, float(series.residuals[-1]))
        thm3 = limit_check("thm3", graph, sens, k_max=40, trunc=oracle)
        worst_gap = max(worst_gap, float(thm3.companion_gap[-1]))
    elapsed = time.perf_counter() - started
    ok = (len(alignment_battery) >= 20 and worst_residual <= 1e-6
          and worst_gap <= 1e-6 and elapsed < 30.0)
    _criterion(1, "theorem convergence suite", ok,
               f"{len(alignment_battery)} graphs, max residual {worst_residual:.3e}, "
               f"max thm3 gap {worst_gap:.3e}, {elapsed:.1f}s")


def test_criterion_2_decay_rate(alignment_battery):
    checked = 0
    worst_rel = 0.0
    for _gid, graph, sens, oracle in alignment_battery:
        series = limit_check("thm1", graph, sens, k_max=40, trunc=oracle)
        usable = series.residuals[series.residuals > 1e-12]
        if len(usable) == 0 or usable.max() / usable.min() < 1e4:
            continue  # residuals span fewer than 4 decades
        empirical, predicted = estimate_decay_rate(series, oracle)
        checked += 1
        worst_rel = max(worst_rel, abs(empirical - abs(predicted)) / abs(predicted))
    # hand anchor: 3-clique rate is exactly 1/2
    k3 = gen_synthetic(SyntheticSpec(
        kind="disjoint_cliques", n=3, params={"sizes": [3]}, seed=0))[0]
    oracle = dense_eigendecomposition(k3)
    series = limit_check("thm1", k3, sensitive_column([1, 0, 1]), k_max=45, trunc=oracle)
    empirical, predicted = estimate_decay_rate(series, oracle)
    anchor_ok = abs(predicted) == pytest.approx(0.5, abs=1e-12) and \
        abs(empirical - 0.5) <= 0.05 * 0.5
    ok = checked >= 10 and worst_rel <= 0.10 and anchor_ok
    _criterion(2, "exponential decay rate", ok,
               f"{checked} graphs spanned 4 decades, worst deviation "
               f"{100 * worst_rel:.2f}%, anchor empirical {empirical:.4f}")


def test_criterion_3_multiplicity_bound():
    battery = build_multiplicity_battery(10, seed=7)
    holds = []
    for _gid, graph, sens in battery:
        bound = multiplicity_bound_check(graph, sens, k_max=60)
        holds.append((not bound.degenerate) and bound.lhs >= bound.rhs - 1e-8)
    # equality case: equal projections on every dominant-space basis vector
    two_triangles = gen_synthetic(SyntheticSpec(
        kind="disjoint_cliques", n=6, params={"sizes": [3, 3]}, seed=0))[0]
    oracle = dense_eigendecomposition(two_triangles)
    equal_mix = oracle.eigenvectors[:, :2].sum(axis=1)
    eq = multiplicity_bound_check(two_triangles, equal_mix, k_max=60)
    equality_ok = abs(eq.lhs - eq.rhs) <= 1e-8
    ok = len(holds) == 10 and all(holds) and equality_ok
    _criterion(3, "dominant-multiplicity bound", ok,
               f"{sum(holds)}/10 constructions hold, equality slack "
               f"{abs(eq.lhs - eq.rhs):.2e}")


def test_criterion_4_eigensolver_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst_val = 0.0
    worst_vec = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 201))
        seed = int(rng.integers(0, 2 ** 31))
        if trial % 3 == 2:
            half = n // 2
            spec = SyntheticSpec(kind="sbm", n=2 * half,
                                 params={"block_sizes": [half, half],
                                         "p_in": float(rng.uniform(0.2, 0.5)),
                                         "p_out": float(rng.uniform(0.02, 0.15))},
                                 seed=seed)
        else:
            spec = SyntheticSpec(kind="erdos_renyi", n=n,
                                 params={"p": float(rng.uniform(0.08, 0.6))}, seed=seed)
        graph, _, _, _ = gen_synthetic(spec)
        m = int(rng.integers(1, min(10, graph.n) + 1))
        trunc = top_m_eigenpairs(graph, m)
        oracle = dense_eigendecomposition(graph)
        for i in range(m):
            rel = abs(trunc.eigenvalues[i] - oracle.eigenvalues[i]) / max(
                1.0, abs(oracle.eigenvalues[i]))
            worst_val = max(worst_val, rel)
            worst_vec = max(worst_vec, subspace_residual(
                trunc.eigenvectors[:, i], trunc.eigenvalues[i], oracle))
    elapsed = time.perf_counter() - started
    ok = worst_val <= 1e-8 and worst_vec <= 1e-6 and elapsed < 10.0
    _criterion(4, "eigensolver oracle equivalence", ok,
               f"50 graphs, worst value error {worst_val:.2e}, worst subspace "
               f"residual {worst_vec:.2e}, {elapsed:.1f}s")


def test_criterion_5_gradient_correctness():
    started = time.perf_counter()
    spec = SyntheticSpec(
        kind="custom", n=6,
        params={"edges": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]},
        seed=3)
    graph, attrs, sens, labels = gen_synthetic(spec)
    sens = apply_missing_mask(sens, 0.3, seed=5)
    config = TrainConfig(m=2, hidden=8, d_m=4, heads=2, layers=2, seed=7)
    split = make_split(6, None, 0)
    data = prepare_inputs(graph, attrs, sens, labels, split, config)
    params = init_params(config, data.width)
    grads = gradients(params, data, config)
    h = 1e-5
    worst = 0.0
    count = 0
    for name, tensor in params.items():
        it = np.nditer(tensor.data, flags=["multi_index"])
        for _ in it:
            at = it.multi_index
            orig = tensor.data[at]
            tensor.data[at] = orig + h
            plus = float(loss_on(data, params, config, split.train).data)
            tensor.data[at] = orig - h
            minus = float(loss_on(data, params, config, split.train).data)
            tensor.data[at] = orig
            numeric = (plus - minus) / (2 * h)
            rel = abs(numeric - grads[name][at]) / max(
                abs(numeric), abs(grads[name][at]), 1e-8)
            worst = max(worst, rel)
            count += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 5.0
    _criterion(5, "gradient correctness", ok,
               f"{count} coordinates, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_fairness_metric_oracle():
    rng = np.random.default_rng(99)
    mismatches = 0
    checked = {"acc": 0, "sp": 0, "eo": 0, "var": 0}
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        yhat = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        k = int(rng.integers(2, 5))
        s = rng.integers(0, k, n)
        idx = np.arange(n)
        groups = sorted(set(s.tolist()))

        def rate_of(g):
            members = [i for i in idx if s[i] == g]
            return (sum(1 for i in members if yhat[i] == 1) / len(members)
                    if members else None)

        def tpr_of(g):
            pos = [i for i in idx if s[i] == g and y[i] == 1]
            return sum(1 for i in pos if yhat[i] == 1) / len(pos) if pos else None

        checked["acc"] += 1
        if accuracy(yhat, y, idx) != sum(1 for i in idx if yhat[i] == y[i]) / n:
            mismatches += 1
        if k == 2 and set(groups) == {0, 1}:
            r0, r1 = rate_of(0), rate_of(1)
            if r0 is not None and r1 is not None:
                checked["sp"] += 1
                if statistical_parity(yhat, s, idx) != abs(r0 - r1):
                    mismatches += 1
            t0, t1 = tpr_of(0), tpr_of(1)
            if t0 is not None and t1 is not None:
                checked["eo"] += 1
                if equal_opportunity(yhat, y, s, idx) != abs(t0 - t1):
                    mismatches += 1
        rates = [rate_of(g) for g in groups if rate_of(g) is not None]
        tprs = [tpr_of(g) for g in groups if tpr_of(g) is not None]
        if len(rates) >= 2 and len(tprs) >= 2:
            checked["var"] += 1
            mean_r = sum(rates) / len(rates)
            var_r = sum((r - mean_r) ** 2 for r in rates) / len(rates)
            mean_t = sum(tprs) / len(tprs)
            var_t = sum((t - mean_t) ** 2 for t in tprs) / len(tprs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                d_sp, d_eo = multiclass_variance_metrics(yhat, y, s, idx)
            if d_sp != var_r or d_eo != var_t:
                mismatches += 1
    ok = mismatches == 0 and all(v > 0 for v in checked.values())
    _criterion(6, "fairness metric oracle", ok,
               f"1000 assignments, checks {checked}, {mismatches} mismatches")


def _biased_benchmark(seed, n=200, p_in=0.12, p_out=0.02, label_noise=1.1):
    """Sensitive groups follow the blocks; labels follow an orthogonal signal.

    A fair classifier can be accurate here by using the label feature; extra
    unfairness can only come from leaking block structure.
    """
    spec = SyntheticSpec(kind="sbm", n=n,
                         params={"block_sizes": [n // 2, n // 2],
                                 "p_in": p_in, "p_out": p_out},
                         sensitive_correlation=0.95, seed=1000 + seed)
    graph, _, sens, _ = gen_synthetic(spec)
    rng = np.random.default_rng(2000 + seed)
    labels = rng.integers(0, 2, n).astype(np.int64)
    label_feature = labels + label_noise * rng.standard_normal(n)
    distractors = rng.standard_normal((n, 2))
    features = np.column_stack([label_feature, distractors,
                                sens.values.astype(np.float64)])
    attrs = AttributeMatrix(features=features, sensitive_index=3)
    return graph, attrs, sens, labels


def _benchmark_run(seed, spectral_fusion, missing_rate=0.1):
    graph, attrs, sens, labels = _biased_benchmark(seed)
    masked = apply_missing_mask(sens, missing_rate, seed=seed)
    config = TrainConfig(m=4, k_hops=2, layers=1, hidden=16, heads=2, d_m=8,
                         epochs=300, seed=seed, missing_rate=missing_rate,
                         spectral_fusion=spectral_fusion)
    split = make_split(graph.n, None, seed)
    data = prepare_inputs(graph, attrs, masked, labels, split, config)
    params, _ = train(data, config)
    yhat = predict(params, data, config)
    return (accuracy(yhat, labels, split.test),
            statistical_parity(yhat, sens.values, split.test))


def test_criterion_7_bias_mitigation_trend():
    full_acc, full_sp, abl_acc, abl_sp = [], [], [], []
    for seed in range(5):
        acc_f, sp_f = _benchmark_run(seed, spectral_fusion=True)
        acc_a, sp_a = _benchmark_run(seed, spectral_fusion=False)
        full_acc.append(acc_f)
        full_sp.append(sp_f)
        abl_acc.append(acc_a)
        abl_sp.append(sp_a)
    med_full = float(np.median(full_sp))
    med_abl = float(np.median(abl_sp))
    med_acc_full = float(np.median(full_acc))
    med_acc_abl = float(np.median(abl_acc))
    trend = med_full < med_abl
    acc_ok = med_acc_full >= med_acc_abl - 0.03
    _criterion(7, "bias-mitigation trend", trend and acc_ok,
               f"median dSP {100 * med_full:.2f}% (full) vs {100 * med_abl:.2f}% "
               f"(no spectral truncation); median acc {med_acc_full:.3f} vs "
               f"{med_acc_abl:.3f}")


def test_criterion_8_determinism(tmp_path):
    edges = tmp_path / "bench.edges"
    attrs = tmp_path / "bench.csv"
    code = main([
        "gen", "--kind", "sbm", "--n", "48", "--block_sizes", "24,24",
        "--p_in", "0.5", "--p_out", "0.08", "--label_flip", "0.3", "--seed", "0",
        "--out_edges", str(edges), "--out_attributes", str(attrs),
    ])
    assert code == 0
    args = ["train", "--edges", str(edges), "--attributes", str(attrs),
            "--epochs", "20", "--m", "4", "--hidden", "8", "--d_m", "4",
            "--missing_rate", "0.2", "--seed", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out_dir", str(out_a)]) == 0
    assert main(args + ["--out_dir", str(out_b)]) == 0
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    rep_a["runtime_s"] = rep_b["runtime_s"] = 0.0
    text_a = json.dumps(rep_a, sort_keys=True)
    text_b = json.dumps(rep_b, sort_keys=True)
    ckpt_a = np.load(out_a / "checkpoint.npz")
    ckpt_b = np.load(out_b / "checkpoint.npz")
    params_equal = set(ckpt_a.files) == set(ckpt_b.files) and all(
        np.array_equal(ckpt_a[k], ckpt_b[k])
        for k in ckpt_a.files if k.startswith("param__"))
    ok = text_a == text_b and params_equal
    _criterion(8, "seeded determinism", ok,
               "reports byte-identical modulo runtime_s, checkpoints equal")
