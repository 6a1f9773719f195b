"""Tests of the benchmark's own parts: generator, spans, accounting, gates.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import gen
import run
import worker
from tracing import Tracer, covered, self_times

import fairspect.autodiff as autodiff
import fairspect.cli as cli
import fairspect.graph as graph_mod
import fairspect.model as model
from fairspect.graph import load_attributes, load_edge_list, parse_mask_file
from fairspect.spectral import top_m_eigenpairs

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "t", "error": None}


# ---------------------------------------------------------------- generator

def test_generator_is_deterministic_for_a_seed(tmp_path):
    spec = gen.GraphSpec(n=400, mask_rate=0.3)
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_inputs(spec, seed, tmp_path / name)
    for f in ("edges.txt", "attrs.csv", "mask.txt"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "edges.txt").read_bytes() != (tmp_path / "c" / "edges.txt").read_bytes()


def test_loaders_accept_generated_files(tmp_path):
    spec = gen.GraphSpec(n=800, blocks=8, mask_rate=0.3)
    meta = gen.write_inputs(spec, 1, tmp_path)
    graph = load_edge_list((tmp_path / "edges.txt").read_text())
    assert graph.n == 800
    assert graph.edge_count == meta["edge_count"] == 4000
    attrs, sensitive, labels = load_attributes((tmp_path / "attrs.csv").read_text(),
                                               expected_n=graph.n)
    assert attrs.d == spec.blocks + gen.NOISE_FEATURES + 1
    assert np.array_equal(labels, np.load(tmp_path / "labels.npy"))
    masked = parse_mask_file((tmp_path / "mask.txt").read_text(), sensitive)
    assert int((~masked.present).sum()) == 240


def test_edge_count_is_exact_for_every_seed():
    spec = gen.GraphSpec(n=1000, blocks=4)
    for seed in range(3):
        edges, block = gen.planted_partition(spec, seed)
        assert len(edges) == 5000
        assert np.all(edges[:, 0] < edges[:, 1])
        assert len(np.unique(edges[:, 0] * spec.n + edges[:, 1])) == len(edges)
        assert np.bincount(block).tolist() == [250] * 4


def test_cached_inputs_are_reused(tmp_path):
    spec = gen.GraphSpec(n=200)
    first = gen.cached_inputs(spec, 3, tmp_path, "w")
    stamp = (first / "edges.txt").stat().st_mtime_ns
    assert gen.cached_inputs(spec, 3, tmp_path, "w") == first
    assert (first / "edges.txt").stat().st_mtime_ns == stamp
    assert gen.cached_inputs(spec, 4, tmp_path, "w") != first


# ---------------------------------------------------------------- spans

def test_covered_is_the_union_of_intervals():
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered([(0, 5), (1, 2)]) == pytest.approx(5.0)
    assert covered([]) == 0.0


def test_self_time_subtracts_what_children_cover():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 3.0, 6.0, 0),   # overlaps b: the overlap counts once
        span("d", 2.0, 3.0, 1),   # grandchild: only b loses it
        span("e", 8.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


# ---------------------------------------------------------------- metric names

def test_metric_names_are_valid_and_match_the_benchmark_file(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert run.METRIC_NAME.match(name), name
    # verify-battery is runnable by hand only (see the README's known limits)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(
        set(run.WORKLOADS) - {"verify-battery"})
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS

    result = {
        "ops": [{"out": str(tmp_path / "op0"), "code": 0, "wall_s": 2.0},
                {"out": str(tmp_path / "op1"), "code": 0, "wall_s": 2.5}],
        "traces": [{"op": 1, "counts": {"spectral.matvecs": 7},
                    "spans": [span("model.train", 0.0, 1.0),
                              span("autodiff.backward", 0.1, 0.2, 0)]}],
    }
    values = run.layer_metrics(run.WORKLOADS["train-8k"], result, None)
    assert sorted(values) == sorted(m["name"] for m in bench["per_layer"])
    for m in bench["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"], m["name"]
    assert values["model.epoch_s"] == pytest.approx(1.0)
    assert values["cli.self_s"] == pytest.approx(1.5)
    assert values["trace.overhead_s"] == pytest.approx(0.5)


# ---------------------------------------------------------------- failure accounting

def write_tiny(tmp_path, edges_text):
    edges = tmp_path / "tiny.edges"
    attrs = tmp_path / "tiny.csv"
    edges.write_text(edges_text)
    attrs.write_text("id,f0,sensitive,label\n0,0.5,1,0\n1,0.1,0,1\n2,0.9,1,1\n")
    return edges, attrs


def test_negative_node_id_counts_as_a_failed_operation(tmp_path):
    edges, attrs = write_tiny(tmp_path, "# n=3\n0 1\n-1 2\n")
    out = tmp_path / "op0"
    code, stderr = worker.run_main(cli.main, [
        "train", "--edges", str(edges), "--attributes", str(attrs),
        "--epochs", "2", "--out_dir", str(out)])
    assert code == 1
    assert "negative node id" in stderr
    ops = [{"out": str(out), "code": code}]
    attempted, failed = run.account(run.WORKLOADS["train-8k"], ops)
    assert (attempted, failed) == (1, 1)


def test_usage_error_and_exception_are_failures_not_crashes(tmp_path):
    code, _ = worker.run_main(cli.main, ["train", "--no_such_flag", "1"])
    assert code == 1

    def explode(argv):
        raise MemoryError("boom")

    code, stderr = worker.run_main(explode, [])
    assert code == "MemoryError"
    assert "boom" in stderr
    assert run.op_cells(run.WORKLOADS["verify-battery"],
                        {"out": str(tmp_path), "code": code}) == (1, 1)


def test_sweep_cells_are_counted_by_reports_written(tmp_path):
    sweep = run.WORKLOADS["sweep-10k"]
    assert run.op_cells(sweep, {"out": str(tmp_path / "missing"), "code": 1}) == (6, 6)
    for name in ("report_r0.1_s0.json", "report_r0.1_s1.json"):
        (tmp_path / name).write_text("{}")
    assert run.op_cells(sweep, {"out": str(tmp_path), "code": 2}) == (6, 4)


# ---------------------------------------------------------------- gates

def test_same_outputs_ignores_only_runtime(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, runtime, acc in ((a, 1.5, 0.7), (b, 2.5, 0.7)):
        d.mkdir()
        (d / "report.json").write_text(json.dumps(
            {"acc": acc, "runtime_s": runtime}, sort_keys=True, indent=2) + "\n")
    assert run.same_outputs(a, b) == []
    (b / "report.json").write_text(json.dumps(
        {"acc": 0.8, "runtime_s": 1.5}, sort_keys=True, indent=2) + "\n")
    assert run.same_outputs(a, b) == ["report.json differs"]


def test_eigenpair_check_accepts_the_solver_and_rejects_a_wrong_value(tmp_path):
    gen.write_inputs(gen.GraphSpec(n=400, blocks=4), 2, tmp_path)
    trunc = top_m_eigenpairs(load_edge_list((tmp_path / "edges.txt").read_text()), 4)
    good = tmp_path / "good.npz"
    np.savez(good, values_0=trunc.eigenvalues, vectors_0=trunc.eigenvectors)
    problems, stats = run.check_truncations(tmp_path, good)
    assert problems == []
    assert stats["max_residual"] < 1e-9
    assert 0.0 < stats["gap_ratio"] < 1.0
    bad = tmp_path / "bad.npz"
    np.savez(bad, values_0=trunc.eigenvalues + 1e-3, vectors_0=trunc.eigenvectors)
    problems, _ = run.check_truncations(tmp_path, bad)
    assert problems


def test_traced_run_matches_untraced_and_restores_the_program(tmp_path):
    gen.write_inputs(gen.GraphSpec(n=200, mask_rate=0.3), 0, tmp_path / "in")
    inputs = tmp_path / "in"

    def argv(out):
        return ["train", "--edges", str(inputs / "edges.txt"),
                "--attributes", str(inputs / "attrs.csv"), "--mask", str(inputs / "mask.txt"),
                "--m", "4", "--hidden", "8", "--d_m", "4", "--epochs", "5",
                "--out_dir", str(out)]

    originals = (cli.train, model.forward, autodiff.Tensor.__dict__["backward"],
                 graph_mod.Graph.__dict__["to_scipy"])
    assert worker.run_main(cli.main, argv(tmp_path / "plain"))[0] == 0
    tracer = Tracer("t")
    tracer.install()
    try:
        code, _ = worker.run_main(cli.main, argv(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    assert code == 0
    assert run.same_outputs(tmp_path / "plain", tmp_path / "traced") == []
    assert originals == (cli.train, model.forward, autodiff.Tensor.__dict__["backward"],
                         graph_mod.Graph.__dict__["to_scipy"])
    names = {s.name for s in tracer.spans}
    assert {"graph.load_edge_list", "graph.mask", "spectral.top_m", "model.train",
            "model.forward", "autodiff.backward", "model.adam", "fairness.report"} <= names
    assert tracer.counts["spectral.matvecs"] > 0
    assert sum(s.name == "autodiff.backward" for s in tracer.spans) == 5
