"""Every program attribute the benchmark wraps or captures by name still resolves.

``perfbench`` patches module globals and methods from outside the program, so
a rename in the program would break traced benchmark runs without failing any
other test. The tables are read from ``perfbench/tracing.py`` itself.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("module,attr", sorted(TRACING.CALL_SITES))
def test_call_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,method", sorted(TRACING.METHOD_SITES))
def test_method_site_resolves(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


@pytest.mark.parametrize("module,owner,attr", [
    ("fairspect.graph", "Graph", "to_scipy"),  # wrapped to count matvecs
    ("fairspect.model", None, "top_m_eigenpairs"),  # captured for the eigenpair check
])
def test_benchmark_hook_resolves(module, owner, attr):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr))


def test_training_reaches_every_traced_global():
    """Training calls ``predict`` and ``forward`` through the module globals the
    tracer wraps, so ``model.val_predict_s`` and ``model.forward_calls`` count
    real work. The loss streams its own rows through ``model.loss``, which the
    tracer does not wrap, so ``forward`` runs once per epoch, for validation.
    A step's tape is that one loss node, and ``Tensor.backward`` runs once per
    epoch, so ``autodiff.backward_calls`` counts steps.
    The position encoding runs once, in ``prepare_inputs``, so
    ``encoding.pe_calls`` counts one per prepared run and none per epoch."""
    from fairspect import cli
    from fairspect.graph import make_split
    from fairspect.model import TrainConfig
    from fairspect.synthetic import SyntheticSpec, gen_synthetic

    spec = SyntheticSpec(kind="sbm", n=30,
                         params={"block_sizes": [15, 15], "p_in": 0.4, "p_out": 0.05}, seed=1)
    graph, attrs, sens, labels = gen_synthetic(spec)
    config = TrainConfig(m=3, hidden=4, d_m=4, heads=1, epochs=5, seed=0)
    tracer = TRACING.Tracer("hooks")
    tracer.install()
    try:
        data = cli.prepare_inputs(graph, attrs, sens, labels, make_split(30, None, 0), config,
                                  cli.structural_truncation(graph, config))
        cli.train(data, config)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [span.name for span in spans]
    predicts = [span for span in spans if span.name == "model.predict"]
    assert len(predicts) == config.epochs
    assert all(spans[span.parent].name == "model.train" for span in predicts)
    assert names.count("model.forward") == config.epochs
    assert names.count("autodiff.backward") == config.epochs
    encodings = [span for span in spans if span.name == "encoding.position_encoding"]
    assert len(encodings) == 1
    assert spans[encodings[0].parent].name == "model.prepare"


@pytest.mark.parametrize("command, grid, seeds, cells", [
    ("train", [], 1, 1),
    ("sweep", ["--missing_rates", "0.1,0.3", "--seeds", "0,1"], 2, 4),
])
def test_commands_reach_every_traced_stage(tmp_path, monkeypatch, command, grid, seeds, cells):
    """``train`` and ``sweep`` call each stage through the module global the
    tracer wraps, so every stage shows as a span: the inputs and the solve once
    per command, the split once per seed, and the cell's stages once per cell.
    A stage called through a table built at import would hold the unwrapped
    function, and its span would be missing here."""
    from fairspect import cli

    edges, attrs = tmp_path / "g.edges", tmp_path / "g.csv"
    assert cli.main(["gen", "--kind", "sbm", "--n", "48", "--block_sizes", "24,24",
                     "--p_in", "0.5", "--p_out", "0.08", "--label_flip", "0.3",
                     "--out_edges", str(edges), "--out_attributes", str(attrs)]) == 0
    monkeypatch.setattr(cli, "cpu_budget", lambda: 1)  # the cells run in this process
    tracer = TRACING.Tracer("stages")
    tracer.install()
    try:
        assert cli.main([command, "--edges", str(edges), "--attributes", str(attrs),
                         "--epochs", "3", "--m", "3", "--hidden", "8", "--d_m", "4", *grid,
                         "--out_dir", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    expected = {
        **dict.fromkeys(["graph.load_edge_list", "graph.load_attributes", "spectral.top_m"], 1),
        "graph.split": seeds,
        **dict.fromkeys(["graph.mask", "model.prepare", "model.train", "fairness.report"], cells),
    }
    counts = Counter(span.name for span in tracer.spans)
    assert {name: counts[name] for name in expected} == expected
