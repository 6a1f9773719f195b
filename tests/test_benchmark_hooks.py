"""Every program attribute the benchmark wraps or captures by name still resolves.

``perfbench`` patches module globals and methods from outside the program, so
a rename in the program would break traced benchmark runs without failing any
other test. The tables are read from ``perfbench/tracing.py`` itself.
"""

import importlib
import importlib.util
import sys
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
        data = cli.prepare_inputs(graph, attrs, sens, labels, make_split(30, None, 0), config)
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
