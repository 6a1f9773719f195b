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
