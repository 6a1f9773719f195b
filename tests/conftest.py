import multiprocessing

import numpy as np
import pytest

from fairspect.graph import SensitiveColumn, from_edges


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a live child process behind, then stop it."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join(timeout=10)
    if children:
        pytest.fail(f"test left child processes running: {children}")


@pytest.fixture
def k3():
    return from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def c4():
    return from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def two_triangles():
    return from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def star4():
    # K_{1,3}: hub 0, leaves 1..3
    return from_edges(4, [(0, 1), (0, 2), (0, 3)])


def sensitive_column(values, present=None):
    values = np.asarray(values, dtype=np.int64)
    if present is None:
        present = np.ones(len(values), dtype=bool)
    return SensitiveColumn(values=values, present=np.asarray(present, dtype=bool))
