import hashlib
import multiprocessing

import numpy as np
import pytest

from fairspect import spectral
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
def nan_eigenvector(monkeypatch):
    """ARPACK returns its pairs with the first eigenvector all NaN."""
    solve = spectral._arpack_eigenpairs

    def nan_column(*args):
        values, vectors = solve(*args)
        vectors = vectors.copy()
        vectors[:, 0] = np.nan
        return values, vectors

    monkeypatch.setattr(spectral, "_arpack_eigenpairs", nan_column)


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


def array_digest(*arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
