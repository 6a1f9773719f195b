"""Attribute encodings: zero-padding, k-hop propagation, cosine alignment,
and the sinusoidal embedding of eigenvalues.

All operations are pure; cosine alignment is invariant to positive rescaling
of either argument, which is what lets ``limits`` renormalise its propagated
vector after every hop without changing the alignments it measures.
"""

from __future__ import annotations

import numpy as np

from .graph import AttributeMatrix, Graph, SensitiveColumn


class DegenerateVectorError(ValueError):
    """A zero-norm vector was handed to a direction-based operation."""


def zero_pad(attrs: AttributeMatrix, sensitive: SensitiveColumn) -> np.ndarray:
    """A copy of the features with the sensitive entry of every node that did
    not disclose it set to zero."""
    if sensitive.n != attrs.n:
        raise ValueError("attribute matrix and sensitive column disagree on n")
    values = attrs.features.copy()
    values[~sensitive.present, attrs.sensitive_index] = 0.0
    return values


def propagate_k_hop(graph: Graph, matrix: np.ndarray, k: int) -> np.ndarray:
    """Apply the adjacency k times: returns A^k @ matrix.

    Accepts a vector or an (n, d) matrix.
    """
    if k < 0:
        raise ValueError("hop count must be nonnegative")
    x = np.asarray(matrix, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != graph.n:
        raise ValueError("matrix row count does not match node count")
    out = x.copy()
    A = graph.to_scipy()
    for _ in range(k):
        out = A @ out
    return out[:, 0] if squeeze else out


def cosine_alignment(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors, clipped to [-1, 1]."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("vectors must have equal length")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise DegenerateVectorError("cosine alignment undefined for a zero vector")
    return float(np.clip(x @ y / (nx * ny), -1.0, 1.0))


def eigenvalue_position_encoding(eigenvalues: np.ndarray, d_m: int) -> np.ndarray:
    """Sinusoidal embedding of each eigenvalue into d_m channels.

    Channel 2j holds sin(lam / 10000^(2j/d_m)) and channel 2j+1 the matching
    cosine, one row per eigenvalue, every entry in [-1, 1].
    """
    if d_m < 2 or d_m % 2 != 0:
        raise ValueError("embedding width must be an even integer >= 2")
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    j = np.arange(d_m // 2, dtype=np.float64)
    scale = 10000.0 ** (2.0 * j / d_m)
    angles = lam[:, None] / scale[None, :]
    out = np.empty((len(lam), d_m))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out
