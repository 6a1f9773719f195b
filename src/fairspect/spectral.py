"""Top-magnitude eigenpairs of the adjacency matrix.

Two routes are provided on purpose: a Krylov solver (ARPACK's implicitly
restarted Lanczos, through ``scipy.sparse.linalg.eigsh``) for the m
largest-magnitude eigenpairs, and a dense symmetric eigendecomposition that
serves as the independent oracle for verifying it. Both share one ordering
and sign convention so results are reproducible across runs and solvers.

Conventions:
  * eigenvalues are ordered by descending magnitude;
  * magnitude ties (within 1e-9 relative) put the positive eigenvalue first,
    then order degenerate pairs by the first index of the eigenvector's
    maximal-magnitude entry;
  * each eigenvector's first maximal-magnitude entry is made positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

MAGNITUDE_TIE_RTOL = 1e-9
DEFAULT_ORACLE_CAP = 512


class ConvergenceError(RuntimeError):
    """Krylov solver failed to reach the requested residual tolerance."""

    def __init__(self, message: str, residuals: np.ndarray):
        super().__init__(message)
        self.residuals = residuals

    def __reduce__(self):
        # pickle calls the class with ``args``, which lack the residuals
        return type(self), (str(self), self.residuals)


@dataclass(frozen=True)
class SpectralTruncation:
    """The m largest-magnitude eigenvalues and orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)
        if self.eigenvectors.ndim != 2 or len(self.eigenvalues) != self.eigenvectors.shape[1]:
            raise ValueError("need one eigenvector column per eigenvalue")

    @property
    def m(self) -> int:
        return len(self.eigenvalues)

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    def principal(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def _magnitudes_tied(a: float, b: float) -> bool:
    return abs(abs(a) - abs(b)) <= MAGNITUDE_TIE_RTOL * max(1.0, abs(a), abs(b))


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for c in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, c])))
        if out[lead, c] < 0:
            out[:, c] = -out[:, c]
    return out


def _magnitude_order(values: np.ndarray, vectors: np.ndarray) -> list[int]:
    idx = sorted(range(len(values)), key=lambda i: -abs(values[i]))
    groups: list[list[int]] = []
    for i in idx:
        if groups and _magnitudes_tied(values[groups[-1][-1]], values[i]):
            groups[-1].append(i)
        else:
            groups.append([i])
    order: list[int] = []
    for group in groups:
        group.sort(key=lambda i: (
            0 if values[i] > 0 else 1,
            int(np.argmax(np.abs(vectors[:, i]))),
            i,
        ))
        order.extend(group)
    return order


def _ordered_truncation(values: np.ndarray, vectors: np.ndarray) -> SpectralTruncation:
    vectors = _canonical_signs(vectors)
    order = _magnitude_order(values, vectors)
    return SpectralTruncation(
        eigenvalues=values[order].copy(),
        eigenvectors=vectors[:, order].copy(),
    )


def dense_eigendecomposition(graph: Graph, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SpectralTruncation:
    """Full spectrum via a classical dense symmetric solver (the oracle route)."""
    if graph.n > oracle_cap:
        raise ValueError(f"dense oracle capped at n={oracle_cap}, got {graph.n}")
    values, vectors = np.linalg.eigh(graph.to_dense())
    return _ordered_truncation(values, vectors)


def _arpack_eigenpairs(A, k: int, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """k largest-magnitude eigenpairs by implicitly restarted Lanczos (ARPACK).

    The adjacency is touched only through ``A @ x``. The start vector is the
    all-ones vector and the generator for restart vectors is fixed, so the
    result is a function of (A, k, tol) alone. ``tol`` is ARPACK's relative
    one: each pair stops at ||A v - lambda v|| <= tol * |lambda|. The Krylov
    dimension 4k + 20, about twice ARPACK's default, gives restarts room to pick up
    the further copies of a repeated eigenvalue that one start vector cannot
    reach; on graphs of at most that many nodes it spans the whole space.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = A.shape[0]
    operator = LinearOperator(A.shape, matvec=lambda x: A @ x, dtype=np.float64)
    try:
        return eigsh(operator, k=k, which="LM", v0=np.ones(n), tol=tol,
                     ncv=min(n, 4 * k + 20), maxiter=max_iter, rng=0)
    except ArpackNoConvergence as exc:
        converged = len(exc.eigenvalues)
        raise ConvergenceError(
            f"top-{k} eigensolve converged {converged} of {k} pairs "
            f"in {max_iter} ARPACK iterations",
            residuals=np.concatenate([
                _residuals(A, exc.eigenvalues, exc.eigenvectors),
                np.full(k - converged, np.inf),
            ]),
        ) from exc


def _residuals(A, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    return np.linalg.norm(A @ vectors - vectors * values, axis=0)


def _boundary_tie_open(values: np.ndarray, order: list[int], m: int) -> bool:
    """Whether an eigenvalue not yet computed could displace one of the first m.

    Ties in magnitude put the positive eigenvalue first, so a negative m-th
    value may give way to a positive one of equal magnitude beyond the cut.
    The cut is safe once a computed value past it has strictly smaller
    magnitude. A zero m-th value has no sign to prefer.
    """
    last = values[order[m - 1]]
    if last >= 0 or _magnitudes_tied(last, 0.0):
        return False
    return len(order) == m or _magnitudes_tied(values[order[-1]], last)


def top_m_eigenpairs(
    graph: Graph,
    m: int,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> SpectralTruncation:
    """The m largest-magnitude adjacency eigenpairs, in the module's conventions.

    ARPACK's implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``)
    starts from the all-ones vector with a fixed generator for restart
    vectors, so the result depends on the graph, m and ``tol`` only. ARPACK
    stops on residuals relative to each eigenvalue; the absolute ``tol`` is
    divided by the largest degree, which bounds every eigenvalue's magnitude.
    When the m-th value is negative and may tie in magnitude with a positive
    one beyond the cut, more pairs are computed until the cut is clear. A
    request for n - 1 or more pairs, which ARPACK cannot serve, takes the
    dense symmetric route instead. ``max_iter`` bounds ARPACK's restart
    iterations. Raises ConvergenceError carrying the residuals
    ||A v - lambda v|| if ARPACK runs out of iterations or any retained pair
    misses ``tol``.
    """
    n = graph.n
    if n < 1:
        raise ValueError("graph is empty")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if graph.edge_count == 0:
        # ARPACK rejects the zero operator; every unit vector is its eigenvector
        return _ordered_truncation(np.zeros(m), np.eye(n, m))
    A = graph.to_scipy()
    arpack_tol = max(tol / max(1.0, float(graph.degrees().max())), np.finfo(np.float64).eps)
    k = m
    while True:
        dense = k >= n - 1
        values, vectors = (np.linalg.eigh(graph.to_dense()) if dense
                           else _arpack_eigenpairs(A, k, arpack_tol, max_iter))
        order = _magnitude_order(values, vectors)
        if dense or not _boundary_tie_open(values, order, m):
            break
        k = m + 2 * (k - m) + 1
    values, vectors = values[order[:m]], vectors[:, order[:m]]
    residuals = _residuals(A, values, vectors)
    if not residuals.max() <= tol:  # a NaN residual fails too
        raise ConvergenceError(
            f"top-{m} eigensolve stalled at max residual {residuals.max():.3e} "
            f"(tol {tol:.1e})",
            residuals=residuals,
        )
    return _ordered_truncation(values, vectors)


def spectral_gap(trunc: SpectralTruncation) -> float:
    """|second| / |dominant| eigenvalue magnitude ratio, in [0, 1]."""
    if trunc.m < 2:
        raise ValueError("spectral gap needs at least two eigenvalues")
    lead = abs(float(trunc.eigenvalues[0]))
    if lead == 0.0:
        raise ValueError("dominant eigenvalue is zero")
    return abs(float(trunc.eigenvalues[1])) / lead

