"""Numerical checks of the alignment-limit behaviour of multi-hop propagation.

Each check propagates a sensitive-attribute column through the adjacency with
per-hop renormalisation (cosine-invariant, overflow-proof) and compares the
cosine series against the prediction from the dominant eigenvector:

  * ``lemma1``  cos(A^k h, h)        -> cos(p1, h)       (complete column)
  * ``thm1``    cos(A^k h', h')      -> cos(p1, h')      (zero-padded column)
  * ``thm2``    cos(A^k h, h')       -> cos(p1, h')      (cross alignment)
  * ``thm3``    cos(A^k h', h) and cos(A^k h, h) share one limit

plus the exponential decay of the residuals at rate |second|/|dominant|, and
the lower bound that replaces the limit when the dominant magnitude is
degenerate. Inputs violating the premises (zero projections, shared dominant
magnitude) are reported, never silently asserted against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import DegenerateVectorError, cosine_alignment
from .graph import Graph, SensitiveColumn
from .spectral import (
    DEFAULT_ORACLE_CAP,
    SpectralTruncation,
    _magnitudes_tied,
    dense_eigendecomposition,
    top_m_eigenpairs,
)
from .synthetic import SyntheticSpec, gen_synthetic

VARIANTS = ("lemma1", "thm1", "thm2", "thm3")
RESIDUAL_NOISE_FLOOR = 1e-12
DECAY_MIN_DECADES = 4  # the least fall of the residuals above the floor, in decades
PROJECTION_FLOOR = 1e-12
# the alignment battery: node counts, least |dominant/second|, masked share, draws
BATTERY_N_RANGE = (20, 200)
BATTERY_MIN_GAP_RATIO = 1.5
BATTERY_MASK_RATE = 0.3
BATTERY_MAX_ATTEMPTS = 2000


class RepeatedDominantError(ValueError):
    """Dominant eigenvalue is degenerate; the single-limit check does not apply."""


class NotEstimableError(ValueError):
    """Residuals carry no usable decay signal."""


class DegenerateAlignmentError(ValueError):
    """The source column has (numerically) no component on the dominant eigenvector."""


@dataclass(frozen=True)
class AlignmentSeries:
    """Cosine-per-hop record for one variant on one graph."""

    variant: str
    hops: np.ndarray
    cosines: np.ndarray
    limit: float
    residuals: np.ndarray
    companion_cosines: np.ndarray | None = None
    companion_gap: np.ndarray | None = None
    oscillating: bool = False
    even_tail: float | None = None
    odd_tail: float | None = None

    def __post_init__(self):
        if len(self.hops) != len(self.cosines) or len(self.hops) != len(self.residuals):
            raise ValueError("hops, cosines and residuals must be parallel arrays")


@dataclass(frozen=True)
class MultiplicityBound:
    """Outcome of the degenerate-dominant lower-bound check."""

    lhs: float
    rhs: float
    holds: bool | None
    degenerate: bool
    multiplicity: int


def _column_views(sensitive) -> tuple[np.ndarray, np.ndarray]:
    """(complete, zero-padded) float views of the sensitive input."""
    if isinstance(sensitive, SensitiveColumn):
        return sensitive.complete_vector(), sensitive.padded_vector()
    vec = np.asarray(sensitive, dtype=np.float64).ravel()
    return vec, vec


def _normalized_cosine_series(graph: Graph, source: np.ndarray, target: np.ndarray,
                              k_max: int) -> np.ndarray:
    norm = np.linalg.norm(source)
    if norm == 0.0:
        raise DegenerateVectorError("propagation source is the zero vector")
    t_norm = np.linalg.norm(target)
    if t_norm == 0.0:
        raise DegenerateVectorError("alignment target is the zero vector")
    A = graph.to_scipy()
    y = source / norm
    t_hat = target / t_norm
    out = np.empty(k_max)
    for k in range(k_max):
        y = A @ y
        y_norm = np.linalg.norm(y)
        if y_norm == 0.0:
            raise DegenerateAlignmentError("propagation vanished (source in the kernel)")
        y = y / y_norm
        out[k] = float(np.clip(y @ t_hat, -1.0, 1.0))
    return out


def _resolve_truncation(graph: Graph, trunc) -> SpectralTruncation:
    if trunc is not None:
        if trunc.m < 2:
            raise ValueError("need at least two eigenpairs for the limit prediction")
        return trunc
    if graph.n < 2:
        raise ValueError("limit checks need at least two nodes")
    if graph.n <= DEFAULT_ORACLE_CAP:
        return dense_eigendecomposition(graph)
    return top_m_eigenpairs(graph, 2)


def limit_check(
    variant: str,
    graph: Graph,
    sensitive,
    k_max: int = 40,
    trunc: SpectralTruncation | None = None,
) -> AlignmentSeries:
    """Cosine series, predicted limit, and residuals for one variant.

    ``sensitive`` is a SensitiveColumn (its mask distinguishes the complete
    from the zero-padded column) or a raw vector (then the two coincide).
    A degenerate dominant magnitude is refused: same-sign ties point the
    caller at ``multiplicity_bound_check``; an opposite-sign tie (bipartite
    style spectrum) yields oscillation diagnostics instead of a limit.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    trunc = _resolve_truncation(graph, trunc)
    lead, second = float(trunc.eigenvalues[0]), float(trunc.eigenvalues[1])
    tied = _magnitudes_tied(lead, second)

    complete, padded = _column_views(sensitive)
    source, target = {
        "lemma1": (complete, complete),
        "thm1": (padded, padded),
        "thm2": (complete, padded),
        "thm3": (padded, complete),
    }[variant]

    if tied and np.sign(lead) == np.sign(second):
        raise RepeatedDominantError(
            "dominant eigenvalue has multiplicity > 1; use multiplicity_bound_check")

    hops = np.arange(1, k_max + 1)
    cosines = _normalized_cosine_series(graph, source, target, k_max)

    if tied:
        # opposite-sign dominant pair: the series has no single limit;
        # report the even/odd subsequence tails instead.
        odd_hops, even_hops = cosines[0::2], cosines[1::2]  # hops count from 1
        return AlignmentSeries(
            variant=variant, hops=hops, cosines=cosines,
            limit=float("nan"), residuals=np.full(k_max, np.nan), oscillating=True,
            even_tail=float(even_hops[-1]) if len(even_hops) else None,
            odd_tail=float(odd_hops[-1]),  # k_max >= 1
        )

    principal = trunc.principal()
    if abs(float(principal @ source)) / np.linalg.norm(source) < PROJECTION_FLOOR:
        raise DegenerateAlignmentError(
            "source column is orthogonal to the dominant eigenvector")
    limit = cosine_alignment(principal, target)

    companion = gap = None
    if variant == "thm3":
        if abs(float(principal @ complete)) / np.linalg.norm(complete) < PROJECTION_FLOOR:
            raise DegenerateAlignmentError(
                "complete column is orthogonal to the dominant eigenvector")
        companion = _normalized_cosine_series(graph, complete, complete, k_max)
        gap = np.abs(cosines - companion)

    return AlignmentSeries(
        variant=variant, hops=hops, cosines=cosines, limit=limit,
        residuals=np.abs(cosines - limit),
        companion_cosines=companion, companion_gap=gap,
    )


def estimate_decay_rate(series: AlignmentSeries,
                        trunc: SpectralTruncation) -> tuple[float, float]:
    """(empirical, predicted) residual decay per hop.

    The prediction is the signed second/dominant eigenvalue ratio (compare
    magnitudes). The empirical rate is the per-hop geometric mean of residual
    ratios over the usable window: the longest run above the noise floor,
    restricted to its tail half (where the sub-dominant transient has died
    out) and to even hop counts, where every spectral component contributes
    with a nonnegative sign, so sign-alternation from negative eigenvalues
    cannot wobble the estimate. Raises NotEstimableError unless five
    consecutive residuals lie above the noise floor and the residuals above it
    span at least ``DECAY_MIN_DECADES`` decades.
    """
    if trunc.m < 2 or trunc.eigenvalues[0] == 0.0:
        raise ValueError("decay prediction needs two eigenvalues and a nonzero dominant")
    predicted = float(trunc.eigenvalues[1] / trunc.eigenvalues[0])
    res = series.residuals
    usable = np.isfinite(res) & (res > RESIDUAL_NOISE_FLOOR)
    # the runs of usable residuals start where the mask rises and stop where it falls
    steps = np.diff(usable.astype(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)
    lengths = stops - starts
    if not np.any(lengths >= 5):
        raise NotEstimableError("fewer than five consecutive residuals above the noise floor")
    longest = int(np.argmax(lengths))  # the first of equally long runs
    above = res[usable]
    if above.max() / above.min() < 10.0 ** DECAY_MIN_DECADES:
        raise NotEstimableError(
            f"residuals above the noise floor span fewer than {DECAY_MIN_DECADES} decades")
    evens = np.flatnonzero((np.asarray(series.hops) % 2 == 0) & usable)
    if len(evens) >= 6:
        evens = evens[len(evens) // 2:]
    if len(evens) < 2:
        evens = [starts[longest], stops[longest] - 1]
    first, last = evens[0], evens[-1]
    span = float(series.hops[last] - series.hops[first])
    empirical = float((res[last] / res[first]) ** (1.0 / span))
    return empirical, predicted


def multiplicity_bound_check(
    graph: Graph,
    sensitive,
    k_max: int = 60,
) -> MultiplicityBound:
    """Lower-bound check for a degenerate positive dominant eigenvalue.

    lhs is the tail of the self-alignment series; rhs is the sum of the
    cosines against an orthonormal basis of the dominant eigenspace divided
    by the square root of its dimension. A column orthogonal to that
    eigenspace violates the premise and is flagged degenerate (inconclusive)
    rather than judged.
    """
    if graph.n > DEFAULT_ORACLE_CAP:
        raise ValueError("multiplicity detection requires the dense oracle")
    oracle = dense_eigendecomposition(graph)
    lead = float(oracle.eigenvalues[0])
    if lead <= 0.0:
        raise ValueError("bound check requires a positive dominant eigenvalue")
    tied = np.array([_magnitudes_tied(lead, value) for value in oracle.eigenvalues])
    # ties put the positive eigenvalues first: the dominant eigenspace leads
    multiplicity = int(np.count_nonzero(tied & (oracle.eigenvalues > 0)))
    if multiplicity < 2:
        raise ValueError("dominant eigenvalue is simple; use limit_check")
    if np.any(tied & (oracle.eigenvalues < 0)):
        raise ValueError("dominant magnitude shared with an opposite-sign eigenvalue")

    _, padded = _column_views(sensitive)
    norm = np.linalg.norm(padded)
    if norm == 0.0:
        raise DegenerateVectorError("sensitive column is the zero vector")
    unit = padded / norm
    basis = oracle.eigenvectors[:, :multiplicity]
    coeffs = basis.T @ unit
    if np.linalg.norm(coeffs) < 1e-10:
        return MultiplicityBound(lhs=0.0, rhs=0.0, holds=None,
                                 degenerate=True, multiplicity=multiplicity)
    cosines = _normalized_cosine_series(graph, padded, padded, k_max)
    lhs = float(cosines[-1])
    rhs = float(coeffs.sum() / np.sqrt(multiplicity))
    return MultiplicityBound(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - 1e-8),
                             degenerate=False, multiplicity=multiplicity)


def build_alignment_battery(count: int, seed: int = 0):
    """Seeded battery of connected, non-bipartite graphs with a clear gap.

    Returns a list of (graph_id, graph, masked SensitiveColumn, oracle)
    tuples whose dominant/second magnitude ratio is at least
    ``BATTERY_MIN_GAP_RATIO``. Candidates not meeting the premises are
    skipped, so the battery is deterministic for a given seed.
    """
    from .graph import apply_missing_mask, is_connected

    rng = np.random.default_rng(seed)
    battery = []
    attempt = 0
    while len(battery) < count and attempt < BATTERY_MAX_ATTEMPTS:
        attempt += 1
        n = int(rng.integers(BATTERY_N_RANGE[0], BATTERY_N_RANGE[1] + 1))
        kind_seed = int(rng.integers(0, 2 ** 31))
        if attempt % 2:
            spec = SyntheticSpec(kind="erdos_renyi", n=n,
                                 params={"p": float(rng.uniform(0.15, 0.5))},
                                 seed=kind_seed)
        else:
            half = n // 2
            spec = SyntheticSpec(kind="sbm", n=half * 2,
                                 params={"block_sizes": [half, half],
                                         "p_in": float(rng.uniform(0.3, 0.5)),
                                         "p_out": float(rng.uniform(0.08, 0.2))},
                                 seed=kind_seed)
        graph, _, _, _ = gen_synthetic(spec)
        if not is_connected(graph):
            continue
        # a connected bipartite graph has -lambda_1 in its spectrum too: its two
        # largest magnitudes tie, so the gap check below rejects it
        oracle = dense_eigendecomposition(graph)
        lead, second = abs(float(oracle.eigenvalues[0])), abs(float(oracle.eigenvalues[1]))
        if second == 0.0 or lead / second < BATTERY_MIN_GAP_RATIO:
            continue
        # sensitive groups split along the second eigendirection (community
        # structure, as in real networks) plus noise; a generic random vector
        # can be near-orthogonal to it, which starves the decay checks of
        # their dominant sub-rate
        split_dir = oracle.eigenvectors[:, 1]
        values = (split_dir > np.median(split_dir)).astype(np.int64)
        flips = rng.random(graph.n) < 0.15
        values = np.where(flips, 1 - values, values).astype(np.int64)
        if values.sum() in (0, graph.n):
            continue
        column = SensitiveColumn(values=values, present=np.ones(graph.n, dtype=bool))
        masked = apply_missing_mask(column, BATTERY_MASK_RATE, seed=kind_seed + 1)
        if masked.padded_vector().sum() == 0:
            continue
        battery.append((f"{spec.kind}-{len(battery):02d}-n{graph.n}", graph, masked, oracle))
    if len(battery) < count:
        raise RuntimeError(f"battery generation stalled at {len(battery)}/{count}")
    return battery


def build_multiplicity_battery(count: int, seed: int = 0):
    """Disjoint-clique constructions with a degenerate dominant eigenvalue.

    Returns (graph_id, graph, SensitiveColumn) tuples; the sensitive column
    marks one clique, which keeps its projection on the dominant eigenspace
    nonzero.
    """
    rng = np.random.default_rng(seed)
    battery = []
    size = 3
    copies = 2
    while len(battery) < count:
        sizes = [size] * copies
        n = size * copies
        spec = SyntheticSpec(kind="disjoint_cliques", n=n, params={"sizes": sizes},
                             seed=int(rng.integers(0, 2 ** 31)))
        graph, _, _, _ = gen_synthetic(spec)
        values = np.zeros(n, dtype=np.int64)
        values[:size] = 1
        column = SensitiveColumn(values=values, present=np.ones(n, dtype=bool))
        battery.append((f"cliques-{size}x{copies}", graph, column))
        if copies < 4:
            copies += 1
        else:
            copies = 2
            size += 1
    return battery
