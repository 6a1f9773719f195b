"""Seeded synthetic graph/attribute generators for benchmarks and checks.

Every generator is deterministic in its spec's seed. Sensitive classes follow
the planted block structure with a configurable flip probability, and labels
follow the sensitive class with their own flip rate, so group bias can be
planted (or washed out) on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import AttributeMatrix, SensitiveColumn, from_edges

KINDS = ("erdos_renyi", "sbm", "disjoint_cliques", "custom")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset.

    ``sensitive_correlation`` is the probability a node keeps its
    block-derived sensitive class; ``label_flip`` is the probability the
    binary label disagrees with the sensitive parity.
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict)
    sensitive_correlation: float = 1.0
    label_flip: float = 0.0
    noise_scale: float = 0.1
    sensitive_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.sensitive_correlation <= 1.0:
            raise ValueError("sensitive_correlation must be in [0, 1]")
        if not 0.0 <= self.label_flip <= 1.0:
            raise ValueError("label_flip must be in [0, 1]")
        if self.sensitive_classes < 2:
            raise ValueError("need at least two sensitive classes")
        for key in ("p", "p_in", "p_out"):
            if key in self.params and not 0.0 <= float(self.params[key]) <= 1.0:
                raise ValueError(f"{key} must be a probability in [0, 1], "
                                 f"got {self.params[key]!r}")


def _build_topology(spec: SyntheticSpec, rng: np.random.Generator):
    """Returns (edges, block_ids): an (E, 2) int64 array, or the custom
    kind's pairs as given, and one block per node.

    Erdős–Rényi is the one-block SBM: both draw one uniform per pair of the
    upper triangle. Cliques are built block by block and draw nothing.
    """
    if spec.kind == "custom":
        return spec.params.get("edges", []), np.zeros(spec.n, dtype=np.int64)
    if spec.kind == "erdos_renyi":
        sizes = [spec.n]
        p_in = p_out = float(spec.params.get("p", 0.1))
    else:
        key = "block_sizes" if spec.kind == "sbm" else "sizes"
        sizes = list(spec.params.get(key) or [])
        if not sizes or sum(sizes) != spec.n:
            raise ValueError(f"{spec.kind} needs {key} summing to n")
        p_in = float(spec.params.get("p_in", 0.3))
        p_out = float(spec.params.get("p_out", 0.02))
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    if spec.kind == "disjoint_cliques":
        starts = np.cumsum([0, *sizes[:-1]])
        edges = np.concatenate([start + np.column_stack(np.triu_indices(size, k=1))
                                for start, size in zip(starts, sizes)])
        return edges, blocks
    rows, cols = np.triu_indices(spec.n, k=1)
    draw = rng.random(len(rows))
    if len(sizes) == 1:
        keep = draw < p_in
    else:
        # the per-pair block ids are n²/2 long: hold them in the narrowest dtype
        narrow = blocks.astype(np.min_scalar_type(len(sizes) - 1))
        keep = np.where(narrow[rows] == narrow[cols], draw < p_in, draw < p_out)
    return np.column_stack([rows[keep], cols[keep]]), blocks


def gen_synthetic(spec: SyntheticSpec):
    """Generate (Graph, AttributeMatrix, SensitiveColumn, labels) from a spec.

    Sensitive class = block id modulo the class count, flipped to a uniformly
    random other class with probability 1 - sensitive_correlation (uniform
    draw outright for the block-free kinds). Labels are the sensitive parity
    flipped with probability label_flip. Features are the block one-hot plus
    Gaussian noise, with the sensitive class appended as the last column.
    """
    rng = np.random.default_rng(spec.seed)
    edges, blocks = _build_topology(spec, rng)
    graph = from_edges(spec.n, edges)

    classes = spec.sensitive_classes
    if spec.kind in ("erdos_renyi", "custom"):
        sensitive = rng.integers(0, classes, size=spec.n)
    else:
        sensitive = blocks % classes
        flip = rng.random(spec.n) < (1.0 - spec.sensitive_correlation)
        if flip.any():
            shift = rng.integers(1, classes, size=int(flip.sum()))
            sensitive = sensitive.copy()
            sensitive[flip] = (sensitive[flip] + shift) % classes
    sensitive = sensitive.astype(np.int64)

    labels = sensitive % 2
    label_flip = rng.random(spec.n) < spec.label_flip
    labels = np.where(label_flip, 1 - labels, labels).astype(np.int64)

    n_blocks = int(blocks.max()) + 1
    one_hot = np.zeros((spec.n, n_blocks))
    one_hot[np.arange(spec.n), blocks] = 1.0
    features = one_hot + spec.noise_scale * rng.standard_normal((spec.n, n_blocks))
    features = np.column_stack([features, sensitive.astype(np.float64)])

    attrs = AttributeMatrix(features=features, sensitive_index=features.shape[1] - 1)
    column = SensitiveColumn(values=sensitive, present=np.ones(spec.n, dtype=bool))
    return graph, attrs, column, labels


def attributes_to_csv_text(attrs: AttributeMatrix, sensitive: SensitiveColumn,
                           labels: np.ndarray) -> str:
    """Serialise attributes in the loader's CSV schema (round-trip safe)."""
    feature_cols = [j for j in range(attrs.d) if j != attrs.sensitive_index]
    header = ["id"] + [f"f{i}" for i in range(len(feature_cols))] + ["sensitive", "label"]
    lines = [",".join(header)]
    for i in range(attrs.n):
        cells = [str(i)]
        cells += [repr(float(attrs.features[i, j])) for j in feature_cols]
        cells.append(str(int(sensitive.values[i])))
        cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
