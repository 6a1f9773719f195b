"""Seeded O(n + E) planted-partition inputs for the benchmark.

The program's own sampler (``fairspect.synthetic``) draws over every node
pair and cannot reach 10^5 nodes, so the benchmark owns this generator. It
writes exactly the files the CLI reads: an edge list with a ``# n=`` header,
an attribute CSV and, where a workload asks for one, a mask file.

Nodes get a uniformly shuffled block id. Each block receives an equal share
of the intra-block edges and the rest straddle two blocks; endpoints are
drawn uniformly, self-loops and repeats are redrawn, so the cost is linear in
the number of edges and the edge count is exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


AVG_DEGREE = 10.0
INTER_FRACTION = 0.2  # share of edges that straddle two blocks
SENSITIVE_FLIP = 0.1  # sensitive class = block parity, flipped with this probability
LABEL_FLIP = 0.3  # label = sensitive class, flipped with this probability
NOISE_SCALE = 0.5  # Gaussian noise on the block one-hot features
NOISE_FEATURES = 2  # extra pure-noise feature columns


@dataclass(frozen=True)
class GraphSpec:
    n: int
    blocks: int = 4
    # fraction of nodes listed in mask.txt; None writes no mask file
    mask_rate: float | None = None


def _distinct_pairs(draw, need: int, n: int) -> np.ndarray:
    """``need`` distinct canonical pairs (u < v) from repeated ``draw(k)`` calls."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < need:
        u, v = draw(int(1.1 * (need - len(keys))) + 16)
        keep = u != v
        lo = np.minimum(u[keep], v[keep]).astype(np.int64)
        hi = np.maximum(u[keep], v[keep]).astype(np.int64)
        merged = np.concatenate([keys, lo * n + hi])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:need]
    return np.column_stack([keys // n, keys % n])


def planted_partition(spec: GraphSpec, seed: int):
    """Return (edges (E, 2) int64 with u < v, sorted; block id per node).

    E is round(AVG_DEGREE * n / 2) for every seed, so inputs of one workload
    differ in content but not in size.
    """
    if spec.n % spec.blocks:
        raise ValueError("n must be a multiple of the block count")
    rng = np.random.default_rng(seed)
    n = spec.n
    block = rng.permutation(np.arange(n) % spec.blocks)
    total = round(AVG_DEGREE * n / 2)
    intra = round(total * (1.0 - INTER_FRACTION) / spec.blocks)
    parts = []
    for b in range(spec.blocks):
        members = np.flatnonzero(block == b)
        parts.append(_distinct_pairs(
            lambda k, m=members: (m[rng.integers(0, len(m), k)], m[rng.integers(0, len(m), k)]),
            intra, n))

    def straddling(k):
        u = rng.integers(0, n, k)
        v = rng.integers(0, n, k)
        cross = block[u] != block[v]
        return u[cross], v[cross]

    parts.append(_distinct_pairs(straddling, total - intra * spec.blocks, n))
    edges = np.concatenate(parts)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))], block


def node_attributes(spec: GraphSpec, block: np.ndarray, seed: int):
    """(features without the sensitive column, sensitive, labels, masked ids)."""
    rng = np.random.default_rng([seed, 1])
    n = spec.n
    sensitive = block % 2
    sensitive = np.where(rng.random(n) < SENSITIVE_FLIP, 1 - sensitive, sensitive)
    labels = np.where(rng.random(n) < LABEL_FLIP, 1 - sensitive, sensitive)
    one_hot = np.zeros((n, spec.blocks))
    one_hot[np.arange(n), block] = 1.0
    features = np.column_stack([
        one_hot + NOISE_SCALE * rng.standard_normal((n, spec.blocks)),
        rng.standard_normal((n, NOISE_FEATURES)),
    ])
    masked = None
    if spec.mask_rate is not None:
        masked = np.sort(rng.choice(n, size=int(spec.mask_rate * n), replace=False))
    return features, sensitive.astype(np.int64), labels.astype(np.int64), masked


def edge_list_text(n: int, edges: np.ndarray) -> str:
    body = "\n".join(f"{u} {v}" for u, v in edges.tolist())
    return f"# n={n}\n{body}\n"


def attribute_csv_text(features: np.ndarray, sensitive: np.ndarray,
                       labels: np.ndarray) -> str:
    header = ["id"] + [f"f{j}" for j in range(features.shape[1])] + ["sensitive", "label"]
    lines = [",".join(header)]
    cells = np.char.mod("%.6f", features)
    for i, row in enumerate(cells.tolist()):
        lines.append(f"{i},{','.join(row)},{sensitive[i]},{labels[i]}")
    return "\n".join(lines) + "\n"


def write_inputs(spec: GraphSpec, seed: int, out_dir: Path) -> dict:
    """Write edges.txt, attrs.csv (and mask.txt) plus edges.npy and meta.json."""
    edges, block = planted_partition(spec, seed)
    features, sensitive, labels, masked = node_attributes(spec, block, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "edges.txt").write_text(edge_list_text(spec.n, edges), encoding="utf-8")
    (out_dir / "attrs.csv").write_text(attribute_csv_text(features, sensitive, labels),
                                       encoding="utf-8")
    if masked is not None:
        (out_dir / "mask.txt").write_text("".join(f"{i}\n" for i in masked.tolist()),
                                          encoding="utf-8")
    np.save(out_dir / "edges.npy", edges)
    np.save(out_dir / "labels.npy", labels)
    meta = {"n": spec.n, "edge_count": int(len(edges)), "seed": seed, "spec": asdict(spec)}
    (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    return meta


CACHE_KEEP = 6


def cached_inputs(spec: GraphSpec, seed: int, cache_root: Path, name: str) -> Path:
    """Inputs for (spec, seed), generated once and reused from ``cache_root``.

    The cache key covers this file's source, so a change to the generator
    never reuses stale inputs. Only the ``CACHE_KEEP`` most recently written
    input sets of one ``name`` are kept.
    """
    digest = hashlib.sha256(json.dumps(asdict(spec), sort_keys=True).encode()
                            + Path(__file__).read_bytes()).hexdigest()
    key = f"{name}-s{seed}-{digest[:12]}"
    final = cache_root / key
    if (final / "meta.json").exists():
        return final
    tmp = cache_root / f"{key}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    write_inputs(spec, seed, tmp)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    siblings = sorted((p for p in cache_root.glob(f"{name}-s*") if p.is_dir()),
                      key=lambda p: p.stat().st_mtime_ns, reverse=True)
    for stale in siblings[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)
    return final
