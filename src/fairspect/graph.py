"""Graph and attribute data model: file ingestion, masking, splitting.

Graphs are simple (no self-loops, no duplicate edges), undirected and
unweighted, stored in compressed sparse row form. All containers are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np


class EdgeListFormatError(ValueError):
    """Raised when edge-list text cannot be parsed."""


class AttributeTableError(ValueError):
    """Raised when an attribute CSV violates the expected schema."""


_N_HEADER = re.compile(r"#\s*n\s*=\s*([0-9]+)\s*$")

# Largest node count whose packed pair keys u*n + v (u, v < n) fit in int64.
MAX_NODES = math.isqrt(2**63)

# str.splitlines() line boundaries; ingest maps them all to "\n" so that line
# numbers in error messages count lines the way a text editor does.
_LINE_BREAK_CHARS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(r"\r\n|[\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_HASH_TO_EOL = re.compile(r"#.*")
_INT_LITERAL = re.compile(r"([+-]?)0*([0-9]+)")
_FLOAT_LITERAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.IGNORECASE)
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_BLANK_LINE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")
# int() and float() reject these inside a cell while numpy's parser strips
# them as blanks, so rows holding them take the row-by-row path
_CELL_SEPARATOR_CHARS = "\x1c\x1d\x1e\x1f"


def _parse_int(token: str) -> int | None:
    """Value of an ASCII integer literal with optional sign; None if it is not one.

    Magnitudes beyond 20 digits are clamped to 2**64, which is out of every
    range the loaders accept, so int() never sees a huge digit string.
    """
    match = _INT_LITERAL.fullmatch(token)
    if match is None:
        return None
    sign, digits = match.groups()
    value = int(digits) if len(digits) <= 20 else 2**64
    return -value if sign == "-" else value


def _split_comments(text: str):
    """Return (text, body, comments) for line-oriented input.

    ``text`` comes back with every line boundary normalised to "\n".
    ``comments`` are the matches of the comment lines (first non-blank
    character ``#``), each spanning ``#`` to the end of its line; ``body`` is
    the text with those lines emptied. A ``#`` after other content on a line
    stays in ``body``, where the parser rejects it.
    """
    if any(ch in text for ch in _LINE_BREAK_CHARS):
        text = _LINE_BREAK.sub("\n", text)
    comments, pieces, kept_from = [], [], 0
    for hit in _HASH_TO_EOL.finditer(text):
        line_start = text.rfind("\n", 0, hit.start()) + 1
        if text[line_start:hit.start()].strip():
            continue
        comments.append(hit)
        pieces.append(text[kept_from:line_start])
        kept_from = hit.end()
    pieces.append(text[kept_from:])
    return text, "".join(pieces), comments


def _int_lines(text: str, width: int, bound: int, line_error, name: str):
    """Parse line-oriented input of ``width`` integers per line in [0, ``bound``).

    Returns (text, rows, comments), ``text`` and ``comments`` as from
    ``_split_comments`` and ``rows`` a (lines, width) int64 array; blank lines
    are skipped. On a bad line, raises ``_first_bad_line``'s error for
    ``line_error``, with "unparseable <name>: <reason>" as its fallback.
    """
    text, body, comments = _split_comments(text)
    if not body or body.isspace():
        return text, np.empty((0, width), dtype=np.int64), comments
    try:
        # numpy decodes and parses the UTF-8 bytes line by line, as it would a
        # StringIO, without the StringIO's copy at 4 bytes per character. A lone
        # surrogate fails to encode with a ValueError, like any parse error.
        rows = np.loadtxt(io.BytesIO(body.encode("utf-8")), dtype=np.int64, comments=None,
                          ndmin=2, encoding="utf-8")
        if rows.shape[1] != width:
            raise ValueError(f"expected {width} integers per line, got {rows.shape[1]}")
        if len(rows) and (rows.min() < 0 or rows.max() >= bound):
            raise ValueError("node id out of range")
    except ValueError as exc:
        raise _first_bad_line(text, line_error, f"unparseable {name}: {exc}") from None
    return text, rows, comments


def _first_bad_line(text: str, line_error, fallback: str) -> EdgeListFormatError:
    """Error for the first line that ``line_error(lineno, raw, stripped)`` rejects.

    Runs only after the vectorised parse has failed, to name the offending
    line; ``fallback`` is the message if no single line is to blame.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            message = line_error(lineno, raw, line)
            if message:
                return EdgeListFormatError(message)
    return EdgeListFormatError(fallback)


def _edge_line_error(lineno: int, raw: str, line: str) -> str | None:
    parts = line.split()
    if len(parts) != 2:
        return f"line {lineno}: expected two node ids, got {raw!r}"
    ids = [_parse_int(part) for part in parts]
    if None in ids:
        return f"line {lineno}: non-integer node id in {raw!r}"
    if min(ids) < 0:
        return f"line {lineno}: negative node id in {raw!r}"
    if max(ids) >= MAX_NODES:
        return f"line {lineno}: node id above {MAX_NODES - 1} in {raw!r}"
    return None


@dataclass(frozen=True)
class Graph:
    """Symmetric adjacency in CSR form.

    ``row_offsets`` has length n+1; ``col_indices[row_offsets[i]:row_offsets[i+1]]``
    are the neighbours of node i, sorted ascending. Each undirected edge is
    stored twice, so ``row_offsets[n] == 2 * edge_count``. ``from_edges``
    stores both arrays in ``index_dtype(n, 2 * edge_count)``.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    edge_count: int

    def __post_init__(self):
        self.row_offsets.setflags(write=False)
        self.col_indices.setflags(write=False)
        if self.row_offsets.shape != (self.n + 1,):
            raise ValueError("row_offsets must have length n+1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != len(self.col_indices):
            raise ValueError("row_offsets endpoints inconsistent with col_indices")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(self.col_indices) != 2 * self.edge_count:
            raise ValueError("stored entries must equal 2 * edge_count")

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def to_scipy(self):
        """CSR matrix with unit weights (float64).

        Index arrays in scipy's own index dtype, as ``from_edges`` makes them,
        are shared with the matrix, not copied.
        """
        from scipy.sparse import csr_matrix

        data = np.ones(len(self.col_indices), dtype=np.float64)
        return csr_matrix((data, self.col_indices, self.row_offsets), shape=(self.n, self.n))

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def undirected_edges(self) -> np.ndarray:
        """Unique (u, v) pairs with u < v as an (edge_count, 2) int64 array, sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        upper = rows < self.col_indices
        return np.column_stack([rows[upper], self.col_indices[upper]])


def index_dtype(n: int, stored: int) -> type:
    """int32 when node ids up to ``n`` and offsets up to ``stored`` all fit in
    it, else int64: the rule scipy applies to CSR indices."""
    return np.int32 if max(n, stored) <= np.iinfo(np.int32).max else np.int64


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from undirected (u, v) pairs, u != v.

    ``edges`` is an (E, 2) integer array or an iterable of pairs. Duplicates
    and reversed pairs collapse into one edge.
    """
    if n > MAX_NODES:
        raise ValueError(f"n={n} exceeds the supported maximum {MAX_NODES}")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    src, dst = pairs[:, 0], pairs[:, 1]
    if len(pairs) and (pairs.max() >= n or pairs.min() < 0):
        raise ValueError("edge endpoint outside 0..n-1")
    if np.any(src == dst):
        raise ValueError("self-loops are not representable")
    # both orientations of every edge, packed row-major: one sort puts them
    # in CSR order (by row, then column) and brings duplicates together.
    # (np.unique would hash first, several times slower on these keys.)
    keys = np.concatenate([src * n + dst, dst * n + src])
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    index = index_dtype(n, len(keys))
    offsets = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(keys // n, minlength=n), out=offsets[1:])
    # the keys become column ids in place, so no int64 row and column arrays
    # are alive beside them
    np.remainder(keys, n, out=keys)
    return Graph(n=n, row_offsets=offsets, col_indices=keys.astype(index),
                 edge_count=len(keys) // 2)


def load_edge_list(text: str) -> Graph:
    """Parse "u v" pairs into a symmetric Graph.

    Lines starting with ``#`` are comments; an optional ``# n=<N>`` header
    fixes the node count (for trailing isolated nodes). Duplicate edges are
    collapsed and self-loops dropped. Node ids are nonnegative ASCII integers
    below ``MAX_NODES``; n = 1 + max id seen unless the header says otherwise.
    """
    text, pairs, comments = _int_lines(text, 2, MAX_NODES, _edge_line_error, "edge list")
    header = None
    for hit in comments:
        match = _N_HEADER.match(hit.group())
        if match:
            header = (hit, match.group(1))
    if header is None and not len(pairs):
        raise EdgeListFormatError("empty edge list")
    max_id = int(pairs.max()) if len(pairs) else -1
    n = max_id + 1
    if header is not None:
        hit, digits = header
        significant = digits.lstrip("0") or "0"
        header_n = int(significant) if len(significant) <= 20 else MAX_NODES + 1
        if header_n > MAX_NODES:
            lineno = text.count("\n", 0, hit.start()) + 1
            raise EdgeListFormatError(
                f"line {lineno}: header n={digits} above the maximum {MAX_NODES}")
        if header_n < n:
            raise EdgeListFormatError(f"header n={header_n} smaller than max id {max_id}")
        n = header_n
    if n == 0:
        raise EdgeListFormatError("graph has no nodes")
    return from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])


def to_edge_list_text(graph: Graph) -> str:
    """Serialise a Graph back to edge-list text (round-trips via load_edge_list)."""
    edges = graph.undirected_edges()
    lines = [f"# n={graph.n}"]
    lines += map("{} {}".format, edges[:, 0].tolist(), edges[:, 1].tolist())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AttributeMatrix:
    """Node feature matrix (n x d) with the sensitive column marked."""

    features: np.ndarray
    sensitive_index: int

    def __post_init__(self):
        self.features.setflags(write=False)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if not 0 <= self.sensitive_index < self.features.shape[1]:
            raise ValueError("sensitive_index out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SensitiveColumn:
    """Per-node sensitive class ids plus a disclosure mask.

    ``values[i]`` is meaningful only where ``present[i]`` is True; masked
    entries keep their ground-truth value for evaluation, which the model
    never sees.
    """

    values: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.present.setflags(write=False)
        if self.values.shape != self.present.shape or self.values.ndim != 1:
            raise ValueError("values and present must be 1-D arrays of equal length")
        if self.present.dtype != np.bool_:
            raise ValueError("present must be boolean")
        if np.any(self.values < 0):
            raise ValueError("sensitive class ids must be nonnegative")
        if not self.present.any():
            raise ValueError("at least one node must have a disclosed sensitive value")

    @property
    def n(self) -> int:
        return len(self.values)

    def complete_vector(self) -> np.ndarray:
        """Ground-truth column as float64 (evaluation view)."""
        return self.values.astype(np.float64)

    def padded_vector(self) -> np.ndarray:
        """Zero-padded column as float64 (what the model may see)."""
        return np.where(self.present, self.values, 0).astype(np.float64)


def _parse_float(cell: str) -> float | None:
    """Value of an ASCII decimal, inf or nan literal; None if it is not one."""
    cell = cell.strip()
    return float(cell) if _FLOAT_LITERAL.fullmatch(cell) else None


def _attribute_row_error(csv_text: str, width: int, id_col: int, label_col: int,
                         feature_cols: list[int]) -> str | None:
    """The first row-level schema violation, in row order, or None.

    Runs only after the vectorised parse has failed, to name the offending row.
    """
    reader = csv.reader(io.StringIO(csv_text))
    seen = set()
    try:
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                return f"row {lineno}: expected {width} cells, got {len(row)}"
            node = _parse_int(row[id_col].strip())
            if node is None:
                return f"row {lineno}: non-integer id {row[id_col]!r}"
            if not _INT64_MIN <= node <= _INT64_MAX:
                return f"row {lineno}: id {row[id_col]!r} does not fit in int64"
            if node in seen:
                return f"row {lineno}: duplicate id {node}"
            seen.add(node)
            feats = [_parse_float(row[j]) for j in feature_cols]
            if None in feats:
                return f"row {lineno}: non-numeric feature cell"
            if not all(math.isfinite(x) for x in feats):
                return f"row {lineno}: non-finite feature cell"
            label = _parse_int(row[label_col].strip())
            if label is None:
                return f"row {lineno}: non-integer label {row[label_col]!r}"
            if not _INT64_MIN <= label <= _INT64_MAX:
                return f"row {lineno}: label {row[label_col]!r} does not fit in int64"
            if label < 0:
                return f"row {lineno}: negative label {label}"
    except csv.Error as exc:
        return f"row {reader.line_num}: {exc}"
    return None


def load_attributes(csv_text: str, expected_n: int | None = None):
    """Parse an attribute CSV into (AttributeMatrix, SensitiveColumn, labels).

    The header must contain ``id``, ``sensitive`` and ``label``; every other
    column is a real-valued, finite feature. The sensitive column is part of
    the feature matrix. Rows may come in any order but must cover ids 0..n-1
    exactly once; ids and labels are integers that fit in int64. Labels
    greater than 1 are merged into class 1.
    """
    if not csv_text:
        raise AttributeTableError("empty attribute table")
    header_line, _, body = csv_text.partition("\n")
    try:
        header = [h.strip() for h in next(csv.reader([header_line]), [])]
    except csv.Error as exc:
        raise AttributeTableError(f"row 1: {exc}") from None
    for required in ("id", "sensitive", "label"):
        if required not in header:
            raise AttributeTableError(f"missing required column {required!r}")
    id_col = header.index("id")
    label_col = header.index("label")
    feature_cols = [j for j in range(len(header)) if j not in (id_col, label_col)]
    sensitive_index = feature_cols.index(header.index("sensitive"))

    # whitespace-only lines are skipped like empty ones; the leading "\n"
    # lets the pattern see the first line too
    body = _BLANK_LINE.sub("\n", "\n" + body)
    if body.isspace():
        raise AttributeTableError("attribute table has no data rows")
    dtype = [(f"c{j}", np.int64 if j in (id_col, label_col) else np.float64)
             for j in range(len(header))]
    try:
        if any(ch in body for ch in _CELL_SEPARATOR_CHARS):
            raise ValueError("control characters U+001C..U+001F in a data row")
        # bytes, not a StringIO, for the reason given in _int_lines
        table = np.loadtxt(io.BytesIO(body.encode("utf-8")), dtype=dtype, delimiter=",",
                           quotechar='"', comments=None, ndmin=1, encoding="utf-8")
        table = table[np.argsort(table[f"c{id_col}"], kind="stable")]
        ids = table[f"c{id_col}"]
        raw_labels = table[f"c{label_col}"]
        features = np.column_stack([table[f"c{j}"] for j in feature_cols])
        if (np.any(ids[1:] == ids[:-1]) or np.any(raw_labels < 0)
                or not np.isfinite(features).all()):
            raise ValueError("duplicate id, negative label or non-finite feature")
    except ValueError as exc:
        message = _attribute_row_error(csv_text, len(header), id_col, label_col, feature_cols)
        raise AttributeTableError(message or f"unparseable attribute table: {exc}") from None

    n = len(ids)
    if ids[0] != 0 or ids[-1] != n - 1:
        raise AttributeTableError("node ids must be contiguous 0..n-1")
    if expected_n is not None and n != expected_n:
        raise AttributeTableError(f"attribute table has {n} rows, graph has {expected_n} nodes")

    labels = np.minimum(raw_labels, 1)
    sens_values = features[:, sensitive_index]
    if np.any(sens_values != np.round(sens_values)):
        raise AttributeTableError("sensitive column must hold integer class ids")
    if np.any(sens_values < 0) or np.any(sens_values >= 2.0**63):
        raise AttributeTableError("sensitive class ids must be nonnegative and fit in int64")
    sensitive = SensitiveColumn(
        values=sens_values.astype(np.int64),
        present=np.ones(n, dtype=bool),
    )
    return AttributeMatrix(features=features, sensitive_index=sensitive_index), sensitive, labels


def _masked(sensitive: SensitiveColumn, missing_ids) -> SensitiveColumn:
    """An all-present column's copy with ``missing_ids(n)`` masked, called after the check."""
    if not sensitive.present.all():
        raise ValueError("input mask must be all-present")
    present = np.ones(sensitive.n, dtype=bool)
    present[missing_ids(sensitive.n)] = False
    return SensitiveColumn(values=sensitive.values.copy(), present=present)


def apply_missing_mask(sensitive: SensitiveColumn, rate: float, seed: int) -> SensitiveColumn:
    """Mask exactly floor(rate * n) uniformly chosen nodes (seeded).

    Ground-truth values are retained; only the presence mask changes.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("missing rate must be in [0, 1)")
    return _masked(sensitive, lambda n: np.random.default_rng(seed).choice(
        n, size=int(rate * n), replace=False))


def _mask_line_error(lineno: int, raw: str, line: str, n: int) -> str | None:
    node = _parse_int(line)
    if node is None:
        return f"mask line {lineno}: non-integer id {raw!r}"
    if not 0 <= node < n:
        return f"mask line {lineno}: id {line} out of range"
    return None


def _mask_file_ids(text: str, n: int) -> np.ndarray:
    """The node ids of a mask file, each checked to lie in [0, n)."""
    _, ids, _ = _int_lines(text, 1, n, lambda *line: _mask_line_error(*line, n), "mask file")
    return ids[:, 0]


def parse_mask_file(text: str, sensitive: SensitiveColumn) -> SensitiveColumn:
    """Apply a mask file (one node id per line = missing) to an all-present column."""
    return _masked(sensitive, lambda n: _mask_file_ids(text, n))


def mask_file_text(sensitive: SensitiveColumn) -> str:
    """Serialise the missing-node ids of a column, one per line."""
    ids = np.flatnonzero(~sensitive.present)
    return "\n".join(str(i) for i in ids) + ("\n" if len(ids) else "")


@dataclass(frozen=True)
class Split:
    """Disjoint train/val/test node index sets."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for arr in (self.train, self.val, self.test):
            arr.setflags(write=False)
        all_idx = np.concatenate([self.train, self.val, self.test])
        if len(all_idx) == 0:
            return
        if all_idx.min() < 0:
            raise ValueError("split indices must be nonnegative")
        # one O(n) count per node id, not an O(n log n) sort
        if np.bincount(all_idx).max() > 1:
            raise ValueError("split index sets must be pairwise disjoint")


def make_split(n: int, train_size: int | None, seed: int) -> Split:
    """Seeded split: floor(n/4) validation, floor(n/4) test, train from the rest."""
    quarter = n // 4
    remainder = n - 2 * quarter
    if train_size is None:
        train_size = remainder
    if train_size < 0:
        raise ValueError("train_size must be >= 0")
    if train_size > remainder:
        raise ValueError(f"train_size must be at most {remainder} for n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    val = np.sort(perm[:quarter])
    test = np.sort(perm[quarter:2 * quarter])
    train = np.sort(perm[2 * quarter:2 * quarter + train_size])
    return Split(train=train, val=val, test=test)


def is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return False
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(graph.to_scipy(), directed=False)
    return count == 1


def is_bipartite(graph: Graph) -> bool:
    """A graph is bipartite iff its bipartite double cover [[0, A], [A, 0]]
    has twice as many connected components as the graph itself."""
    from scipy.sparse import bmat
    from scipy.sparse.csgraph import connected_components

    adjacency = graph.to_scipy()
    cover = bmat([[None, adjacency], [adjacency, None]], format="csr")
    cover_count, _ = connected_components(cover, directed=False)
    count, _ = connected_components(adjacency, directed=False)
    return cover_count == 2 * count
