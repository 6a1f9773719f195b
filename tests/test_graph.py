import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairspect.graph import (
    MAX_NODES,
    AttributeTableError,
    EdgeListFormatError,
    SensitiveColumn,
    Split,
    apply_missing_mask,
    from_edges,
    index_dtype,
    is_bipartite,
    is_connected,
    load_attributes,
    load_edge_list,
    make_split,
    mask_file_text,
    parse_mask_file,
    to_edge_list_text,
)

from conftest import neighbors, sensitive_column


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3
        assert g.edge_count == 3
        assert all(len(neighbors(g, i)) == 2 for i in range(3))

    def test_duplicates_and_self_loops(self):
        g = load_edge_list("0 1\n0 1\n1 0\n2 2")
        assert g.n == 3
        assert g.edge_count == 1
        assert len(neighbors(g, 2)) == 0

    def test_four_cycle_degrees(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 0")
        assert list(g.degrees()) == [2, 2, 2, 2]

    def test_comments_and_header(self):
        g = load_edge_list("# a comment\n# n=5\n0 1\n")
        assert g.n == 5
        assert g.edge_count == 1

    def test_header_of_non_ascii_digits_is_a_comment(self):
        # node ids are ASCII, and so is the header: like "# n=abc", it is a comment
        assert load_edge_list("# n=\u0663\n0 1\n").n == 2

    def test_header_only_gives_edgeless_graph(self):
        g = load_edge_list("# n=3\n")
        assert g.n == 3
        assert g.edge_count == 0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListFormatError, match="line 2"):
            load_edge_list("0 1\n0 1 2")
        with pytest.raises(EdgeListFormatError, match="line 1"):
            load_edge_list("a b")

    def test_empty_input_is_an_error(self):
        with pytest.raises(EdgeListFormatError):
            load_edge_list("")
        with pytest.raises(EdgeListFormatError):
            load_edge_list("# just a comment\n")

    def test_header_smaller_than_max_id_is_an_error(self):
        with pytest.raises(EdgeListFormatError):
            load_edge_list("# n=2\n0 5")

    def test_symmetry_of_loaded_graph(self):
        rng = np.random.default_rng(0)
        edges = {(int(a), int(b)) for a, b in rng.integers(0, 30, size=(120, 2)) if a != b}
        text = "\n".join(f"{u} {v}" for u, v in edges)
        g = load_edge_list(text)
        for i in range(g.n):
            for j in neighbors(g, i):
                assert i in neighbors(g, j)

    def test_round_trip(self):
        g = load_edge_list("# n=7\n0 1\n1 2\n2 0\n5 6")
        g2 = load_edge_list(to_edge_list_text(g))
        assert g2.n == g.n
        assert g2.edge_count == g.edge_count
        assert np.array_equal(g2.row_offsets, g.row_offsets)
        assert np.array_equal(g2.col_indices, g.col_indices)

    @pytest.mark.parametrize("text, message", [
        ("0 1 # trailing comment", "line 1: expected two node ids"),
        ("0 1\n0 #1", "line 2: non-integer node id"),
        ("0 1\n\n2 -3", "line 3: negative node id"),
        ("0 1\n1.0 2", "line 2: non-integer node id"),
        ("0 99999999999999999999", "line 1: node id above"),
        (f"0 {MAX_NODES}", "line 1: node id above"),
        ("0 1\n# n=1000000000000\n", "line 2: header n=1000000000000 above"),
        ("0 1\r\n1 2\r0 1 2", "line 3: expected two node ids"),
    ])
    def test_rejected_lines_are_named(self, text, message):
        with pytest.raises(EdgeListFormatError, match=re.escape(message)):
            load_edge_list(text)

    def test_line_breaks_signs_and_blank_lines(self):
        g = load_edge_list("  # comment\r\n+0 1\r\n\n  \t\n1\u3000-0\x0b2 3\f")
        ref = from_edges(4, [(0, 1), (2, 3)])
        assert np.array_equal(g.row_offsets, ref.row_offsets)
        assert np.array_equal(g.col_indices, ref.col_indices)

    def test_loaded_csr_is_bit_identical_to_from_edges(self):
        # the determinism contract rests on ingest: the file path and the
        # in-memory path must give the same arrays, dtypes included
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 300, size=(2000, 2))
        text = "# n=310\n" + "\n".join(f"{u} {v}" for u, v in pairs.tolist())
        loaded = load_edge_list(text)
        built = from_edges(310, [(u, v) for u, v in pairs.tolist() if u != v])
        assert loaded.edge_count == built.edge_count
        for a, b in ((loaded.row_offsets, built.row_offsets),
                     (loaded.col_indices, built.col_indices)):
            assert a.dtype == b.dtype == np.int32
            assert a.tobytes() == b.tobytes()
        expected = sorted({(min(u, v), max(u, v)) for u, v in pairs.tolist() if u != v})
        assert loaded.undirected_edges().tolist() == [list(p) for p in expected]


class TestLoadAttributes:
    def test_label_merge_and_sensitive_extraction(self):
        text = "id,f0,sensitive,label\n0,0.5,1,0\n1,0.2,0,2\n"
        attrs, sens, labels = load_attributes(text)
        assert labels.tolist() == [0, 1]
        assert sens.values.tolist() == [1, 0]
        assert sens.present.all()
        assert attrs.d == 2  # sensitive column stays inside the features
        assert attrs.sensitive_index == 1

    def test_merge_rule_many_classes(self):
        text = "id,sensitive,label\n0,0,0\n1,1,1\n2,0,3\n"
        _, _, labels = load_attributes(text)
        assert sorted(labels.tolist()) == [0, 1, 1]

    def test_row_count_mismatch(self):
        text = "id,sensitive,label\n0,0,0\n1,1,1\n"
        with pytest.raises(AttributeTableError, match="2 rows"):
            load_attributes(text, expected_n=3)

    def test_missing_required_column(self):
        with pytest.raises(AttributeTableError, match="sensitive"):
            load_attributes("id,f0,label\n0,1.0,0\n")

    def test_non_contiguous_ids(self):
        with pytest.raises(AttributeTableError, match="contiguous"):
            load_attributes("id,sensitive,label\n0,0,0\n2,1,1\n")

    def test_non_numeric_feature(self):
        with pytest.raises(AttributeTableError, match="non-numeric"):
            load_attributes("id,f0,sensitive,label\n0,oops,0,0\n")

    @pytest.mark.parametrize("text, message", [
        ("id,sensitive,label\n0,0,0\n1,1\n", "row 3: expected 3 cells, got 2"),
        ("id,sensitive,label\n0,0,0\n\n1.0,1,1\n", "row 4: non-integer id '1.0'"),
        ("id,sensitive,label\n1,0,0\n0,1,1\n1,1,1\n", "row 4: duplicate id 1"),
        ("id,f0,sensitive,label\n0,nan,0,0\n", "row 2: non-finite feature cell"),
        ("id,sensitive,label\n0,0,x\n", "row 2: non-integer label 'x'"),
        ("id,sensitive,label\n0,0,0\n1,1,-1\n", "row 3: negative label -1"),
        ("id,sensitive,label\n0,0,99999999999999999999\n", "row 2: label '99999999999999999999' does not fit"),
        ("id,sensitive,label\n0,0,0\r1,1,1\n", "row 2: new-line character"),
        ("id,sensitive,label\n0,-1,0\n", "sensitive class ids must be nonnegative"),
    ])
    def test_rejected_rows_are_named(self, text, message):
        with pytest.raises(AttributeTableError, match=re.escape(message)):
            load_attributes(text)

    def test_blank_lines_quotes_and_crlf(self):
        text = 'id,f0,sensitive,label\r\n\r\n"1", 2.5 ,1,3\r\n  \r\n0,-1e-3,0,0\r\n'
        attrs, sens, labels = load_attributes(text, expected_n=2)
        assert attrs.features.tolist() == [[-1e-3, 0.0], [2.5, 1.0]]
        assert sens.values.tolist() == [0, 1]
        assert labels.tolist() == [0, 1]


class TestMissingMask:
    def test_rate_zero_is_identity(self):
        sens = sensitive_column([0, 1, 1, 0])
        out = apply_missing_mask(sens, 0.0, seed=3)
        assert out.present.all()
        assert np.array_equal(out.values, sens.values)

    def test_exact_count_and_determinism(self):
        sens = sensitive_column(np.arange(10) % 2)
        a = apply_missing_mask(sens, 0.3, seed=11)
        b = apply_missing_mask(sens, 0.3, seed=11)
        assert int((~a.present).sum()) == 3
        assert np.array_equal(a.present, b.present)

    def test_large_case_counts_and_seed_sensitivity(self):
        # direct counting over the seeded sampler
        n = 1045
        sens = sensitive_column(np.arange(n) % 2)
        a = apply_missing_mask(sens, 0.6, seed=0)
        b = apply_missing_mask(sens, 0.6, seed=1)
        assert int((~a.present).sum()) == 627
        assert int((~b.present).sum()) == 627
        assert not np.array_equal(a.present, b.present)

    def test_values_bit_identical(self):
        sens = sensitive_column(np.arange(50) % 3)
        out = apply_missing_mask(sens, 0.4, seed=5)
        assert np.array_equal(out.values, sens.values)
        assert int((~out.present).sum()) == 20

    def test_rate_bounds(self):
        sens = sensitive_column([0, 1])
        with pytest.raises(ValueError):
            apply_missing_mask(sens, 1.0, seed=0)
        with pytest.raises(ValueError):
            apply_missing_mask(sens, -0.1, seed=0)

    def test_requires_all_present_input(self):
        sens = sensitive_column([0, 1, 1], present=[True, False, True])
        with pytest.raises(ValueError, match="all-present"):
            apply_missing_mask(sens, 0.1, seed=0)

    def test_rate_error_comes_before_the_presence_check(self):
        partial = sensitive_column([0, 1, 1], present=[True, False, True])
        with pytest.raises(ValueError, match=r"missing rate must be in \[0, 1\)"):
            apply_missing_mask(partial, 1.5, seed=0)
        # a rate of 0 masks nobody, but the input must still be all-present
        with pytest.raises(ValueError, match="all-present"):
            apply_missing_mask(partial, 0.0, seed=0)

    def test_mask_file_presence_check_comes_before_the_parse(self):
        partial = sensitive_column([0, 1, 1], present=[True, False, True])
        for text in ("0\n", "x\n", "7\n"):
            with pytest.raises(ValueError, match="all-present"):
                parse_mask_file(text, partial)

    def test_mask_file_errors_name_the_line(self):
        sens = sensitive_column(np.arange(4) % 2)
        with pytest.raises(EdgeListFormatError, match="mask line 3: non-integer id"):
            parse_mask_file("# masked\n1\n2 3\n", sens)
        with pytest.raises(EdgeListFormatError, match="mask line 2: id 4 out of range"):
            parse_mask_file("0\n4\n", sens)

    def test_mask_file_round_trip(self):
        sens = sensitive_column(np.arange(9) % 2)
        masked = apply_missing_mask(sens, 0.4, seed=2)
        text = mask_file_text(masked)
        again = parse_mask_file(text, sens)
        assert np.array_equal(again.present, masked.present)

    def test_all_present_required_somewhere(self):
        with pytest.raises(ValueError, match="at least one"):
            SensitiveColumn(values=np.array([0, 1]), present=np.array([False, False]))


class TestSplit:
    @pytest.mark.parametrize("train,val,test", [
        ([0, 1, 2], [2], [3]),       # shared between train and val
        ([0, 1], [3], [1]),          # shared between train and test
        ([0, 0, 1], [2], [3]),       # repeated inside one set
        ([4], [5], [5]),             # shared between val and test
    ])
    def test_overlap_rejected(self, train, val, test):
        with pytest.raises(ValueError, match="disjoint"):
            Split(train=np.array(train), val=np.array(val), test=np.array(test))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Split(train=np.array([0, -1]), val=np.array([2]), test=np.array([3]))

    def test_disjoint_and_empty_sets_accepted(self):
        empty = np.empty(0, dtype=np.int64)
        Split(train=np.array([5, 0, 9]), val=np.array([1]), test=np.array([7, 2]))
        Split(train=empty, val=empty.copy(), test=empty.copy())


class TestMakeSplit:
    def test_quarter_sizes(self):
        split = make_split(1045, 100, seed=0)
        assert len(split.val) == 261
        assert len(split.test) == 261
        assert len(split.train) == 100
        combined = np.concatenate([split.train, split.val, split.test])
        assert len(np.unique(combined)) == len(combined)

    def test_tiny_exhaustive(self):
        split = make_split(8, 4, seed=1)
        assert len(split.val) == len(split.test) == 2
        assert len(split.train) == 4
        union = np.sort(np.concatenate([split.train, split.val, split.test]))
        assert union.tolist() == list(range(8))

    def test_determinism(self):
        a = make_split(97, 30, seed=5)
        b = make_split(97, 30, seed=5)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.val, b.val)
        assert np.array_equal(a.test, b.test)

    def test_train_size_too_large(self):
        with pytest.raises(ValueError, match=r"^train_size must be at most 4 for n=8$"):
            make_split(8, 5, seed=0)

    def test_negative_train_size(self):
        with pytest.raises(ValueError, match=r"^train_size must be >= 0$"):
            make_split(8, -1, seed=0)

    def test_empty_train_split_is_valid(self):
        split = make_split(8, 0, seed=0)
        assert len(split.train) == 0 and len(split.val) == len(split.test) == 2

    def test_default_train_size_uses_remainder(self):
        split = make_split(10, None, seed=0)
        assert len(split.train) == 10 - 2 * 2

    def test_seeded_splits_differ(self):
        a = make_split(100, 50, seed=0)
        b = make_split(100, 50, seed=1)
        assert not np.array_equal(a.val, b.val)


class TestHelpers:
    def test_connectivity(self, k3, two_triangles):
        assert is_connected(k3)
        assert not is_connected(two_triangles)

    def test_bipartite(self, c4, k3, star4):
        assert is_bipartite(c4)
        assert is_bipartite(star4)
        assert not is_bipartite(k3)

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError):
            from_edges(2, [(0, 5)])
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            from_edges(3, [(-1, 2)])
        with pytest.raises(ValueError):
            from_edges(3, np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            from_edges(MAX_NODES + 1, [])


class TestLeanLayout:
    @pytest.mark.parametrize("n, stored, expected", [
        (2**31 - 1, 2**31 - 1, np.int32),
        (2**31, 0, np.int64),
        (3, 2**31, np.int64),
        (MAX_NODES, 2**40, np.int64),
    ])
    def test_index_dtype_boundary(self, n, stored, expected):
        assert index_dtype(n, stored) is expected

    def test_to_scipy_shares_the_index_arrays(self, two_triangles):
        matrix = two_triangles.to_scipy()
        for ours, theirs in ((two_triangles.row_offsets, matrix.indptr),
                             (two_triangles.col_indices, matrix.indices)):
            assert ours.dtype == theirs.dtype == np.int32
            assert np.shares_memory(ours, theirs)

    @pytest.mark.parametrize("loader", ["edges", "attributes", "mask"])
    def test_ingest_holds_no_four_byte_copy_of_the_text(self, loader):
        # fields padded to 24 columns: the arrays parsed from the values are
        # small next to the text, so a copy at 4 bytes per character shows
        rng = np.random.default_rng(0)
        n = 4000
        if loader == "edges":
            pairs = rng.integers(0, n, size=(20000, 2))
            text = "".join(f"{u:>24} {v:>24}\n" for u, v in pairs.tolist())
            load = load_edge_list
        elif loader == "attributes":
            feats = rng.standard_normal((n, 2)).tolist()
            text = "id,f0,f1,sensitive,label\n" + "".join(
                f"{i:>24},{a!r},{b!r},{i % 2},{i % 3 % 2}\n" for i, (a, b) in enumerate(feats))
            load = load_attributes
        else:
            ids = rng.permutation(n)[:n // 3]
            text = "".join(f"{i:>24}\n" for i in ids.tolist())
            column = SensitiveColumn(values=np.zeros(n, dtype=np.int64),
                                     present=np.ones(n, dtype=bool))
            load = lambda text: parse_mask_file(text, column)  # noqa: E731
        load(text)
        tracemalloc.start()
        try:
            load(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)


# ---------------------------------------------------------------------------
# Property tests. The reference below is the line-by-line edge-list parser
# that the vectorised loader replaced, kept as the oracle.

_REF_HEADER = re.compile(r"#\s*n\s*=\s*([0-9]+)\s*")
_REF_ID = re.compile(r"[+-]?[0-9]+")


def reference_edge_list(text):
    """(n, set of (u, v) with u < v) for an accepted edge list, None if rejected."""
    header, pairs, max_id, content = None, set(), -1, False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _REF_HEADER.fullmatch(line)
            if match:
                header, content = int(match.group(1)), True
            continue
        parts = line.split()
        if len(parts) != 2 or not all(_REF_ID.fullmatch(p) for p in parts):
            return None
        u, v = int(parts[0]), int(parts[1])
        if min(u, v) < 0 or max(u, v) >= MAX_NODES:
            return None
        content, max_id = True, max(max_id, u, v)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    if not content or (header is not None and not max_id < header <= MAX_NODES):
        return None
    n = max_id + 1 if header is None else header
    return (n, pairs) if n else None


def assert_graph_matches(graph, n, pairs):
    assert graph.n == n
    assert graph.edge_count == len(pairs)
    assert graph.undirected_edges().tolist() == [list(p) for p in sorted(pairs)]


def assert_csr_invariants(graph):
    degrees = graph.degrees()
    rows = np.repeat(np.arange(graph.n), degrees)
    cols = graph.col_indices
    assert not np.any(rows == cols)
    # neighbours strictly ascending within each row
    same_row = rows[1:] == rows[:-1]
    assert np.all(cols[1:][same_row] > cols[:-1][same_row])
    forward = set(zip(rows.tolist(), cols.tolist()))
    assert forward == {(v, u) for u, v in forward}


_pairs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40)


class TestEdgeListProperties:
    @settings(max_examples=150, deadline=None)
    @given(pairs=_pairs, extra=st.integers(0, 3), data=st.data())
    def test_text_round_trip(self, pairs, extra, data):
        """Comments, blank lines, padding, duplicates, reversed pairs, self-loops."""
        n = 1 + max([max(p) for p in pairs], default=0) + extra
        lines = []
        if data.draw(st.booleans()):
            lines.append(f"# n={n}")
        for u, v in pairs:
            pad = data.draw(st.sampled_from(["", " ", "\t", "  "]))
            lines.append(f"{pad}{u}{data.draw(st.sampled_from([' ', '  ', chr(9)]))}{v}{pad}")
            lines.append(data.draw(st.sampled_from(["", "", "   ", "# note", "  #x y z"])))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = newline.join(lines) + newline
        expected = reference_edge_list(text)
        if expected is None:
            with pytest.raises(EdgeListFormatError):
                load_edge_list(text)
            return
        graph = load_edge_list(text)
        assert_graph_matches(graph, *expected)
        again = load_edge_list(to_edge_list_text(graph))
        assert again.n == graph.n
        assert again.row_offsets.tobytes() == graph.row_offsets.tobytes()
        assert again.col_indices.tobytes() == graph.col_indices.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from([
        "0", "1", "2", "7", "+3", "-0", "-1", "007", "1_0", "1.0", "x", "\u0663",
        "99999999999999999999", "# n=4", "#n = 9", "# n=\u0663", "# n=0", "# note",
        "#", "# n=99999999999999999999",
    ]), max_size=12), st.lists(st.sampled_from([
        " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
        "\u3000", "\xa0", "\x1f", "#", " # ", "\n\n", ",",
    ]), min_size=11, max_size=11))
    def test_loader_fuzz_matches_reference(self, fragments, separators):
        # no separator holds a digit, so an id never grows past three digits
        # and no input asks for a huge allocation
        text = "".join(f + s for f, s in zip(fragments, separators + [""]))
        expected = reference_edge_list(text)
        if expected is None:
            with pytest.raises(EdgeListFormatError):
                load_edge_list(text)
        else:
            assert_graph_matches(load_edge_list(text), *expected)
        sens = sensitive_column(np.arange(8) % 2)
        try:
            masked = parse_mask_file(text, sens)
        except EdgeListFormatError:
            return
        lines = [line.strip() for line in text.splitlines()]
        ids = [int(line) for line in lines if line and not line.startswith("#")]
        assert np.flatnonzero(~masked.present).tolist() == sorted(set(ids))


class TestFromEdgesProperties:
    @settings(max_examples=150, deadline=None)
    @given(pairs=_pairs, extra=st.integers(0, 3))
    def test_invariants_for_arrays_and_pair_lists(self, pairs, extra):
        n = 1 + max([max(p) for p in pairs], default=0) + extra
        loops_removed = [(u, v) for u, v in pairs if u != v]
        from_list = from_edges(n, loops_removed)
        from_array = from_edges(n, np.array(loops_removed, dtype=np.int64).reshape(-1, 2))
        unique = {(min(u, v), max(u, v)) for u, v in loops_removed}
        for graph in (from_list, from_array):
            assert_csr_invariants(graph)
            assert_graph_matches(graph, n, unique)
        assert from_list.row_offsets.tobytes() == from_array.row_offsets.tobytes()
        assert from_list.col_indices.tobytes() == from_array.col_indices.tobytes()


_cell = st.sampled_from(["0", "1", "2", "-1", "0.5", "1e3", "nan", "inf", "+1", " 1 ",
                         '"1"', "", "x", "1_0", "\x1f1", "99999999999999999999"])


class TestAttributeProperties:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), d=st.integers(0, 3), data=st.data())
    def test_shuffled_rows_load_in_id_order(self, n, d, data):
        floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
        features = np.array(data.draw(st.lists(st.lists(floats, min_size=d, max_size=d),
                                               min_size=n, max_size=n)), dtype=np.float64)
        features = features.reshape(n, d)
        sensitive = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        order = data.draw(st.permutations(range(n)))
        header = ["label"] + [f"f{j}" for j in range(d)] + ["id", "sensitive"]
        lines = [",".join(header)]
        for i in order:
            cells = [str(labels[i])] + [repr(float(x)) for x in features[i]]
            lines.append(",".join(cells + [str(i), str(sensitive[i])]))
        attrs, sens, loaded_labels = load_attributes("\n".join(lines) + "\n", expected_n=n)
        expected = np.column_stack([features, sensitive.astype(np.float64)])
        assert attrs.features.tobytes() == expected.tobytes()
        assert attrs.sensitive_index == d
        assert sens.values.tolist() == sensitive.tolist()
        assert loaded_labels.tolist() == np.minimum(labels, 1).tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["id,sensitive,label", "label,f0,sensitive,id", "id,id,sensitive,label",
                            " id ,sensitive, label", "id,sensitive", ""]),
           st.lists(st.lists(_cell, max_size=5), max_size=5),
           st.sampled_from(["\n", "\r\n", "\n  \n"]))
    def test_loader_fuzz_raises_only_table_errors(self, header, rows, newline):
        text = newline.join([header] + [",".join(row) for row in rows])
        try:
            attrs, sens, labels = load_attributes(text)
        except AttributeTableError:
            return
        assert np.all(np.isfinite(attrs.features))
        assert set(labels.tolist()) <= {0, 1}
        assert attrs.n == sens.n == len(labels)


def brute_force_bipartite(n, pairs):
    return any(all((mask >> u & 1) != (mask >> v & 1) for u, v in pairs)
               for mask in range(1 << n))


def brute_force_connected(n, pairs):
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == n


class TestStructureProperties:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_checks_match_brute_force(self, n, data):
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = data.draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
        graph = from_edges(n, pairs)
        assert is_bipartite(graph) == brute_force_bipartite(n, pairs)
        assert is_connected(graph) == brute_force_connected(n, pairs)
