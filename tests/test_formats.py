"""graph6 / DIMACS / edge-list parsing and serialization."""

import pytest
from hypothesis import given, strategies as st

from wheelfree import (
    Graph,
    ParseError,
    ParseWarning,
    complete,
    parse_dimacs_col,
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
    to_dimacs_col,
    to_edge_list,
    to_graph6,
)
from wheelfree.formats import detect_format, read_graphs


# -- graph6 ----------------------------------------------------------------


def test_graph6_star_roundtrip():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert to_graph6(g) == "D?{"


def test_graph6_k4():
    # hand-decoded: size byte 'C' = 4 vertices, '~' = all six triangle bits set
    assert parse_graph6("C~") == complete(4)
    assert to_graph6(complete(4)) == "C~"


def test_graph6_two_isolated():
    g = parse_graph6("A?")
    assert g.n == 2 and g.m == 0


def test_graph6_header_and_newline():
    assert parse_graph6(">>graph6<<C~\n") == complete(4)
    assert parse_graph6(b"C~") == complete(4)


def test_graph6_empty_and_single():
    assert parse_graph6("@").n == 1
    assert to_graph6(Graph(1)) == "@"
    assert parse_graph6("?").n == 0
    assert to_graph6(Graph(0)) == "?"


def test_graph6_long_form_rejected():
    with pytest.raises(ParseError, match="long-form"):
        parse_graph6("~??~" + "?" * 20)


def test_graph6_bad_size_byte():
    with pytest.raises(ParseError, match="size byte"):
        parse_graph6("\x1f??")


def test_graph6_truncated_names_offset():
    with pytest.raises(ParseError, match="offset 2"):
        parse_graph6("E?")  # n=6 needs 3 body bytes


def test_graph6_trailing_garbage():
    with pytest.raises(ParseError, match="trailing garbage"):
        parse_graph6("C~~")


def test_graph6_nonzero_padding():
    # n=3 uses 3 bits; low padding bits must be zero ('~' sets them)
    with pytest.raises(ParseError, match="padding"):
        parse_graph6("B~")


def test_graph6_invalid_body_byte():
    with pytest.raises(ParseError):
        parse_graph6("C\x07?")


def test_graph6_lines():
    graphs = parse_graph6_lines("C~\nA?\n\nD?{\n")
    assert [g.n for g in graphs] == [4, 2, 5]


def test_graph6_encode_rejects_large():
    with pytest.raises(ParseError):
        to_graph6(Graph(63))


def test_graph6_exhaustive_n4():
    for code in range(1 << 6):
        g = Graph.from_edge_code(4, code)
        assert parse_graph6(to_graph6(g)) == g


@given(st.integers(min_value=1, max_value=62), st.randoms(use_true_random=False))
def test_graph6_roundtrip_random(n, rnd):
    code = rnd.getrandbits(n * (n - 1) // 2)
    g = Graph.from_edge_code(n, code)
    assert parse_graph6(to_graph6(g)) == g


# -- DIMACS ----------------------------------------------------------------


def test_dimacs_triangle():
    g = parse_dimacs_col("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g == complete(3)


def test_dimacs_comments_ok():
    g = parse_dimacs_col("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g == complete(3)


def test_dimacs_loop_fatal():
    with pytest.raises(ParseError, match="loop"):
        parse_dimacs_col("p edge 2 1\ne 1 1\n")


def test_dimacs_duplicate_collapses_with_warning():
    with pytest.warns(ParseWarning):
        g = parse_dimacs_col("p edge 4 2\ne 1 2\ne 1 2\n")
    assert g.n == 4
    assert list(g.edges()) == [(0, 1)]


def test_dimacs_count_mismatch_warns():
    with pytest.warns(ParseWarning, match="mismatch"):
        g = parse_dimacs_col("p edge 3 2\ne 1 2\n")
    assert g.m == 1


def test_dimacs_out_of_range_fatal():
    with pytest.raises(ParseError, match="out of range"):
        parse_dimacs_col("p edge 2 1\ne 1 5\n")


def test_dimacs_missing_header_fatal():
    with pytest.raises(ParseError):
        parse_dimacs_col("e 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs_col("")


def test_dimacs_roundtrip_fixed_point():
    g = complete(4)
    text = to_dimacs_col(g)
    assert parse_dimacs_col(text) == g
    assert to_dimacs_col(parse_dimacs_col(text)) == text


# -- edge list --------------------------------------------------------------


def test_edge_list_roundtrip():
    g = Graph(4, [(0, 1), (2, 3)])
    text = to_edge_list(g)
    assert text == "4 2\n0 1\n2 3\n"
    assert parse_edge_list(text) == g


def test_edge_list_errors():
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1\n")  # says two edges, has one


# -- detection ---------------------------------------------------------------


def test_detect_format():
    assert detect_format("C~") == "graph6"
    assert detect_format(">>graph6<<C~") == "graph6"
    assert detect_format("p edge 3 3\ne 1 2\n") == "dimacs"
    assert detect_format("c comment\np edge 3 0\n") == "dimacs"
    assert detect_format("3 1\n0 1\n") == "edgelist"
    assert detect_format("# triangle\n3 3\n0 1\n1 2\n0 2\n") == "edgelist"
    assert read_graphs("# triangle\n3 3\n0 1\n1 2\n0 2\n") == [complete(3)]


def test_read_graphs_multi():
    graphs = read_graphs("C~\nA?\n")
    assert len(graphs) == 2
    assert read_graphs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")[0] == complete(3)
