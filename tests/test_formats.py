"""graph6 / DIMACS / edge-list parsing and serialization."""

import random
from itertools import combinations

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
    with pytest.raises(ParseError, match="padding") as info:
        parse_graph6("B~")
    assert info.value.offset == 1
    with pytest.raises(ParseError, match="padding") as info:
        parse_graph6(">>graph6<<B~")
    assert info.value.offset == 11
    # n=6 uses 15 bits: the padding sits in the third body byte
    with pytest.raises(ParseError, match="padding") as info:
        parse_graph6("E??@")
    assert info.value.offset == 3


def test_graph6_invalid_body_byte():
    with pytest.raises(ParseError):
        parse_graph6("C\x07?")
    # n=6 has three body bytes; the offset names the bad one
    for text, offset in (("E\x07??", 1), ("E??\x07", 3), (">>graph6<<E\x07??", 11),
                         (">>graph6<<E??\x7f", 13)):
        with pytest.raises(ParseError, match="invalid graph6 byte") as info:
            parse_graph6(text)
        assert info.value.offset == offset, text


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


# -- codecs against their definition ----------------------------------------
# These references take one pair at a time from has_edge, in the pair order
# each format defines, and share nothing with the package's codecs.


def ref_edge_code(g):
    """Bit k is the k-th pair (0,1), (0,2), ..., (0,n-1), (1,2), ..."""
    pairs = combinations(range(g.n), 2)
    return sum(1 << k for k, (i, j) in enumerate(pairs) if g.has_edge(i, j))


def ref_from_edge_code(n, code):
    return Graph(n, [p for k, p in enumerate(combinations(range(n), 2)) if (code >> k) & 1])


def column_pairs(n):
    """graph6's pair order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def ref_to_graph6(g):
    """Pair bits big-endian in 6-bit groups, zero-padded, each stored +63."""
    stream = [int(g.has_edge(i, j)) for i, j in column_pairs(g.n)]
    stream += [0] * (-len(stream) % 6)
    groups = [stream[k:k + 6] for k in range(0, len(stream), 6)]
    return chr(g.n + 63) + "".join(chr(int("".join(map(str, b)), 2) + 63) for b in groups)


def ref_parse_graph6(text):
    n = ord(text[0]) - 63
    stream = "".join(f"{ord(ch) - 63:06b}" for ch in text[1:])
    return Graph(n, [p for p, b in zip(column_pairs(n), stream) if b == "1"])


def check_codecs(n, code):
    g = ref_from_edge_code(n, code)
    assert g.edge_code() == ref_edge_code(g) == code
    assert Graph.from_edge_code(n, code) == g
    text = to_graph6(g)
    assert text == ref_to_graph6(g)
    assert parse_graph6(text) == ref_parse_graph6(text) == g


def test_codecs_match_definition_on_tiny_and_all_labeled_graphs_n6():
    for n in range(7):
        for code in range(1 << (n * (n - 1) // 2)):
            check_codecs(n, code)


def test_codecs_match_definition_on_every_97th_code_n7():
    for code in range(0, 1 << 21, 97):
        check_codecs(7, code)


def test_codecs_match_definition_on_random_graphs_to_n62():
    rnd = random.Random(62)
    sizes = [62] + [rnd.randint(8, 62) for _ in range(299)]
    for n in sizes:
        p = rnd.uniform(0.05, 0.95)
        pairs = n * (n - 1) // 2
        check_codecs(n, sum(1 << k for k in range(pairs) if rnd.random() < p))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 63, 64, 65, 100, 129])
def test_from_edge_code_matches_definition_past_one_word(n):
    # the row stride steps at n = 9, 17, 33, 65 and 129; graph6 stops at 62
    rnd = random.Random(n)
    pairs = n * (n - 1) // 2
    codes = [0, (1 << pairs) - 1] + [rnd.getrandbits(pairs) for _ in range(4)]
    codes += [sum(1 << k for k in range(pairs) if rnd.random() < p) for p in (0.05, 0.95)]
    for code in codes:
        assert Graph.from_edge_code(n, code) == ref_from_edge_code(n, code)


@st.composite
def constructed_graphs(draw):
    """Graphs up to n = 130 built by the constructor from an edge list."""
    n = draw(st.integers(0, 130))
    p = draw(st.sampled_from([0.0, 0.02, 0.5, 0.98, 1.0]))
    rnd = random.Random(draw(st.integers(0, 1 << 32)))
    return Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


@given(constructed_graphs())
def test_edge_code_round_trip_to_n130(g):
    assert Graph.from_edge_code(g.n, g.edge_code()) == g


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
    # graph6 bytes are 63..126: an integer first field is always an edge list
    for text in ("3 2 1\n", "5\n", "3 x\n", "-1 0\n"):
        assert detect_format(text) == "edgelist"
    assert read_graphs("# triangle\n3 3\n0 1\n1 2\n0 2\n") == [complete(3)]


def test_read_graphs_multi():
    graphs = read_graphs("C~\nA?\n")
    assert len(graphs) == 2
    assert read_graphs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")[0] == complete(3)
