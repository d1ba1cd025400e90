"""Graph type, neighborhoods and induced subgraphs."""

import random

import pytest
from hypothesis import given, strategies as st

from wheelfree import (
    Graph,
    GraphError,
    complete,
    cycle,
    frontier_complement,
    induced_subgraph,
    neighborhood,
    path,
)
from wheelfree.graph import reach, set_neighbors


def test_basic_construction():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2


def test_loops_rejected():
    with pytest.raises(GraphError):
        Graph(2, [(1, 1)])


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])


def test_parallel_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_edge_code_roundtrip():
    g = Graph(4, [(0, 3), (1, 2)])
    assert Graph.from_edge_code(4, g.edge_code()) == g


def test_from_edge_code_refuses_negative_vertex_count():
    for n, code in ((-1, 0), (-2, 0), (-1, 1)):
        with pytest.raises(GraphError, match="vertex count must be non-negative"):
            Graph.from_edge_code(n, code)


def test_from_masks_validates():
    with pytest.raises(GraphError):
        Graph.from_masks([0b010, 0b000, 0b000])  # asymmetric


def test_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph.from_edge_code(3, a.edge_code())
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 2)])


def test_induced_subgraph_k4_drop_one():
    sub, idmap = induced_subgraph(complete(4), [0, 1, 2])
    assert sub == complete(3)
    assert idmap == {0: 0, 1: 1, 2: 2}


def test_induced_subgraph_c5_independent_set():
    # C_5 on {0,2,4}: the only surviving adjacency is 4-0
    sub, idmap = induced_subgraph(cycle(5), [0, 2, 4])
    assert sub.n == 3
    assert list(sub.edges()) == [(idmap[0], idmap[4])]


def test_induced_subgraph_identity():
    g = cycle(5)
    sub, idmap = induced_subgraph(g, range(5))
    assert sub == g
    assert idmap == {v: v for v in range(5)}


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(GraphError):
        induced_subgraph(complete(3), [0, 5])


def test_neighborhood_examples():
    c5 = cycle(5)
    assert neighborhood(c5, [0]) == (1, 4)
    assert frontier_complement(c5, [0]) == (2, 3)
    k4 = complete(4)
    assert neighborhood(k4, [0]) == (1, 2, 3)
    assert frontier_complement(k4, [0]) == ()
    p3 = path(3)
    assert neighborhood(p3, [0]) == (1,)
    assert frontier_complement(p3, [0]) == (2,)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    code = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_edge_code(n, code)


@given(small_graphs(), st.data())
def test_partition_property(g, data):
    """F, N(F) and the frontier complement partition V with no F-to-complement edge."""
    f = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), min_size=1))
    f = sorted(f)
    nf = neighborhood(g, f)
    fbar = frontier_complement(g, f)
    all_parts = list(f) + list(nf) + list(fbar)
    assert sorted(all_parts) == list(range(g.n))
    for u in f:
        for v in fbar:
            assert not g.has_edge(u, v)


@given(small_graphs(), st.data())
def test_induced_subgraph_preserves_adjacency(g, data):
    keep = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), min_size=1)))
    sub, idmap = induced_subgraph(g, keep)
    for i, u in enumerate(keep):
        for v in keep[i + 1:]:
            assert sub.has_edge(idmap[u], idmap[v]) == g.has_edge(u, v)


def _set_adjacency(g):
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _set_reach(adj, seeds, allowed):
    """Seeds plus everything a breadth-first search through ``allowed`` finds."""
    seen = set(seeds)
    queue = list(seeds)
    while queue:
        u = queue.pop(0)
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _set_neighbors(adj, f):
    out = set()
    for v in f:
        out |= adj[v]
    return out - set(f)


def _as_set(mask):
    return {v for v in range(mask.bit_length()) if (mask >> v) & 1}


def _as_mask(vertices):
    return sum(1 << v for v in vertices)


def test_reach_and_set_neighbors_match_set_search_exhaustive():
    """Every labeled graph with n <= 5: ``reach`` on every single seed with
    the full vertex set plus seeded random seed/allowed masks, and
    ``set_neighbors`` on every vertex subset."""
    rng = random.Random(5)
    for n in range(1, 6):
        full = (1 << n) - 1
        for code in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_code(n, code)
            adj = _set_adjacency(g)
            cases = [(1 << v, full) for v in range(n)]
            cases += [(rng.randrange(1, full + 1), rng.randrange(full + 1)) for _ in range(6)]
            for seeds, allowed in cases:
                want = _set_reach(adj, _as_set(seeds), _as_set(allowed))
                assert reach(g.masks, seeds, allowed) == _as_mask(want), (code, seeds, allowed)
            for fmask in range(full + 1):
                want = _set_neighbors(adj, _as_set(fmask))
                assert set_neighbors(g.masks, fmask) == _as_mask(want), (code, fmask)


@st.composite
def graphs_with_masks(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    code = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    full = (1 << n) - 1
    seeds = draw(st.integers(min_value=0, max_value=full))
    allowed = draw(st.integers(min_value=0, max_value=full))
    return Graph.from_edge_code(n, code), seeds, allowed


@given(graphs_with_masks())
def test_reach_and_set_neighbors_property(case):
    g, seeds, allowed = case
    adj = _set_adjacency(g)
    want = _set_reach(adj, _as_set(seeds), _as_set(allowed))
    assert reach(g.masks, seeds, allowed) == _as_mask(want)
    assert set_neighbors(g.masks, seeds) == _as_mask(_set_neighbors(adj, _as_set(seeds)))
