"""Canonical codes and isomorphism testing against brute permutation search."""

import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from wheelfree import (
    Graph,
    GraphError,
    canonical_code,
    canonical_form,
    complete,
    complete_bipartite,
    circulant,
    cycle,
    icosahedron,
    is_isomorphic,
    petersen,
    relabel,
)
from wheelfree.isomorphism import _classes, _refine
from wheelfree.oracles import _nonisomorphic_graphs


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    for perm in permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_code(g: Graph) -> int:
    """The defining minimum: the smallest edge code over every order that
    places the refinement classes block by block, each class permuted."""
    best = None
    for blocks in product(*(permutations(c) for c in _classes(_refine(g)))):
        order = [v for block in blocks for v in block]  # order[pos] = vertex
        # bit k is the k-th pair (p, q), p < q, in i-major order of positions
        pairs = combinations(range(g.n), 2)
        code = sum(1 << k for k, (p, q) in enumerate(pairs) if g.has_edge(order[p], order[q]))
        if best is None or code < best:
            best = code
    return best


def test_exhaustive_pairs_n4():
    graphs = [Graph.from_edge_code(4, c) for c in range(64)]
    for i, g in enumerate(graphs):
        for h in graphs[i:]:
            assert is_isomorphic(g, h) == brute_isomorphic(g, h)
            assert (canonical_code(g) == canonical_code(h)) == brute_isomorphic(g, h)


def test_random_pairs_against_brute():
    rnd = random.Random(2024)
    for _ in range(150):
        n = rnd.randint(2, 6)
        g = Graph.from_edge_code(n, rnd.getrandbits(n * (n - 1) // 2))
        h = Graph.from_edge_code(n, rnd.getrandbits(n * (n - 1) // 2))
        assert is_isomorphic(g, h) == brute_isomorphic(g, h)


def test_relabelings_are_isomorphic():
    rnd = random.Random(5)
    for _ in range(60):
        n = rnd.randint(2, 8)
        g = Graph.from_edge_code(n, rnd.getrandbits(n * (n - 1) // 2))
        perm = list(range(n))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        assert Graph.from_masks(h.masks) == h  # symmetric, loop-free, in range
        assert all(h.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
                   for u, v in combinations(range(n), 2))
        assert is_isomorphic(g, h)
        assert canonical_code(g) == canonical_code(h)
        assert canonical_form(g) == canonical_form(h)


def test_relabel_refuses_non_permutations():
    for perm in ([0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]):
        with pytest.raises(GraphError, match="not a permutation"):
            relabel(cycle(3), perm)


def test_regular_non_isomorphic_pair():
    # both are 4-regular on 8 vertices but only one contains triangles
    a = circulant(8, (1, 2))
    b = complete_bipartite(4)
    assert not is_isomorphic(a, b)
    assert canonical_code(a) != canonical_code(b)


def test_k44_recognition_under_relabeling():
    rnd = random.Random(99)
    k44 = complete_bipartite(4)
    for _ in range(20):
        perm = list(range(8))
        rnd.shuffle(perm)
        assert is_isomorphic(relabel(k44, perm), k44)
    assert not is_isomorphic(complete(8), k44)
    assert not is_isomorphic(cycle(8), k44)


def test_canonical_code_matches_brute_on_all_labeled_graphs_n5():
    for n in range(1, 6):
        for c in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_code(n, c)
            assert canonical_code(g) == brute_code(g), (n, c)


def test_canonical_code_matches_brute_on_random_graphs_n6_to_8():
    rnd = random.Random(31)
    for _ in range(40):
        n = rnd.randint(6, 8)
        g = Graph.from_edge_code(n, rnd.getrandbits(n * (n - 1) // 2))
        assert canonical_code(g) == brute_code(g), g


def test_class_representatives_are_their_own_brute_code():
    # locks the dedup pools: each representative is the graph of its code
    for n in range(1, 7):
        for rep in _nonisomorphic_graphs(n):
            code = rep.edge_code()
            assert brute_code(rep) == code
            assert canonical_code(rep) == code


def test_equal_degree_sequence_pairs_n6_against_brute():
    """Every pair of n=6 classes that degrees cannot tell apart, each class
    under three seeded relabellings."""
    rnd = random.Random(6)
    classes = _nonisomorphic_graphs(6)
    relabeled = []
    for rep in classes:
        perms = [rnd.sample(range(6), 6) for _ in range(3)]
        relabeled.append([relabel(rep, perm) for perm in perms])
    degrees = [sorted(rep.degree(v) for v in range(6)) for rep in classes]
    pairs = 0
    for a, b in combinations(range(len(classes)), 2):
        if degrees[a] != degrees[b]:
            continue
        pairs += 1
        for g in relabeled[a]:
            for h in (classes[b], *relabeled[b]):
                assert is_isomorphic(g, h) == brute_isomorphic(g, h)
    assert pairs > 0
    for rep, images in zip(classes, relabeled):
        assert all(is_isomorphic(rep, h) for h in images)


_HIGH_SYMMETRY = [icosahedron(), petersen(), circulant(10, (1, 2)), circulant(20, (1, 2)),
                  complete_bipartite(3, 20), complete_bipartite(4)]


def test_high_symmetry_graphs_under_relabeling():
    rnd = random.Random(12)
    for g in _HIGH_SYMMETRY:
        code = canonical_code(g)
        for _ in range(3):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            assert canonical_code(relabel(g, perm)) == code


def test_canonical_form_of_high_symmetry_graphs_is_isomorphic():
    nx = pytest.importorskip("networkx")

    def nx_graph(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    for g in _HIGH_SYMMETRY:
        assert nx.is_isomorphic(nx_graph(canonical_form(g)), nx_graph(g))


@st.composite
def relabeled_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    g = Graph.from_edge_code(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    return g, relabel(g, draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(relabeled_pairs())
def test_canonical_code_is_relabeling_invariant(pair):
    g, h = pair
    assert canonical_code(g) == canonical_code(h)
