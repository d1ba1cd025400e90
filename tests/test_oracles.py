"""Brute-force oracles and graph pools."""

from itertools import islice

import pytest

from wheelfree import (
    BudgetExceededError,
    Graph,
    GraphError,
    brute_chromatic_number,
    brute_has_k_wheel,
    brute_vertex_connectivity,
    complete,
    complete_bipartite,
    cycle,
    enumerate_graphs,
    parse_pool_descriptor,
    petersen,
    random_pool,
    tight_example,
)
from wheelfree import oracles
from wheelfree.connectivity import vertex_connectivity
from wheelfree.oracles import _edge_codes, curated_pool


# -- chromatic number ---------------------------------------------------------


@pytest.mark.parametrize(
    "g,chi",
    [
        (complete(4), 4),
        (cycle(5), 3),
        (tight_example(4), 4),
        (complete_bipartite(4), 2),
        (petersen(), 3),
        (Graph(3), 1),
        (cycle(6), 2),
    ],
)
def test_chromatic_number(g, chi):
    assert brute_chromatic_number(g) == chi


def test_chromatic_budget():
    with pytest.raises(BudgetExceededError):
        brute_chromatic_number(Graph(13))


# -- wheels -------------------------------------------------------------------


def test_brute_wheel_k5():
    w = brute_has_k_wheel(complete(5), 4)
    assert w is not None
    w.validate(complete(5), 4)


def test_brute_wheel_absences():
    assert brute_has_k_wheel(complete_bipartite(4), 4) is None
    assert brute_has_k_wheel(petersen(), 4) is None  # 3-regular
    assert brute_has_k_wheel(complete(4), 4) is None
    assert brute_has_k_wheel(tight_example(4), 4) is None


def test_brute_wheel_k3():
    w = brute_has_k_wheel(complete(4), 3)
    assert w is not None
    w.validate(complete(4), 3)


# -- connectivity ----------------------------------------------------------------


@pytest.mark.parametrize(
    "g,kappa",
    [
        (complete(5), 4),
        (complete_bipartite(4), 4),
        (cycle(5), 2),
        (Graph(1), 0),
        (Graph(4, [(0, 1), (2, 3)]), 0),
        (petersen(), 3),
    ],
)
def test_brute_connectivity(g, kappa):
    assert brute_vertex_connectivity(g) == kappa


# -- enumeration -------------------------------------------------------------------


def test_enumeration_counts_labeled():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_enumeration_counts_isomorphism_classes():
    assert sum(1 for _ in enumerate_graphs(4, dedup=True)) == 11
    assert sum(1 for _ in enumerate_graphs(5, dedup=True)) == 34


def test_enumeration_filters():
    pool = enumerate_graphs(5, min_degree=3)
    assert all(g.min_degree() >= 3 for g in pool)
    pool = enumerate_graphs(5, connectivity_at_least=3)
    graphs = list(pool)
    assert graphs and all(brute_vertex_connectivity(g) >= 3 for g in graphs)
    pool = enumerate_graphs(4, wheel_free=3)
    assert all(brute_has_k_wheel(g, 3) is None for g in pool)


def test_connectivity_filter_is_the_exact_predicate():
    # a threshold test now, it accepts what "kappa >= k" on the exact kappa
    # did, and every graph when k <= 0
    for k in range(-1, 7):
        for n in range(1, 6):
            want = [g for g in enumerate_graphs(n) if vertex_connectivity(g) >= k]
            assert list(enumerate_graphs(n, connectivity_at_least=k)) == want, (n, k)
        want = [g for g in random_pool(11, 0.55, 7, 300) if vertex_connectivity(g) >= k]
        assert list(random_pool(11, 0.55, 7, len(want), connectivity_at_least=k)) == want, k
        if k <= 0:
            assert len(want) == 300


def test_enumeration_rejects_large():
    with pytest.raises(GraphError):
        enumerate_graphs(9)


@pytest.mark.parametrize("n", range(1, 8))
def test_labeled_pool_is_edge_code_order(n):
    # the gate of the row-flipping walk: graph c of the pool is edge code c
    walked = mismatched = 0
    for code, g in enumerate(enumerate_graphs(n)):
        walked += 1
        if g != Graph.from_edge_code(n, code):
            mismatched += 1
    assert (walked, mismatched) == (1 << (n * (n - 1) // 2), 0)


def test_labeled_pool_graphs_stay_as_yielded():
    # graphs held while the walk goes on keep their rows
    assert list(enumerate_graphs(5)) == [Graph.from_edge_code(5, c) for c in range(1 << 10)]


# -- random pools ----------------------------------------------------------------------


class SplitMix64:
    """splitmix64 one draw at a time, the reference for the pools' draws:
    a tiny public-domain PRNG with stable cross-platform output
    (increment 0x9E3779B97F4A7C15; mix constants 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB)."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / (1 << 53)


def _reference_codes(n, p, seed):
    """Edge codes drawn one pair at a time: pair k is an edge when its
    draw is below p."""
    rng = SplitMix64(seed)
    while True:
        code = 0
        for k in range(n * (n - 1) // 2):
            if rng.random() < p:
                code |= 1 << k
        yield code


def test_splitmix64_known_values():
    # splitmix64(seed=0): published first outputs
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


# (n, p, seed, graphs): edge cases of n and p, a p whose p * 2**53 is no
# integer, n = 41 as in criterion 10, the random-dense bench pools and
# n = 65, whose 2,080 pairs take two passes of draws
_DRAW_GRID = [(n, p, seed, 40) for n in (1, 2, 3, 7) for p in (0.0, 1.0, 0.15, 0.5)
              for seed in (0, 1, -1, (1 << 64) + 5)]
_DRAW_GRID += [(41, p, 7041, 12) for p in (0.0, 0.3, 0.9999999999999999, 1.0)]
_DRAW_GRID += [(10, 0.5, 1001, 300), (10, 0.6, 1002, 300), (11, 0.5, 1003, 300),
               (11, 5e-324, 3, 50), (12, 1 / 3, 1 << 63, 50), (65, 0.5, 6500, 4)]


@pytest.mark.parametrize("n,p,seed,graphs", _DRAW_GRID)
def test_edge_codes_equal_scalar_draws(n, p, seed, graphs):
    assert list(islice(_edge_codes(n, p, seed), graphs)) == \
        list(islice(_reference_codes(n, p, seed), graphs))


@pytest.mark.parametrize("lanes", [1, 4, 7])
def test_edge_codes_in_several_passes(monkeypatch, lanes):
    # a graph with more pairs than lanes is drawn in passes, the last
    # one partly used
    monkeypatch.setattr(oracles, "_LANES", lanes)
    for n, p, seed in ((1, 0.5, 1), (3, 0.5, 2), (5, 0.3, 9), (7, 0.65, -4)):
        assert list(islice(_edge_codes(n, p, seed), 30)) == \
            list(islice(_reference_codes(n, p, seed), 30))


@pytest.mark.parametrize("n,lanes", [(10, 44), (10, 45), (10, 46), (10, 100),
                                     (65, 2047), (65, 2049)])
def test_edge_codes_across_pass_boundaries(monkeypatch, n, lanes):
    # one draw stream serves every graph: with 44 or 46 lanes each n = 10
    # graph (45 pairs) starts at another offset in a pass, with 45 a pass
    # is one graph, with 100 it holds two graphs and a part of a third,
    # and each n = 65 graph (2,080 pairs) spans two passes or three
    monkeypatch.setattr(oracles, "_LANES", lanes)
    graphs = 60 if n == 10 else 4
    assert list(islice(_edge_codes(n, 0.4, 23), graphs)) == \
        list(islice(_reference_codes(n, 0.4, 23), graphs))


@pytest.mark.parametrize("lanes", [44, 46])
def test_filtered_random_pool_across_pass_boundaries(monkeypatch, lanes):
    # 237 rejected graphs consume their draws wherever they fall in a pass
    monkeypatch.setattr(oracles, "_LANES", lanes)
    graphs = (Graph.from_edge_code(10, code) for code in _reference_codes(10, 0.3, 5))
    want = list(islice((g for g in graphs if g.min_degree() >= 2), 40))
    assert list(random_pool(10, 0.3, 5, 40, min_degree=2)) == want


@pytest.mark.parametrize("n,p,seed", [(8, 0.65, 801), (9, 0.60, 901), (10, 0.55, 1001)])
def test_filtered_random_pool_equals_scalar_draws(n, p, seed):
    # criterion 4c's pools: rejected graphs consume their draws too
    want = []
    for code in _reference_codes(n, p, seed):
        g = Graph.from_edge_code(n, code)
        if vertex_connectivity(g) >= 4:
            want.append(g)
            if len(want) == 3400:
                break
    assert list(random_pool(n, p, seed, 3400, connectivity_at_least=4)) == want


def test_random_pool_reproducible():
    a = list(random_pool(8, 0.5, 42, 50))
    b = list(random_pool(8, 0.5, 42, 50))
    assert a == b
    assert len(a) == 50


def test_random_pool_filters():
    pool = random_pool(7, 0.7, 11, 20, connectivity_at_least=4)
    graphs = list(pool)
    assert len(graphs) == 20
    assert all(brute_vertex_connectivity(g) >= 4 for g in graphs)
    pool = random_pool(6, 0.4, 3, 10, wheel_free=4)
    assert all(brute_has_k_wheel(g, 4) is None for g in pool)


def test_pool_dump_load_roundtrip(tmp_path):
    pool = random_pool(6, 0.5, 9, 25)
    path = tmp_path / "pool.g6"
    assert pool.dump(path) == 25
    from wheelfree.oracles import GraphPool

    loaded = list(parse_pool_descriptor(f"file:{path}"))
    assert loaded == list(pool)


def test_pool_descriptor_roundtrip():
    for desc in [
        "exhaustive:n=4",
        "exhaustive:n=4,dedup",
        "random:n=6,p=0.5,seed=3,count=10",
        "random:n=6,p=0.25,seed=3,count=5,connectivity-at-least=2",
        "curated:lemma42",
    ]:
        pool = parse_pool_descriptor(desc)
        assert list(pool)  # non-empty and iterable twice
        assert list(pool) == list(parse_pool_descriptor(pool.descriptor))
    # filters print in one fixed order, whatever order the descriptor gives
    pool = parse_pool_descriptor("exhaustive:n=5,wheel-free=4,connectivity-at-least=2,min-degree=2")
    assert pool.descriptor == "exhaustive:n=5,min-degree=2,connectivity-at-least=2,wheel-free=4"
    assert list(pool) == list(enumerate_graphs(5, min_degree=2, connectivity_at_least=2,
                                               wheel_free=4))


def test_pool_descriptor_errors():
    with pytest.raises(GraphError):
        parse_pool_descriptor("random:n=6")
    with pytest.raises(GraphError):
        parse_pool_descriptor("bogus:n=6")
    with pytest.raises(GraphError):
        parse_pool_descriptor("curated:nope")
    for desc, named in (("exhaustive:n=4,wheelfree=4", "unknown key 'wheelfree'"),
                        ("exhaustive:n=4,dedup=1", "unknown key 'dedup'"),
                        ("random:n=4,p=0.5,seed=1,count=3,dedup", "unknown flag 'dedup'"),
                        ("random:n=4,p=0.5,seed=1,seed=2,count=3", "repeats 'seed'"),
                        ("exhaustive:n=4,min-degree=1,min-degree=2", "repeats 'min-degree'")):
        with pytest.raises(GraphError, match=named):
            parse_pool_descriptor(desc)


def test_curated_pools_sane():
    for name in ("lemma42", "four-connected", "wm", "thm44-seeds"):
        graphs = list(curated_pool(name))
        assert graphs
    # the wm pool must be 4-connected graphs on at most 8 vertices
    for g in curated_pool("wm"):
        assert g.n <= 8
        assert brute_vertex_connectivity(g) >= 4
