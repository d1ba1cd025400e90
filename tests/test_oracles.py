"""Brute-force oracles and graph pools."""

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
from wheelfree.oracles import SplitMix64, curated_pool


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


def test_enumeration_rejects_large():
    with pytest.raises(GraphError):
        enumerate_graphs(9)


# -- random pools ----------------------------------------------------------------------


def test_splitmix64_known_values():
    # splitmix64(seed=0): published first outputs
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


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

    loaded = list(GraphPool.from_graph6_file(path))
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
