"""Cycle-through search, wheel detection, and cutset certificates."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from wheelfree import (
    CertificateError,
    Graph,
    GraphError,
    TheoremViolationError,
    WMCertificate,
    Wheel,
    complete,
    complete_bipartite,
    cycle,
    find_cycle_through,
    find_cycle_through_edge,
    find_k_wheel,
    induced_subgraph,
    is_almost_4_wheel_free,
    is_wheel_center,
    parse_graph6,
    petersen,
    relabel,
    tight_example,
    wheel_centers,
    wm_certificate,
)
from wheelfree.wheels import is_cycle, normalize_cycle


def k44_minus_y0() -> Graph:
    sub, _ = induced_subgraph(complete_bipartite(4), [0, 1, 2, 3, 5, 6, 7])
    return sub


def subdivided_k44() -> Graph:
    """K_{4,4} with edge x0-y0 replaced by the path x0-m-y0 (m = 8)."""
    edges = [(i, 4 + j) for i in range(4) for j in range(4) if not (i == 0 and j == 0)]
    edges += [(0, 8), (8, 4)]
    return Graph(9, edges)


# -- cycle searches ----------------------------------------------------------


def test_normalize_cycle():
    assert normalize_cycle([4, 0, 2, 3]) == (0, 2, 3, 4)
    assert normalize_cycle([0, 3, 1, 2]) == (0, 2, 1, 3)


def test_cycle_through_k4_all():
    cyc = find_cycle_through(complete(4), [0, 1, 2, 3])
    assert cyc is not None and len(cyc) == 4
    assert is_cycle(complete(4), cyc)


def test_cycle_through_c5_all():
    assert find_cycle_through(cycle(5), range(5)) == (0, 1, 2, 3, 4)


def test_cycle_through_absence():
    # four left-side vertices need four right-side connectors; only three remain
    assert find_cycle_through(k44_minus_y0(), [0, 1, 2, 3]) is None


def test_cycle_through_needs_target():
    with pytest.raises(GraphError):
        find_cycle_through(complete(4), [])


def test_cycle_through_edge_k4():
    cyc = find_cycle_through_edge(complete(4), (0, 1), [2])
    assert cyc == (0, 1, 2)
    assert is_cycle(complete(4), cyc)


def test_cycle_through_edge_c5():
    assert find_cycle_through_edge(cycle(5), (0, 1), [3]) == (0, 1, 2, 3, 4)


def test_cycle_through_edge_k44():
    g = complete_bipartite(4)
    cyc = find_cycle_through_edge(g, (0, 4), [1, 2, 3])
    assert cyc is not None
    assert is_cycle(g, cyc)
    edges = {tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))}
    assert (0, 4) in edges
    assert {1, 2, 3} <= set(cyc)


def test_cycle_through_edge_requires_edge():
    with pytest.raises(GraphError):
        find_cycle_through_edge(cycle(5), (0, 2), [3])


def test_cycle_through_agrees_with_cycle_enumeration():
    """Independent oracle: collect all cycle vertex sets by DFS enumeration,
    then compare coverage answers for every target set."""
    from itertools import combinations

    from wheelfree.oracles import _iter_cycles

    for n in range(3, 6):
        for code in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_code(n, code)
            cycle_masks = {mask for mask, _ in _iter_cycles(g.masks, n)}
            for size in range(1, min(n, 5) + 1):
                for xs in combinations(range(n), size):
                    req = sum(1 << v for v in xs)
                    expected = any(mask & req == req for mask in cycle_masks)
                    got = find_cycle_through(g, xs)
                    assert (got is not None) == expected, (n, code, xs)
                    if got is not None:
                        assert is_cycle(g, got) and set(xs) <= set(got)


# -- wheels --------------------------------------------------------------------


# hub 0 on the rim 1-2-3-4, and 5 joined to 1 and 2
W4_PLUS = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 1), (0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 2)])
W4 = Wheel(center=0, rim=(1, 2, 3, 4), spokes=((0, 1), (0, 2), (0, 3), (0, 4)))


@pytest.mark.parametrize("changes", [
    {"rim": (1, 3, 2, 4)},
    {"center": 1},
    {"spokes": ((0, 1), (0, 2), (0, 3), (1, 2))},
    {"spokes": ((0, 1), (0, 2), (0, 3), (0, 5))},
    {"center": 5, "spokes": ((5, 1), (5, 2), (5, 3), (5, 4))},
    {"spokes": ((0, 1), (0, 1), (0, 2), (0, 3))},
    {"spokes": ((0, 1), (0, 2), (0, 3))},
], ids=["rim-not-a-cycle", "center-on-rim", "spoke-from-elsewhere", "spoke-off-the-rim",
        "spoke-not-an-edge", "duplicate-spoke", "too-few-spokes"])
def test_wheel_validation_rejects_each_planted_defect(changes):
    W4.validate(W4_PLUS, 4)
    with pytest.raises(CertificateError):
        replace(W4, **changes).validate(W4_PLUS, 4)


def test_wheel_center_k5():
    w = is_wheel_center(complete(5), 0, 4)
    assert w is not None
    assert w.center == 0
    assert w.rim == (1, 2, 3, 4)
    assert len(w.spokes) == 4
    w.validate(complete(5), 4)


def test_wheel_center_absent_k44():
    for v in range(8):
        assert is_wheel_center(complete_bipartite(4), v, 4) is None


def test_wheel_center_degree_bound():
    # 3-regular: spoke count is capped by the degree
    for v in range(10):
        assert is_wheel_center(petersen(), v, 4) is None


def test_wheel_centers():
    assert wheel_centers(complete(6), 4) == (0, 1, 2, 3, 4, 5)
    assert wheel_centers(complete_bipartite(4), 4) == ()
    assert wheel_centers(complete(5), 4) == (0, 1, 2, 3, 4)


def test_k_wheel_free():
    assert find_k_wheel(complete(4), 4) is None
    assert find_k_wheel(tight_example(4), 4) is None
    w = find_k_wheel(complete(5), 4)
    assert w is not None
    w.validate(complete(5), 4)


def test_find_k_wheel_rejects_small_k():
    # refused on every graph, including those with no vertex to search
    for g in (Graph(0), Graph(2), complete(5)):
        with pytest.raises(GraphError, match="at least 3 spokes"):
            find_k_wheel(g, 2)


def test_wheel_centers_rejects_small_k():
    for g in (Graph(0), Graph(3)):
        with pytest.raises(GraphError, match="at least 3 spokes"):
            wheel_centers(g, 2)


def test_almost_4_wheel_free():
    assert is_almost_4_wheel_free(complete_bipartite(4))  # W empty
    assert is_almost_4_wheel_free(complete(4))            # no wheels at all
    assert not is_almost_4_wheel_free(complete(6))        # W is everything
    # one to three centers: the verdict is whether they form a clique
    assert wheel_centers(parse_graph6("Dn{"), 4) == (1, 3, 4)
    assert is_almost_4_wheel_free(parse_graph6("Dn{"))
    assert wheel_centers(parse_graph6("ErNg"), 4) == (2, 5)
    assert is_almost_4_wheel_free(parse_graph6("ErNg"))
    assert wheel_centers(parse_graph6("FgttW"), 4) == (1, 6)
    assert not is_almost_4_wheel_free(parse_graph6("FgttW"))
    assert wheel_centers(parse_graph6("FM\\sW"), 4) == (1, 4, 5)
    assert not is_almost_4_wheel_free(parse_graph6("FM\\sW"))


def _brute_spokes(g: Graph) -> list[int]:
    """For each vertex v, the most neighbors of v on one cycle avoiding v,
    by cycle listing; v centers a k-wheel iff this is at least k."""
    from wheelfree.oracles import _iter_cycles

    best = [0] * g.n
    for mask, _ in _iter_cycles(g.masks, g.n):
        for v in range(g.n):
            if not (mask >> v) & 1:
                best[v] = max(best[v], (mask & g.masks[v]).bit_count())
    return best


def test_wheel_centers_agree_with_cycle_listing():
    """Per-vertex center status, not just the whole-graph verdict, for
    every labeled graph with n <= 6."""
    for n in range(1, 7):
        for code in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_code(n, code)
            best = _brute_spokes(g)
            for k in (3, 4, 5):
                expected = tuple(v for v in range(n) if best[v] >= k)
                assert wheel_centers(g, k) == expected, (n, code, k)


@pytest.mark.parametrize("a, b", [(3, 12), (3, 16), (3, 20), (4, 4)])
def test_complete_bipartite_is_4_wheel_free(a, b):
    # a cycle of G - v alternates sides, so it meets at most 3 neighbors of v
    assert find_k_wheel(complete_bipartite(a, b), 4) is None


@pytest.mark.parametrize("d", [5, 6])
def test_k4d_has_4_wheel(d):
    g = complete_bipartite(4, d)
    w = find_k_wheel(g, 4)
    assert w is not None
    w.validate(g, 4)


@st.composite
def relabeled_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    # AND-ing up to four uniform edge codes spreads the density over
    # 1/2 .. 1/16, so both wheel-free and wheeled graphs are drawn
    full = (1 << (n * (n - 1) // 2)) - 1
    code = full
    for _ in range(draw(st.integers(1, 4))):
        code &= draw(st.integers(0, full))
    g = Graph.from_edge_code(n, code)
    return g, relabel(g, draw(st.permutations(range(n))))


@settings(max_examples=300, deadline=None)
@given(relabeled_pairs())
def test_4_wheel_verdict_is_relabeling_invariant(pair):
    from wheelfree.oracles import brute_has_k_wheel

    g, h = pair
    wg, wh = find_k_wheel(g, 4), find_k_wheel(h, 4)
    assert (wg is None) == (wh is None) == (brute_has_k_wheel(g, 4) is None)
    for graph, w in ((g, wg), (h, wh)):
        if w is not None:
            w.validate(graph, 4)


# -- Watkins-Mesner certificates --------------------------------------------------


def test_wm_k44():
    g = complete_bipartite(4)
    cert = wm_certificate(g, 4, [0, 1, 2, 3])
    assert cert.cutset == (5, 6, 7)
    assert cert.components == {0: (0,), 1: (1,), 2: (2,), 3: (3,)}
    cert.validate(g)


def test_wm_subdivided_k44():
    # components need not be singletons
    g = subdivided_k44()
    cert = wm_certificate(g, 5, [0, 1, 2, 3])
    assert cert.cutset == (4, 6, 7)
    assert cert.components[0] == (0, 8)
    cert.validate(g)


def test_wm_rejects_cycle_case():
    with pytest.raises(GraphError, match="cycle"):
        wm_certificate(complete(5), 0, [1, 2, 3, 4])


def test_wm_requires_neighbors():
    g = complete_bipartite(4)
    with pytest.raises(GraphError):
        wm_certificate(g, 4, [0, 1, 2, 5])  # 5 is not a neighbor of 4
    with pytest.raises(GraphError):
        wm_certificate(g, 4, [0, 1, 2])  # needs exactly four


def test_wm_none_when_no_cutset_scatters():
    # the path 0-1-2-3 with apex 4: no cycle through the targets and no
    # vertex left to cut with
    assert wm_certificate(parse_graph6("Dh{"), 4, [0, 1, 2, 3]) is None
    # x = 0: the one candidate cutset (1, 6, 7) leaves targets together,
    # and g - x is not 3-connected, so no certificate is owed
    assert wm_certificate(parse_graph6("GSz?_o"), 0, [2, 3, 4, 5]) is None


def test_wm_guarantee_violation_is_its_message(monkeypatch):
    import wheelfree.wheels

    # K_{4,4} - 4 is 3-connected, so coming up empty is a theorem violation
    monkeypatch.setattr(wheelfree.wheels, "combinations", lambda *a: iter(()))
    with pytest.raises(TheoremViolationError) as exc:
        wm_certificate(complete_bipartite(4), 4, [0, 1, 2, 3])
    assert str(exc.value) == "no scattering cutset found although one is guaranteed"


def test_wm_validation_catches_bad_cutset():
    from wheelfree.errors import CertificateError
    from wheelfree.wheels import WMCertificate

    g = complete_bipartite(4)
    bad = WMCertificate(x=4, targets=(0, 1, 2, 3), cutset=(0, 5, 6), components={})
    with pytest.raises(CertificateError):
        bad.validate(g)


K44_CERT = WMCertificate(x=4, targets=(0, 1, 2, 3), cutset=(5, 6, 7),
                         components={0: (0,), 1: (1,), 2: (2,), 3: (3,)})
# the 8-cycle with apex 8 joined to 0, 2, 4 and 6: a 4-wheel, whose rim
# covers the four targets although each is alone once 1, 3, 5, 7 are gone
C8_APEX = Graph(9, [(v, (v + 1) % 8) for v in range(8)] + [(8, v) for v in (0, 2, 4, 6)])


# the cutset-meets-targets branch is the test above
@pytest.mark.parametrize("g,cert,error", [
    (complete_bipartite(4), replace(K44_CERT, cutset=(4, 5, 6)), CertificateError),
    (complete_bipartite(4), replace(K44_CERT, targets=(0, 1, 2, 4)), CertificateError),
    (complete_bipartite(4), replace(K44_CERT, targets=(0, 1, 2, 2)), CertificateError),
    (complete_bipartite(4), replace(K44_CERT, cutset=(5, 6)), CertificateError),
    (C8_APEX, WMCertificate(x=8, targets=(0, 2, 4, 6), cutset=(1, 3, 5, 7),
                            components={0: (0,), 2: (2,), 4: (4,), 6: (6,)}), CertificateError),
    (subdivided_k44(), WMCertificate(x=5, targets=(0, 1, 2, 3), cutset=(4, 6, 8),
                                     components={0: (0,), 1: (1,), 2: (2,), 3: (3,)}),
     CertificateError),
    (complete_bipartite(4), replace(K44_CERT, components={0: (0, 5), 1: (1,), 2: (2,), 3: (3,)}),
     CertificateError),
    (complete_bipartite(4), replace(K44_CERT, x=-1), GraphError),
], ids=["cutset-holds-x", "targets-hold-x", "repeated-target", "two-cutset-vertices",
        "four-cutset-vertices", "shared-component", "wrong-component", "x-out-of-range"])
def test_wm_validation_rejects_each_planted_defect(g, cert, error):
    with pytest.raises(error):
        cert.validate(g)


def test_wm_exhaustive_over_k44_apexes():
    """Every apex of K_{4,4} with its full neighborhood admits a certificate."""
    g = complete_bipartite(4)
    for x in range(8):
        targets = list(g.neighbors(x))
        cert = wm_certificate(g, x, targets)
        assert cert is not None
        cert.validate(g)
