"""Twins, reduction witnesses, constructive coloring, statement checkers."""

import random

import pytest

from wheelfree import (
    CertificateError,
    Coloring,
    Graph,
    GraphError,
    LowDegree,
    Stuck,
    TheoremViolationError,
    TwinPair,
    VerifyStatus,
    Wheel,
    color4,
    complete,
    complete_bipartite,
    cycle,
    find_k_wheel,
    find_twins,
    induced_subgraph,
    octahedron,
    petersen,
    reduction_witness,
    tight_example,
    verify_statement,
)
from wheelfree.oracles import brute_chromatic_number, brute_has_k_wheel
from wheelfree.structure import STATEMENTS
from wheelfree.wheels import normalize_cycle


# -- twins --------------------------------------------------------------------


def test_twins_k44():
    assert find_twins(complete_bipartite(4)) == (0, 1)


def test_twins_c5_absent():
    assert find_twins(cycle(5)) is None


def test_twins_c4():
    assert find_twins(cycle(4)) == (0, 2)


# -- reduction witnesses ---------------------------------------------------------


def test_witness_petersen():
    assert reduction_witness(petersen(), 4) == LowDegree(vertex=0, bound=3)


def test_witness_k44_twins():
    assert reduction_witness(complete_bipartite(4), 4) == TwinPair(u=0, v=1)


def test_witness_k6_stuck():
    w = reduction_witness(complete(6), 4)
    assert isinstance(w, Stuck)
    w.wheel.validate(complete(6), 4)


def test_witness_k3_mode():
    # C_4 has min degree 2, so the k=3 mode stops at low degree first
    assert reduction_witness(cycle(4), 3) == LowDegree(vertex=0, bound=2)
    assert reduction_witness(complete_bipartite(3), 3) == TwinPair(u=0, v=1)
    w = reduction_witness(complete(4), 3)
    assert isinstance(w, Stuck)


def test_witness_mode_validation():
    with pytest.raises(GraphError):
        reduction_witness(complete(3), 5)
    with pytest.raises(GraphError):
        reduction_witness(Graph(0), 4)


# -- coloring ----------------------------------------------------------------------


def test_color4_k4_uses_four():
    result = color4(complete(4))
    assert result.succeeded
    assert result.coloring.colors_used == 4
    result.coloring.validate(complete(4))
    assert all(isinstance(w, LowDegree) for w in result.trace)


@pytest.mark.parametrize("colors", [(0, 1, 2), (0, 1, 2, 4), (0, 1, 2, -1), (0, 1, 2, 2)],
                         ids=["short", "above-palette", "below-palette", "monochromatic-edge"])
def test_coloring_validation_rejects_each_planted_defect(colors):
    Coloring(colors=(0, 1, 2, 3)).validate(complete(4))
    with pytest.raises(CertificateError):
        Coloring(colors=colors).validate(complete(4))


def test_color4_k44_uses_two():
    result = color4(complete_bipartite(4))
    assert result.succeeded
    assert result.coloring.colors_used == 2
    result.coloring.validate(complete_bipartite(4))


def test_color4_tight_example():
    g = tight_example(4)
    result = color4(g)
    assert result.succeeded
    assert result.coloring.colors_used == 4
    result.coloring.validate(g)
    assert brute_chromatic_number(g) == 4  # four colors is optimal


def test_color4_stuck_on_k5():
    result = color4(complete(5))
    assert not result.succeeded
    assert result.coloring is None
    result.stuck.wheel.validate(complete(5), 4)


def test_color4_stuck_reports_original_ids():
    # K_6 plus a pendant vertex: the pendant is removed first, then the
    # reduction gets stuck inside the K_6 and the wheel must use original ids
    g = Graph(7, [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(0, 6)])
    result = color4(g)
    assert not result.succeeded
    assert result.trace == (LowDegree(vertex=6, bound=3),)
    result.stuck.wheel.validate(g, 4)


def test_color4_trace_matches_reduction_witness():
    """Each trace step is exactly what reduction_witness says on the
    corresponding induced subgraph (mapped back to original ids)."""
    rnd = random.Random(7)
    for _ in range(60):
        n = rnd.randint(1, 7)
        g = Graph.from_edge_code(n, rnd.getrandbits(n * (n - 1) // 2))
        result = color4(g)
        live = list(range(n))
        for w in result.trace:
            sub, idmap = induced_subgraph(g, live)
            back = {new: old for old, new in idmap.items()}
            sw = reduction_witness(sub, 4)
            if isinstance(sw, LowDegree):
                assert w == LowDegree(vertex=back[sw.vertex], bound=3)
                live.remove(w.vertex)
            else:
                assert isinstance(sw, TwinPair)
                assert w == TwinPair(u=back[sw.u], v=back[sw.v])
                live.remove(w.u)
        if result.succeeded:
            assert not live
            result.coloring.validate(g)
            assert result.coloring.colors_used <= 4


def test_color4_stuck_wheel_is_the_induced_subgraph_wheel():
    """The stuck wheel is the one find_k_wheel finds in the induced
    subgraph on the live vertices, mapped back to the input's ids, with
    the rim normalized and the spokes sorted."""
    rnd = random.Random(12)
    stuck = shuffled = 0
    for _ in range(400):
        n = rnd.randint(6, 12)
        p = rnd.choice((0.4, 0.5, 0.6, 0.7))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p])
        result = color4(g)
        if result.succeeded:
            continue
        removed = {w.vertex if isinstance(w, LowDegree) else w.u for w in result.trace}
        live = [v for v in range(n) if v not in removed]
        sub, idmap = induced_subgraph(g, live)
        back = {new: old for old, new in idmap.items()}
        wheel = find_k_wheel(sub, 4)
        center = back[wheel.center]
        assert result.stuck.wheel == Wheel(
            center=center,
            rim=normalize_cycle([back[w] for w in wheel.rim]),
            spokes=tuple(sorted((center, back[b]) for _, b in wheel.spokes)),
        )
        stuck += 1
        # ids are not a plain shift when a removed id lies below a live one
        shuffled += bool(removed) and min(removed) < live[-1]
    assert shuffled >= 50, (stuck, shuffled)


def test_reduction_violation_has_one_message(monkeypatch):
    import wheelfree.structure

    monkeypatch.setattr(wheelfree.structure, "find_k_wheel", lambda g, k: None)
    message = "graph with min degree > 3 and no twins contains no 4-wheel"
    for run in (lambda: reduction_witness(complete(5), 4), lambda: color4(complete(5))):
        with pytest.raises(TheoremViolationError) as exc:
            run()
        assert str(exc.value) == message
    r = verify_statement(complete(5), "cor-1.5")
    assert (r.status, r.detail) == (VerifyStatus.COUNTEREXAMPLE, message)


# -- tight constructions -------------------------------------------------------------


def test_tight_example_4_layout():
    g = tight_example(4)
    assert g.n == 7
    assert g.neighbors(4) == (0, 1, 2, 3)   # x over both cliques
    assert g.neighbors(5) == (0, 1, 6)      # a over H1 plus b
    assert g.neighbors(6) == (2, 3, 5)      # b over H2 plus a
    assert g.has_edge(0, 1) and g.has_edge(2, 3)


def test_tight_example_5():
    g = tight_example(5)
    assert g.n == 9
    assert brute_has_k_wheel(g, 5) is None
    assert brute_chromatic_number(g) == 5


def test_tight_example_rejects_small_k():
    with pytest.raises(GraphError):
        tight_example(3)


def test_tight_example_reduction_finds_low_degree():
    # a and b have degree k-1 = 3 for k=4
    g = tight_example(4)
    assert g.degree(5) == 3 and g.degree(6) == 3
    w = reduction_witness(g, 4)
    assert isinstance(w, LowDegree)


# -- statement verifiers ----------------------------------------------------------------


def test_verify_thm44_k44_passes():
    r = verify_statement(complete_bipartite(4), "thm-4.4")
    assert r.status is VerifyStatus.PASS


def test_is_k44_by_definition():
    from wheelfree import circulant, relabel
    from wheelfree.structure import _is_k44

    assert _is_k44(relabel(complete_bipartite(4), [3, 5, 0, 7, 1, 2, 6, 4]))
    assert _is_k44(circulant(8, (1, 3)))  # odd offsets: parts are the parities
    assert not _is_k44(circulant(8, (1, 2)))  # also 8 vertices and 16 edges
    assert not _is_k44(complete_bipartite(3, 5))
    # the complement of the cube Q_3: 16 edges, 4-regular, has triangles
    assert not _is_k44(Graph(8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                                 if (a ^ b).bit_count() >= 2]))
    moved = [(a, b) for a in range(4) for b in range(4, 8) if (a, b) != (0, 4)]
    assert not _is_k44(Graph(8, moved + [(0, 1)]))
    assert not _is_k44(Graph(8))


def test_verify_thm44_not_applicable():
    r = verify_statement(complete(6), "thm-4.4")
    assert r.status is VerifyStatus.NOT_APPLICABLE


def test_verify_thm48_petersen():
    r = verify_statement(petersen(), "thm-4.8")
    assert r.status is VerifyStatus.PASS


def test_verify_thm48_k5_not_applicable():
    r = verify_statement(complete(5), "thm-4.8")
    assert r.status is VerifyStatus.NOT_APPLICABLE


def test_verify_alias():
    r = verify_statement(petersen(), "thm-1.4")
    assert r.statement == "thm-1.4"
    assert r.status is VerifyStatus.PASS


def test_verify_lemma42():
    assert verify_statement(complete(6), "lemma-4.2").status is VerifyStatus.PASS
    assert verify_statement(cycle(5), "lemma-4.2").status is VerifyStatus.NOT_APPLICABLE


def test_verify_lemma43_with_triangles(monkeypatch):
    import wheelfree.structure

    r = verify_statement(complete(5), "lemma-4.3")
    assert (r.status, r.detail) == (VerifyStatus.PASS, "5 triangle vertices are all centers")
    r = verify_statement(octahedron(), "lemma-4.3")
    assert (r.status, r.detail) == (VerifyStatus.PASS, "6 triangle vertices are all centers")
    monkeypatch.setattr(wheelfree.structure, "is_wheel_center", lambda g, v, k: None)
    r = verify_statement(complete(5), "lemma-4.3")
    assert (r.status, r.detail) == (
        VerifyStatus.COUNTEREXAMPLE, "triangle vertices [0, 1, 2, 3, 4] are not centers")


def test_verify_thm45_k4_vacuous():
    # K_4 has connectivity 3 but no ends at all
    r = verify_statement(complete(4), "thm-4.5")
    assert r.status is VerifyStatus.PASS


def k44_subdivided() -> Graph:
    """K_{4,4} with the edge 0-4 subdivided by vertex 8: the end
    {1,2,3,5,6,7} has only degree-4 vertices and its end block is K_{4,4}."""
    return Graph(9, [(a, b) for a in range(4) for b in range(4, 8) if (a, b) != (0, 4)]
                 + [(0, 8), (8, 4)])


def test_verify_thm47_counts_branches():
    from wheelfree import ends

    g = cycle(5)
    r = verify_statement(g, "thm-4.7")
    assert r.status is VerifyStatus.PASS
    assert r.counters["low-degree-branch"] == len(ends(g))
    assert r.counters["k44-block-branch"] == 0
    g = k44_subdivided()
    r = verify_statement(g, "thm-4.7")
    assert r.status is VerifyStatus.PASS
    assert r.counters == {"low-degree-branch": 1, "k44-block-branch": 1}


def test_verify_thm47_computes_kappa_once(monkeypatch):
    import wheelfree.connectivity

    # every route to kappa, the threshold test and vertex_connectivity
    # alike, runs the one capped search; it must run once, on the graph
    # itself, and never on its end blocks
    calls = []
    real = wheelfree.connectivity._connectivity

    def counted(adj, n, cap, degs):
        calls.append(n)
        return real(adj, n, cap, degs)

    monkeypatch.setattr(wheelfree.connectivity, "_connectivity", counted)
    g = k44_subdivided()
    r = verify_statement(g, "thm-4.7")
    assert r.counters == {"low-degree-branch": 1, "k44-block-branch": 1}
    assert calls == [9]


def test_verify_labels_every_result_with_its_id():
    for g in (complete(4), cycle(5), complete_bipartite(4), petersen(), Graph(0)):
        for statement in STATEMENTS:
            assert verify_statement(g, statement).statement == statement


def test_verify_witness_violation_detail_is_the_message(monkeypatch):
    import wheelfree.structure

    def violated(g, k):
        raise TheoremViolationError(f"no {k}-witness on purpose")

    monkeypatch.setattr(wheelfree.structure, "reduction_witness", violated)
    for statement, k in (("thm-4.8", 4), ("thm-1.1", 3)):
        r = verify_statement(petersen(), statement)
        assert (r.status, r.detail) == (VerifyStatus.COUNTEREXAMPLE, f"no {k}-witness on purpose")


def test_verify_empty_graph_not_applicable():
    for statement in STATEMENTS:
        r = verify_statement(Graph(0), statement)
        assert (r.status, r.detail) == (VerifyStatus.NOT_APPLICABLE, "empty graph"), statement


def test_verify_budget_exceeded_status():
    # a long cycle is 4-wheel-free, so cor-1.5 needs the brute chromatic
    # oracle, which is over its budget
    r = verify_statement(cycle(25), "cor-1.5")
    assert r.status is VerifyStatus.BUDGET_EXCEEDED
    # ends have no budget: the same cycle and a 24-spoke wheel get verdicts
    r = verify_statement(cycle(25), "thm-4.7")
    assert r.status is VerifyStatus.PASS
    assert r.detail == "25 ends checked"
    assert r.counters["low-degree-branch"] == 25
    hub_and_rim = Graph(25, [(i, (i + 1) % 24) for i in range(24)] + [(24, i) for i in range(24)])
    r = verify_statement(hub_and_rim, "thm-4.5")
    assert r.status is VerifyStatus.PASS
    assert r.detail == "24 ends checked"


def test_verify_unknown_statement():
    with pytest.raises(GraphError):
        verify_statement(complete(3), "thm-9.9")


def test_verify_cor15_on_wheel_graph():
    r = verify_statement(complete(5), "cor-1.5")
    assert r.status is VerifyStatus.NOT_APPLICABLE
    r = verify_statement(tight_example(4), "cor-1.5")
    assert r.status is VerifyStatus.PASS
