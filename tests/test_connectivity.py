"""Connectivity, fans, fragments, ends and end blocks."""

import random
from dataclasses import replace

import pytest

from wheelfree import (
    BudgetExceededError,
    CertificateError,
    Fan,
    Graph,
    GraphError,
    NoFragmentsError,
    brute_fragments,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    end_block,
    ends,
    enumerate_graphs,
    extend_fan,
    find_k_fan,
    icosahedron,
    is_fragment,
    parse_graph6,
    path,
    petersen,
    relabel,
    star,
    TheoremViolationError,
    vertex_connectivity,
)
from wheelfree.graph import bits, reach


def bowtie() -> Graph:
    """Two triangles sharing vertex 0."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


# -- vertex connectivity -----------------------------------------------------


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle(5), 2),
        (complete_bipartite(4), 4),      # brute cutset enumeration confirms: no cutset of size <= 3
        (complete(5), 4),
        (complete(2), 1),
        (Graph(1), 0),
        (Graph(3, [(0, 1)]), 0),         # disconnected
        (path(3), 1),
        (petersen(), 3),
        (bowtie(), 1),
    ],
)
def test_vertex_connectivity(g, expected):
    assert vertex_connectivity(g) == expected


def test_vertex_connectivity_matches_oracle_small():
    from wheelfree.oracles import brute_vertex_connectivity

    for n in range(1, 6):
        for code in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_code(n, code)
            assert vertex_connectivity(g) == brute_vertex_connectivity(g), (n, code)


def _subcubic(rng: random.Random, n: int) -> Graph:
    """A Hamiltonian cycle plus a random matching of chords."""
    order = rng.sample(range(n), n)
    edges = [(v, (v + 1) % n) for v in range(n)] + list(zip(order[::2], order[1::2]))
    return Graph(n, sorted({tuple(sorted(e)) for e in edges}))


def _seeding_graphs():
    rng = random.Random(17)
    for n in (8, 13, 21, 34, 60):
        for p in (0.05, 0.3, 0.9):
            yield _gnp(rng, n, p)
    for n in (8, 21, 60):
        yield _subcubic(rng, n)


def test_short_fan_seeds_are_exact():
    from wheelfree.connectivity import _extract_fan_paths, _fan_flow, _short_fan

    for g in _seeding_graphs():
        adj, n = g.masks, g.n
        for s in range(n):
            for t in bits((1 << n) - 1 & ~adj[s] & ~(1 << s)):
                targets = g.neighbors(t)
                short = _short_fan(adj, s, t, n)  # no fan reaches n paths
                Fan(origin=s, targets=targets, paths=short).validate(g)
                assert _short_fan(adj, s, t, len(short)) is None
                assert _short_fan(adj, s, t, len(short) + 1) == short
                # the unseeded flow capped at k is min(k, its uncapped value)
                kappa_st, _ = _fan_flow(adj, n, s, adj[t], n)
                for cap in range(len(short) + 1, kappa_st + 2):
                    seeded, res = _fan_flow(adj, n, s, adj[t], cap, short)
                    assert seeded == min(cap, kappa_st), (g.edge_code(), s, t, cap)
                paths = tuple(_extract_fan_paths(res, adj, n, s, adj[t]))
                Fan(origin=s, targets=targets, paths=paths).validate(g)
                assert len(paths) == kappa_st


def _count_flows(monkeypatch, g: Graph, screen=None) -> tuple[int, int]:
    """``vertex_connectivity(g)`` and the number of flows it runs, optionally
    with ``_short_fan`` replaced by ``screen``; every flow must start from
    the paths the screen gave."""
    import wheelfree.connectivity as conn

    flows = []
    real = conn._fan_flow
    monkeypatch.setattr(conn, "_fan_flow", lambda *a: flows.append(a) or real(*a))
    if screen is not None:
        monkeypatch.setattr(conn, "_short_fan", screen)
    kappa = vertex_connectivity(g)
    monkeypatch.undo()
    assert all(len(args) == 6 for args in flows)
    return kappa, len(flows)


def _common_neighbours_only(adj, s, t, cap):
    return None if (adj[s] & adj[t]).bit_count() >= cap else ()


def test_short_fans_settle_most_dense_pairs(monkeypatch):
    # with only the common-neighbour count as a screen, these graphs take
    # 53 and 94 flows
    for (n, p), kappa, most, unbounded in (((50, 0.3), 8, 10, 53), ((58, 0.35), 13, 6, 94)):
        g = _gnp(random.Random(3), n, p)
        found, flows = _count_flows(monkeypatch, g)
        assert found == kappa and flows <= most
        assert _count_flows(monkeypatch, g, _common_neighbours_only) == (kappa, unbounded)
    # short fan paths seldom settle a pair of a subcubic graph: the same
    # pairs flow
    g = _subcubic(random.Random(1), 50)
    assert _count_flows(monkeypatch, g) == _count_flows(monkeypatch, g, _common_neighbours_only)


def _cut_vertex_by_definition(g: Graph) -> bool:
    full = (1 << g.n) - 1
    for v in range(g.n):
        rest = full & ~(1 << v)
        if reach(g.masks, rest & -rest, rest) != rest:
            return True
    return False


def _triangle_chain(triangles: int) -> Graph:
    """Triangles (2i, 2i+1, 2i+2), each sharing a cut vertex with the next."""
    return Graph(2 * triangles + 1, [e for i in range(triangles)
                                     for e in ((2 * i, 2 * i + 1), (2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def _triangle_strip(n: int) -> Graph:
    """The square of the path on n vertices: a 2-connected strip of triangles."""
    return Graph(n, [(v, w) for v in range(n) for w in (v + 1, v + 2) if w < n])


def _cut_vertex_cases():
    for n in range(3, 7):
        for code in range(1 << (n * (n - 1) // 2)):
            yield Graph.from_edge_code(n, code)
    yield from enumerate_graphs(7, dedup=True)
    rng = random.Random(19)
    for n in range(8, 61, 4):
        for p in (2.0 / n, 3.0 / n, 5.0 / n):
            yield _gnp(rng, n, p)
        yield _subcubic(rng, n)
    yield bowtie()  # the search root is the only cut vertex
    for g in (_triangle_chain(30), _triangle_strip(60)):  # searches 60 deep
        yield g
        yield relabel(g, rng.sample(range(g.n), g.n))


def test_cut_vertex_search_matches_definition():
    from wheelfree.connectivity import _has_cut_vertex

    found = set()
    for g in _cut_vertex_cases():
        if g.n >= 3 and g.is_connected():
            expected = _cut_vertex_by_definition(g)
            assert _has_cut_vertex(g.masks, g.n) == expected, (g.n, g.edge_code())
            found.add((g.n > 7, expected))
    assert found == {(False, False), (False, True), (True, False), (True, True)}
    assert _has_cut_vertex(bowtie().masks, 5)
    assert _has_cut_vertex(_triangle_chain(30).masks, 61)
    assert not _has_cut_vertex(_triangle_strip(60).masks, 60)


def _glued(rng: random.Random, a: Graph, b: Graph) -> Graph:
    """a and b with one vertex of each identified, under a random labeling."""
    n = a.n + b.n - 1
    edges = list(a.edges()) + [(u + a.n - 1, v + a.n - 1) for u, v in b.edges()]
    return relabel(Graph(n, edges), rng.sample(range(n), n))


def _chorded_cycle(rng: random.Random, n: int, chords: int) -> Graph:
    edges = {(v, (v + 1) % n) for v in range(n)}
    for _ in range(chords):
        u, v = rng.sample(range(n), 2)
        edges.add((u, v))
    return Graph(n, sorted({tuple(sorted(e)) for e in edges}))


def test_connectivity_two_by_cut_vertex_matches_oracle():
    from wheelfree.oracles import brute_vertex_connectivity

    rng = random.Random(23)
    graphs = []
    for n in range(8, 13):
        graphs += [_glued(rng, cycle(k), cycle(n + 1 - k)) for k in (3, n // 2)]
        graphs += [_glued(rng, _chorded_cycle(rng, k, 2), _chorded_cycle(rng, n + 1 - k, 3)) for k in (4, n // 2)]
        graphs += [_chorded_cycle(rng, n, c) for c in (1, 2, 4)]
        graphs += [_gnp(rng, n, p) for p in (0.2, 0.25, 0.3) for _ in range(20)]
    kappas = []
    for g in graphs:
        if min(a.bit_count() for a in g.masks) >= 2:
            kappas.append(vertex_connectivity(g))
            assert kappas[-1] == brute_vertex_connectivity(g), (g.n, g.edge_code())
    assert {1, 2, 3} <= set(kappas)


def test_connectivity_two_runs_no_flow(monkeypatch):
    # 48 flows before the cut-vertex search settled kappa <= 2
    assert _count_flows(monkeypatch, _subcubic(random.Random(1), 50)) == (2, 0)
    # minimum degree 3: the same 49 flows as without the search
    g = _subcubic(random.Random(5), 50)
    assert min(a.bit_count() for a in g.masks) == 3
    assert _count_flows(monkeypatch, g) == (3, 49)


def _capped_cases():
    """Every labeled graph with 1 <= n <= 6, the n = 7 classes and seeded
    G(n, p) with n = 8..12: the oracles' reach."""
    for n in range(1, 7):
        for code in range(1 << (n * (n - 1) // 2)):
            yield Graph.from_edge_code(n, code)
    yield from enumerate_graphs(7, dedup=True)
    rng = random.Random(29)
    for n in range(8, 13):
        for p in (0.2, 0.35, 0.5, 0.65, 0.8):
            for _ in range(24):
                yield _gnp(rng, n, p)


def _assert_capped(g: Graph, kappa: int) -> None:
    """The capped search gives min(kappa, cap) for every cap 0..n."""
    from wheelfree.connectivity import _connectivity

    adj, n = g.masks, g.n
    degs = [a.bit_count() for a in adj]
    for cap in range(n + 1):
        assert _connectivity(adj, n, cap, degs) == min(kappa, cap), (n, g.edge_code(), cap)


def test_capped_connectivity_is_exact():
    from wheelfree.oracles import brute_vertex_connectivity

    seen = set()
    for g in _capped_cases():
        kappa = brute_vertex_connectivity(g)
        seen.add(kappa)
        _assert_capped(g, kappa)
    assert set(range(9)) <= seen


def test_capped_connectivity_past_the_oracle():
    rng = random.Random(31)
    graphs = [_gnp(rng, n, p) for n in range(13, 61, 3) for p in (0.1, 0.3, 0.5, 0.8)]
    graphs += [_subcubic(rng, n) for n in range(13, 61, 4)]
    seen = set()
    for g in graphs:
        kappa = vertex_connectivity(g)
        seen.add(kappa)
        _assert_capped(g, kappa)
    assert {0, 1, 2, 3} <= seen and max(seen) >= 20


def test_threshold_tests_are_the_exact_predicates():
    from wheelfree.connectivity import _is_k_connected

    rng = random.Random(41)
    graphs = [Graph.from_edge_code(n, code) for n in range(1, 6)
              for code in range(1 << (n * (n - 1) // 2))]
    graphs += [_gnp(rng, n, p) for n in range(6, 30, 2) for p in (0.3, 0.6, 0.9)]
    for g in graphs:
        kappa = vertex_connectivity(g)
        for k in range(-1, g.n + 1):
            assert _is_k_connected(g, k) == (kappa >= k), (g.n, g.edge_code(), k)
            assert _is_k_connected(g, k, exactly=True) == (kappa == k), (g.n, g.edge_code(), k)


def _count_calls(monkeypatch, names, call, *args):
    """``call(*args)`` and how many times it called the ``connectivity``
    functions ``names``."""
    import wheelfree.connectivity as conn

    calls = []
    for name in names:
        real = getattr(conn, name)
        monkeypatch.setattr(conn, name, lambda *a, real=real: calls.append(a) or real(*a))
    out = call(*args)
    monkeypatch.undo()
    return out, len(calls)


def test_degree_bound_settles_hypotheses(monkeypatch):
    from wheelfree import VerifyStatus, verify_statement
    from wheelfree.connectivity import _is_k_connected

    # minimum degree below the threshold: no pair is screened, though the
    # exact kappa of these graphs takes screens and flows or the
    # cut-vertex search
    searches = ("_short_fan", "_fan_flow", "_has_cut_vertex")
    for g, statements in ((petersen(), ("thm-4.4", "lemma-4.2", "lemma-4.3")),
                          (cycle(8), ("thm-4.5", "cor-4.6"))):
        assert _count_calls(monkeypatch, searches, vertex_connectivity, g)[1] > 0
        for sid in statements:
            result, count = _count_calls(monkeypatch, searches, verify_statement, g, sid)
            assert result.status is VerifyStatus.NOT_APPLICABLE and count == 0, (sid, result)
    # above the threshold the flows stop at it: here short fan paths
    # settle every pair at 4, where the exact kappa takes 13 flows
    g = _gnp(random.Random(37), 50, 0.3)
    assert _count_flows(monkeypatch, g) == (9, 13)
    assert _count_calls(monkeypatch, ("_fan_flow",), _is_k_connected, g, 4) == (True, 0)


# -- fans ---------------------------------------------------------------------


def test_fan_k44_direct_edges():
    g = complete_bipartite(4)
    fan = find_k_fan(g, 4, [0, 1, 2, 3], 4)
    assert fan.paths == ((4, 0), (4, 1), (4, 2), (4, 3))
    fan.validate(g)


def test_fan_path_graph():
    fan = find_k_fan(path(3), 0, [2], 1)
    assert fan.paths == ((0, 1, 2),)
    fan.validate(path(3))


def test_fan_absence_star():
    # any two paths from a leaf must pass through the hub
    assert find_k_fan(star(3), 1, [2, 3], 2) is None


def test_fan_preconditions():
    with pytest.raises(GraphError):
        find_k_fan(cycle(5), 0, [0, 1], 1)  # origin inside targets
    with pytest.raises(GraphError):
        find_k_fan(cycle(5), 0, [1], 2)  # too few targets


def test_extend_fan_c5():
    g = cycle(5)
    given = Fan(origin=0, targets=(1, 2, 3, 4), paths=((0, 1),))
    out = extend_fan(g, given, 2)
    assert out.paths == ((0, 1), (0, 4))
    assert set(given.endpoints) <= set(out.endpoints)


def test_extend_fan_k4():
    g = complete(4)
    given = Fan(origin=0, targets=(1, 2, 3), paths=((0, 1), (0, 2)))
    out = extend_fan(g, given, 3)
    assert out.paths == ((0, 1), (0, 2), (0, 3))


def test_extend_fan_k44_full():
    g = complete_bipartite(4)
    given = Fan(origin=4, targets=(0, 1, 2, 3), paths=((4, 0), (4, 1)))
    out = extend_fan(g, given, 4)
    assert out.k == 4
    assert set(given.endpoints) <= set(out.endpoints)
    out.validate(g)


def test_extend_fan_noop_at_full_size():
    g = complete(4)
    given = find_k_fan(g, 0, [1, 2, 3], 3)
    out = extend_fan(g, given, 3)
    assert out.k == 3
    assert set(given.endpoints) <= set(out.endpoints)


def test_extend_fan_rejects_underconnected():
    with pytest.raises(GraphError, match="not 3-connected"):
        extend_fan(cycle(5), Fan(origin=0, targets=(1, 2, 3), paths=((0, 1),)), 3)


def test_extend_fan_violations_are_their_messages(monkeypatch):
    import wheelfree.connectivity

    # both guarantees of extend_fan fail only if the flow does; fake it
    g = complete_bipartite(4)
    given = find_k_fan(g, 0, [4, 5, 6, 7], 2)
    monkeypatch.setattr(wheelfree.connectivity, "_fan_flow", lambda *a: (0, None))
    with pytest.raises(TheoremViolationError) as exc:
        extend_fan(g, given, 3)
    assert str(exc.value) == "could not extend a 2-fan to a 3-fan in a 3-connected graph"
    monkeypatch.setattr(wheelfree.connectivity, "_fan_flow", lambda *a: (3, None))
    monkeypatch.setattr(wheelfree.connectivity, "_extract_fan_paths",
                        lambda *a: [(0, 5), (0, 6), (0, 7)])
    with pytest.raises(TheoremViolationError) as exc:
        extend_fan(g, given, 3)
    assert str(exc.value) == "fan extension dropped an endpoint"


def test_fan_validation_catches_bad_paths():
    from wheelfree.errors import CertificateError

    g = cycle(5)
    with pytest.raises(CertificateError):
        Fan(origin=0, targets=(2,), paths=((0, 2),)).validate(g)  # non-edge


# a 2-fan of C_6 from 0 into {2, 4}; the non-edge branch is the test above
C6_FAN = Fan(origin=0, targets=(2, 4), paths=((0, 1, 2), (0, 5, 4)))


@pytest.mark.parametrize("error,changes", [
    (CertificateError, {"targets": (0, 2, 4)}),
    (CertificateError, {"paths": ((1, 2), (0, 5, 4))}),
    (CertificateError, {"paths": ((), (0, 5, 4))}),
    (CertificateError, {"paths": ((0, 1, 0, 5, 4),)}),
    (CertificateError, {"paths": ((0, 1), (0, 5, 4))}),
    (CertificateError, {"paths": ((0, 1, 2), (0, 5, 4, 3, 2))}),
    (CertificateError, {"paths": ((0, 1, 2), (0, 1, 2))}),
    (CertificateError, {"targets": (3,), "paths": ((0, 1, 2, 3), (0, 5, 4, 3))}),
    (GraphError, {"targets": (-1, 2, 4)}),
    (GraphError, {"origin": -1}),
], ids=["origin-in-targets", "wrong-start", "empty-path", "repeated-vertex", "end-outside-targets",
        "through-a-target", "shared-interior", "shared-end", "target-out-of-range",
        "origin-out-of-range"])
def test_fan_validation_rejects_each_planted_defect(error, changes):
    g = cycle(6)
    C6_FAN.validate(g)
    with pytest.raises(error):
        replace(C6_FAN, **changes).validate(g)


# -- pinned fan paths -----------------------------------------------------------
#
# From every origin x of four vertex-transitive graphs into its non-neighbours,
# with k = min(connectivity, number of targets): the k-fan found directly, the
# (k-1)-fan found directly and extended to k, and a one-path fan built by a
# depth-first search (so usually not a shortest path) extended to k.


def _dfs_path(g: Graph, x: int, y: int, avoid: set[int]):
    """First x-y path by ascending depth-first search outside ``avoid``, or None."""
    path, seen = [x], {x}

    def go(v: int) -> bool:
        for w in g.neighbors(v):
            if w == y:
                path.append(w)
                return True
            if w not in seen and w not in avoid:
                seen.add(w)
                path.append(w)
                if go(w):
                    return True
                path.pop()
        return False

    return tuple(path) if go(x) else None


def _fan_text(fan: Fan) -> str:
    return " | ".join(" ".join(map(str, p)) for p in fan.paths)


def _pinned_fan_lines(name: str, g: Graph):
    kappa = vertex_connectivity(g)
    for x in range(g.n):
        targets = tuple(y for y in range(g.n) if y != x and not g.has_edge(x, y))
        k = min(kappa, len(targets))
        sub = find_k_fan(g, x, targets, k - 1)
        long = next(p for y in reversed(targets) if (p := _dfs_path(g, x, y, set(targets))))
        long = Fan(x, targets, (long,))
        yield f"{name} {x} find {_fan_text(find_k_fan(g, x, targets, k))}"
        yield f"{name} {x} extend {_fan_text(sub)} -> {_fan_text(extend_fan(g, sub, k))}"
        yield f"{name} {x} extend {_fan_text(long)} -> {_fan_text(extend_fan(g, long, k))}"


_FAN_GOLDEN = (
    "petersen 0 find 0 1 2 | 0 4 3 | 0 5 7\n"
    "petersen 0 extend 0 1 2 | 0 4 3 -> 0 1 2 | 0 4 3 | 0 5 7\n"
    "petersen 0 extend 0 4 9 -> 0 1 2 | 0 4 9 | 0 5 7\n"
    "petersen 1 find 1 0 4 | 1 2 3 | 1 6 8\n"
    "petersen 1 extend 1 0 4 | 1 2 3 -> 1 0 4 | 1 2 3 | 1 6 8\n"
    "petersen 1 extend 1 6 9 -> 1 0 4 | 1 2 3 | 1 6 9\n"
    "petersen 2 find 2 1 0 | 2 3 4 | 2 7 5\n"
    "petersen 2 extend 2 1 0 | 2 3 4 -> 2 1 0 | 2 3 4 | 2 7 5\n"
    "petersen 2 extend 2 7 9 -> 2 1 0 | 2 3 4 | 2 7 9\n"
    "petersen 3 find 3 2 1 | 3 4 0 | 3 8 5\n"
    "petersen 3 extend 3 2 1 | 3 4 0 -> 3 2 1 | 3 4 0 | 3 8 5\n"
    "petersen 3 extend 3 4 9 -> 3 2 1 | 3 4 9 | 3 8 5\n"
    "petersen 4 find 4 0 1 | 4 3 2 | 4 9 6\n"
    "petersen 4 extend 4 0 1 | 4 3 2 -> 4 0 1 | 4 3 2 | 4 9 6\n"
    "petersen 4 extend 4 3 8 -> 4 0 1 | 4 3 8 | 4 9 6\n"
    "petersen 5 find 5 0 1 | 5 7 2 | 5 8 3\n"
    "petersen 5 extend 5 0 1 | 5 7 2 -> 5 0 1 | 5 7 2 | 5 8 3\n"
    "petersen 5 extend 5 7 9 -> 5 0 1 | 5 7 9 | 5 8 3\n"
    "petersen 6 find 6 1 0 | 6 8 3 | 6 9 4\n"
    "petersen 6 extend 6 1 0 | 6 8 3 -> 6 1 0 | 6 8 3 | 6 9 4\n"
    "petersen 6 extend 6 9 7 -> 6 1 0 | 6 8 3 | 6 9 7\n"
    "petersen 7 find 7 2 1 | 7 5 0 | 7 9 4\n"
    "petersen 7 extend 7 2 1 | 7 5 0 -> 7 2 1 | 7 5 0 | 7 9 4\n"
    "petersen 7 extend 7 5 8 -> 7 2 1 | 7 5 8 | 7 9 4\n"
    "petersen 8 find 8 3 2 | 8 5 0 | 8 6 1\n"
    "petersen 8 extend 8 3 2 | 8 5 0 -> 8 3 2 | 8 5 0 | 8 6 1\n"
    "petersen 8 extend 8 6 9 -> 8 3 2 | 8 5 0 | 8 6 9\n"
    "petersen 9 find 9 4 0 | 9 6 1 | 9 7 2\n"
    "petersen 9 extend 9 4 0 | 9 6 1 -> 9 4 0 | 9 6 1 | 9 7 2\n"
    "petersen 9 extend 9 6 8 -> 9 4 0 | 9 6 8 | 9 7 2\n"
    "k44 0 find 0 4 1 | 0 5 2 | 0 6 3\n"
    "k44 0 extend 0 4 1 | 0 5 2 -> 0 4 1 | 0 5 2 | 0 6 3\n"
    "k44 0 extend 0 4 3 -> 0 4 3 | 0 5 1 | 0 6 2\n"
    "k44 1 find 1 4 0 | 1 5 2 | 1 6 3\n"
    "k44 1 extend 1 4 0 | 1 5 2 -> 1 4 0 | 1 5 2 | 1 6 3\n"
    "k44 1 extend 1 4 3 -> 1 4 3 | 1 5 0 | 1 6 2\n"
    "k44 2 find 2 4 0 | 2 5 1 | 2 6 3\n"
    "k44 2 extend 2 4 0 | 2 5 1 -> 2 4 0 | 2 5 1 | 2 6 3\n"
    "k44 2 extend 2 4 3 -> 2 4 3 | 2 5 0 | 2 6 1\n"
    "k44 3 find 3 4 0 | 3 5 1 | 3 6 2\n"
    "k44 3 extend 3 4 0 | 3 5 1 -> 3 4 0 | 3 5 1 | 3 6 2\n"
    "k44 3 extend 3 4 2 -> 3 4 2 | 3 5 0 | 3 6 1\n"
    "k44 4 find 4 0 5 | 4 1 6 | 4 2 7\n"
    "k44 4 extend 4 0 5 | 4 1 6 -> 4 0 5 | 4 1 6 | 4 2 7\n"
    "k44 4 extend 4 0 7 -> 4 0 7 | 4 1 5 | 4 2 6\n"
    "k44 5 find 5 0 4 | 5 1 6 | 5 2 7\n"
    "k44 5 extend 5 0 4 | 5 1 6 -> 5 0 4 | 5 1 6 | 5 2 7\n"
    "k44 5 extend 5 0 7 -> 5 0 7 | 5 1 4 | 5 2 6\n"
    "k44 6 find 6 0 4 | 6 1 5 | 6 2 7\n"
    "k44 6 extend 6 0 4 | 6 1 5 -> 6 0 4 | 6 1 5 | 6 2 7\n"
    "k44 6 extend 6 0 7 -> 6 0 7 | 6 1 4 | 6 2 5\n"
    "k44 7 find 7 0 4 | 7 1 5 | 7 2 6\n"
    "k44 7 extend 7 0 4 | 7 1 5 -> 7 0 4 | 7 1 5 | 7 2 6\n"
    "k44 7 extend 7 0 6 -> 7 0 6 | 7 1 4 | 7 2 5\n"
    "c10_12 0 find 0 1 3 | 0 2 4 | 0 8 6 | 0 9 7\n"
    "c10_12 0 extend 0 1 3 | 0 2 4 | 0 8 6 -> 0 1 3 | 0 2 4 | 0 8 6 | 0 9 7\n"
    "c10_12 0 extend 0 1 9 7 -> 0 1 3 | 0 2 4 | 0 8 6 | 0 9 7\n"
    "c10_12 1 find 1 0 8 | 1 2 4 | 1 3 5 | 1 9 7\n"
    "c10_12 1 extend 1 0 8 | 1 2 4 | 1 3 5 -> 1 0 8 | 1 2 4 | 1 3 5 | 1 9 7\n"
    "c10_12 1 extend 1 0 8 -> 1 0 8 | 1 2 4 | 1 3 5 | 1 9 7\n"
    "c10_12 2 find 2 0 8 | 2 1 9 | 2 3 5 | 2 4 6\n"
    "c10_12 2 extend 2 0 8 | 2 1 9 | 2 3 5 -> 2 0 8 | 2 1 9 | 2 3 5 | 2 4 6\n"
    "c10_12 2 extend 2 0 1 9 -> 2 0 8 | 2 1 9 | 2 3 5 | 2 4 6\n"
    "c10_12 3 find 3 1 9 | 3 2 0 | 3 4 6 | 3 5 7\n"
    "c10_12 3 extend 3 1 0 | 3 4 6 | 3 5 7 -> 3 1 9 | 3 2 0 | 3 4 6 | 3 5 7\n"
    "c10_12 3 extend 3 1 9 -> 3 1 9 | 3 2 0 | 3 4 6 | 3 5 7\n"
    "c10_12 4 find 4 2 0 | 4 3 1 | 4 5 7 | 4 6 8\n"
    "c10_12 4 extend 4 2 0 | 4 3 1 | 4 5 7 -> 4 2 0 | 4 3 1 | 4 5 7 | 4 6 8\n"
    "c10_12 4 extend 4 2 3 5 6 8 -> 4 2 0 | 4 3 1 | 4 5 7 | 4 6 8\n"
    "c10_12 5 find 5 3 1 | 5 4 2 | 5 6 8 | 5 7 9\n"
    "c10_12 5 extend 5 3 1 | 5 4 2 | 5 6 8 -> 5 3 1 | 5 4 2 | 5 6 8 | 5 7 9\n"
    "c10_12 5 extend 5 3 4 6 7 9 -> 5 3 1 | 5 4 2 | 5 6 8 | 5 7 9\n"
    "c10_12 6 find 6 4 2 | 6 5 3 | 6 7 9 | 6 8 0\n"
    "c10_12 6 extend 6 4 2 | 6 5 3 | 6 7 9 -> 6 4 2 | 6 5 3 | 6 7 9 | 6 8 0\n"
    "c10_12 6 extend 6 4 5 7 8 9 -> 6 4 2 | 6 5 3 | 6 7 9 | 6 8 0\n"
    "c10_12 7 find 7 5 3 | 7 6 4 | 7 8 0 | 7 9 1\n"
    "c10_12 7 extend 7 5 3 | 7 6 4 | 7 8 0 -> 7 5 3 | 7 6 4 | 7 8 0 | 7 9 1\n"
    "c10_12 7 extend 7 5 4 -> 7 5 3 | 7 6 4 | 7 8 0 | 7 9 1\n"
    "c10_12 8 find 8 0 2 | 8 6 4 | 8 7 5 | 8 9 1\n"
    "c10_12 8 extend 8 0 1 | 8 6 4 | 8 7 5 -> 8 0 2 | 8 6 4 | 8 7 5 | 8 9 1\n"
    "c10_12 8 extend 8 0 9 7 5 -> 8 0 2 | 8 6 4 | 8 7 5 | 8 9 1\n"
    "c10_12 9 find 9 0 2 | 9 1 3 | 9 7 5 | 9 8 6\n"
    "c10_12 9 extend 9 0 2 | 9 1 3 | 9 7 5 -> 9 0 2 | 9 1 3 | 9 7 5 | 9 8 6\n"
    "c10_12 9 extend 9 0 8 6 -> 9 0 2 | 9 1 3 | 9 7 5 | 9 8 6\n"
    "icosahedron 0 find 0 1 6 | 0 2 7 | 0 3 8 | 0 4 9 | 0 5 10\n"
    "icosahedron 0 extend 0 1 6 | 0 2 7 | 0 3 8 | 0 4 9 -> 0 1 6 | 0 2 7 | 0 3 8 | 0 4 9 | 0 5 10\n"
    "icosahedron 0 extend 0 1 2 3 4 5 10 -> 0 1 6 | 0 2 7 | 0 3 8 | 0 4 9 | 0 5 10\n"
    "icosahedron 1 find 1 0 3 | 1 2 8 | 1 5 4 | 1 6 10 | 1 7 11\n"
    "icosahedron 1 extend 1 0 3 | 1 2 8 | 1 5 4 | 1 6 10 -> 1 0 3 | 1 2 8 | 1 5 4 | 1 6 10 | 1 7 11\n"
    "icosahedron 1 extend 1 0 2 7 6 11 -> 1 0 4 | 1 2 3 | 1 5 10 | 1 6 11 | 1 7 8\n"
    "icosahedron 2 find 2 0 4 | 2 1 5 | 2 3 9 | 2 7 6 | 2 8 11\n"
    "icosahedron 2 extend 2 0 4 | 2 1 5 | 2 3 9 | 2 7 6 -> 2 0 4 | 2 1 5 | 2 3 9 | 2 7 6 | 2 8 11\n"
    "icosahedron 2 extend 2 0 1 7 8 11 -> 2 0 4 | 2 1 5 | 2 3 9 | 2 7 6 | 2 8 11\n"
    "icosahedron 3 find 3 0 1 | 3 2 7 | 3 4 5 | 3 8 11 | 3 9 10\n"
    "icosahedron 3 extend 3 0 1 | 3 2 7 | 3 4 5 | 3 8 11 -> 3 0 1 | 3 2 7 | 3 4 5 | 3 8 11 | 3 9 10\n"
    "icosahedron 3 extend 3 0 2 8 9 11 -> 3 0 1 | 3 2 7 | 3 4 5 | 3 8 11 | 3 9 10\n"
    "icosahedron 4 find 4 0 1 | 4 3 2 | 4 5 6 | 4 9 8 | 4 10 11\n"
    "icosahedron 4 extend 4 0 1 | 4 3 2 | 4 5 6 | 4 9 8 -> 4 0 1 | 4 3 2 | 4 5 6 | 4 9 8 | 4 10 11\n"
    "icosahedron 4 extend 4 0 3 9 10 11 -> 4 0 1 | 4 3 2 | 4 5 6 | 4 9 8 | 4 10 11\n"
    "icosahedron 5 find 5 0 2 | 5 1 7 | 5 4 3 | 5 6 11 | 5 10 9\n"
    "icosahedron 5 extend 5 0 2 | 5 1 7 | 5 4 3 | 5 6 11 -> 5 0 2 | 5 1 7 | 5 4 3 | 5 6 11 | 5 10 9\n"
    "icosahedron 5 extend 5 0 1 6 10 11 -> 5 0 2 | 5 1 7 | 5 4 3 | 5 6 11 | 5 10 9\n"
    "icosahedron 6 find 6 1 0 | 6 5 4 | 6 7 2 | 6 10 9 | 6 11 8\n"
    "icosahedron 6 extend 6 1 0 | 6 5 4 | 6 7 2 | 6 10 9 -> 6 1 0 | 6 5 4 | 6 7 2 | 6 10 9 | 6 11 8\n"
    "icosahedron 6 extend 6 1 5 10 9 -> 6 1 0 | 6 5 4 | 6 7 2 | 6 10 9 | 6 11 8\n"
    "icosahedron 7 find 7 1 0 | 7 2 3 | 7 6 5 | 7 8 9 | 7 11 10\n"
    "icosahedron 7 extend 7 1 0 | 7 2 3 | 7 6 5 | 7 8 9 -> 7 1 0 | 7 2 3 | 7 6 5 | 7 8 9 | 7 11 10\n"
    "icosahedron 7 extend 7 1 2 8 11 6 10 -> 7 1 5 | 7 2 0 | 7 6 10 | 7 8 3 | 7 11 9\n"
    "icosahedron 8 find 8 2 0 | 8 3 4 | 8 7 1 | 8 9 10 | 8 11 6\n"
    "icosahedron 8 extend 8 2 0 | 8 3 4 | 8 7 1 | 8 9 10 -> 8 2 0 | 8 3 4 | 8 7 1 | 8 9 10 | 8 11 6\n"
    "icosahedron 8 extend 8 2 3 9 10 -> 8 2 0 | 8 3 4 | 8 7 1 | 8 9 10 | 8 11 6\n"
    "icosahedron 9 find 9 3 0 | 9 4 5 | 9 8 2 | 9 10 6 | 9 11 7\n"
    "icosahedron 9 extend 9 3 0 | 9 4 5 | 9 8 2 | 9 10 6 -> 9 3 0 | 9 4 5 | 9 8 2 | 9 10 6 | 9 11 7\n"
    "icosahedron 9 extend 9 3 4 10 11 7 -> 9 3 0 | 9 4 5 | 9 8 2 | 9 10 6 | 9 11 7\n"
    "icosahedron 10 find 10 4 0 | 10 5 1 | 10 6 7 | 10 9 3 | 10 11 8\n"
    "icosahedron 10 extend 10 4 0 | 10 5 1 | 10 6 7 | 10 9 3 -> 10 4 0 | 10 5 1 | 10 6 7 | 10 9 3 | 10 11 8\n"
    "icosahedron 10 extend 10 4 5 6 11 8 -> 10 4 0 | 10 5 1 | 10 6 7 | 10 9 3 | 10 11 8\n"
    "icosahedron 11 find 11 6 1 | 11 7 2 | 11 8 3 | 11 9 4 | 11 10 5\n"
    "icosahedron 11 extend 11 6 1 | 11 7 2 | 11 8 3 | 11 9 4 -> 11 6 1 | 11 7 2 | 11 8 3 | 11 9 4 | 11 10 5\n"
    "icosahedron 11 extend 11 6 5 -> 11 6 5 | 11 7 1 | 11 8 2 | 11 9 3 | 11 10 4\n"
)


def test_fan_paths_golden():
    graphs = {
        "petersen": petersen(),
        "k44": complete_bipartite(4),
        "c10_12": circulant(10, (1, 2)),
        "icosahedron": icosahedron(),
    }
    lines = [line for name, g in graphs.items() for line in _pinned_fan_lines(name, g)]
    assert "".join(line + "\n" for line in lines) == _FAN_GOLDEN


# -- fragments and ends --------------------------------------------------------


def test_fragments_c5():
    # definition check over all 2^5 subsets: singletons and adjacent pairs
    frs = brute_fragments(cycle(5))
    singletons = [(v,) for v in range(5)]
    adjacent_pairs = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert sorted(frs) == sorted(singletons + adjacent_pairs)
    for f in singletons:
        assert f in frs


def test_fragments_complete_graph():
    with pytest.raises(NoFragmentsError):
        brute_fragments(complete(4))
    with pytest.raises(NoFragmentsError):
        brute_fragments(Graph(1))
    with pytest.raises(NoFragmentsError):
        brute_fragments(Graph(0))


def test_fragments_p3():
    assert brute_fragments(path(3)) == [(0,), (2,)]
    assert ends(path(3)) == [(0,), (2,)]


def test_is_fragment():
    c5 = cycle(5)
    assert is_fragment(c5, [0])
    assert is_fragment(c5, [0, 1])
    assert not is_fragment(c5, [0, 2])
    assert not is_fragment(c5, [0, 1, 2])  # complement-of-closure empty


def test_ends_c5():
    assert ends(cycle(5)) == [(0,), (1,), (2,), (3,), (4,)]


def test_ends_bowtie():
    assert ends(bowtie()) == [(1, 2), (3, 4)]


def test_budget_exceeded_distinguished():
    # only the subset scan has a budget; ends come from minimum cuts
    for n in (21, 25):
        g = Graph(n)
        with pytest.raises(BudgetExceededError):
            brute_fragments(g)
        assert ends(g) == [(v,) for v in range(n)]


def _minimal_fragments(g: Graph) -> list[tuple[int, ...]]:
    frs = [set(f) for f in brute_fragments(g)]
    return sorted(tuple(sorted(f)) for f in frs if not any(h < f for h in frs))


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_ends_match_fragment_scan_labeled_n6():
    for n in range(2, 7):
        for code in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_code(n, code)
            if not g.is_complete():
                assert ends(g) == _minimal_fragments(g), f"n={n} code={code}"


def test_ends_match_fragment_scan_classes_n7():
    for g in enumerate_graphs(7, dedup=True):
        if not g.is_complete():
            assert ends(g) == _minimal_fragments(g), f"code={g.edge_code()}"


def test_ends_match_fragment_scan_random():
    rng = random.Random(8)
    kappas = set()
    for n in range(8, 15):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            for _ in range(3):
                g = _gnp(rng, n, p)
                if g.is_complete():
                    continue
                kappas.add(vertex_connectivity(g))
                assert ends(g) == _minimal_fragments(g), f"n={n} code={g.edge_code()}"
    assert {0, 1} <= kappas


def test_fragment_scan_survives_a_wrong_fast_connectivity(monkeypatch):
    import wheelfree.connectivity as conn

    # the scan finds kappa itself: a fast path that answers kappa - 1 for
    # kappa >= 2 changes the ends, not the scan, and the cross-check sees it.
    # Every fast route to kappa, vertex_connectivity and the threshold test
    # the pool filter uses alike, runs the one capped search.
    graphs = (cycle(5), bowtie(), petersen())
    kappas = [vertex_connectivity(g) for g in graphs]
    scans = [brute_fragments(g) for g in graphs]
    assert kappas == [2, 1, 3]
    real = conn._connectivity
    monkeypatch.setattr(conn, "_connectivity", lambda *a: real(*a) - (real(*a) >= 2))
    for g, kappa, scan in zip(graphs, kappas, scans):
        assert brute_fragments(g) == scan
        assert (ends(g) != _minimal_fragments(g)) == (kappa >= 2)


def test_ends_relabelling_invariant():
    rng = random.Random(9)
    for n, p in ((9, 0.3), (12, 0.5), (16, 0.4), (24, 0.25)):
        g = _gnp(rng, n, p)
        perm = list(range(n))
        rng.shuffle(perm)
        image = sorted(tuple(sorted(perm[v] for v in f)) for f in ends(g))
        assert ends(relabel(g, perm)) == image


def test_ends_past_scan_budget():
    # two K_11 joined by the matching 0-11, 1-12, 2-13: kappa 3, and the
    # ends are the two cliques minus their matched vertices
    edges = [(u, v) for side in (0, 11) for u in range(side, side + 11)
             for v in range(u + 1, side + 11)]
    g = Graph(22, edges + [(0, 11), (1, 12), (2, 13)])
    assert vertex_connectivity(g) == 3
    assert ends(g) == [tuple(range(3, 11)), tuple(range(14, 22))]
    assert ends(circulant(30, (1, 2))) == [(v,) for v in range(30)]


def test_two_disjoint_ends_small():
    for n in range(2, 6):
        for code in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_code(n, code)
            if not g.is_connected() or g.is_complete():
                continue
            es = ends(g)
            masks = [sum(1 << v for v in f) for f in es]
            assert any(
                masks[i] & masks[j] == 0
                for i in range(len(masks))
                for j in range(i + 1, len(masks))
            ), f"no two disjoint ends for n={n} code={code}"


# -- end blocks ------------------------------------------------------------------


def test_end_block_c5_singleton():
    block = end_block(cycle(5), [0])
    assert block.fragment == (0,)
    assert block.attachment == (1, 4)
    assert block.marker_edges == ((1, 4),)
    assert block.graph == complete(3)  # triangle after adding the marker


def test_end_block_p3_no_markers():
    block = end_block(path(3), [0])
    assert block.attachment == (1,)
    assert block.marker_edges == ()
    assert block.graph == complete(2)


def test_end_block_bowtie():
    block = end_block(bowtie(), [1, 2])
    assert block.attachment == (0,)
    assert block.marker_edges == ()
    assert block.graph == complete(3)


def test_end_block_rejects_non_end():
    with pytest.raises(GraphError, match="not an end"):
        end_block(cycle(5), [0, 1])  # a fragment but not an end


def test_end_block_verify_mode():
    # non-trivial end of a kappa=1 graph: block must be 2-connected
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])  # triangle with a pendant
    block = end_block(g, [1, 2])
    assert vertex_connectivity(block.graph) >= vertex_connectivity(g) + 1
    block.validate(g)


def _with_block_edge(block, u, v):
    """``block`` with the block edge between original vertices u and v added."""
    h, ids = block.graph, block.vertex_map
    return replace(block, graph=Graph(h.n, [*h.edges(), (ids[u], ids[v])]))


K33_PLUS_E = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)] + [(3, 4)])


@pytest.mark.parametrize("g,fragment,plant,error", [
    (cycle(5), (0,), lambda b: replace(b, fragment=(2,)), CertificateError),
    (cycle(5), (0,), lambda b: replace(b, fragment=(0, 2, 3)), CertificateError),
    (cycle(5), (0,), lambda b: replace(b, attachment=(1,)), CertificateError),
    (cycle(5), (0,), lambda b: replace(b, vertex_map={0: 1, 1: 0, 4: 2}), CertificateError),
    (parse_graph6("FICcW"), (1, 2, 3, 4, 5), lambda b: _with_block_edge(b, 1, 4), CertificateError),
    (K33_PLUS_E, (3, 4), lambda b: replace(b, marker_edges=()), CertificateError),
    (cycle(5), (0,), lambda b: replace(b, fragment=(5,)), GraphError),
], ids=["another-fragments-block", "not-a-fragment", "short-attachment", "swapped-ids",
        "extra-block-edge", "dropped-markers", "fragment-out-of-range"])
def test_end_block_validation_rejects_each_planted_defect(g, fragment, plant, error):
    block = end_block(g, fragment)
    block.validate(g)
    with pytest.raises(error):
        plant(block).validate(g)


def test_end_block_asserts_block_connectivity(monkeypatch):
    import wheelfree.connectivity

    # a block reported no more connected than its graph is a theorem violation
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    monkeypatch.setattr(wheelfree.connectivity, "vertex_connectivity", lambda h: 1)
    with pytest.raises(TheoremViolationError, match="not more connected"):
        end_block(g, [1, 2])
    assert end_block(g, [3]).graph == complete(2)  # trivial ends are not asserted
