"""Acceptance suite: every structural claim checked exhaustively at desk
scale against independent brute force, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The whole suite is single-process and deterministic; the
full test run, this suite included, took 364 s and 418 s (439 tests) in
two runs on a shared 2-CPU machine (Python 3.11).
"""

import time
from itertools import combinations, permutations

import pytest

from wheelfree import (
    Graph,
    GraphError,
    PoolReport,
    VerifyStatus,
    brute_chromatic_number,
    brute_has_k_wheel,
    brute_vertex_connectivity,
    canonical_form,
    complete,
    complete_bipartite,
    curated_pool,
    end_block,
    ends,
    enumerate_graphs,
    extend_fan,
    find_cycle_through,
    find_cycle_through_edge,
    find_k_fan,
    find_k_wheel,
    parse_dimacs_col,
    parse_edge_list,
    parse_graph6,
    random_pool,
    relabel,
    tight_example,
    to_dimacs_col,
    to_edge_list,
    to_graph6,
    verify_pool,
    verify_statement,
    vertex_connectivity,
)
from wheelfree.oracles import _iter_cycles
from wheelfree.wheels import is_cycle

N7_CODES = 1 << 21


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


# -------------------------------------------------------------------------
# shared exhaustive survey over all labeled graphs with n <= 7
# -------------------------------------------------------------------------


class Survey:
    def __init__(self):
        self.total = 0
        self.kappa_disagreements = []
        self.wheel_disagreements = []
        self.kappa_hist = {}
        self.wheel_free_count = 0
        self.reports = {sid: PoolReport() for sid in ("thm-4.4", "thm-4.5", "cor-4.6", "thm-4.7")}
        self.thm47_branches = self.reports["thm-4.7"].counters
        self.elapsed = 0.0

    def verify(self, g, *sids):
        for sid in sids:
            self.reports[sid].add(g, verify_statement(g, sid))


@pytest.fixture(scope="module")
def survey():
    """One pass over all 2,131,019 labeled graphs on 1..7 vertices:
    connectivity and wheel detection against their oracles, plus the
    connectivity-classified statement checkers."""
    s = Survey()
    started = time.perf_counter()
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            s.total += 1
            kf = vertex_connectivity(g)
            kb = brute_vertex_connectivity(g)
            if kf != kb:
                s.kappa_disagreements.append((n, g.edge_code(), kf, kb))
            s.kappa_hist[kf] = s.kappa_hist.get(kf, 0) + 1
            wf = find_k_wheel(g, 4)
            wb = brute_has_k_wheel(g, 4)
            if (wf is None) != (wb is None):
                s.wheel_disagreements.append((n, g.edge_code()))
            if wf is not None:
                wf.validate(g, 4)
            else:
                s.wheel_free_count += 1
            if kf >= 4:
                s.verify(g, "thm-4.4")
            elif kf == 3:
                s.verify(g, "cor-4.6", "thm-4.5")
            elif kf == 2:
                s.verify(g, "thm-4.7")
    s.elapsed = time.perf_counter() - started
    return s


# -------------------------------------------------------------------------
# criterion 1: reduction witness over all labeled graphs on 7 vertices
# -------------------------------------------------------------------------


def test_criterion_01_reduction_exhaustive_n7():
    started = time.perf_counter()
    counts = verify_pool(enumerate_graphs(7), "thm-4.8").counts
    violations = counts[VerifyStatus.COUNTEREXAMPLE]
    elapsed = time.perf_counter() - started
    total = sum(counts.values())
    ok = violations == 0 and total == N7_CODES and elapsed < 600
    _report(
        1,
        ok,
        f"thm-4.8 over {total} labeled n=7 graphs: pass={counts[VerifyStatus.PASS]} "
        f"with-wheel={counts[VerifyStatus.NOT_APPLICABLE]} violations={violations} "
        f"in {elapsed:.0f}s (budget 600s)",
    )


# -------------------------------------------------------------------------
# criterion 2: constructive coloring on the same pool
# -------------------------------------------------------------------------


def test_criterion_02_coloring_exhaustive_n7():
    started = time.perf_counter()
    counts = verify_pool(enumerate_graphs(7), "cor-1.5").counts
    colored = counts[VerifyStatus.PASS]
    skipped = counts[VerifyStatus.NOT_APPLICABLE]
    violations = counts[VerifyStatus.COUNTEREXAMPLE]
    elapsed = time.perf_counter() - started
    ok = violations == 0 and colored + skipped == N7_CODES
    _report(
        2,
        ok,
        f"cor-1.5 over {colored + skipped} graphs: colored-and-oracle-confirmed={colored} "
        f"with-wheel={skipped} violations={violations} in {elapsed:.0f}s",
    )


# -------------------------------------------------------------------------
# criterion 3: the 3-wheel mode over all graphs with n <= 7
# -------------------------------------------------------------------------


def test_criterion_03_three_wheel_reduction():
    started = time.perf_counter()
    counts = verify_pool((g for n in range(1, 8) for g in enumerate_graphs(n)), "thm-1.1").counts
    violations = counts[VerifyStatus.COUNTEREXAMPLE]
    total = sum(counts.values())
    elapsed = time.perf_counter() - started
    ok = violations == 0
    _report(
        3,
        ok,
        f"thm-1.1 over {total} graphs n<=7: pass={counts[VerifyStatus.PASS]} "
        f"with-wheel={counts[VerifyStatus.NOT_APPLICABLE]} violations={violations} "
        f"in {elapsed:.0f}s",
    )


# -------------------------------------------------------------------------
# criterion 4: the 4-connected characterization
# -------------------------------------------------------------------------


def test_criterion_04a_k44_passes():
    r = verify_statement(complete_bipartite(4), "thm-4.4")
    _report("4a", r.status is VerifyStatus.PASS, f"K_{{4,4}}: {r.status.value} ({r.detail})")


def test_criterion_04b_vacuous_below_eight(survey):
    counts = survey.reports["thm-4.4"].counts
    applicable = counts[VerifyStatus.PASS] + counts[VerifyStatus.COUNTEREXAMPLE]
    ok = applicable == 0 and counts[VerifyStatus.COUNTEREXAMPLE] == 0
    _report(
        "4b",
        ok,
        f"n<=7: 4-connected graphs checked={sum(counts.values())}, "
        f"almost-4-wheel-free found={applicable} (vacuous pass expected)",
    )


def test_criterion_04c_pool_8_to_10():
    started = time.perf_counter()
    pools = [curated_pool("thm44-seeds")]
    pools += [
        random_pool(8, 0.65, 801, 3400, connectivity_at_least=4),
        random_pool(9, 0.60, 901, 3400, connectivity_at_least=4),
        random_pool(10, 0.55, 1001, 3400, connectivity_at_least=4),
    ]
    total = 0
    almost = 0
    violations = 0
    k44_passes = 0
    for pool in pools:
        for g in pool:
            if not 8 <= g.n <= 10:
                continue
            total += 1
            r = verify_statement(g, "thm-4.4")
            if r.status is VerifyStatus.PASS:
                almost += 1
                k44_passes += 1
            elif r.violated:
                almost += 1
                violations += 1
    elapsed = time.perf_counter() - started
    ok = total >= 10_000 and violations == 0 and k44_passes >= 1 and elapsed < 1800
    _report(
        "4c",
        ok,
        f"{total} 4-connected graphs on 8..10 vertices: almost-4-wheel-free={almost}, "
        f"all isomorphic to K_{{4,4}} (violations={violations}) in {elapsed:.0f}s (budget 1800s)",
    )


# -------------------------------------------------------------------------
# criteria 5 and 6: connectivity-3 and connectivity-2 structure
# -------------------------------------------------------------------------


def test_criterion_05a_kappa3_degree_three(survey):
    c46 = survey.reports["cor-4.6"].counts
    kappa3 = survey.kappa_hist.get(3, 0)
    violations = c46[VerifyStatus.COUNTEREXAMPLE]
    ok = violations == 0 and sum(c46.values()) == kappa3
    _report(
        "5a",
        ok,
        f"kappa=3 graphs n<=7: {kappa3}; cor-4.6 pass={c46[VerifyStatus.PASS]} "
        f"not-applicable={c46[VerifyStatus.NOT_APPLICABLE]} violations={violations}",
    )


def _brute_ends(g, kappa):
    """Inclusion-minimal vertex sets F with |N(F)| = kappa and V - F - N(F)
    non-empty, by a plain scan over all vertex subsets."""
    everything = set(range(g.n))
    frags = []
    for size in range(1, g.n):
        for f in map(frozenset, combinations(range(g.n), size)):
            nbrs = {w for v in f for w in g.neighbors(v)} - f
            if len(nbrs) == kappa and everything - f - nbrs:
                frags.append(f)
    return [f for f in frags if not any(h < f for h in frags)]


def _brute_4_wheel_centers(g):
    """Vertices with at least four neighbors on some cycle avoiding them,
    read off the list of all cycles."""
    cycles = [mask for mask, _ in _iter_cycles(g.masks, g.n)]
    return {
        v
        for v in range(g.n)
        if any(not (c >> v) & 1 and (g.masks[v] & c).bit_count() >= 4 for c in cycles)
    }


def _brute_thm45_status(g):
    """The thm-4.5 verdict for g from the definitions alone: connectivity
    by cutset enumeration, ends by subset scan, centers by cycle listing."""
    if brute_vertex_connectivity(g) != 3:
        return VerifyStatus.NOT_APPLICABLE
    centers = _brute_4_wheel_centers(g)
    if any(len(f) >= 2 and not f & centers for f in _brute_ends(g, 3)):
        return VerifyStatus.COUNTEREXAMPLE
    return VerifyStatus.PASS


def _k33_plus_edge_labelings():
    """graph6 codes of every labeled copy of K_{3,3} plus one edge inside a part."""
    k33e = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)] + [(0, 1)])
    return {to_graph6(relabel(k33e, p)) for p in permutations(range(6))}


def test_criterion_05b_kappa3_ends_without_centers(survey):
    """Settles the cataloged thm-4.5 over every kappa=3 graph with n <= 7:
    "with connectivity 3, every end containing no 4-wheel center is a single
    vertex".  As written the statement is false, so expecting zero
    violations was wrong.  Take K_{3,3} with parts {a,b,c}, {x,y,z} and add
    the edge ab.  Connectivity is 3 and N({a,b}) = {x,y,z}; {a} and {b} have
    four neighbors each, so neither is a fragment and {a,b} is an end.  G - a
    is K_{2,3}, whose longest cycle has four vertices, so no cycle avoiding a
    passes through b, x, y, z: a is no 4-wheel center, and neither is b.

    What is asserted instead, with zero tolerance against a test-local
    evaluation from the definitions (``_brute_thm45_status``, which uses
    none of the fast connectivity, end or wheel code):
    (a) every kappa=3 graph gets pass or counterexample, never
        budget-exceeded or not-applicable;
    (b) every reported counterexample is confirmed by that evaluation;
    (c) none is missed: the checker agrees with it on every labeled graph
        with n <= 6 and on every isomorphism class with n = 7 (the statement
        does not depend on labels);
    (d) the counterexamples are exactly the 60 labelings of K_{3,3}+e, so
        there are none at n = 7.
    """
    c45 = survey.reports["thm-4.5"].counts
    kappa3 = survey.kappa_hist.get(3, 0)
    passed = c45[VerifyStatus.PASS]
    violations = c45[VerifyStatus.COUNTEREXAMPLE]
    found = [to_graph6(g) for g, _ in survey.reports["thm-4.5"].counterexamples]
    failures = []

    # (a) every kappa=3 graph gets a verdict
    if passed + violations != kappa3 or sum(c45.values()) != kappa3:
        failures.append(
            f"(a) unsettled: budget-exceeded={c45[VerifyStatus.BUDGET_EXCEEDED]} "
            f"not-applicable={c45[VerifyStatus.NOT_APPLICABLE]} of {kappa3}"
        )

    # (b) every reported counterexample is genuine
    if len(found) != violations:
        failures.append(f"(b) {violations} counterexamples counted, {len(found)} kept")
    spurious = [
        code
        for code in found
        if _brute_thm45_status(parse_graph6(code)) is not VerifyStatus.COUNTEREXAMPLE
    ]
    if spurious:
        failures.append(f"(b) spurious counterexamples {spurious[:8]}")

    # (c) no counterexample is missed
    labeled = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    classes7 = list(enumerate_graphs(7, dedup=True))
    disagreements = []
    for g in labeled + classes7:
        got = verify_statement(g, "thm-4.5").status
        want = _brute_thm45_status(g)
        if got is not want:
            disagreements.append(f"{to_graph6(g)} checker={got.value} brute={want.value}")
    if disagreements:
        failures.append(f"(c) {len(disagreements)} disagreements, e.g. {disagreements[:8]}")

    # (d) the refutation is the documented one
    expected = _k33_plus_edge_labelings()
    at_n7 = sum(1 for code in found if parse_graph6(code).n == 7)
    if len(found) != len(expected) or set(found) != expected:
        failures.append(
            f"(d) not exactly the {len(expected)} labelings of K_{{3,3}}+e: "
            f"unexpected {sorted(set(found) - expected)[:8]} "
            f"missing {sorted(expected - set(found))[:8]}"
        )

    verdict = "REFUTED" if not failures else "refutation not confirmed"
    detail = (
        f"thm-4.5 as cataloged: {verdict}; kappa=3 graphs n<=7: {kappa3}; "
        f"pass={passed} counterexamples={violations} (n=7: {at_n7}; labelings of "
        f"K_{{3,3}}+e: {len(expected & set(found))}/{len(expected)}); brute evaluation over "
        f"{len(labeled)} labeled graphs n<=6 and {len(classes7)} classes n=7: "
        f"disagreements={len(disagreements)}"
    )
    if failures:
        detail += " :: " + "; ".join(failures)
    _report("5b", not failures, detail)


def _expand(g, v):
    """Replace the degree-3 vertex v by a triangle (v, n, n+1) whose
    vertices take v's old neighbors one each, in order; returns the graph
    and the new triangle."""
    a, b, c = g.neighbors(v)
    n = g.n
    edges = [e for e in g.edges() if v not in e]
    edges += [(v, a), (n, b), (n + 1, c), (v, n), (v, n + 1), (n, n + 1)]
    return Graph(n + 2, edges), (v, n, n + 1)


def test_criterion_05c_thm45_triangle_expansion_family():
    """The thm-4.5 refutation of 5b is not isolated.  Start from K_{3,3}
    with parts {0,1,2}, {3,4,5} plus the edge 3-4, replace vertex 5 by a
    triangle, then keep replacing each vertex of the newest triangle.  Every
    member up to n = 12 is 4-wheel-free, keeps {3,4} as an end without a
    4-wheel center and is a counterexample by the checker and by
    ``_brute_thm45_status``.  The members fall into one isomorphism class
    at n = 8, one at n = 10 and two at n = 12.  Expanding vertex 0 of the
    other part instead gives a pass."""
    k33e = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)] + [(3, 4)])
    levels = [[_expand(k33e, 5)]]
    while levels[-1][0][0].n < 12:
        levels.append([_expand(g, t) for g, tri in levels[-1] for t in tri])
    members = [g for level in levels for g, _ in level]
    classes = {level[0][0].n: sorted({to_graph6(canonical_form(g)) for g, _ in level})
               for level in levels}
    counts = [len(level) for level in levels]
    bad = [to_graph6(g) for g in members
           if brute_has_k_wheel(g, 4) is not None
           or (3, 4) not in ends(g)
           or verify_statement(g, "thm-4.5").status is not VerifyStatus.COUNTEREXAMPLE
           or _brute_thm45_status(g) is not VerifyStatus.COUNTEREXAMPLE]
    other = verify_statement(_expand(k33e, 0)[0], "thm-4.5").status
    ok = (counts == [1, 3, 9] and not bad and other is VerifyStatus.PASS and classes == {
        8: ["GxQ?w{"], 10: ["Iyc_O_F@w"], 12: ["KloPGOA@?B_N", "K{S_gOC?_B_N"]})
    _report("5c", ok, f"triangle expansions of K_{{3,3}}+e: members per level {counts}, "
                      f"classes {classes}, not counterexamples {bad}, "
                      f"expanding vertex 0 gives {other.value}")


def test_criterion_06_kappa2_structure(survey):
    c47 = survey.reports["thm-4.7"].counts
    kappa2 = survey.kappa_hist.get(2, 0)
    violations = c47[VerifyStatus.COUNTEREXAMPLE]
    examples = [(to_graph6(g), r.detail) for g, r in survey.reports["thm-4.7"].counterexamples]
    ok = (
        violations == 0
        and sum(c47.values()) == kappa2
        and survey.thm47_branches["k44-block-branch"] == 0  # unreachable below 8 vertices
    )
    _report(
        6,
        ok,
        f"kappa=2 graphs n<=7: {kappa2}; 4-wheel-free checked={c47[VerifyStatus.PASS]} "
        f"branches: low-degree={survey.thm47_branches['low-degree-branch']} "
        f"k44-block={survey.thm47_branches['k44-block-branch']} violations={violations}"
        + (f"; e.g. {[e[0] for e in examples[:4]]}" if examples else ""),
    )


# -------------------------------------------------------------------------
# criterion 7: the lemma / preliminary-machinery suites
# -------------------------------------------------------------------------


def _connected_classes(max_n):
    out = []
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n, dedup=True):
            if g.is_connected():
                out.append(g)
    return out


def test_criterion_07_property_suites():
    started = time.perf_counter()
    failures = []

    # Lemma 4.2: in 5-connected graphs every vertex centers a 4-wheel
    for g in curated_pool("lemma42"):
        r = verify_statement(g, "lemma-4.2")
        if r.status is not VerifyStatus.PASS:
            failures.append(f"lemma-4.2 on n={g.n}: {r.status.value}")

    # degree bound: a 4-wheel-free graph always has a vertex of degree <= 4
    # (implied by the main reduction but checked on its own)
    turner = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, dedup=True):
            r = verify_statement(g, "thm-1.2")
            if r.violated:
                failures.append(f"thm-1.2 n={g.n} code={g.edge_code()}")
            turner += 1

    # Lemma 4.3: in 4-connected graphs every triangle vertex is a center
    for g in curated_pool("four-connected"):
        r = verify_statement(g, "lemma-4.3")
        if r.status is not VerifyStatus.PASS:
            failures.append(f"lemma-4.3 on n={g.n}: {r.status.value}")

    classes = _connected_classes(7)
    t_classes = time.perf_counter() - started

    # cycle-through search against the independent cycle enumerator, every
    # target set of up to 5 vertices
    cyc_instances = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, dedup=True):
            cycle_masks = frozenset(mask for mask, _ in _iter_cycles(g.masks, g.n))
            for size in range(1, min(g.n, 5) + 1):
                for xs in combinations(range(g.n), size):
                    req = sum(1 << v for v in xs)
                    expected = any(mask & req == req for mask in cycle_masks)
                    got = find_cycle_through(g, xs)
                    if (got is not None) != expected:
                        failures.append(f"cycle-oracle n={g.n} code={g.edge_code()} X={xs}")
                    elif got is not None and not (is_cycle(g, got) and set(xs) <= set(got)):
                        failures.append(f"cycle-invalid n={g.n} code={g.edge_code()} X={xs}")
                    cyc_instances += 1

    # Dirac: cycles through any kappa vertices, and through any edge plus
    # kappa-1 vertices (classical form needs 2-connectivity)
    dirac_instances = 0
    for g in classes:
        k = vertex_connectivity(g)
        if k < 2:
            continue
        for xs in combinations(range(g.n), k):
            cyc = find_cycle_through(g, xs)
            if cyc is None or not is_cycle(g, cyc) or not set(xs) <= set(cyc):
                failures.append(f"dirac-1 n={g.n} code={g.edge_code()} X={xs}")
            dirac_instances += 1
        for e in g.edges():
            for xs in combinations(range(g.n), k - 1):
                cyc = find_cycle_through_edge(g, e, xs)
                ok = cyc is not None and is_cycle(g, cyc) and set(xs) <= set(cyc)
                if ok:
                    edges = {
                        tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)])))
                        for i in range(len(cyc))
                    }
                    ok = tuple(sorted(e)) in edges
                if not ok:
                    failures.append(f"dirac-2 n={g.n} code={g.edge_code()} e={e} X={xs}")
                dirac_instances += 1
    t_dirac = time.perf_counter() - started - t_classes

    # Fan lemma and its Perfect extension property
    fan_instances = 0
    extend_instances = 0
    for g in classes:
        k = vertex_connectivity(g)
        if k < 1:
            continue
        for x in range(g.n):
            others = [v for v in range(g.n) if v != x]
            for size in range(k, g.n):
                for ys in combinations(others, size):
                    fan = find_k_fan(g, x, ys, k)
                    if fan is None:
                        failures.append(f"fan n={g.n} code={g.edge_code()} x={x} Y={ys}")
                        continue
                    fan.validate(g)
                    fan_instances += 1
                    for k1 in range(1, k):
                        sub = find_k_fan(g, x, ys, k1)
                        if sub is None:
                            failures.append(f"sub-fan n={g.n} x={x} Y={ys} k1={k1}")
                            continue
                        bigger = extend_fan(g, sub, k)
                        bigger.validate(g)
                        if not set(sub.endpoints) <= set(bigger.endpoints):
                            failures.append(
                                f"perfect n={g.n} code={g.edge_code()} x={x} Y={ys} k1={k1}"
                            )
                        extend_instances += 1
    t_fan = time.perf_counter() - started - t_classes - t_dirac

    # end blocks of non-trivial ends are strictly more connected, and every
    # connected non-complete graph has two disjoint ends
    block_instances = 0
    for g in classes:
        if g.is_complete():
            continue
        k = vertex_connectivity(g)
        end_list = ends(g)
        masks = [sum(1 << v for v in f) for f in end_list]
        if not any(
            masks[i] & masks[j] == 0
            for i in range(len(masks))
            for j in range(i + 1, len(masks))
        ):
            failures.append(f"two-ends n={g.n} code={g.edge_code()}")
        for f in end_list:
            if len(f) < 2:
                continue
            block = end_block(g, f)
            block.validate(g)
            if vertex_connectivity(block.graph) < k + 1:
                failures.append(f"property-3.5 n={g.n} code={g.edge_code()} F={f}")
            block_instances += 1

    # Watkins-Mesner: whenever four neighbors of x admit no cycle in g - x,
    # a scattering cutset exists and validates
    wm_instances = 0
    wm_cycles = 0
    from wheelfree import wm_certificate

    for g in curated_pool("wm"):
        for x in range(g.n):
            for xs in combinations(g.neighbors(x), 4):
                try:
                    cert = wm_certificate(g, x, xs)
                except GraphError:
                    wm_cycles += 1  # a cycle covers the four: certificate meaningless
                    continue
                if cert is None:
                    failures.append(f"wm n={g.n} x={x} X={xs}: no certificate")
                    continue
                cert.validate(g)
                wm_instances += 1

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 900
    detail = (
        f"classes={len(classes)} degree-bound={turner} cycle-oracle={cyc_instances} "
        f"dirac={dirac_instances} fans={fan_instances} "
        f"extends={extend_instances} blocks={block_instances} wm-certified={wm_instances} "
        f"wm-cycle-cases={wm_cycles} failures={len(failures)} in {elapsed:.0f}s (budget 900s)"
    )
    if failures:
        detail += " :: " + "; ".join(failures[:5])
    _report(7, ok, detail)


# -------------------------------------------------------------------------
# criterion 8: tight constructions
# -------------------------------------------------------------------------


def test_criterion_08_tight_constructions():
    checks = []
    g4 = tight_example(4)
    checks.append(brute_has_k_wheel(g4, 4) is None)
    checks.append(brute_chromatic_number(g4) == 4)
    g5 = tight_example(5)
    checks.append(brute_has_k_wheel(g5, 5) is None)
    checks.append(brute_chromatic_number(g5) == 5)
    k4 = complete(4)
    checks.append(brute_has_k_wheel(k4, 4) is None)
    checks.append(brute_chromatic_number(k4) == 4)
    _report(
        8,
        all(checks),
        "tight_example(4): 4-wheel-free chi=4; tight_example(5): 5-wheel-free chi=5; "
        "K_4: 4-wheel-free chi=4",
    )


# -------------------------------------------------------------------------
# criterion 9: oracle agreement
# -------------------------------------------------------------------------


def test_criterion_09a_exhaustive_agreement(survey):
    ok = not survey.kappa_disagreements and not survey.wheel_disagreements
    _report(
        "9a",
        ok,
        f"{survey.total} graphs n<=7: kappa disagreements={len(survey.kappa_disagreements)} "
        f"wheel disagreements={len(survey.wheel_disagreements)} "
        f"(4-wheel-free count: {survey.wheel_free_count}; survey took {survey.elapsed:.0f}s)",
    )


def test_criterion_09b_random_agreement():
    started = time.perf_counter()
    total = 0
    mismatches = 0
    for n in (8, 9, 10):
        for p, seed in ((0.2, n * 100 + 1), (0.35, n * 100 + 2), (0.5, n * 100 + 3)):
            for g in random_pool(n, p, seed, 1200):
                total += 1
                if vertex_connectivity(g) != brute_vertex_connectivity(g):
                    mismatches += 1
                if (find_k_wheel(g, 4) is None) != (brute_has_k_wheel(g, 4) is None):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = total >= 10_000 and mismatches == 0
    _report(
        "9b",
        ok,
        f"{total} random graphs n=8..10: disagreements={mismatches} in {elapsed:.0f}s",
    )


# -------------------------------------------------------------------------
# criterion 10: parser round-trips and enumeration counts
# -------------------------------------------------------------------------


def test_criterion_10_parsers_and_counts():
    started = time.perf_counter()
    checked = 0
    bad = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            checked += 1
            if parse_graph6(to_graph6(g)) != g:
                bad += 1
            dim = to_dimacs_col(g)
            if parse_dimacs_col(dim) != g or to_dimacs_col(parse_dimacs_col(dim)) != dim:
                bad += 1
    rnd_checked = 0
    for n in range(2, 42):
        for g in random_pool(n, 0.3, 7000 + n, 250):
            rnd_checked += 1
            if parse_graph6(to_graph6(g)) != g:
                bad += 1
            el = to_edge_list(g)
            if parse_edge_list(el) != g or to_edge_list(parse_edge_list(el)) != el:
                bad += 1
    classes4 = sum(1 for _ in enumerate_graphs(4, dedup=True))
    classes5 = sum(1 for _ in enumerate_graphs(5, dedup=True))
    elapsed = time.perf_counter() - started
    ok = bad == 0 and rnd_checked >= 10_000 and classes4 == 11 and classes5 == 34
    _report(
        10,
        ok,
        f"round-trips: exhaustive n<=6 ({checked}) + random ({rnd_checked}), failures={bad}; "
        f"isomorphism classes: n=4 gives {classes4} (want 11), n=5 gives {classes5} (want 34) "
        f"in {elapsed:.0f}s",
    )


# -------------------------------------------------------------------------
# criterion 11: the catalog and the oracles over every class on 8 vertices
# -------------------------------------------------------------------------

N8_CLASSES = 12_346

# id -> (pass, not-applicable, counterexample) over the n=8 classes
N8_COUNTS = {
    "thm-4.8": (12_093, 253, 0),
    "thm-1.1": (10_577, 1_769, 0),
    "thm-1.2": (12_300, 46, 0),
    "cor-1.5": (4_000, 8_346, 0),
    "thm-4.4": (1, 12_345, 0),
    "thm-4.5": (2_003, 10_342, 1),
    "cor-4.6": (1_384, 10_962, 0),
    "thm-4.7": (1_148, 11_198, 0),
    "lemma-4.2": (39, 12_307, 0),
    "lemma-4.3": (384, 11_962, 0),
}


@pytest.fixture(scope="module")
def classes8():
    return list(enumerate_graphs(8, dedup=True))


@pytest.mark.parametrize("sid", N8_COUNTS)
def test_criterion_11a_catalog_exhaustive_n8(classes8, sid):
    """Every catalog id over the 12,346 classes on 8 vertices, with no
    budget exceeded.  The one thm-4.5 counterexample is the n=8 member of
    criterion 5c's family, and thm-4.7 settles every end of a kappa=2
    graph by its low-degree branch."""
    started = time.perf_counter()
    report = verify_pool(classes8, sid)
    counts = report.counts
    got = tuple(counts[status] for status in (
        VerifyStatus.PASS, VerifyStatus.NOT_APPLICABLE, VerifyStatus.COUNTEREXAMPLE))
    found = [to_graph6(canonical_form(g)) for g, _ in report.counterexamples]
    branches = {key: report.counters[key] for key in ("low-degree-branch", "k44-block-branch")}
    elapsed = time.perf_counter() - started
    ok = (len(classes8) == N8_CLASSES and got == N8_COUNTS[sid]
          and counts[VerifyStatus.BUDGET_EXCEEDED] == 0
          and found == (["GxQ?w{"] if sid == "thm-4.5" else [])
          and (sid != "thm-4.7"
               or branches == {"low-degree-branch": 3_503, "k44-block-branch": 0}))
    _report(
        f"11a {sid}",
        ok,
        f"{len(classes8)} classes n=8: pass={got[0]} not-applicable={got[1]} "
        f"counterexamples={got[2]} {found} budget-exceeded="
        f"{counts[VerifyStatus.BUDGET_EXCEEDED]} counters={dict(report.counters)} "
        f"in {elapsed:.1f}s (want {N8_COUNTS[sid]})",
    )


def test_criterion_11b_oracle_agreement_n8(classes8):
    kappa = [to_graph6(g) for g in classes8
             if vertex_connectivity(g) != brute_vertex_connectivity(g)]
    wheel = []
    for g in classes8:
        wf = find_k_wheel(g, 4)
        if (wf is None) != (brute_has_k_wheel(g, 4) is None):
            wheel.append(to_graph6(g))
        elif wf is not None:
            wf.validate(g, 4)
    ok = len(classes8) == N8_CLASSES and not kappa and not wheel
    _report("11b", ok, f"{len(classes8)} classes n=8: kappa disagreements={kappa[:8]} "
                       f"wheel disagreements={wheel[:8]}")
