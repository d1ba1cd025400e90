"""Reduction witnesses, constructive 4-coloring, and checkable forms of
the structural statements about k-wheel-free graphs.

The reduction fact driving everything: a 4-wheel-free graph always has a
vertex of degree at most 3 or a pair of twins (non-adjacent vertices
with equal neighborhoods), and the analogous statement for 3-wheel-free
graphs with degree bound 2.  ``reduction_witness`` takes that step once
on the whole graph; ``color4`` repeats the same step over a shrinking
live set and re-colors on the way back, which yields a proper coloring
with at most 4 colors.  Its trace is the witnesses themselves, in
removal order: each names the vertex it removes.  When the step finds
neither witness, the k-wheel it reports is found in G[live] and given
in the input's own ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterable

from .connectivity import _end_block, _ends, _is_k_connected
from .errors import (
    BudgetExceededError,
    CertificateError,
    GraphError,
    TheoremViolationError,
)
from .graph import Graph, bits
from .oracles import brute_chromatic_number
from .wheels import (
    Wheel,
    _almost_4_wheel_free_check,
    find_k_wheel,
    is_wheel_center,
)


# -------------------------------------------------------------------------
# witnesses
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class TwinPair:
    """Non-adjacent u < v with N(u) = N(v)."""

    u: int
    v: int


@dataclass(frozen=True)
class LowDegree:
    """A vertex whose degree is at most the mode's bound (3 for k=4)."""

    vertex: int
    bound: int


@dataclass(frozen=True)
class Stuck:
    """Reduction cannot continue: the graph contains a k-wheel."""

    wheel: Wheel


ReductionWitness = TwinPair | LowDegree | Stuck


def _twins(adj: tuple[int, ...], live: int) -> tuple[int, int] | None:
    """The lexicographically first pair u < v in ``live`` whose
    neighborhoods within ``live`` are equal, or None.

    Equal masks already force non-adjacency (an adjacent pair with equal
    neighborhoods would need a loop).
    """
    lv = list(bits(live))
    for i, u in enumerate(lv):
        au = adj[u] & live
        for v in lv[i + 1:]:
            if adj[v] & live == au:
                return (u, v)
    return None


def _witness(adj: tuple[int, ...], live: int, k: int) -> ReductionWitness:
    """The reduction step on the subgraph that the adjacency masks ``adj``
    induce on ``live``: the first vertex with at most k-1 neighbors in
    ``live``, else the first twin pair, else Stuck with a k-wheel of that
    subgraph in the masks' own ids, else TheoremViolationError.

    The wheel search runs on the masks with the rows outside ``live``
    emptied and the rest masked to ``live``, so removed vertices cannot be
    on a wheel.
    """
    m = live
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        if (adj[v] & live).bit_count() < k:
            return LowDegree(vertex=v, bound=k - 1)
    tw = _twins(adj, live)
    if tw is not None:
        return TwinPair(u=tw[0], v=tw[1])
    wheel = find_k_wheel(Graph._of(len(adj), (row & live if live >> v & 1 else 0
                                              for v, row in enumerate(adj))), k)
    if wheel is not None:
        return Stuck(wheel=wheel)
    raise TheoremViolationError(
        f"graph with min degree > {k - 1} and no twins contains no {k}-wheel")


def find_twins(g: Graph) -> tuple[int, int] | None:
    """The lexicographically first twin pair, or None."""
    return _twins(g.masks, (1 << g.n) - 1)


def reduction_witness(g: Graph, k: int = 4) -> ReductionWitness:
    """The first applicable witness: low degree, then twins, then a k-wheel.

    For k-wheel-free inputs one of the first two always exists; if no
    witness of any kind can be produced the impossible has happened and
    TheoremViolationError is raised for the caller, which holds g, to
    report as a counterexample.
    """
    if k not in (3, 4):
        raise GraphError("reduction modes are k=3 and k=4")
    if g.n < 1:
        raise GraphError("reduction needs at least one vertex")
    return _witness(g.masks, (1 << g.n) - 1, k)


# -------------------------------------------------------------------------
# coloring
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring with colors drawn from 0..palette-1; the
    palette is fixed at 4, the bound ``color4`` guarantees."""

    colors: tuple[int, ...]
    palette: ClassVar[int] = 4

    @property
    def colors_used(self) -> int:
        return len(set(self.colors))

    def validate(self, g: Graph) -> None:
        if len(self.colors) != g.n:
            raise CertificateError("coloring length differs from the vertex count")
        for c in self.colors:
            if not 0 <= c < self.palette:
                raise CertificateError(f"color {c} outside palette 0..{self.palette - 1}")
        for u, v in g.edges():
            if self.colors[u] == self.colors[v]:
                raise CertificateError(f"edge ({u},{v}) is monochromatic")


@dataclass
class ColoringResult:
    """Either a coloring with its full elimination trace, or the 4-wheel
    that stopped the reduction plus the partial trace.  The trace is the
    witnesses in removal order; each names the vertex it removes
    (``LowDegree.vertex``, ``TwinPair.u``), so replaying the removals from
    the input graph reproduces each witness's precondition."""

    coloring: Coloring | None
    trace: tuple[LowDegree | TwinPair, ...]
    stuck: Stuck | None = None

    @property
    def succeeded(self) -> bool:
        return self.coloring is not None


def color4(g: Graph) -> ColoringResult:
    """Constructive coloring by witness elimination, palette size 4.

    Low-degree vertices are removed and later given the least color
    missing from their neighborhood; the removed twin copies its
    partner's color.  Any subgraph of a 4-wheel-free graph is
    4-wheel-free, so on such inputs the reduction never gets stuck;
    otherwise the result carries the Stuck witness of the last step.
    """
    n = g.n
    adj = g.masks
    live = (1 << n) - 1
    trace = []
    while live:
        w = _witness(adj, live, 4)
        if isinstance(w, LowDegree):
            live &= ~(1 << w.vertex)
        elif isinstance(w, TwinPair):
            live &= ~(1 << w.u)
        else:
            return ColoringResult(coloring=None, trace=tuple(trace), stuck=w)
        trace.append(w)
    colors = [-1] * n
    for w in reversed(trace):
        if isinstance(w, LowDegree):
            taken = {colors[u] for u in bits(adj[w.vertex]) if colors[u] >= 0}
            c = 0
            while c in taken:
                c += 1
            colors[w.vertex] = c
        else:
            colors[w.u] = colors[w.v]
    return ColoringResult(coloring=Coloring(colors=tuple(colors)), trace=tuple(trace))


# -------------------------------------------------------------------------
# statement verifiers
# -------------------------------------------------------------------------


class VerifyStatus(Enum):
    PASS = "pass"
    NOT_APPLICABLE = "not-applicable"
    COUNTEREXAMPLE = "counterexample"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass
class VerifyResult:
    """A checker's verdict with its statement id.  Checkers return
    ``(status, detail[, certificates[, counters]])``, the fields after
    ``statement``, and ``verify_statement`` attaches the id."""

    statement: str
    status: VerifyStatus
    detail: str = ""
    certificates: tuple = ()
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return self.status is VerifyStatus.COUNTEREXAMPLE


def _wheel_verdict(g: Graph) -> tuple | None:
    """Not-applicable with a 4-wheel of g as evidence, or None when g is
    4-wheel-free."""
    wheel = find_k_wheel(g, 4)
    if wheel is None:
        return None
    return VerifyStatus.NOT_APPLICABLE, "contains a 4-wheel", (wheel,)


def _check_witness(g: Graph, k: int = 4) -> tuple:
    """k-wheel-free graphs have a twin pair or a vertex of degree <= k-1."""
    w = reduction_witness(g, k)
    if isinstance(w, LowDegree):
        return VerifyStatus.PASS, f"degree <= {w.bound} at {w.vertex}", (), {"low-degree": 1}
    if isinstance(w, TwinPair):
        return VerifyStatus.PASS, f"twins ({w.u},{w.v})", (), {"twins": 1}
    return VerifyStatus.NOT_APPLICABLE, f"contains a {k}-wheel", (w.wheel,), {"has-wheel": 1}


def _check_degree_bound(g: Graph) -> tuple:
    """4-wheel-free graphs have a vertex of degree at most 4."""
    if g.min_degree() <= 4:
        return VerifyStatus.PASS, "min degree <= 4"
    return _wheel_verdict(g) or (VerifyStatus.COUNTEREXAMPLE, "4-wheel-free with min degree > 4")


def _check_coloring(g: Graph) -> tuple:
    """4-wheel-free graphs are 4-colorable, constructively and by oracle."""
    verdict = _wheel_verdict(g)
    if verdict is not None:
        return verdict
    result = color4(g)
    if not result.succeeded:
        return (VerifyStatus.COUNTEREXAMPLE, "reduction got stuck on a 4-wheel-free graph",
                (result.stuck.wheel,))
    try:
        result.coloring.validate(g)
    except CertificateError as exc:
        return VerifyStatus.COUNTEREXAMPLE, f"improper coloring: {exc}"
    chi = brute_chromatic_number(g)
    if chi > 4:
        return VerifyStatus.COUNTEREXAMPLE, f"oracle chromatic number {chi} > 4"
    return VerifyStatus.PASS, f"colored with {result.coloring.colors_used}, oracle chi = {chi}"


def _is_k44(g: Graph) -> bool:
    """K_{4,4} by definition: the part P of vertex 0 (0 and its non-neighbours)
    has 4 vertices, and each vertex is adjacent to exactly the other part."""
    if g.n != 8:
        return False
    adj = g.masks
    part = 0xFF & ~adj[0]
    return part.bit_count() == 4 and all(
        adj[v] == (0xFF & ~part if (part >> v) & 1 else part) for v in range(8)
    )


def _check_four_connected(g: Graph) -> tuple:
    """A 4-connected, almost-4-wheel-free graph is K_{4,4}."""
    almost, centers = _almost_4_wheel_free_check(g)
    if not almost:
        return VerifyStatus.NOT_APPLICABLE, f"not almost 4-wheel-free ({len(centers)}+ centers)"
    if _is_k44(g):
        return VerifyStatus.PASS, "isomorphic to K_{4,4}"
    return (VerifyStatus.COUNTEREXAMPLE,
            f"almost 4-wheel-free, 4-connected, centers {centers}, not K_{{4,4}}")


def _check_ends_of_3_connected(g: Graph) -> tuple:
    """With connectivity exactly 3, ends avoiding all 4-wheel centers are trivial."""
    if g.is_complete():
        return VerifyStatus.PASS, "no ends (complete graph)"
    end_list = _ends(g, 3)
    for f in end_list:
        if len(f) == 1:
            continue
        if not any(is_wheel_center(g, v, 4) is not None for v in f):
            return VerifyStatus.COUNTEREXAMPLE, f"non-trivial end {f} with no 4-wheel center"
    return VerifyStatus.PASS, f"{len(end_list)} ends checked"


def _check_two_degree_three(g: Graph) -> tuple:
    """4-wheel-free graphs of connectivity 3 have two vertices of degree 3."""
    count = sum(1 for a in g.masks if a.bit_count() == 3)
    if count >= 2:
        return VerifyStatus.PASS, f"{count} vertices of degree 3"
    return _wheel_verdict(g) or (
        VerifyStatus.COUNTEREXAMPLE, f"4-wheel-free, kappa 3, only {count} vertices of degree 3")


def _check_ends_of_2_connected(g: Graph) -> tuple:
    """4-wheel-free, connectivity 2: every end has a vertex of degree <= 3
    in the ambient graph, or its end block is K_{4,4}."""
    verdict = _wheel_verdict(g)
    if verdict is not None:
        return verdict
    counters = {"low-degree-branch": 0, "k44-block-branch": 0}
    if g.is_complete():
        return VerifyStatus.PASS, "no ends (complete graph)", (), counters
    end_list = _ends(g, 2)
    for f in end_list:
        if any(g.masks[v].bit_count() <= 3 for v in f):
            counters["low-degree-branch"] += 1
            continue
        block = _end_block(g, g.vertex_mask(f))
        if _is_k44(block.graph):
            counters["k44-block-branch"] += 1
            continue
        return (VerifyStatus.COUNTEREXAMPLE,
                f"end {f}: no low-degree vertex and block is not K_{{4,4}}", (), counters)
    return VerifyStatus.PASS, f"{len(end_list)} ends checked", (), counters


def _check_five_connected_centers(g: Graph) -> tuple:
    """5-connected graphs: every vertex is a 4-wheel center."""
    missing = [v for v in g.vertices() if is_wheel_center(g, v, 4) is None]
    if missing:
        return VerifyStatus.COUNTEREXAMPLE, f"vertices {missing} are not 4-wheel centers"
    return VerifyStatus.PASS, "all vertices are centers"


def _check_triangle_centers(g: Graph) -> tuple:
    """4-connected graphs: every vertex on a triangle is a 4-wheel center."""
    adj = g.masks
    in_triangle = [v for v in g.vertices()
                   if any(adj[u] & adj[v] for u in bits(adj[v]))]
    if not in_triangle:
        return VerifyStatus.PASS, "triangle-free (vacuous)"
    missing = [v for v in in_triangle if is_wheel_center(g, v, 4) is None]
    if missing:
        return VerifyStatus.COUNTEREXAMPLE, f"triangle vertices {missing} are not centers"
    return VerifyStatus.PASS, f"{len(in_triangle)} triangle vertices are all centers"


# id -> (statement, connectivity hypothesis, checker).  A hypothesis (k, exactly)
# is "connectivity exactly k" with ``exactly`` and "k-connected" without; only
# ``verify_statement`` tests it, before the checker runs.
STATEMENTS = {
    "thm-4.8": ("4-wheel-free: twin pair or a vertex of degree <= 3", None, _check_witness),
    "thm-1.4": ("alias of thm-4.8", None, _check_witness),
    "thm-1.1": ("3-wheel-free: twin pair or a vertex of degree <= 2", None,
                lambda g: _check_witness(g, 3)),
    "thm-1.2": ("4-wheel-free: some vertex has degree <= 4", None, _check_degree_bound),
    "cor-1.5": ("4-wheel-free graphs are 4-colorable", None, _check_coloring),
    "thm-4.4": ("4-connected almost-4-wheel-free graphs are K_{4,4}", (4, False),
                _check_four_connected),
    "thm-4.5": ("kappa=3: ends without 4-wheel centers are trivial", (3, True),
                _check_ends_of_3_connected),
    "cor-4.6": ("4-wheel-free, kappa=3: two vertices of degree 3", (3, True),
                _check_two_degree_three),
    "thm-4.7": ("4-wheel-free, kappa=2: low-degree vertex in each end or K_{4,4} block",
                (2, True), _check_ends_of_2_connected),
    "lemma-4.2": ("5-connected: every vertex centers a 4-wheel", (5, False),
                  _check_five_connected_centers),
    "lemma-4.3": ("4-connected: triangle vertices center 4-wheels", (4, False),
                  _check_triangle_centers),
}


def _unknown_statement(statement: str) -> GraphError:
    return GraphError(f"unknown statement {statement!r}; known: {sorted(STATEMENTS)}")


def verify_statement(g: Graph, statement: str) -> VerifyResult:
    """Run one statement checker; see STATEMENTS for the catalog.

    Returns pass, not-applicable (preconditions unmet, with evidence),
    budget-exceeded, or a counterexample report that would constitute a
    disproof.  The empty graph is not-applicable for every statement, and
    so is a graph that fails the statement's connectivity hypothesis,
    with detail ``connectivity != k`` or ``not k-connected``.
    This is where every verdict gets its id and where a
    TheoremViolationError raised by a checker becomes a counterexample.
    """
    try:
        _, hypothesis, checker = STATEMENTS[statement]
    except KeyError:
        raise _unknown_statement(statement) from None
    if g.n == 0:
        verdict = VerifyStatus.NOT_APPLICABLE, "empty graph"
    elif hypothesis is not None and not _is_k_connected(g, *hypothesis):
        k, exactly = hypothesis
        verdict = VerifyStatus.NOT_APPLICABLE, (
            f"connectivity != {k}" if exactly else f"not {k}-connected")
    else:
        try:
            verdict = checker(g)
        except BudgetExceededError as exc:
            verdict = VerifyStatus.BUDGET_EXCEEDED, str(exc)
        except TheoremViolationError as exc:
            verdict = VerifyStatus.COUNTEREXAMPLE, str(exc)
    return VerifyResult(statement, *verdict)


@dataclass
class PoolReport:
    """One statement's verdicts over a pool: graphs per status, the
    checkers' counters summed, and each counterexample with its graph."""

    counts: Counter[VerifyStatus] = field(default_factory=Counter)
    counters: Counter[str] = field(default_factory=Counter)
    counterexamples: list[tuple[Graph, VerifyResult]] = field(default_factory=list)

    def add(self, g: Graph, result: VerifyResult) -> None:
        self.counts[result.status] += 1
        for key, count in result.counters.items():
            self.counters[key] += count
        if result.violated:
            self.counterexamples.append((g, result))


def verify_pool(pool: Iterable[Graph], statement: str) -> PoolReport:
    """``verify_statement`` over every graph of ``pool``, tallied.  An
    unknown id is refused before the walk, so an empty pool cannot hide it."""
    if statement not in STATEMENTS:
        raise _unknown_statement(statement)
    report = PoolReport()
    for g in pool:
        report.add(g, verify_statement(g, statement))
    return report
