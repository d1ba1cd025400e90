"""Wheel detection, cycles through prescribed vertices, and cutset
certificates for vertex sets that no cycle can cover.

The cycle searches are exact depth-first path searches with a
reachability prune.  Wheel detection at a center v is one bounded
search in G - v per neighbor s of v, taken in ascending order: is there
a cycle through s meeting at least k neighbors of v?  A branch is cut
when the neighbors on the path plus those still reachable fall short of
k, and each s that fails is deleted before the next search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator

from .connectivity import _is_k_connected
from .errors import CertificateError, GraphError, TheoremViolationError
from .graph import Graph, VertexSet, bits, induced_subgraph, reach


def normalize_cycle(seq) -> tuple[int, ...]:
    """Rotate to the smallest vertex and orient toward the smaller second."""
    seq = list(seq)
    k = seq.index(min(seq))
    seq = seq[k:] + seq[:k]
    if len(seq) > 2 and seq[-1] < seq[1]:
        seq = [seq[0]] + seq[:0:-1]
    return tuple(seq)


def is_cycle(g: Graph, seq) -> bool:
    """True iff ``seq`` lists the vertices of a cycle of g in order."""
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    return all(g.has_edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))


def _cycle_hitting(adj: tuple[int, ...], path: list[int], hit: int, k: int,
                   forbidden: int) -> list[int] | None:
    """A cycle that starts with the prefix ``path`` ([s] for a cycle
    through s, [b, a] for one through the edge ab), avoids ``forbidden``
    and contains at least k vertices of ``hit`` (prefix vertices count).

    Exact: returns None only when no such cycle exists.  A branch is cut
    only when the hits on the path plus the hits in the region it can
    still reach fall short of k, or when that region holds no neighbor of
    ``path[0]``.  Deterministic: neighbors are explored in ascending order.
    The list ``path`` is extended in place and returned on success.
    """
    startbit = 1 << path[0]
    adj_start = adj[path[0]]
    visited = startbit | 1 << path[-1]
    iters = [adj[path[-1]] & ~visited & ~forbidden]
    while iters:
        m = iters[-1]
        if not m:
            iters.pop()
            visited ^= 1 << path.pop()
            continue
        b = m & -m
        iters[-1] = m ^ b
        w = b.bit_length() - 1
        nvis = visited | b
        hits = (hit & nvis).bit_count()
        if len(path) >= 2 and (adj[w] & startbit) and hits >= k:
            path.append(w)
            return path
        cand = adj[w] & ~nvis & ~forbidden
        if not cand:
            continue
        # prune: the rest of the cycle lives in the unvisited region reachable
        # from w, and its last vertex is a neighbor of the start
        region = reach(adj, cand, ~nvis & ~forbidden)
        if hits + (hit & region).bit_count() < k:
            continue
        if not region & adj_start:
            continue
        path.append(w)
        visited = nvis
        iters.append(cand)
    return None


def find_cycle_through(g: Graph, targets: VertexSet) -> tuple[int, ...] | None:
    """A cycle of g through every vertex of ``targets``, or None.

    The search is exact, so None is a definitive absence.
    """
    req = g.vertex_mask(targets)
    if req == 0:
        raise GraphError("need at least one target vertex")
    found = _cycle_hitting(g.masks, [(req & -req).bit_length() - 1], req, req.bit_count(), 0)
    return normalize_cycle(found) if found else None


def find_cycle_through_edge(g: Graph, edge: tuple[int, int], targets: VertexSet) -> tuple[int, ...] | None:
    """A cycle using ``edge`` and passing through ``targets``, or None."""
    a, b = edge
    if not g.has_edge(a, b):
        raise GraphError(f"({a},{b}) is not an edge")
    hit = g.vertex_mask(targets) | 1 << a | 1 << b
    found = _cycle_hitting(g.masks, [b, a], hit, hit.bit_count(), 0)
    return normalize_cycle(found) if found else None


# -------------------------------------------------------------------------
# wheels
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class Wheel:
    """A cycle (the rim) plus a center outside it with spokes to the rim."""

    center: int
    rim: tuple[int, ...]
    spokes: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.spokes)

    def validate(self, g: Graph, k: int = 3) -> None:
        if not is_cycle(g, self.rim):
            raise CertificateError(f"rim {self.rim} is not a cycle of the graph")
        if self.center in self.rim:
            raise CertificateError("center lies on the rim")
        rim_set = set(self.rim)
        seen = set()
        for u, v in self.spokes:
            if u != self.center or v not in rim_set:
                raise CertificateError(f"spoke ({u},{v}) is not center-to-rim")
            if not g.has_edge(u, v):
                raise CertificateError(f"spoke ({u},{v}) is not an edge")
            if v in seen:
                raise CertificateError(f"duplicate spoke to {v}")
            seen.add(v)
        if len(self.spokes) < k:
            raise CertificateError(f"only {len(self.spokes)} spokes, need {k}")


def _wheel_at(g: Graph, v: int, rim: list[int]) -> Wheel:
    rim = normalize_cycle(rim)
    rim_mask = 0
    for w in rim:
        rim_mask |= 1 << w
    spokes = tuple((v, w) for w in bits(g.masks[v] & rim_mask))
    return Wheel(center=v, rim=rim, spokes=spokes)


def is_wheel_center(g: Graph, v: int, k: int) -> Wheel | None:
    """A k-wheel centered at v, or None (exact).

    One bounded search per neighbor s of v, in ascending order: look in
    G - v for a cycle through s that meets at least k neighbors of v.
    Once that fails, no k-wheel at v has s on its rim, so s is deleted
    before the next search; the loop stops when fewer than k neighbors
    remain.
    """
    if k < 3:
        raise GraphError("wheels need at least 3 spokes")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    adj = g.masks
    left = adj[v]
    forbidden = 1 << v
    while left.bit_count() >= k:
        sb = left & -left
        rim = _cycle_hitting(adj, [sb.bit_length() - 1], left, k, forbidden)
        if rim is not None:
            return _wheel_at(g, v, rim)
        forbidden |= sb
        left ^= sb
    return None


def _centers(g: Graph, k: int) -> Iterator[int]:
    """The k-wheel centers of g in ascending order, found lazily."""
    return (v for v in g.vertices() if is_wheel_center(g, v, k) is not None)


def wheel_centers(g: Graph, k: int = 4) -> tuple[int, ...]:
    """All vertices that are the center of some k-wheel."""
    if k < 3:
        raise GraphError("wheels need at least 3 spokes")
    return tuple(_centers(g, k))


def find_k_wheel(g: Graph, k: int) -> Wheel | None:
    """Some k-wheel of g, or None if g is k-wheel-free (exact).

    High-degree vertices are tried first, which finds witnesses quickly
    in dense graphs without affecting exactness.
    """
    if k < 3:
        raise GraphError("wheels need at least 3 spokes")
    adj = g.masks
    order = sorted(g.vertices(), key=lambda v: (-adj[v].bit_count(), v))
    for v in order:
        w = is_wheel_center(g, v, k)
        if w is not None:
            return w
    return None


def _almost_4_wheel_free_check(g: Graph) -> tuple[bool, tuple[int, ...]]:
    """(verdict, centers found); bails out once four centers exist."""
    centers = tuple(islice(_centers(g, 4), 4))
    if len(centers) > 3:
        return False, centers
    for i, a in enumerate(centers):
        for b in centers[i + 1:]:
            if not g.has_edge(a, b):
                return False, centers
    return True, centers


def is_almost_4_wheel_free(g: Graph) -> bool:
    """At most three 4-wheel centers, and those centers form a clique."""
    verdict, _ = _almost_4_wheel_free_check(g)
    return verdict


# -------------------------------------------------------------------------
# cutset certificates
# -------------------------------------------------------------------------


def _scatter(adj: tuple[int, ...], live: int, tmask: int) -> dict[int, tuple[int, ...]] | None:
    """Each target's component within ``live``, or None when two targets
    share one."""
    comps = {}
    seen = 0
    for t in bits(tmask):
        comp = reach(adj, 1 << t, live)
        if comp & seen:
            return None
        seen |= comp
        comps[t] = tuple(bits(comp))
    return comps


@dataclass
class WMCertificate:
    """Witness that no cycle of g - x covers the four targets: removing
    {x} + cutset leaves each target in its own connected component."""

    x: int
    targets: tuple[int, ...]
    cutset: tuple[int, ...]
    components: dict[int, tuple[int, ...]]

    def validate(self, g: Graph) -> None:
        """Check that x, four targets and three cutset vertices are eight
        distinct vertices, and that each target is alone in its stored
        component of g - x - cutset.  The sizes make the witness sound: a
        cycle through four targets in distinct components of g - x - S
        passes through at least four vertices of S."""
        tmask = g.vertex_mask(self.targets)
        smask = g.vertex_mask(self.cutset)
        xbit = g.vertex_mask((self.x,))
        if (len(self.targets) != 4 or len(self.cutset) != 3
                or (xbit | tmask | smask).bit_count() != 8):
            raise CertificateError("x, four targets and three cutset vertices must be distinct")
        comps = _scatter(g.masks, (1 << g.n) - 1 & ~smask & ~xbit, tmask)
        if comps is None:
            raise CertificateError("two targets share a component")
        if self.components != comps:
            raise CertificateError("stored components are not the components of the targets")


def wm_certificate(g: Graph, x: int, targets: VertexSet) -> WMCertificate | None:
    """Search for a 3-vertex cutset that scatters the four targets into
    distinct components of g - x.

    Requires the four targets to be neighbors of x with no cycle of
    g - x through all of them (a cycle makes the certificate
    meaningless and is rejected).  When g - x is 3-connected such a
    cutset always exists, so coming up empty there raises
    TheoremViolationError; for less connected inputs None is returned.
    """
    tmask = g.vertex_mask(targets)
    if tmask.bit_count() != 4:
        raise GraphError("exactly four target vertices are required")
    if not 0 <= x < g.n:
        raise GraphError(f"vertex {x} out of range")
    if (tmask >> x) & 1:
        raise GraphError("x must not be one of the targets")
    if tmask & ~g.masks[x]:
        raise GraphError("targets must all be neighbors of x")
    xs = tuple(bits(tmask))
    if _cycle_hitting(g.masks, [xs[0]], tmask, 4, 1 << x) is not None:
        raise GraphError("a cycle through the targets exists; no certificate applies")
    pool = [v for v in g.vertices() if v != x and not (tmask >> v) & 1]
    rest = (1 << g.n) - 1 & ~(1 << x)
    for sset in combinations(pool, 3):
        comps = _scatter(g.masks, rest & ~(1 << sset[0]) & ~(1 << sset[1]) & ~(1 << sset[2]), tmask)
        if comps is not None:
            return WMCertificate(x=x, targets=xs, cutset=sset, components=comps)
    # guarantee regime: with g - x 3-connected a certificate must exist
    gx, _ = induced_subgraph(g, [v for v in g.vertices() if v != x])
    if _is_k_connected(gx, 3):
        raise TheoremViolationError("no scattering cutset found although one is guaranteed")
    return None
