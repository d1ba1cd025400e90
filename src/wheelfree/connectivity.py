"""Vertex connectivity, fans of internally disjoint paths, and the
fragment / end / end-block decomposition.

Connectivity, fans and ends share one unit-capacity vertex-split max
flow, ``_fan_flow``: the connectivity between non-adjacent s and t is the
largest fan from s into N(t), and an end is the closest minimum cut of
such a flow (Picard & Queyranne, "On the structure of all minimum cuts
in a network", Math. Prog. Study 1980), found in polynomial time at any
size.  One search, ``_connectivity``, finds min(kappa, cap): it starts
from the smaller of the minimum degree and the cap, runs a flow only for a
pair whose short fan paths (``_short_fan``) cannot settle it, and starts it
from them, and only while the running minimum is above 2: at 2, one
lowpoint depth-first search for a cut vertex (``_has_cut_vertex``; Hopcroft
& Tarjan, "Efficient algorithms for graph manipulation", CACM 1973) settles
the rest.  ``vertex_connectivity`` is that search with cap n.  A statement's
hypothesis "kappa >= k" or "kappa = k" is a threshold test instead
(``_is_k_connected``): a degree bound, then the search capped at k or k + 1
(S. Even, "An algorithm for determining whether the connectivity of a
graph is at least k", SIAM J. Comput. 1975).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, GraphError, NoFragmentsError, TheoremViolationError
from .graph import Graph, VertexSet, bits, induced_subgraph, reach, set_neighbors


# -------------------------------------------------------------------------
# unit-capacity vertex-split flow
#
# Node layout: v_in = v, v_out = v + n; the source is x_out and the sink
# is node 2n, fed by the in-nodes of the targets.  The residual graph is a
# list of int masks (bit j of res[i] = arc i->j).  One routine, _fan_flow,
# serves connectivity, ends and fans (Even & Tarjan, "Network flow and
# testing graph connectivity", SIAM J. Comput. 1975).
# -------------------------------------------------------------------------


def _augment(res: list[int], src: int, snk: int, parent: list[int]) -> bool:
    """Push one unit along a shortest residual path; False if none exists."""
    visited = 1 << src
    queue = [src]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        m = res[u] & ~visited
        if not m:
            continue
        visited |= m
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            parent[v] = u
            if v == snk:
                while v != src:
                    u = parent[v]
                    res[u] &= ~(1 << v)
                    res[v] |= 1 << u
                    v = u
                return True
            queue.append(v)
    return False


def _fan_flow(
    adj: tuple[int, ...], n: int, x: int, ymask: int, k: int,
    seed: tuple[tuple[int, ...], ...] = (),
) -> tuple[int, list[int]]:
    """Disjoint paths from x into ``ymask``, capped at k, and the residual.

    The flow pushes the fan paths ``seed``, then the direct edges x-y to
    the lowest targets y the seed left unused, up to k paths in all, then
    augments.  The push is those augmentations taken early: ``_augment``
    expands x_out's unused arcs, which lead to in-nodes (each unused
    target's among them), in ascending order before any out-node, and only
    an unused target's in-node has an arc to the sink; so the lowest such y
    gives the shortest augmenting path x_out -> y -> sink, whose flip is
    the push.
    """
    sink_bit = 1 << (2 * n)
    res = [sink_bit if (ymask >> v) & 1 else 1 << (v + n) for v in range(n)]
    res[x] = 0  # paths never pass back through the origin
    res.extend(adj)
    res.append(0)
    src, sink = x + n, 2 * n
    for p in seed:
        nodes = [src]
        for v in p[1:-1]:
            nodes.extend((v, v + n))
        nodes.extend((p[-1], sink))
        for a, b in zip(nodes, nodes[1:]):
            res[a] &= ~(1 << b)
            res[b] |= 1 << a
    flow = len(seed)
    direct = adj[x] & ymask & ~res[sink]  # res[sink]: the targets reached
    while direct.bit_count() > k - flow:
        direct ^= 1 << (direct.bit_length() - 1)
    # push one unit along each x_out -> y -> sink; a target in-node's
    # only arc is to the sink, so its residual is the arc back to x_out
    res[src] &= ~direct
    res[sink] |= direct
    for y in bits(direct):
        res[y] = 1 << src
    flow += direct.bit_count()
    parent = [0] * (2 * n + 1)
    while flow < k and _augment(res, src, sink, parent):
        flow += 1
    return flow, res


def _extract_fan_paths(res: list[int], adj: tuple[int, ...], n: int, x: int, ymask: int) -> list[tuple[int, ...]]:
    """The sorted origin-to-target paths of the flow in ``res``: the arcs
    x_out -> v_in missing from it are the first hops, a non-target v's one
    missing arc v_out -> w_in its next, and a path stops at its first
    target."""
    paths = []
    for v in bits(adj[x] & ~res[x + n]):
        path = [x, v]
        while not (ymask >> v) & 1:
            v = (adj[v] & ~res[v + n]).bit_length() - 1
            path.append(v)
        paths.append(tuple(path))
    return paths


def _short_fan(adj: tuple[int, ...], s: int, t: int, cap: int) -> tuple[tuple[int, ...], ...] | None:
    """Disjoint s -> N(t) fan paths of length 1 or 2 for non-adjacent s, t,
    packed greedily; None as soon as ``cap`` of them exist.

    Each common neighbour c gives (s, c); then each a in N(s) - N(t) takes
    the lowest unused b in N(t) - N(s) adjacent to it, giving (s, a, b).
    The paths share only s and end at distinct targets, so their number is
    a lower bound on kappa(s, t) and they are a valid partial flow.
    """
    common = adj[s] & adj[t]
    short = common.bit_count()
    if short >= cap:
        return None
    free = adj[t] & ~common
    hops = []
    for a in bits(adj[s] & ~adj[t]):
        m = adj[a] & free
        if m:
            short += 1
            if short >= cap:
                return None
            b = m & -m
            free ^= b
            hops.append((s, a, b.bit_length() - 1))
    return tuple((s, c) for c in bits(common)) + tuple(hops)


def _has_cut_vertex(adj: tuple[int, ...], n: int) -> bool:
    """Whether some vertex of the connected graph ``adj`` on n vertices
    leaves it disconnected.

    One depth-first search from vertex 0, without recursion, keeps each
    vertex's discovery time and lowpoint (the earliest discovery time its
    subtree reaches by one non-tree edge): the root is a cut vertex when it
    has two children, any other v when a child's lowpoint is not earlier
    than v.  Counting the tree edge to the parent among the lowpoint's edges
    changes neither test.
    """
    disc = [0] * n  # 0 while unvisited, else the 1-based discovery time
    low = [0] * n
    todo = list(adj)  # the neighbours each vertex has yet to scan
    disc[0] = low[0] = clock = 1
    stack = [0]
    while stack:
        v = stack[-1]
        m = todo[v]
        if m:
            b = m & -m
            todo[v] = m ^ b
            w = b.bit_length() - 1
            if disc[w]:
                if disc[w] < low[v]:
                    low[v] = disc[w]
            elif v == 0 and clock > 1:
                return True  # a second child of the root
            else:
                clock += 1
                disc[w] = low[w] = clock
                stack.append(w)
            continue
        stack.pop()
        if stack:
            u = stack[-1]
            if low[v] < low[u]:
                low[u] = low[v]
            elif u and low[v] >= disc[u]:
                return True
    return False


def _connectivity(adj: tuple[int, ...], n: int, cap: int, degs: list[int]) -> int:
    """min(kappa, cap) of the graph on n >= 1 vertices with adjacency masks
    ``adj`` and degrees ``degs``.

    The running minimum starts at the smaller of the minimum degree and the
    cap.  Every pair of the Esfahanian-Hakimi schedule is screened, and a
    flow, capped at the running minimum, runs only for a pair whose short
    fan paths fall short of it, starting from those paths.  Once that
    minimum is 2, the first such pair ends the loop instead: the graph is
    connected with n >= 4 and kappa <= 2, so kappa is 1 exactly when it has
    a cut vertex (Hopcroft & Tarjan 1973), found by one lowpoint search.
    """
    low = min(degs)
    best = min(low, cap)
    if best <= 0 or best == n - 1:
        return best
    full = (1 << n) - 1
    if reach(adj, 1, full) != full:
        return 0
    if best == 1:
        return 1
    # Some vertex of {v0} u N(v0) lies outside any minimum cutset, and every
    # vertex across that cutset from it is non-adjacent to it, so these pairs
    # suffice.
    v0 = degs.index(low)
    pairs = [(v0, u) for u in bits(full & ~adj[v0] & ~(1 << v0))]
    nbrs = list(bits(adj[v0]))
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if not (adj[a] >> b) & 1:
                pairs.append((a, b))
    for s, t in pairs:
        if best <= 1:
            break
        seed = _short_fan(adj, s, t, best)
        if seed is None:
            continue
        if best == 2:
            return 1 if _has_cut_vertex(adj, n) else 2
        # an s-t path ends at its first vertex of N(t): kappa(s,t) is the
        # largest fan from s into N(t), and t itself is never reached
        f, _ = _fan_flow(adj, n, s, adj[t], best, seed)
        if f < best:
            best = f
    return best


def vertex_connectivity(g: Graph) -> int:
    """The largest k such that g is k-connected.

    Complete graphs give n-1 (so a single vertex gives 0) and
    disconnected graphs give 0.  Exact: ``_connectivity`` with cap n.
    """
    n = g.n
    if n < 1:
        raise GraphError("vertex_connectivity requires at least one vertex")
    adj = g.masks
    return _connectivity(adj, n, n, [a.bit_count() for a in adj])


def _is_k_connected(g: Graph, k: int, exactly: bool = False) -> bool:
    """Whether g, with n >= 1, is k-connected, or with ``exactly`` whether
    its connectivity is k: every degree must reach k, and then the search
    capped at k, or at k + 1, must return k (Even 1975).  True for every
    such g when k <= 0 and not ``exactly``."""
    adj = g.masks
    degs = [a.bit_count() for a in adj]
    return min(degs) >= k and _connectivity(adj, g.n, k + 1 if exactly else k, degs) == k


# -------------------------------------------------------------------------
# fans
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class Fan:
    """k internally disjoint paths from ``origin`` into ``targets``.

    Paths share only the origin, stop at their first target vertex, and
    are stored sorted for reproducibility.
    """

    origin: int
    targets: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.paths)

    @property
    def endpoints(self) -> tuple[int, ...]:
        return tuple(sorted(p[-1] for p in self.paths))

    def validate(self, g: Graph) -> None:
        tmask = g.vertex_mask(self.targets)
        if g.vertex_mask((self.origin,)) & tmask:
            raise CertificateError("fan origin lies in the target set")
        seen_internal = set()
        for p in self.paths:
            if not p or p[0] != self.origin:
                raise CertificateError(f"path {p} does not start at the origin")
            if len(set(p)) != len(p):
                raise CertificateError(f"path {p} repeats a vertex")
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    raise CertificateError(f"path {p} uses the non-edge ({a},{b})")
            if not (tmask >> p[-1]) & 1:
                raise CertificateError(f"path {p} does not end in the target set")
            for v in p[1:-1]:
                if (tmask >> v) & 1:
                    raise CertificateError(f"internal vertex {v} of {p} lies in the targets")
            # holds each path's end too, so two paths never share a target
            interior = set(p[1:])
            if interior & seen_internal:
                raise CertificateError("paths share a vertex other than the origin")
            seen_internal |= interior


def find_k_fan(g: Graph, x: int, targets: VertexSet, k: int) -> Fan | None:
    """An exact k-fan from x into ``targets``, or None when none exists.

    Guaranteed to succeed whenever the graph is k-connected and the
    target set has at least k vertices.
    """
    n = g.n
    if not 0 <= x < n:
        raise GraphError(f"origin {x} out of range")
    ymask = g.vertex_mask(targets)
    if (ymask >> x) & 1:
        raise GraphError("origin must not lie in the target set")
    if k < 1:
        raise GraphError("fan size k must be positive")
    if ymask.bit_count() < k:
        raise GraphError(f"need at least {k} targets, got {ymask.bit_count()}")
    adj = g.masks
    flow, res = _fan_flow(adj, n, x, ymask, k)
    if flow < k:
        return None
    paths = _extract_fan_paths(res, adj, n, x, ymask)
    return Fan(origin=x, targets=tuple(bits(ymask)), paths=tuple(paths))


def extend_fan(g: Graph, fan: Fan, k: int) -> Fan:
    """Grow ``fan`` into a k-fan over the same origin and targets whose
    endpoint set contains the endpoints of ``fan``.

    Requires a k-connected graph (k >= 2) and at least k targets; with
    those preconditions met a failure to extend cannot legitimately
    happen and raises TheoremViolationError.
    """
    if k < 2:
        raise GraphError("extend_fan requires k >= 2")
    if fan.k > k:
        raise GraphError(f"fan already has {fan.k} > {k} paths")
    fan.validate(g)
    if len(fan.targets) < k:
        raise GraphError(f"need at least {k} targets, got {len(fan.targets)}")
    if not _is_k_connected(g, k):
        raise GraphError(f"graph is not {k}-connected")
    n = g.n
    adj = g.masks
    ymask = g.vertex_mask(fan.targets)
    flow, res = _fan_flow(adj, n, fan.origin, ymask, k, fan.paths)
    if flow < k:
        raise TheoremViolationError(
            f"could not extend a {fan.k}-fan to a {k}-fan in a {k}-connected graph")
    paths = _extract_fan_paths(res, adj, n, fan.origin, ymask)
    out = Fan(origin=fan.origin, targets=fan.targets, paths=tuple(paths))
    if not set(fan.endpoints) <= set(out.endpoints):
        raise TheoremViolationError("fan extension dropped an endpoint")
    return out


# -------------------------------------------------------------------------
# fragments, ends, end blocks
# -------------------------------------------------------------------------


def _end_masks(adj: tuple[int, ...], n: int, kappa: int) -> list[int]:
    """Masks of all ends of a non-complete graph of connectivity ``kappa``.

    A vertex of degree kappa is a singleton end, and no other end contains
    it.  Every other end E holds some x of degree > kappa; for any y outside
    E u N(E), E is the closest x-side minimum cut F(x, y): the out-nodes
    reachable from x_out in the residual of a maximum fan from x into N(y).
    F(x, y) is a fragment and lies inside every fragment that separates x
    from y.  Once F = F(x, y) is known, every y' outside F u N(F) is
    skipped: an end E at x with y' outside E u N(E) meets both F and its
    far side, so by the fragment crossing lemma E lies inside F; then y
    lies outside E u N(E), F lies inside E, and E = F was already found.
    Each unordered pair runs at most one flow that reaches kappa + 1: that
    flow shows kappa(x, y) > kappa, and kappa(y, x) = kappa(x, y) (Menger),
    so the flow from y into N(x) would reach kappa + 1 too and give no
    fragment; ``over[y]`` keeps such x out of y's pairs.
    The ends are the inclusion-minimal candidates; a candidate holding a
    vertex of degree kappa is never one.
    """
    full = (1 << n) - 1
    every_node = (1 << (2 * n + 1)) - 1
    low = sum(1 << v for v in range(n) if adj[v].bit_count() == kappa)
    cands = {1 << v for v in bits(low)}
    over = [0] * n  # bit x of over[y]: kappa(x, y) > kappa, shown by a flow
    for x in bits(full & ~low):
        todo = full & ~adj[x] & ~(1 << x) & ~over[x]
        while todo:
            y = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if (adj[x] & adj[y]).bit_count() > kappa:
                continue
            flow, res = _fan_flow(adj, n, x, adj[y], kappa + 1)
            if flow > kappa:
                over[y] |= 1 << x
                continue
            f = reach(res, 1 << (x + n), every_node) >> n & full
            todo &= f | set_neighbors(adj, f)
            if not f & low:
                cands.add(f)
    return [f for f in cands if not any(h != f and h & ~f == 0 for h in cands)]


def is_fragment(g: Graph, f: VertexSet) -> bool:
    """Definition check: |N(F)| equals the connectivity and F-bar is non-empty."""
    fmask = g.vertex_mask(f)
    if fmask == 0 or fmask == (1 << g.n) - 1:
        return False
    kappa = vertex_connectivity(g)
    nb = set_neighbors(g.masks, fmask)
    fbar = (1 << g.n) - 1 & ~fmask & ~nb
    return nb.bit_count() == kappa and fbar != 0


def _require_fragments(g: Graph) -> None:
    if g.n == 0:
        raise NoFragmentsError("empty graph")
    if g.n == 1 or g.is_complete():
        raise NoFragmentsError("complete graphs and the single vertex have no fragments")


def _ends(g: Graph, kappa: int) -> list[tuple[int, ...]]:
    """``ends`` of a non-complete graph whose connectivity the caller holds."""
    return sorted(tuple(bits(m)) for m in _end_masks(g.masks, g.n, kappa))


def ends(g: Graph) -> list[tuple[int, ...]]:
    """All ends (inclusion-minimal fragments), sorted lexicographically.

    Raises NoFragmentsError for complete graphs, the single vertex and
    the empty graph.
    """
    _require_fragments(g)
    return _ends(g, vertex_connectivity(g))


@dataclass
class EndBlock:
    """An end F, its attachment N(F), and the block graph on their union
    with N(F) completed into a clique.

    ``graph`` is relabeled to dense ids via ``vertex_map`` (original ->
    block id); ``marker_edges`` are the clique edges that had to be
    added, in original ids.
    """

    fragment: tuple[int, ...]
    attachment: tuple[int, ...]
    graph: Graph
    vertex_map: dict[int, int]
    marker_edges: tuple[tuple[int, int], ...]

    def validate(self, g: Graph) -> None:
        """Check that ``fragment`` is a fragment of g and that this is the
        block built from it: the subgraph induced on F u N(F) with N(F)
        completed to a clique.  That F is an end, a fragment with no
        smaller fragment inside it, is checked by ``end_block`` when it
        builds the block, not here."""
        if not is_fragment(g, self.fragment):
            raise CertificateError(f"{self.fragment} is not a fragment of the graph")
        if self != _end_block(g, g.vertex_mask(self.fragment)):
            raise CertificateError("block differs from the end block of its fragment")


def _end_block(g: Graph, fmask: int) -> EndBlock:
    """The end block of the end ``fmask``, which the caller holds as an end."""
    nb = set_neighbors(g.masks, fmask)
    attachment = tuple(bits(nb))
    sub, idmap = induced_subgraph(g, bits(fmask | nb))
    masks = list(sub.masks)
    markers = []
    for i, u in enumerate(attachment):
        for v in attachment[i + 1:]:
            if not g.has_edge(u, v):
                markers.append((u, v))
                a, b = idmap[u], idmap[v]
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return EndBlock(
        fragment=tuple(bits(fmask)),
        attachment=attachment,
        graph=Graph._of(sub.n, masks),
        vertex_map=idmap,
        marker_edges=tuple(markers),
    )


def end_block(g: Graph, f: VertexSet) -> EndBlock:
    """Build the end block of the end ``f``.

    Raises GraphError when ``f`` is not an end.  For a non-trivial end,
    also asserts that the block is strictly more connected than the
    ambient graph, raising TheoremViolationError if that ever failed.
    """
    fmask = g.vertex_mask(f)
    _require_fragments(g)
    kappa = vertex_connectivity(g)
    if fmask not in _end_masks(g.masks, g.n, kappa):
        raise GraphError(f"{tuple(bits(fmask))} is not an end of the graph")
    block = _end_block(g, fmask)
    if fmask.bit_count() >= 2 and vertex_connectivity(block.graph) < kappa + 1:
        raise TheoremViolationError(
            "end block of a non-trivial end is not more connected than the graph")
    return block
