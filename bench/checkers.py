"""Output checkers that share no code with ``src/wheelfree``.

Graphs are ``(n, adj)`` with ``adj`` a list of Python sets.  Every
``check_*`` function returns ``None`` when the output is correct and a
one-line reason when it is not.  networkx is imported only inside the
functions that use it, so the measuring process never loads it.
"""

from __future__ import annotations

from itertools import combinations, permutations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in i-major order: bit k of an edge code is pair k."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def decode_edge_code(n: int, code: int) -> list[tuple[int, int]]:
    return [p for k, p in enumerate(pairs(n)) if (code >> k) & 1]


def edge_code(n: int, edges) -> int:
    index = {p: k for k, p in enumerate(pairs(n))}
    code = 0
    for u, v in edges:
        code |= 1 << index[(min(u, v), max(u, v))]
    return code


def graph6(n: int, edges) -> str:
    """graph6 encoding (n < 63), upper triangle column by column."""
    bits = []
    adj = adjacency(n, edges)
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if j in adj[i] else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body


def relabel(edges, perm) -> list[tuple[int, int]]:
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def complete_bipartite(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def circulant(n: int, offsets) -> list[tuple[int, int]]:
    return sorted({(min(i, (i + d) % n), max(i, (i + d) % n)) for i in range(n) for d in offsets})


def complete(n: int) -> list[tuple[int, int]]:
    return pairs(n)


# -------------------------------------------------------------------------
# certificates
# -------------------------------------------------------------------------


def check_wheel(adj, center: int, rim, spokes, k: int) -> str | None:
    """The rim is a cycle of the graph, the centre is off it, and at least
    k distinct spokes join the centre to the rim along edges."""
    rim = list(rim)
    if len(rim) < 3 or len(set(rim)) != len(rim):
        return f"rim {rim} is not a cycle"
    for i, u in enumerate(rim):
        if rim[(i + 1) % len(rim)] not in adj[u]:
            return f"rim {rim} is not a cycle: {u}-{rim[(i + 1) % len(rim)]} is no edge"
    if center in rim:
        return f"centre {center} lies on the rim"
    ends = set()
    for a, b in spokes:
        if a != center or b not in rim:
            return f"spoke {a}-{b} does not join the centre to the rim"
        if b not in adj[center]:
            return f"spoke {a}-{b} is not an edge"
        ends.add(b)
    if len(ends) < k:
        return f"{len(ends)} distinct spokes, need {k}"
    return None


def check_coloring(adj, colors, max_colors: int = 4) -> str | None:
    if len(colors) != len(adj):
        return f"{len(colors)} colours for {len(adj)} vertices"
    if len(set(colors)) > max_colors:
        return f"{len(set(colors))} colours used"
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if colors[u] == colors[v]:
                return f"edge {u}-{v} is monochromatic"
    return None


def _component(adj, start: int, live: set[int]) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in live and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check_wm_cert(adj, x: int, targets, cutset) -> str | None:
    """Removing x and the cutset leaves the four targets in four components."""
    targets, cutset = list(targets), list(cutset)
    if len(set(targets)) != 4 or any(t not in adj[x] for t in targets):
        return f"targets {targets} are not four neighbours of {x}"
    if x in cutset or set(cutset) & set(targets):
        return f"cutset {cutset} meets x or the targets"
    live = set(range(len(adj))) - {x} - set(cutset)
    seen: set[int] = set()
    for t in targets:
        comp = _component(adj, t, live)
        if comp & seen:
            return f"target {t} shares a component with another target"
        seen |= comp
    return None


def check_reduction_trace(adj, steps) -> str | None:
    """Replay an elimination trace: each removed vertex has degree <= 3 in
    what is left, or has the same neighbours there as its kept twin."""
    live = set(range(len(adj)))
    for kind, removed, keep in steps:
        if removed not in live:
            return f"vertex {removed} removed twice"
        nbrs = adj[removed] & live
        if kind == "low-degree":
            if len(nbrs) > 3:
                return f"vertex {removed} has degree {len(nbrs)} > 3 when removed"
        elif kind == "twins":
            if keep not in live or keep == removed or nbrs != adj[keep] & live:
                return f"{removed} and {keep} are not twins when {removed} is removed"
        else:
            return f"unknown step {kind!r}"
        live.discard(removed)
    return None


# -------------------------------------------------------------------------
# cycles and wheels, by listing cycles
# -------------------------------------------------------------------------


def _cycles(adj, allowed: set[int]):
    """Vertex sets of all cycles inside ``allowed``: each cycle is grown from
    its smallest vertex through larger ones and listed in one direction."""
    for s in sorted(allowed):
        path = [s]
        on_path = {s}

        def grow():
            u = path[-1]
            for w in adj[u]:
                if w <= s or w not in allowed or w in on_path:
                    continue
                path.append(w)
                on_path.add(w)
                if len(path) >= 3 and s in adj[w] and path[1] < w:
                    yield on_path
                yield from grow()
                on_path.discard(w)
                path.pop()

        yield from grow()


def is_center(adj, v: int, k: int = 4) -> bool:
    """Some cycle avoiding v meets at least k neighbours of v."""
    if len(adj[v]) < k:
        return False
    allowed = set(range(len(adj))) - {v}
    return any(len(cyc & adj[v]) >= k for cyc in _cycles(adj, allowed))


def has_k_wheel(adj, k: int = 4) -> bool:
    return any(is_center(adj, v, k) for v in range(len(adj)))


# -------------------------------------------------------------------------
# connectivity, ends and thm-4.5
# -------------------------------------------------------------------------


def nx_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def nx_kappa(n: int, edges) -> int:
    import networkx as nx

    return nx.node_connectivity(nx_graph(n, edges))


def check_kappa(n: int, edges, kappa: int) -> str | None:
    want = nx_kappa(n, edges)
    if kappa != want:
        return f"kappa {kappa}, networkx node_connectivity says {want}"
    return None


def _frontier(adj, part: set[int]) -> set[int]:
    out = set()
    for v in part:
        out |= adj[v]
    return out - part


def _is_fragment(adj, part: set[int], kappa: int) -> bool:
    nbrs = _frontier(adj, part)
    return len(nbrs) == kappa and len(part) + len(nbrs) < len(adj)


def check_thm45_counterexample(n: int, edges, end) -> str | None:
    """Confirm from the definitions that ``end`` refutes thm-4.5: the graph
    has connectivity 3, ``end`` is an inclusion-minimal fragment with at
    least two vertices, and none of its vertices centres a 4-wheel."""
    adj = adjacency(n, edges)
    if nx_kappa(n, edges) != 3:
        return "graph does not have connectivity 3"
    end = set(end)
    if len(end) < 2:
        return f"end {sorted(end)} is trivial"
    if not _is_fragment(adj, end, 3):
        return f"{sorted(end)} is not a fragment"
    for size in range(1, len(end)):
        for sub in combinations(sorted(end), size):
            if _is_fragment(adj, set(sub), 3):
                return f"{sorted(end)} is not minimal: {list(sub)} is a fragment"
    centres = [v for v in end if is_center(adj, v, 4)]
    if centres:
        return f"end {sorted(end)} holds 4-wheel centres {centres}"
    return None


def k33e_labelings() -> set[int]:
    """Edge codes of every labeling of K_{3,3} plus one edge inside a part."""
    base = complete_bipartite(3, 3) + [(0, 1)]
    return {edge_code(6, relabel(base, p)) for p in permutations(range(6))}


def check_thm45_tally(codes) -> str | None:
    """The thm-4.5 counterexamples at n=6 are exactly the labelings of
    K_{3,3}+e, each isomorphic to it by networkx."""
    import networkx as nx

    codes = list(codes)
    if len(set(codes)) != len(codes):
        return "a counterexample is reported twice"
    want = k33e_labelings()
    missing, extra = want - set(codes), set(codes) - want
    if missing or extra:
        return f"{len(missing)} K33+e labelings missing, {len(extra)} other graphs reported"
    k33e = nx_graph(6, complete_bipartite(3, 3) + [(0, 1)])
    for code in codes:
        if not nx.is_isomorphic(nx_graph(6, decode_edge_code(6, code)), k33e):
            return f"edge code {code} is not K33+e"
    return None


def check_distinct_classes(n: int, graphs) -> str | None:
    """No two of ``graphs`` (edge lists on n vertices) are isomorphic."""
    import warnings

    import networkx as nx

    buckets: dict[str, list] = {}
    with warnings.catch_warnings():
        # networkx 3.5 and later warn that these hashes changed; only equality matters
        warnings.simplefilter("ignore", UserWarning)
        for edges in graphs:
            g = nx_graph(n, edges)
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, iterations=3), []).append(g)
    for group in buckets.values():
        for a, b in combinations(group, 2):
            if nx.is_isomorphic(a, b):
                return f"two classes are isomorphic: {sorted(a.edges())}"
    return None


# which reference count each statement's applicable checks must equal
APPLICABLE_COUNTS = {"thm-4.7": "kappa_2", "thm-4.5": "kappa_3", "cor-4.6": "kappa_3",
                     "thm-4.4": "kappa_ge_4", "lemma-4.3": "kappa_ge_4",
                     "lemma-4.2": "kappa_ge_5", "cor-1.5": "wheel_free_4"}

# the connectivity each statement's precondition asks for
KAPPA_PRECONDITION = {"thm-4.7": lambda k: k == 2, "thm-4.5": lambda k: k == 3,
                      "cor-4.6": lambda k: k == 3, "thm-4.4": lambda k: k >= 4,
                      "lemma-4.3": lambda k: k >= 4, "lemma-4.2": lambda k: k >= 5}
