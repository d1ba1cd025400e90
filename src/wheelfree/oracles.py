"""Independent brute-force ground truth and reproducible graph pools.

The oracles here deliberately share no search code with the fast paths
they cross-check: connectivity is settled by enumerating cutsets,
fragments by a scan of every vertex subset, wheels by enumerating all
cycles, colorability by plain backtracking.

Pools stream their graphs in a fixed order.  An exhaustive pool walks
the edge codes 0, 1, 2, ... (``Graph.from_edge_code``'s pair order); a
dedup pool lists one class representative each, by edge count and then
edge code.  Random graph i takes draws i*C(n,2) .. (i+1)*C(n,2) - 1 of
splitmix64(seed), and pair k is an edge when that draw's top 53 bits,
as a fraction, are below p.  Filters drop graphs from these streams.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations
from operator import xor
from typing import Callable, Iterator

from . import generators as gen
from .connectivity import _is_k_connected
from .errors import BudgetExceededError, GraphError, NoFragmentsError
from .formats import read_file, to_graph6
from .graph import Graph, bits, reach
from .isomorphism import canonical_code
from .wheels import Wheel, find_k_wheel, normalize_cycle

ORACLE_BUDGET = 12
# the fragment scan visits each vertex subset once, so it runs further
FRAGMENT_BUDGET = 20


@cache
def _subset_masks(n: int, size: int) -> tuple[int, ...]:
    """The masks of the size-subsets of 0..n-1, in ``combinations`` order."""
    out = []
    for combo in combinations(range(n), size):
        m = 0
        for v in combo:
            m |= 1 << v
        out.append(m)
    return tuple(out)


def _check_budget(g: Graph, what: str, budget: int = ORACLE_BUDGET) -> None:
    if g.n > budget:
        raise BudgetExceededError(f"{what} oracle budget is n <= {budget}, got {g.n}")


# -------------------------------------------------------------------------
# chromatic number
# -------------------------------------------------------------------------


def _colorable(adj: tuple[int, ...], order: list[int], k: int) -> bool:
    """Whether the masks are k-colorable, by backtracking along ``order``;
    first vertex symmetry-broken."""
    n = len(order)
    colors = {}

    def rec(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        taken = set()
        m = adj[v]
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            if u in colors:
                taken.add(colors[u])
        limit = min(k, used + 1)
        for c in range(limit):
            if c in taken:
                continue
            colors[v] = c
            if rec(i + 1, max(used, c + 1)):
                return True
            del colors[v]
        return False

    return rec(0, 0)


def brute_chromatic_number(g: Graph) -> int:
    """Exact chromatic number by backtracking over color classes."""
    _check_budget(g, "chromatic number")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    adj = g.masks
    order = sorted(range(g.n), key=lambda v: -adj[v].bit_count())
    # greedy clique along the degree order gives a cheap lower bound
    clique = 0
    for v in order:
        if (clique & ~adj[v]) == 0:
            clique |= 1 << v
    lb = clique.bit_count()
    for k in range(max(lb, 2), g.n + 1):
        if _colorable(adj, order, k):
            return k
    return g.n


# -------------------------------------------------------------------------
# wheels via full cycle enumeration
# -------------------------------------------------------------------------


def _iter_cycles(adj: tuple[int, ...], n: int) -> Iterator[tuple[int, list[int]]]:
    """All cycles, each exactly once: start at the cycle's smallest vertex,
    extend through larger vertices only, and fix the direction by
    requiring the second vertex to be smaller than the last."""
    for s in range(n):
        above = -1 << (s + 1)
        adj_s = adj[s]
        path = [s]
        visited = 1 << s
        iters = [adj_s & above]
        while iters:
            m = iters[-1]
            if not m:
                iters.pop()
                visited ^= 1 << path.pop()
                continue
            b = m & -m
            iters[-1] = m ^ b
            w = b.bit_length() - 1
            visited |= b
            path.append(w)
            if len(path) >= 3 and (adj_s >> w) & 1 and path[1] < path[-1]:
                yield visited, path
            iters.append(adj[w] & above & ~visited)


def brute_has_k_wheel(g: Graph, k: int) -> Wheel | None:
    """Exhaustive wheel search: every cycle against every outside vertex."""
    _check_budget(g, "wheel")
    if k < 3:
        raise GraphError("wheels need at least 3 spokes")
    adj = g.masks
    full = (1 << g.n) - 1
    for cyc_mask, path in _iter_cycles(adj, g.n):
        outside = full & ~cyc_mask
        m = outside
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            hits = adj[u] & cyc_mask
            if hits.bit_count() >= k:
                rim = normalize_cycle(path)
                spokes = tuple((u, w) for w in bits(hits))
                return Wheel(center=u, rim=rim, spokes=spokes)
    return None


# -------------------------------------------------------------------------
# connectivity via cutset enumeration
# -------------------------------------------------------------------------


def brute_vertex_connectivity(g: Graph) -> int:
    """Smallest size of a disconnecting vertex set; n-1 when none exists."""
    _check_budget(g, "connectivity")
    n = g.n
    if n < 1:
        raise GraphError("connectivity needs at least one vertex")
    adj = g.masks
    full = (1 << n) - 1
    for size in range(0, n - 1):
        for smask in _subset_masks(n, size):
            live = full & ~smask
            if reach(adj, live & -live, live) != live:
                return size
    return n - 1


# -------------------------------------------------------------------------
# fragments via a scan of every vertex subset
# -------------------------------------------------------------------------


def brute_fragments(g: Graph) -> list[tuple[int, ...]]:
    """All fragments, sorted lexicographically: among the nonempty S that
    leave some vertex outside S u N(S), those with the fewest neighbours.
    That fewest is the connectivity, found in the same scan.

    Raises NoFragmentsError when no S leaves a vertex outside (complete
    graphs, the single vertex and the empty graph).
    """
    _check_budget(g, "fragment", FRAGMENT_BUDGET)
    adj = g.masks
    full = (1 << g.n) - 1
    union = [0] * full  # union[S]: every neighbour of a vertex of S
    kappa = g.n
    found = []
    for smask in range(1, full):
        low = smask & -smask
        union[smask] = union[smask ^ low] | adj[low.bit_length() - 1]
        nb = union[smask] & ~smask
        size = nb.bit_count()
        if size <= kappa and full & ~smask & ~nb:
            if size < kappa:
                kappa = size
                found = []
            found.append(smask)
    if not found:
        raise NoFragmentsError("no vertex set leaves a vertex outside its closed neighbourhood")
    return sorted(tuple(bits(m)) for m in found)


# -------------------------------------------------------------------------
# pools
# -------------------------------------------------------------------------


# descriptor key -> predicate(graph, value), in the order the filters run
# (cheap before expensive) and print; the keyword argument of
# ``enumerate_graphs`` and ``random_pool`` is the key with "_" for "-"
_FILTERS = {
    "min-degree": lambda g, d: g.min_degree() >= d,
    "connectivity-at-least": lambda g, k: g.n >= 1 and _is_k_connected(g, k),
    "wheel-free": lambda g, k: find_k_wheel(g, k) is None,
}


def _pool_filter(*values: int | None) -> tuple[Callable[[Graph], bool], str]:
    """The accept test and descriptor suffix of the filters whose values,
    given in ``_FILTERS`` order, are not None; refuses wheel-free < 3."""
    chosen = [(key, value) for key, value in zip(_FILTERS, values) if value is not None]
    if dict(chosen).get("wheel-free", 3) < 3:
        raise GraphError("wheels need at least 3 spokes")
    tests = [(_FILTERS[key], value) for key, value in chosen]

    def accept(g: Graph) -> bool:
        for test, value in tests:
            if not test(g, value):
                return False
        return True

    return accept, "".join(f",{key}={value}" for key, value in chosen)


class GraphPool:
    """A deterministic, re-iterable stream of graphs described by a
    human-readable descriptor string."""

    def __init__(self, descriptor: str, factory: Callable[[], Iterator[Graph]]):
        self.descriptor = descriptor
        self._factory = factory

    def __iter__(self) -> Iterator[Graph]:
        return self._factory()

    def __repr__(self) -> str:
        return f"GraphPool({self.descriptor!r})"

    def dump(self, path) -> int:
        """Write the pool as a graph6 line file; returns the line count."""
        count = 0
        with open(path, "w") as fh:
            for g in self:
                fh.write(to_graph6(g) + "\n")
                count += 1
        return count


def enumerate_graphs(n: int, *, min_degree: int | None = None,
                     connectivity_at_least: int | None = None,
                     wheel_free: int | None = None, dedup: bool = False) -> GraphPool:
    """All labeled graphs on n vertices (or all isomorphism classes with
    ``dedup``), streamed with cheap filters applied before expensive ones."""
    if n < 1:
        raise GraphError("enumeration needs n >= 1")
    if n > 8:
        raise GraphError("labeled-exhaustive enumeration is capped at n <= 8")
    accept, suffix = _pool_filter(min_degree, connectivity_at_least, wheel_free)
    source = _nonisomorphic_graphs if dedup else _labeled_graphs
    name = f"exhaustive:n={n}{',dedup' if dedup else ''}{suffix}"
    return GraphPool(name, lambda: filter(accept, source(n)))


def _labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices in edge-code order.  The step from
    code c - 1 to c flips pairs 0..t, t the index of c's lowest set bit,
    so each step XORs the rows of the graph with edge code 2^(t+1) - 1
    into the rows."""
    flips = [Graph.from_edge_code(n, (2 << t) - 1).masks for t in range(n * (n - 1) // 2)]
    adj = (0,) * n
    yield Graph._of(n, adj)
    for code in range(1, 1 << len(flips)):
        adj = tuple(map(xor, adj, flips[(code & -code).bit_length() - 1]))
        yield Graph._of(n, adj)


@cache
def _nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of all isomorphism classes on n vertices,
    built by extending the classes on n-1 vertices with every possible
    neighborhood of a new vertex and deduplicating by canonical code."""
    if n == 1:
        return (Graph(1),)
    seen = set()
    reps = []
    newbit = 1 << (n - 1)
    for base in _nonisomorphic_graphs(n - 1):
        for nbr in range(1 << (n - 1)):
            masks = [row | newbit if (nbr >> v) & 1 else row
                     for v, row in enumerate(base.masks)]
            masks.append(nbr)
            canon = canonical_code(Graph._of(n, masks))
            if canon not in seen:
                seen.add(canon)
                reps.append(Graph.from_edge_code(n, canon))
    return tuple(sorted(reps, key=lambda g: (g.m, g.edge_code())))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment
# draws made at once, each in a 16-byte lane of one int; a pool step at
# n = 10-11 costs the same from 512 to 2048 lanes
_LANES = 1024


@cache
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """(1 in every lane, 2**64 - 1 in every lane, the ramp: k + 1
    increments in lane k), built in time linear in the lanes."""
    ones = ((1 << 128 * lanes) - 1) // ((1 << 128) - 1)
    ramp = int.from_bytes(b"".join((k * _GOLDEN & _MASK64).to_bytes(16, "little")
                                   for k in range(1, lanes + 1)), "little")
    return ones, ones * _MASK64, ramp


def _edge_codes(n: int, p: float, seed: int) -> Iterator[int]:
    """Edge codes of G(n, p) graphs from splitmix64(seed): graph i takes
    draws i*P .. (i+1)*P - 1, P = C(n, 2), and pair k is an edge when its
    draw's top 53 bits, as a fraction, are below p.

    One stream of draws serves every graph.  Each pass makes the next
    _LANES draws at once, draw k of the pass in the 128-bit lane k of one
    int; each lane is masked back to 64 bits after every sum, right shift
    and product, so no bit crosses into another lane.  The pass's verdict
    bits go on top of a buffer int, and graphs are cut from the bottom
    of the buffer P bits at a time while it holds that many, so a graph
    may span passes and a pass may hold many graphs (all of them when
    P = 0)."""
    npairs = n * (n - 1) // 2
    lanes = _LANES
    ones, low, ramp = _lane_constants(lanes)
    # (z >> 11) / 2**53 < p exactly when z < ceil(p * 2**53) * 2**11, both
    # sides being exact doubles, that is when bit 64 of
    # 2**64 + ceil(p * 2**53) * 2**11 - 1 - z is set.  0x31 << 64 is that
    # 2**64 plus an ASCII "0" over bit 64, so bytes 7, 23, 39, ... of each
    # pass's big-endian int spell its draws in binary, the last draw first.
    bound = ones * ((0x31 << 64) + (math.ceil(p * (1 << 53)) << 11) - 1)
    nbytes = 16 * lanes
    pairs = (1 << npairs) - 1
    buffer = held = 0  # verdicts drawn and not yet cut, and their count
    state = seed & _MASK64  # the state before the pass's first draw
    while True:
        z = (ramp + ones * state) & low
        z = (z ^ (z >> 30 & low)) * 0xBF58476D1CE4E5B9 & low
        z = (z ^ (z >> 27 & low)) * 0x94D049BB133111EB & low
        z = bound - (z ^ (z >> 31 & low))
        buffer |= int(z.to_bytes(nbytes, "big")[7::16], 2) << held
        held += lanes
        state = (state + lanes * _GOLDEN) & _MASK64
        while held >= npairs:
            yield buffer & pairs
            buffer >>= npairs
            held -= npairs


# A filtered random pool gives up after this many rejected draws in a row,
# so a filter that no draw can pass ends in a GraphError, not a hang.
MAX_REJECTED_DRAWS = 10_000


def random_pool(n: int, p: float, seed: int, count: int, *,
                min_degree: int | None = None, connectivity_at_least: int | None = None,
                wheel_free: int | None = None) -> GraphPool:
    """``count`` random G(n, p) graphs satisfying the filters, reproducible
    from the seed (splitmix64 edge draws; rejected graphs consume draws,
    so the accepted stream is still deterministic).  Iteration raises
    GraphError after MAX_REJECTED_DRAWS rejected draws in a row."""
    if not 0.0 <= p <= 1.0:
        raise GraphError("edge probability must be in [0, 1]")
    if n < 1 or count < 0:
        raise GraphError("need n >= 1 and count >= 0")
    accept, suffix = _pool_filter(min_degree, connectivity_at_least, wheel_free)

    def factory() -> Iterator[Graph]:
        emitted = 0
        rejected = 0
        codes = _edge_codes(n, p, seed)
        while emitted < count:
            g = Graph.from_edge_code(n, next(codes))
            if accept(g):
                emitted += 1
                rejected = 0
                yield g
            else:
                rejected += 1
                if rejected == MAX_REJECTED_DRAWS:
                    raise GraphError(
                        f"random pool n={n},p={p},seed={seed}: {MAX_REJECTED_DRAWS} draws in a row "
                        f"failed the filters {suffix[1:]}"
                    )

    return GraphPool(f"random:n={n},p={p},seed={seed},count={count}{suffix}", factory)


# -------------------------------------------------------------------------
# curated pools
# -------------------------------------------------------------------------


def _curated_graphs(name: str) -> list[Graph]:
    if name == "lemma42":
        return [gen.complete(6), gen.complete_bipartite(5), gen.icosahedron()]
    if name == "four-connected":
        return [
            gen.complete(5), gen.complete(6), gen.complete(7),
            gen.octahedron(), gen.complete_bipartite(4),
            gen.circulant(8, (1, 2)), gen.circulant(9, (1, 2)),
            gen.circulant(10, (1, 2)), gen.icosahedron(),
        ]
    if name == "wm":
        # 4-connected graphs on at most 8 vertices
        return [
            gen.complete(5), gen.complete(6), gen.complete(7), gen.complete(8),
            gen.complete_bipartite(4), gen.octahedron(),
            gen.circulant(7, (1, 2)), gen.circulant(8, (1, 2)),
            gen.circulant(8, (1, 2, 3)), gen.circulant(8, (1, 2, 4)),
        ]
    if name == "thm44-seeds":
        # 4-connected graphs on 8..10 vertices, K_{4,4} included
        return [
            gen.complete_bipartite(4), gen.complete_bipartite(4, 5),
            gen.complete_bipartite(4, 6), gen.complete_bipartite(5),
            gen.complete(8), gen.complete(9), gen.complete(10),
            gen.circulant(8, (1, 2)), gen.circulant(9, (1, 2)),
            gen.circulant(10, (1, 2)), gen.circulant(10, (1, 2, 3)),
            gen.circulant(9, (1, 2, 4)), gen.circulant(10, (1, 2, 5)),
        ]
    raise GraphError(f"unknown curated pool {name!r}")


def curated_pool(name: str) -> GraphPool:
    graphs = _curated_graphs(name)
    return GraphPool(f"curated:{name}", lambda: iter(graphs))


# pool kind -> (known keys besides the filters, known flags)
_POOL_KEYS = {
    "exhaustive": ({"n"}, {"dedup"}),
    "random": ({"n", "p", "seed", "count"}, set()),
}


def parse_pool_descriptor(text: str) -> GraphPool:
    """Build a pool from its descriptor string, e.g. ``exhaustive:n=7``,
    ``random:n=8,p=0.5,seed=42,count=1000``, ``curated:wm`` or
    ``file:pool.g6``.  Filters append as ``_FILTERS`` key=value pairs.
    An unknown or repeated key or flag is a GraphError."""
    kind, _, rest = text.partition(":")
    if kind == "curated":
        return curated_pool(rest)
    if kind == "file":
        return GraphPool(text, lambda: iter(read_file(rest)))
    if kind not in _POOL_KEYS:
        raise GraphError(f"unknown pool kind {kind!r}")
    keys, flags = _POOL_KEYS[kind]
    opts: dict[str, str] = {}
    for part in filter(None, rest.split(",")):
        key, is_pair, val = part.partition("=")
        if key not in (keys | _FILTERS.keys() if is_pair else flags):
            raise GraphError(f"pool descriptor {text!r}: unknown "
                             f"{'key' if is_pair else 'flag'} {key!r}")
        if key in opts:
            raise GraphError(f"pool descriptor {text!r} repeats {key!r}")
        opts[key] = val

    def number(key: str, convert=int):
        try:
            return convert(opts[key])
        except ValueError:
            raise GraphError(f"pool descriptor {text!r}: "
                             f"{key}={opts[key]!r} is not a number") from None

    filters = {key.replace("-", "_"): number(key) for key in _FILTERS if key in opts}
    try:
        if kind == "exhaustive":
            return enumerate_graphs(number("n"), dedup="dedup" in opts, **filters)
        return random_pool(number("n"), number("p", float), number("seed"), number("count"),
                           **filters)
    except KeyError as exc:
        raise GraphError(f"pool descriptor {text!r} is missing {exc}") from None
