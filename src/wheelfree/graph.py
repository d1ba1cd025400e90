"""Simple undirected graphs with dense vertex ids and bitmask adjacency."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import GraphError

VertexSet = Iterable[int]


def _mask_of(vertices: VertexSet, n: int) -> int:
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for n={n}")
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def row_stride(n: int) -> int:
    """Bits per row of an n x n bit matrix packed into one int, row i at
    bit i * stride: the least power of two >= max(n, 8)."""
    return 1 << max(n - 1, 7).bit_length()


# stride -> the delta swaps (distance, mask) that transpose a packed
# stride x stride bit matrix
_transpose_swaps: dict[int, tuple[tuple[int, int], ...]] = {}


def _swaps(stride: int) -> tuple[tuple[int, int], ...]:
    """Swap j, for each power of two j < stride, exchanges bit (r, c) with
    bit (r + j, c - j) wherever bit j of r is 0 and of c is 1, so it swaps
    bit j of the row and column numbers; all of them together transpose
    (Warren, "Hacker's Delight", section 7-3)."""
    swaps = []
    j = stride >> 1
    while j:
        cols = sum(1 << c for c in range(stride) if c & j)
        swaps.append((j * (stride - 1),
                      sum(cols << r * stride for r in range(stride) if not r & j)))
        j >>= 1
    _transpose_swaps[stride] = swaps = tuple(swaps)
    return swaps


def symmetric_rows(half: int, n: int, stride: int) -> list[int]:
    """The n rows of half | transpose(half), where ``half`` packs an
    n x n bit matrix row i at bit i * stride, stride = row_stride(n):
    each edge need appear in one of its two rows only."""
    both = half
    for d, m in _transpose_swaps.get(stride) or _swaps(stride):
        t = (both ^ both >> d) & m
        both ^= t ^ t << d
    both |= half
    row = (1 << n) - 1
    return [both >> i & row for i in range(0, n * stride, stride)]


# n -> the row stride and, for each row i < n - 1, its field of an
# n-vertex edge code as (its offset in the code, a mask of its width, its
# bit in the packed matrix)
_code_layouts: dict[int, tuple[int, tuple[tuple[int, int, int], ...]]] = {}


def _code_layout(n: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    stride = row_stride(n)
    fields = []
    offset = 0
    for i in range(n - 1):
        width = n - 1 - i
        fields.append((offset, (1 << width) - 1, i * stride + i + 1))
        offset += width
    _code_layouts[n] = layout = (stride, tuple(fields))
    return layout


def upper_code(rows) -> int:
    """The i-major edge code: row i's pairs (i, j > i), the field
    rows[i] >> (i + 1), follow the fields of rows 0..i-1."""
    code = shift = 0
    for i, row in enumerate(rows):
        code |= (row >> (i + 1)) << shift
        shift += len(rows) - 1 - i
    return code


def mapped_rows(adj: tuple[int, ...], keep: int, image) -> list[int]:
    """Rows of the subgraph induced by the mask ``keep`` with each kept
    vertex v renamed image[v]; the images must be 0..|keep|-1."""
    rows = [0] * keep.bit_count()
    for v in bits(keep):
        row = 0
        for w in bits(adj[v] & keep):
            row |= 1 << image[w]
        rows[image[v]] = row
    return rows


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Adjacency is one int bitmask per vertex, so membership tests and
    neighborhood algebra are O(1) words up to n ~ 64; larger graphs stay
    correct but degrade gracefully.  Instances are safe to share between
    concurrent workers; all mutation happens in constructors.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _of(cls, n: int, adj: Iterable[int]) -> "Graph":
        """Wrap adjacency masks the caller has already made valid: no checks."""
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(adj)
        return g

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Graph":
        """Build from per-vertex adjacency masks (validated for symmetry)."""
        masks = tuple(masks)
        n = len(masks)
        g = cls._of(n, masks)
        full = (1 << n) - 1
        for v, m in enumerate(masks):
            if m & ~full:
                raise GraphError(f"adjacency mask of {v} references vertices >= {n}")
            if (m >> v) & 1:
                raise GraphError(f"loop at vertex {v} is not allowed")
        for v, m in enumerate(masks):
            for u in bits(m):
                if not (masks[u] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
        return g

    @classmethod
    def from_edge_code(cls, n: int, code: int) -> "Graph":
        """Decode an upper-triangle edge bitmap: bit k is the k-th pair
        (0,1),(0,2),...,(0,n-1),(1,2),... in i-major order (``upper_code``)."""
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        if code >> n * (n - 1) // 2:
            raise GraphError(f"edge code has bits beyond pair count {n * (n - 1) // 2}")
        stride, fields = _code_layouts.get(n) or _code_layout(n)
        half = 0
        for offset, mask, at in fields:
            half |= (code >> offset & mask) << at
        return cls._of(n, symmetric_rows(half, n, stride))

    def edge_code(self) -> int:
        return upper_code(self._adj)

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(a.bit_count() for a in self._adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex pair ({u},{v}) out of range for n={self.n}")
        return bool((self._adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return tuple(bits(self._adj[v]))

    @property
    def masks(self) -> tuple[int, ...]:
        """The per-vertex adjacency masks (read-only)."""
        return self._adj

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self._adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield (u, v)
                row >>= 1
                v += 1

    def min_degree(self) -> int:
        return min((a.bit_count() for a in self._adj), default=0)

    def is_complete(self) -> bool:
        return all(a.bit_count() == self.n - 1 for a in self._adj)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        full = (1 << self.n) - 1
        return reach(self._adj, 1, full) == full

    def vertex_mask(self, vertices: VertexSet) -> int:
        return _mask_of(vertices, self.n)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def reach(adj: tuple[int, ...], seeds: int, allowed: int) -> int:
    """Mask of ``seeds`` plus every vertex reachable from them by a path
    whose vertices after the seed all lie in ``allowed``."""
    comp = seeds
    frontier = seeds
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & allowed & ~comp
        comp |= frontier
    return comp


def set_neighbors(adj: tuple[int, ...], fmask: int) -> int:
    """Mask of N(F): vertices outside ``fmask`` adjacent to some vertex of it."""
    nb = 0
    m = fmask
    while m:
        b = m & -m
        m ^= b
        nb |= adj[b.bit_length() - 1]
    return nb & ~fmask


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep``, relabeled to 0..|keep|-1.

    Returns the new graph and the old->new id map; relabeling preserves
    the ascending order of the kept ids.
    """
    kmask = _mask_of(keep, g.n)
    idmap = {old: new for new, old in enumerate(bits(kmask))}
    return Graph._of(len(idmap), mapped_rows(g._adj, kmask, idmap)), idmap


def neighborhood(g: Graph, f: VertexSet) -> tuple[int, ...]:
    """N(F): vertices outside F adjacent to at least one vertex of F."""
    return tuple(bits(set_neighbors(g._adj, _mask_of(f, g.n))))


def frontier_complement(g: Graph, f: VertexSet) -> tuple[int, ...]:
    """The set of vertices outside F and not adjacent to F.

    Together with F and N(F) this partitions the vertex set.
    """
    fmask = _mask_of(f, g.n)
    full = (1 << g.n) - 1
    return tuple(bits(full & ~fmask & ~set_neighbors(g._adj, fmask)))
