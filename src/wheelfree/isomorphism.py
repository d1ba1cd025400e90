"""Exact isomorphism testing and canonical forms.

``canonical_code`` refines vertices by iterated neighbor-degree
signatures, then runs a branch-and-bound over class-respecting vertex
orders that keeps the smallest adjacency row at each position, cuts
branches that exceed the best leaf and prunes siblings by the
automorphisms it discovers.  ``is_isomorphic`` compares canonical codes,
so the one search serves both.
"""

from __future__ import annotations

from .errors import GraphError
from .graph import Graph, mapped_rows, upper_code


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the permutation ``perm`` (perm[v] = new id of v)."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphError("not a permutation of the vertex ids")
    return Graph._of(g.n, mapped_rows(g.masks, (1 << g.n) - 1, perm))


def _refine(g: Graph) -> list[int]:
    """Stable vertex colors from iterated (color, sorted neighbor colors)."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    colors = [len(nb) for nb in nbrs]
    while True:
        sigs = [(c, tuple(sorted(colors[u] for u in nb))) for c, nb in zip(colors, nbrs)]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _classes(colors: list[int]) -> list[list[int]]:
    out: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return [out[c] for c in sorted(out)]


def canonical_code(g: Graph) -> int:
    """The smallest edge code over the vertex orders that place the
    refinement classes of g block by block.

    The orders considered put the vertices of the first ``_refine`` class
    at positions 0.., those of the next class after them, and so on.  Any
    isomorphism preserves the refinement classes, so the minimum over
    these orders is an isomorphism invariant: graphs are isomorphic iff
    their canonical codes agree, and the graph realizing the code is the
    canonical representative.  It can be larger than the smallest edge
    code over all relabelings.
    """
    return _CanonicalSearch(g).run()


class _CanonicalSearch:
    """Exact branch-and-bound for ``canonical_code``.

    Positions are filled from n-1 down to 0.  Filling position p fixes
    the bits of the pairs (p, j > p), which outrank every bit still open,
    so a candidate's adjacency row to the placed vertices decides the
    order of subtrees: only the candidates with the smallest row are
    expanded, and a branch whose rows exceed the best leaf is cut.  Two
    leaves with equal codes differ by an automorphism; it is recorded,
    the search backjumps to where the leaves diverge, and later siblings
    in the orbit of a tried candidate, under the recorded automorphisms
    that fix the placed vertices, are skipped (McKay & Piperno,
    "Practical graph isomorphism II", J. Symb. Comput. 2014).
    """

    def __init__(self, g: Graph):
        n = self.n = g.n
        self.nbrs = [g.neighbors(v) for v in range(n)]
        # the class owning each position, blocks in class order
        self.slot_class: list[list[int]] = []
        for cls in _classes(_refine(g)):
            self.slot_class += [cls] * len(cls)
        # rows[v]: bit q set iff v is adjacent to the vertex at position q
        self.rows = [0] * n
        self.order = [0] * n
        # row_at[p]: the row of order[p] when it was placed
        self.row_at = [0] * n
        self.placed = 0
        self.best_order: list[int] | None = None
        self.best_rows: list[int] = []
        # recorded automorphisms as (image list, mask of fixed vertices)
        self.autos: list[tuple[list[int], int]] = []

    def run(self) -> int:
        self._fill(self.n - 1, True)
        return upper_code(self.best_rows)

    def _fill(self, p: int, better: bool) -> int:
        """Search the subtree below the placed prefix (positions > p).

        ``better`` says the prefix's rows are already below the best
        leaf's.  Returns -1, or the position to backjump to."""
        if p < 0:
            return self._leaf(better)
        rows, placed = self.rows, self.placed
        free = [v for v in self.slot_class[p] if not (placed >> v) & 1]
        low = min(rows[v] for v in free)
        if not better:
            if low > self.best_rows[p]:
                return -1
            better = low < self.best_rows[p]
        tried = 0
        for v in free:
            if rows[v] != low:
                continue
            if tried and self._orbit(v) & tried:
                continue
            tried |= 1 << v
            self.order[p] = v
            self.row_at[p] = low
            bit = 1 << p
            self.placed = placed | 1 << v
            for u in self.nbrs[v]:
                rows[u] |= bit
            jump = self._fill(p - 1, better)
            for u in self.nbrs[v]:
                rows[u] ^= bit
            self.placed = placed
            if jump > p:
                return jump
            # a better first child reached a leaf, now the best, whose
            # row at p is low: later children start level with it
            better = False
        return -1

    def _leaf(self, better: bool) -> int:
        order, best = self.order, self.best_order
        if better:
            self.best_order = order[:]
            self.best_rows = self.row_at[:]
            return -1
        # equal codes: order[q] -> best[q] is an automorphism.  It fixes
        # the shared prefix, so the rest of this branch below the position
        # where the leaves diverge mirrors the branch already searched there
        image = [0] * self.n
        fixed = 0
        for v, w in zip(order, best):
            image[v] = w
            if v == w:
                fixed |= 1 << v
        self.autos.append((image, fixed))
        return max(q for q in range(self.n) if order[q] != best[q])

    def _orbit(self, v: int) -> int:
        """Orbit of v under the recorded automorphisms fixing the prefix."""
        placed = self.placed
        gens = [image for image, fixed in self.autos if not placed & ~fixed]
        orbit = 1 << v
        stack = [v]
        while stack:
            x = stack.pop()
            for image in gens:
                y = image[x]
                if not (orbit >> y) & 1:
                    orbit |= 1 << y
                    stack.append(y)
        return orbit


def canonical_form(g: Graph) -> Graph:
    return Graph.from_edge_code(g.n, canonical_code(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test: equal order, size and canonical code."""
    return g.n == h.n and g.m == h.m and canonical_code(g) == canonical_code(h)
