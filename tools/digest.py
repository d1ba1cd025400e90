"""Print one ``family sha256`` line per family of wheelfree outputs.

Two checkouts compute the same outputs iff they print the same lines:

    PYTHONPATH=<checkout>/src python3 tools/digest.py

Every family but ``wm`` hashes every labeled graph with n <= 6 and every
n = 7 isomorphism class, plus a seeded G(n, p) set: n = 8..62 for the
codecs, n = 17..60 for ``kappa``, n = 8..16 for the rest.  ``kappa`` also
hashes seeded subcubic graphs with n = 40..60, so it pins the
connectivity, a fan and its extension past the oracles' reach.  ``wm``
hashes the rendered ``wm_certificate`` of each vertex x and each of the
first six 4-subsets of N(x) on the curated ``wm``, ``thm44-seeds`` and
``four-connected`` pools and seeded G(n, p) with n = 8..13.  Graphs
are built from edge lists with the ``Graph`` constructor, so no family
relies on the codecs to make its inputs; an exception is hashed as its
type and message.  ``color4`` is hashed as the certificates it renders
to, the text it shows the world, so a change of its result types that
keeps that text keeps the line.
The ``pools`` family instead hashes the graph6 stream of each of the
pool descriptors in ``POOLS``, so it pins the order and the draws of
exhaustive and random pools, the decoding of random graphs up to 62
vertices, and the connectivity filter on graphs of up to 30 vertices.
Stdlib only.
"""

from __future__ import annotations

import hashlib
import random
from itertools import chain, combinations, islice

from wheelfree import (
    STATEMENTS,
    Fan,
    Graph,
    ToolkitError,
    canonical_code,
    color4,
    curated_pool,
    ends,
    enumerate_graphs,
    extend_fan,
    find_k_fan,
    induced_subgraph,
    parse_graph6,
    parse_pool_descriptor,
    reduction_witness,
    relabel,
    to_graph6,
    vertex_connectivity,
    verify_statement,
    wm_certificate,
)
from wheelfree.certificates import render, render_coloring, render_trace


def labeled(n: int):
    """Every labeled graph on n vertices, in i-major edge-code order."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph(n, [p for k, p in enumerate(pairs) if (code >> k) & 1])


def seeded(count: int, lo: int, hi: int, seed: int):
    """``count`` G(n, p) graphs with n in lo..hi (hi among them), p in 0.1..0.9."""
    rnd = random.Random(seed)
    for i in range(count):
        n = hi if i == 0 else rnd.randint(lo, hi)
        p = rnd.uniform(0.1, 0.9)
        yield Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


def subcubic(count: int, lo: int, hi: int, seed: int):
    """``count`` Hamiltonian cycles on n in lo..hi vertices, each plus a
    random matching of chords."""
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(lo, hi)
        order = rnd.sample(range(n), n)
        chords = zip(order[::2], order[1::2])
        edges = {tuple(sorted(e)) for e in chain(((v, (v + 1) % n) for v in range(n)), chords)}
        yield Graph(n, sorted(edges))


def small():
    for n in range(7):
        yield from labeled(n)
    for rep in enumerate_graphs(7, dedup=True):
        yield Graph(7, rep.edges())


def outcome(call, *args):
    try:
        return call(*args)
    except ToolkitError as exc:  # the error text is the output
        return f"{type(exc).__name__}: {exc}"


def codecs(g: Graph, rnd: random.Random) -> tuple:
    code = g.edge_code()
    text = to_graph6(g)
    perm = rnd.sample(range(g.n), g.n)
    keep = [v for v in range(g.n) if rnd.random() < 0.6]
    sub, idmap = induced_subgraph(g, keep)
    return (g.n, code, Graph.from_edge_code(g.n, code).masks, text, parse_graph6(text).masks,
            canonical_code(g), relabel(g, perm).masks, sub.masks, sorted(idmap.items()))


def statements(g: Graph, rnd: random.Random) -> tuple:
    return tuple(verify_statement(g, sid) for sid in STATEMENTS)


def rendered_color4(g: Graph) -> str:
    """color4's result as the certificates it renders to."""
    r = color4(g)
    cert = render_coloring(r.coloring) if r.succeeded else render(r.stuck.wheel)
    return f"{cert}\n{render_trace(r.trace)}"


def coloring(g: Graph, rnd: random.Random) -> tuple:
    return (outcome(rendered_color4, g), outcome(reduction_witness, g, 3),
            outcome(reduction_witness, g, 4))


def end_sets(g: Graph, rnd: random.Random) -> tuple:
    return (outcome(ends, g),)


def kappa(g: Graph, rnd: random.Random) -> tuple:
    """The connectivity kappa and, if kappa >= 1 and 0 and n-1 are
    non-adjacent, a kappa-fan from 0 into N(n-1); for kappa >= 2 also
    that fan's paths longer than one edge (its first path if all are
    direct) extended back to a kappa-fan."""
    k = vertex_connectivity(g) if g.n else None
    if not k or g.has_edge(0, g.n - 1):
        return (k,)
    fan = outcome(find_k_fan, g, 0, g.neighbors(g.n - 1), k)
    if k < 2 or not isinstance(fan, Fan):
        return (k, fan)
    part = tuple(p for p in fan.paths if len(p) > 2) or fan.paths[:1]
    return (k, fan, outcome(extend_fan, g, Fan(fan.origin, fan.targets, part), k))


def rendered_wm(g: Graph, x: int, xs: tuple[int, ...]) -> str:
    cert = wm_certificate(g, x, xs)
    return "none" if cert is None else render(cert)


def wm(g: Graph, rnd: random.Random) -> tuple:
    return tuple(outcome(rendered_wm, g, x, xs)
                 for x in g.vertices() for xs in islice(combinations(g.neighbors(x), 4), 6))


def wm_inputs():
    return chain(curated_pool("wm"), curated_pool("thm44-seeds"), curated_pool("four-connected"),
                 seeded(150, 8, 13, 6))


# name, outputs of one graph, seed, the graphs it hashes
FAMILIES = (
    ("codecs", codecs, 1, lambda: chain(small(), seeded(500, 8, 62, 1))),
    ("statements", statements, 2, lambda: chain(small(), seeded(300, 8, 16, 2))),
    ("color4", coloring, 3, lambda: chain(small(), seeded(300, 8, 16, 3))),
    ("ends", end_sets, 4, lambda: chain(small(), seeded(300, 8, 16, 4))),
    ("kappa", kappa, 5, lambda: chain(small(), seeded(300, 17, 60, 5), subcubic(60, 40, 60, 5))),
    ("wm", wm, 6, wm_inputs),
)


# every labeled n=6 graph, n=5 under each filter, the random-dense bench
# pools of seed 1, the filtered pools of acceptance criterion 4c,
# connectivity-filtered pools past the oracles' reach, n = 62 graphs
# (1,891 pairs) that straddle the passes of draws, and n = 33 graphs,
# whose packed rows take 64 bits where n = 32 takes 32
POOLS = (
    "exhaustive:n=6",
    "exhaustive:n=5,min-degree=2",
    "exhaustive:n=5,connectivity-at-least=2",
    "exhaustive:n=5,wheel-free=4",
    "random:n=10,p=0.5,seed=1001,count=1500",
    "random:n=10,p=0.6,seed=1002,count=1500",
    "random:n=11,p=0.5,seed=1003,count=1500",
    "random:n=8,p=0.65,seed=801,count=3400,connectivity-at-least=4",
    "random:n=9,p=0.6,seed=901,count=3400,connectivity-at-least=4",
    "random:n=10,p=0.55,seed=1001,count=3400,connectivity-at-least=4",
    "random:n=20,p=0.3,seed=2001,count=300,connectivity-at-least=3",
    "random:n=30,p=0.25,seed=3001,count=200,connectivity-at-least=4",
    "random:n=16,p=0.4,seed=1601,count=300,connectivity-at-least=5",
    "random:n=62,p=0.5,seed=6200,count=20",
    "random:n=33,p=0.3,seed=3301,count=100",
)


def main() -> None:
    for name, family, seed, inputs in FAMILIES:
        rnd = random.Random(seed)
        digest = hashlib.sha256()
        for g in inputs():
            digest.update(f"{to_graph6(g)} {family(g, rnd)!r}\n".encode())
        print(name, digest.hexdigest(), flush=True)
    digest = hashlib.sha256()
    for descriptor in POOLS:
        digest.update(f"{descriptor}\n".encode())
        for g in parse_pool_descriptor(descriptor):
            digest.update(f"{to_graph6(g)}\n".encode())
    print("pools", digest.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
