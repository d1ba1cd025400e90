"""Recompute every reference count the benchmark's checks use.

    python3 bench/reference.py           # recompute and compare with reference.json
    python3 bench/reference.py --write   # recompute and overwrite reference.json

Connectivity comes from networkx ``node_connectivity``, 4-wheel-freeness
from the cycle listing in ``checkers.py``, the n=7 classes from the
networkx graph atlas.  Nothing here imports ``wheelfree``.  Takes about
20 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import networkx as nx

from checkers import adjacency, decode_edge_code, has_k_wheel, k33e_labelings

REFERENCE = Path(__file__).with_name("reference.json")


def _tally(graphs) -> dict[str, int]:
    """``graphs`` yields (n, edges)."""
    out = {"graphs": 0, "kappa_2": 0, "kappa_3": 0, "kappa_ge_4": 0, "kappa_ge_5": 0,
           "wheel_free_4": 0}
    for n, edges in graphs:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        kappa = nx.node_connectivity(g)
        out["graphs"] += 1
        out["kappa_2"] += kappa == 2
        out["kappa_3"] += kappa == 3
        out["kappa_ge_4"] += kappa >= 4
        out["kappa_ge_5"] += kappa >= 5
        out["wheel_free_4"] += not has_k_wheel(adjacency(n, edges), 4)
    return out


def compute() -> dict:
    labeled6 = ((6, decode_edge_code(6, code)) for code in range(1 << 15))
    classes7 = ((7, list(g.edges())) for g in nx.graph_atlas_g() if g.number_of_nodes() == 7)
    return {
        "exhaustive:n=6": _tally(labeled6),
        "exhaustive:n=7,dedup": _tally(classes7),
        "k33e_labelings": len(k33e_labelings()),
    }


def load() -> dict:
    return json.loads(REFERENCE.read_text())


def main() -> int:
    fresh = compute()
    if "--write" in sys.argv[1:]:
        REFERENCE.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    stored = load()
    print(json.dumps(fresh, indent=2, sort_keys=True))
    if fresh != stored:
        print("reference.json differs from the recomputed counts", file=sys.stderr)
        return 1
    print("reference.json matches the recomputed counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
