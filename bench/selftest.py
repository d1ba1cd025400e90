"""Feed each checker in ``checkers.py`` a right and a wrong output.

    python3 bench/selftest.py

Exits 0 when every checker accepts the right output and rejects the
wrong one.  ``run.py`` runs the same cases before every benchmark run.
"""

from __future__ import annotations

import sys

import checkers as C


def cases():
    """(name, reason for the right output, reason for the wrong output)."""
    # 4-wheel: rim 1-2-3-4, centre 0 joined to all four
    wheel = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]
    w = C.adjacency(5, wheel)
    spokes = [(0, 1), (0, 2), (0, 3), (0, 4)]
    yield ("wheel: rim that is not a cycle",
           C.check_wheel(w, 0, [1, 2, 3, 4], spokes, 4),
           C.check_wheel(w, 0, [1, 3, 2, 4], spokes, 4))
    yield ("wheel: three spokes for a 4-wheel",
           C.check_wheel(w, 0, [1, 2, 3, 4], spokes, 4),
           C.check_wheel(w, 0, [1, 2, 3, 4], spokes[:3], 4))

    k4 = C.adjacency(4, C.complete(4))
    yield ("colouring: improper",
           C.check_coloring(k4, [0, 1, 2, 3]),
           C.check_coloring(k4, [0, 1, 2, 2]))
    k5 = C.adjacency(5, C.complete(5))
    yield ("colouring: five colours",
           C.check_coloring(C.adjacency(5, []), [0, 0, 0, 0, 0]),
           C.check_coloring(k5, [0, 1, 2, 3, 4]))

    k44 = C.adjacency(8, C.complete_bipartite(4, 4))
    yield ("wm-cert: targets left connected",
           C.check_wm_cert(k44, 0, [4, 5, 6, 7], [1, 2, 3]),
           C.check_wm_cert(k44, 0, [4, 5, 6, 7], [1, 2, 5]))

    labelings = sorted(C.k33e_labelings())
    yield ("thm-4.5 tally: one K33+e labeling missing",
           C.check_thm45_tally(labelings),
           C.check_thm45_tally(labelings[1:]))

    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    yield ("kappa: off by one",
           C.check_kappa(10, petersen, 3),
           C.check_kappa(10, petersen, 4))

    yield ("reduction trace: degree 4 removed first",
           C.check_reduction_trace(C.adjacency(5, wheel),
                                   [("low-degree", 1, None), ("low-degree", 0, None),
                                    ("low-degree", 2, None), ("low-degree", 3, None),
                                    ("low-degree", 4, None)]),
           C.check_reduction_trace(C.adjacency(5, wheel), [("low-degree", 0, None)]))

    k33e = C.complete_bipartite(3, 3) + [(0, 1)]
    yield ("thm-4.5 confirmation: a trivial end",
           C.check_thm45_counterexample(6, k33e, [0, 1]),
           C.check_thm45_counterexample(6, k33e, [2]))


def failures() -> list[str]:
    out = []
    for name, right, wrong in cases():
        if right is not None:
            out.append(f"{name}: the right output was rejected ({right})")
        if wrong is None:
            out.append(f"{name}: the wrong output was accepted")
    return out


if __name__ == "__main__":
    bad = failures()
    for line in bad:
        print(line)
    print(f"selftest: {len(list(cases()))} cases, {len(bad)} failures")
    sys.exit(1 if bad else 0)
