"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in fresh processes
(``workloads.py``): four that only set up, then one that sets up and
measures.  This process then checks the outputs against networkx and
the reference counts, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Inputs, results and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkers as C
import clock
import reference
import selftest

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("catalog-exhaustive", "random-dense", "large-singles")
SETUPS = 5
DEADLINE_S = 170


def child(args, mode: str, out: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--out", str(out)]
    calibration = clock.calibrate(8)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads((out / f"{mode}.json").read_text())
    result["setup_s"] = (result["ready"] - spawned) * clock.scale(calibration,
                                                                 result["calibration"])
    return result


def check_catalog(res: dict) -> list[str]:
    bad = []
    ref = reference.load()
    for desc, counts in res["check"]["counts"].items():
        want = ref[desc]
        if counts["graphs"] != want["graphs"]:
            bad.append(f"{desc}: {counts['graphs']} graphs, expected {want['graphs']}")
        for sid, key in C.APPLICABLE_COUNTS.items():
            if counts.get(sid, 0) != want[key]:
                bad.append(f"{desc}: {sid} applies to {counts.get(sid, 0)} graphs, "
                           f"reference {key} = {want[key]}")
    codes = []
    for desc, n, edges, _ in res["check"]["thm45"]:
        if desc != "exhaustive:n=6":
            bad.append(f"thm-4.5 counterexample in {desc}: {C.graph6(n, edges)}")
        else:
            codes.append(C.edge_code(n, edges))
    tally = C.check_thm45_tally(codes)
    if tally:
        bad.append(f"thm-4.5 at n=6: {tally}")
    classes = res["check"]["classes_n7"]
    if len(classes) != ref["exhaustive:n=7,dedup"]["graphs"]:
        bad.append(f"{len(classes)} classes at n=7, OEIS A000088 says 1044")
    distinct = C.check_distinct_classes(7, classes)
    if distinct:
        bad.append(distinct)
    return bad


def check_random(res: dict) -> list[str]:
    bad = []
    for desc, n, edges, detail in res["check"]["thm45"]:
        # detail: "non-trivial end (a, b, ...) with no 4-wheel center"
        end = [int(v) for v in detail.split("(")[1].split(")")[0].split(",") if v.strip()]
        why = C.check_thm45_counterexample(n, edges, end)
        if why:
            bad.append(f"thm-4.5 counterexample {C.graph6(n, edges)} not confirmed: {why}")
    for g in res["check"]["graphs"]:
        kappa = C.nx_kappa(g["n"], g["edges"])
        if g["kappa"] != kappa:
            bad.append(f"{C.graph6(g['n'], g['edges'])}: kappa {g['kappa']}, networkx {kappa}")
        for sid, appl in g["applicable"].items():
            want = C.KAPPA_PRECONDITION.get(sid)
            if want is not None and appl != want(kappa):
                bad.append(f"{C.graph6(g['n'], g['edges'])}: {sid} applicability {appl} "
                           f"at networkx kappa {kappa}")
    return bad


def check_singles(res: dict) -> list[str]:
    import networkx as nx

    bad = []
    batch = res["check"]["batch"]
    kappas = res["check"].get("kappa", [])
    if len(kappas) != len(batch):
        bad.append(f"kappa reported {len(kappas)} values for {len(batch)} graphs")
    for (n, edges), kappa in zip(batch, kappas):
        why = C.check_kappa(n, edges, kappa)
        if why:
            bad.append(f"kappa on {C.graph6(n, edges)}: {why}")
    for n, edges, code in res["check"]["canonical"]:
        decoded = C.nx_graph(n, C.decode_edge_code(n, code))
        if not nx.is_isomorphic(decoded, C.nx_graph(n, edges)):
            bad.append(f"canonical_code of {C.graph6(n, edges)} decodes to another graph")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wheelfree" / "__init__.py").is_file():
        print("error: run from the root of a wheelfree checkout (no src/wheelfree here)",
              file=sys.stderr)
        return 2
    broken = selftest.failures()
    if broken:
        print("error: a checker is broken:\n" + "\n".join(broken), file=sys.stderr)
        return 3
    started = time.monotonic()
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        setups = [] if args.trace else [child(args, "setup", out, 60)["setup_s"]
                                        for _ in range(SETUPS - 1)]
        res = child(args, "run", out, DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    checker = {"catalog-exhaustive": check_catalog, "random-dense": check_random,
               "large-singles": check_singles}[args.workload]
    problems = res["errors"] + checker(res)
    for p in problems:
        print(f"check failed: {p}")
    print(f"workload {args.workload} seed {args.seed}: attempted {res['attempted']}, "
          f"failed {res['failed']}, {len(problems)} check failures, "
          f"{res.get('rounds', 2)} rounds, {len(setups)} set-ups"
          + ("" if args.trace else f", {res['samples']} latency samples"))
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_p99_us": {"value": res["op_p99_us"], "unit": "us"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
