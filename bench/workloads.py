"""One benchmark process: set up a workload, time whole rounds of its
operations, check every output that needs no networkx, and write a JSON
result for ``run.py``.

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run --out DIR

Run from the root of a checkout: ``wheelfree`` is imported from ./src.
``--mode setup`` stops once the first operation could start, so that
``run.py`` can time set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import random
import resource
import statistics
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path.cwd() / "src"))

import checkers as C  # noqa: E402
import clock  # noqa: E402
from wheelfree import Graph  # noqa: E402
from wheelfree.certificates import render  # noqa: E402
from wheelfree.cli import main as cli_main  # noqa: E402
from wheelfree.connectivity import ends, vertex_connectivity  # noqa: E402
from wheelfree.errors import NoFragmentsError  # noqa: E402
from wheelfree.formats import parse_graph6, to_graph6  # noqa: E402
from wheelfree.isomorphism import canonical_code, is_isomorphic  # noqa: E402
from wheelfree.oracles import (  # noqa: E402
    brute_chromatic_number,
    brute_has_k_wheel,
    brute_vertex_connectivity,
    parse_pool_descriptor,
)
from wheelfree.structure import VerifyStatus, color4, verify_statement  # noqa: E402
from wheelfree.wheels import find_k_wheel, is_wheel_center  # noqa: E402

# the 10 distinct catalog ids; thm-1.4 is an alias of thm-4.8
IDS = ("thm-4.8", "thm-1.1", "thm-1.2", "cor-1.5", "thm-4.4", "thm-4.5", "cor-4.6",
       "thm-4.7", "lemma-4.2", "lemma-4.3")

# not-applicable details that mean "the connectivity precondition is unmet"
PRECONDITION_UNMET = {"connectivity != 2", "connectivity != 3", "not 4-connected",
                      "not 5-connected"}

# per-layer metrics, each reported as <name>.calls and <name>.us
LAYERS = (
    "graph.from_edge_code", "oracles.pool", "oracles.brute_chromatic_number",
    "oracles.brute_has_k_wheel", "oracles.brute_vertex_connectivity",
    "connectivity.vertex_connectivity", "connectivity.ends",
    "wheels.find_k_wheel.found", "wheels.find_k_wheel.absent", "wheels.is_wheel_center",
    "structure.color4", *(f"structure.verify.{sid}" for sid in IDS),
    "isomorphism.canonical_code", "isomorphism.is_isomorphic",
    "formats.parse_graph6", "formats.to_graph6", "certificates.render",
)
CLI_COMMANDS = ("wheel", "ends", "kappa", "color4", "wm-cert", "conjecture")


def applicable(sid: str, result) -> bool:
    if result.status is not VerifyStatus.NOT_APPLICABLE:
        return True
    if sid == "cor-1.5":
        return False
    return result.detail not in PRECONDITION_UNMET


def local_adj(g: Graph) -> list[set[int]]:
    return [{u for u in range(g.n) if (m >> u) & 1} for m in g.masks]


def graph_edges(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (g.masks[u] >> v) & 1]


def check_wheel_obj(adj, wheel, k: int) -> str | None:
    return C.check_wheel(adj, wheel.center, wheel.rim, wheel.spokes, k)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    """Spans kept in memory: name, start and end in ns, and the index of
    the span that caused it (-1 for a root)."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")

    def add(self, name: str, parent: int, start: int, end: int) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        self.name.append(idx)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def call(self, name: str, parent: int, fn, *args):
        t0 = perf_counter_ns()
        out = fn(*args)
        return out, self.add(name, parent, t0, perf_counter_ns())

    def self_ns(self) -> dict[str, array]:
        """Per name, each span's duration minus the part its children cover
        (children run one after another, so their parts never overlap)."""
        covered = array("q", bytes(8 * len(self.name)))
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                lo, hi = max(start, self.start[parent]), min(end, self.end[parent])
                if hi > lo:
                    covered[parent] += hi - lo
        out = {name: array("q") for name in self.names}
        for idx, start, end, cov in zip(self.name, self.start, self.end, covered):
            out[self.names[idx]].append(end - start - cov)
        return out

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (idx, parent, start, end) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{parent}\t{self.names[idx]}\t{start}\t{end}\n")


class Run:
    """Shared bookkeeping: the meter of program time and latencies
    (operation kinds: 0 pool iteration, 1 completed, 2 failed), errors,
    attempts."""

    def __init__(self, args):
        self.seed = args.seed
        self.out = Path(args.out)
        self.meter = clock.Meter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check: dict = {}
        self.tracer: Tracer | None = None

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def end_to_end(self) -> dict:
        lat = sorted(self.meter.latency_ns)
        return {
            "ops_per_s": len(lat) / (self.meter.program_ns / 1e9),
            "op_p99_us": percentile(lat, 99) / 1e3,
            "samples": len(lat),
        }


# -------------------------------------------------------------------------
# pool workloads: catalog-exhaustive and random-dense
# -------------------------------------------------------------------------


class PoolWorkload:
    """Each round runs every statement over every pool, one pass per
    statement, as ``wheelfree verify <id> --pool <descriptor>`` does."""

    def __init__(self, run: Run, descriptors, per_graph: bool):
        self.run = run
        self.per_graph = per_graph
        self.pools = [parse_pool_descriptor(d) for d in descriptors]
        self.rounds_tally: list[dict] = []
        self.thm45: list = []
        self.applicable: dict[tuple[int, int], dict[str, bool]] = {}

    def round(self, traced: bool) -> None:
        run, tr = self.run, self.run.tracer
        tally: dict[str, int] = {}
        first_round = not self.rounds_tally
        self.first_checks = {}
        meter = run.meter
        for pi, pool in enumerate(self.pools):
            for sid in IDS:
                pass_start = perf_counter_ns()
                pool_spans = []
                check_spans = []
                it = iter(pool)
                j = 0
                while True:
                    t0 = perf_counter_ns()
                    g = next(it, None)
                    t1 = perf_counter_ns()
                    meter.record(0, t0, t1)
                    if g is None:
                        break
                    run.attempted += 1
                    try:
                        result = verify_statement(g, sid)
                    except Exception as exc:  # a check must never raise
                        meter.record(2, t1, perf_counter_ns())
                        run.failed += 1
                        run.error(f"{sid} on {to_graph6(g)} raised {exc!r}")
                        j += 1
                        continue
                    t2 = perf_counter_ns()
                    meter.record(1, t1, t2)
                    if traced:
                        pool_spans.append((t0, t1))
                        check_spans.append((t1, t2))
                    key = f"{pool.descriptor}|{sid}|{result.status.value}|{applicable(sid, result)}"
                    tally[key] = tally.get(key, 0) + 1
                    if not traced:
                        self.inspect(pi, j, g, sid, result, first_round)
                    j += 1
                if traced:
                    root = tr.add("round.pass", -1, pass_start, perf_counter_ns())
                    for t0, t1 in pool_spans:
                        tr.add("oracles.pool", root, t0, t1)
                    ids = [tr.add(f"structure.verify.{sid}", root, t1, t2)
                           for t1, t2 in check_spans]
                    if sid == IDS[0]:
                        self.first_checks[pi] = ids
        if self.rounds_tally and tally != self.rounds_tally[0]:
            run.error("a round's statuses differ from the first round's")
        self.rounds_tally.append(tally)

    def inspect(self, pi, j, g, sid, result, first_round) -> None:
        run = self.run
        status = result.status
        if status is VerifyStatus.BUDGET_EXCEEDED:
            run.error(f"{sid} on {to_graph6(g)}: budget exceeded ({result.detail})")
        elif status is VerifyStatus.COUNTEREXAMPLE:
            if sid != "thm-4.5":
                run.error(f"{sid} on {to_graph6(g)}: counterexample ({result.detail})")
            elif first_round:
                self.thm45.append((pi, g.n, graph_edges(g), result.detail))
        if result.certificates:
            adj = local_adj(g)
            for cert in result.certificates:
                if not hasattr(cert, "rim"):
                    run.error(f"{sid}: unexpected certificate {type(cert).__name__}")
                    continue
                bad = check_wheel_obj(adj, cert, 3 if sid == "thm-1.1" else 4)
                if bad:
                    run.error(f"{sid} on {to_graph6(g)}: wheel rejected: {bad}")
        if first_round and self.per_graph and sid in C.APPLICABLE_COUNTS:
            self.applicable.setdefault((pi, j), {})[sid] = applicable(sid, result)

    def program_counts(self) -> dict:
        """Per pool, how many checks each statement found applicable."""
        out: dict[str, dict[str, int]] = {}
        for key, count in self.rounds_tally[0].items():
            desc, sid, _, appl = key.split("|")
            per = out.setdefault(desc, {"graphs": 0})
            per[sid] = per.get(sid, 0) + (count if appl == "True" else 0)
            if sid == IDS[0]:
                per["graphs"] += count
        return out

    def direct_calls(self, relabel_rng: random.Random) -> None:
        """Traced run only: call each layer on every pool graph, under the
        span of that graph's first check."""
        tr, run = self.run.tracer, self.run
        for pi, pool in enumerate(self.pools):
            for j, g in enumerate(pool):
                parent = self.first_checks[pi][j]
                adj = local_adj(g)
                h, _ = tr.call("graph.from_edge_code", parent, Graph.from_edge_code, g.n,
                               g.edge_code())
                kappa, _ = tr.call("connectivity.vertex_connectivity", parent,
                                   vertex_connectivity, g)
                bkappa, _ = tr.call("oracles.brute_vertex_connectivity", parent,
                                    brute_vertex_connectivity, g)
                t0 = perf_counter_ns()
                wheel = find_k_wheel(g, 4)
                tr.add("wheels.find_k_wheel." + ("absent" if wheel is None else "found"),
                       parent, t0, perf_counter_ns())
                bwheel, _ = tr.call("oracles.brute_has_k_wheel", parent, brute_has_k_wheel, g, 4)
                for v in range(g.n):
                    tr.call("wheels.is_wheel_center", parent, is_wheel_center, g, v, 4)
                colored, _ = tr.call("structure.color4", parent, color4, g)
                chi, _ = tr.call("oracles.brute_chromatic_number", parent,
                                 brute_chromatic_number, g)
                t0 = perf_counter_ns()
                try:
                    ends(g)
                except NoFragmentsError:
                    pass
                tr.add("connectivity.ends", parent, t0, perf_counter_ns())
                tr.call("isomorphism.canonical_code", parent, canonical_code, g)
                perm = list(range(g.n))
                relabel_rng.shuffle(perm)
                image = Graph(g.n, C.relabel(graph_edges(g), perm))
                iso, _ = tr.call("isomorphism.is_isomorphic", parent, is_isomorphic, g, image)
                text, _ = tr.call("formats.to_graph6", parent, to_graph6, g)
                back, _ = tr.call("formats.parse_graph6", parent, parse_graph6, text)
                tr.call("certificates.render", parent, render,
                        wheel if wheel is not None else colored.coloring)
                problems = [
                    h.masks != g.masks and "from_edge_code(edge_code) changed the graph",
                    kappa != bkappa and f"kappa {kappa} but brute oracle {bkappa}",
                    (wheel is None) != (bwheel is None) and "find_k_wheel and oracle disagree",
                    wheel is not None and check_wheel_obj(adj, wheel, 4),
                    bwheel is not None and check_wheel_obj(adj, bwheel, 4),
                    colored.succeeded and C.check_coloring(adj, colored.coloring.colors),
                    not colored.succeeded and check_wheel_obj(adj, colored.stuck.wheel, 4),
                    not colored.succeeded and wheel is None and "color4 stuck, no 4-wheel",
                    wheel is None and chi > 4 and f"4-wheel-free with chromatic number {chi}",
                    not iso and "is_isomorphic rejects a relabelling",
                    back.masks != g.masks and "graph6 round trip changed the graph",
                    text != C.graph6(g.n, graph_edges(g)) and "to_graph6 differs from graph6",
                ]
                for p in problems:
                    if p:
                        run.error(f"{to_graph6(g)}: {p}")


def catalog_setup(run: Run):
    descriptors = ("exhaustive:n=6", "exhaustive:n=7,dedup")
    wl = PoolWorkload(run, descriptors, per_graph=False)
    # the first pass over a dedup pool builds its isomorphism classes
    t0 = perf_counter_ns()
    classes = list(wl.pools[1])
    t1 = perf_counter_ns()
    if run.tracer is not None:
        run.tracer.add("isomorphism.class_build", -1, t0, t1)
        smaller = list(parse_pool_descriptor("exhaustive:n=6,dedup"))
        run.check["class_build_yield"] = len(classes) / (len(smaller) * 2 ** 6)
    run.check["classes_n7"] = [graph_edges(g) for g in classes]
    return wl


def random_descriptors(seed: int) -> list[str]:
    # n and p put most graphs at connectivity 2 to 5 with 4-wheels.  No
    # n=12 pool: there a single check costs up to 1.8 s or under 1 ms on
    # the same graph depending only on its vertex labels, and one such
    # check in a round moves the round's throughput by 15% (CHANGES.md).
    # The n=11 pool is large enough that its thm-4.5 checks on
    # connectivity-3 graphs, each a 2^11 subset scan, are more than 1% of
    # all checks, so the 99th percentile falls among them on every seed.
    base = 1000 * seed
    return [f"random:n=10,p=0.5,seed={base + 1},count=1500",
            f"random:n=10,p=0.6,seed={base + 2},count=1500",
            f"random:n=11,p=0.5,seed={base + 3},count=1500"]


def random_setup(run: Run):
    return PoolWorkload(run, random_descriptors(run.seed), per_graph=True)


def pool_finish(run: Run, wl: PoolWorkload, catalog: bool) -> None:
    run.check["counts"] = wl.program_counts()
    run.check["thm45"] = [(wl.pools[pi].descriptor, n, edges, detail)
                          for pi, n, edges, detail in wl.thm45]
    if not catalog:
        graphs = []
        for pi, pool in enumerate(wl.pools):
            for j, g in enumerate(pool):
                graphs.append({"n": g.n, "edges": graph_edges(g),
                               "kappa": vertex_connectivity(g),
                               "applicable": wl.applicable[(pi, j)]})
        run.check["graphs"] = graphs


# -------------------------------------------------------------------------
# large-singles
# -------------------------------------------------------------------------


def parse_report(text: str) -> list[dict]:
    """Split a per-graph CLI report into one dict per graph: ``g6`` and
    every ``key: value`` line, repeated keys collected in lists."""
    blocks: list[dict] = []
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("graph "):
            blocks.append({"g6": value})
        elif key == "summary":
            break
        elif blocks:
            blocks[-1].setdefault(key, []).append(value)
    return blocks


def _wheel_from_block(block: dict, i: int = 0):
    center = int(block["center"][i])
    rim = [int(v) for v in block["rim"][i].split()]
    spokes = [tuple(int(x) for x in s.split("-")) for s in block["spokes"][i].split()]
    return center, rim, spokes


def subcubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A Hamiltonian cycle plus random chords, no vertex above degree 3."""
    edges = {(min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n)}
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order[::2], order[1::2]):
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


class SinglesWorkload:
    def __init__(self, run: Run):
        self.run = run
        rng = random.Random(run.seed)
        out = run.out
        out.mkdir(parents=True, exist_ok=True)

        def shuffled(n, edges):
            perm = list(range(n))
            rng.shuffle(perm)
            return C.relabel(edges, perm)

        def write(name, graphs):
            path = out / name
            path.write_text("".join(C.graph6(n, e) + "\n" for n, e in graphs))
            return str(path)

        self.k3d = [(3 + d, shuffled(3 + d, C.complete_bipartite(3, d))) for d in (12, 14)]
        self.circ = [(n, shuffled(n, C.circulant(n, (1, 2)))) for n in (16, 18)]
        # dense G(n, p) graphs, whose 4-wheels are found at once, and
        # subcubic graphs, 4-wheel-free and colourable by degree alone;
        # sparse G(n, p) graphs are left out: see CHANGES.md
        self.batch = []
        for i in range(24):
            n = rng.randint(40, 60)
            if i % 2:
                p = (0.3, 0.35)[i // 2 % 2]
                self.batch.append((n, [(u, v) for u, v in C.pairs(n) if rng.random() < p]))
            else:
                self.batch.append((n, shuffled(n, subcubic(n, rng))))
        perm = list(range(8))
        rng.shuffle(perm)
        self.k44 = (8, C.relabel(C.complete_bipartite(4, 4), perm))
        self.wm_x, self.wm_targets = perm[0], [perm[v] for v in range(4, 8)]
        canon = [(8, C.complete_bipartite(4, 4)), (8, C.circulant(8, (1, 2))),
                 (9, C.circulant(9, (1, 2)))]
        self.canon = [(n, shuffled(n, e)) for n, e in canon]
        self.canon_graphs = [Graph(n, e) for n, e in self.canon]
        self.files = {
            "k3d": write("k3d.g6", self.k3d),
            "circ": write("circulants.g6", self.circ),
            "batch": write("batch.g6", self.batch),
            "wm": write("k44.g6", [self.k44]),
            # K_13 is not relabelled: the failing call must not depend on the seed
            "k13": write("k13.g6", [(13, C.complete(13))]),
        }
        self.ops = [
            ("cli.wheel", ["wheel", self.files["k3d"], "--k", "4"], self.check_k3d),
            ("cli.ends", ["ends", self.files["circ"]], self.check_circ),
            *(("isomorphism.canonical_code", i, None) for i in range(3)),
            ("cli.kappa", ["kappa", self.files["batch"]], self.check_kappa),
            ("cli.color4", ["color4", self.files["batch"], "--emit-trace"], self.check_color4),
            ("cli.wheel", ["wheel", self.files["batch"], "--k", "4"], self.check_batch_wheel),
            ("cli.wm-cert", ["wm-cert", self.files["wm"], "--x", str(self.wm_x), "--targets",
                             ",".join(map(str, self.wm_targets))], self.check_wm),
            ("cli.conjecture", ["conjecture", "--k", "20", "--pool", f"file:{self.files['k13']}"],
             self.check_conjecture),
        ]
        self.codes: list[int] = []
        self.colored: list[bool] = []
        self.outputs: list = []

    def round(self, traced: bool) -> None:
        run, tr = self.run, self.run.tracer
        round_start = perf_counter_ns()
        spans = []
        outputs = []
        for name, arg, checker in self.ops:
            run.attempted += 1
            t0 = perf_counter_ns()
            if name == "isomorphism.canonical_code":
                out = canonical_code(self.canon_graphs[arg])
                t1 = perf_counter_ns()
                ok = True
            else:
                buf = io.StringIO()
                try:
                    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                        rc = cli_main(arg)
                    out = (rc, buf.getvalue())
                    ok = rc == 0
                except Exception as exc:
                    out = (None, repr(exc))
                    ok = False
                t1 = perf_counter_ns()
            run.meter.record(1 if ok else 2, t0, t1)
            if not ok:
                run.failed += 1
            outputs.append(out)
            spans.append((name, t0, t1, arg))
        if traced:
            root = tr.add("round", -1, round_start, perf_counter_ns())
            self.op_spans = [(name, tr.add(name, root, t0, t1), arg)
                             for name, t0, t1, arg in spans]
        if self.outputs and outputs != self.outputs:
            run.error("a round's outputs differ from the first round's")
        if not self.outputs:
            self.outputs = outputs
            for (name, arg, checker), out in zip(self.ops, outputs):
                if checker is None:
                    self.codes.append(out)
                else:
                    checker(*out)

    # -- checks on the first round's outputs --------------------------------

    def _blocks(self, rc, text, graphs, what) -> list[dict] | None:
        if rc != 0:
            self.run.error(f"{what}: exit {rc}: {text[-200:]}")
            return None
        blocks = parse_report(text)
        if [b["g6"] for b in blocks] != [C.graph6(n, e) for n, e in graphs]:
            self.run.error(f"{what}: echoed graph6 differs from the input")
            return None
        return blocks

    def check_k3d(self, rc, text):
        # every cycle of K_{2,d} meets at most two vertices of the d side
        for b in self._blocks(rc, text, self.k3d, "wheel k3d") or ():
            if b.get("status") != ["4-wheel-free"]:
                self.run.error(f"wheel: K_3,d reported {b.get('status')}")

    def check_circ(self, rc, text):
        # C_n(1,2) is 4-regular and 4-connected: its ends are the singletons
        for (n, _), b in zip(self.circ, self._blocks(rc, text, self.circ, "ends") or ()):
            got = sorted(b.get("end", []), key=lambda s: [int(x) for x in s.split()])
            if b.get("ends") != [str(n)] or got != [str(v) for v in range(n)]:
                self.run.error(f"ends of C_{n}(1,2): {b.get('ends')} {got[:4]}")

    def check_kappa(self, rc, text):
        blocks = self._blocks(rc, text, self.batch, "kappa") or ()
        self.run.check["kappa"] = [int(b["kappa"][0]) for b in blocks]

    def check_color4(self, rc, text):
        for (n, e), b in zip(self.batch, self._blocks(rc, text, self.batch, "color4") or ()):
            adj = C.adjacency(n, e)
            status = b.get("status")
            if status == ["colored"]:
                colors = [int(c) for c in b["colors"][0].split()]
                bad = C.check_coloring(adj, colors)
                self.colored.append(True)
            elif status == ["contains-4-wheel"]:
                bad = C.check_wheel(adj, *_wheel_from_block(b), 4)
                self.colored.append(False)
            else:
                bad = f"status {status}"
            if bad:
                self.run.error(f"color4 on {C.graph6(n, e)}: {bad}")
        self._check_traces(text)

    def _check_traces(self, text):
        """Replay each graph's elimination trace."""
        graphs = iter(self.batch)
        steps, n, e, colored = None, None, None, None
        results = iter(self.colored)

        def finish():
            if steps is None:
                return
            bad = C.check_reduction_trace(C.adjacency(n, e), steps)
            if not bad and colored and len(steps) != n:
                bad = f"trace removes {len(steps)} of {n} vertices"
            if bad:
                self.run.error(f"color4 trace on {C.graph6(n, e)}: {bad}")

        for line in text.splitlines():
            if line.startswith("graph "):
                finish()
                n, e = next(graphs)
                colored = next(results, None)
                steps = []
            elif line.startswith("step ") and steps is not None:
                words = line.split(": ", 1)[1].split()
                fields = dict(w.split("=") for w in words[1:])
                keep = int(fields["keep"]) if "keep" in fields else None
                steps.append((words[0], int(fields["remove"]), keep))
        finish()

    def check_batch_wheel(self, rc, text):
        blocks = self._blocks(rc, text, self.batch, "wheel batch") or ()
        for (n, e), b, colored in zip(self.batch, blocks, self.colored):
            if b.get("status") == ["contains-4-wheel"]:
                bad = C.check_wheel(C.adjacency(n, e), *_wheel_from_block(b), 4)
            elif b.get("status") == ["4-wheel-free"]:
                # a centre needs four neighbours, so max degree 3 proves it
                if max(len(a) for a in C.adjacency(n, e)) > 3:
                    bad = "4-wheel-free claimed on a dense graph"
                else:
                    bad = None if colored else "4-wheel-free but color4 got stuck"
            else:
                bad = f"status {b.get('status')}"
            if bad:
                self.run.error(f"wheel on {C.graph6(n, e)}: {bad}")

    def check_wm(self, rc, text):
        for b in self._blocks(rc, text, [self.k44], "wm-cert") or ():
            if b.get("status") != ["certified"]:
                self.run.error(f"wm-cert on K_4,4: {b.get('status')}")
                continue
            bad = C.check_wm_cert(C.adjacency(*self.k44), int(b["x"][0]),
                                  [int(t) for t in b["targets"][0].split()],
                                  [int(v) for v in b["cutset"][0].split()])
            if bad:
                self.run.error(f"wm-cert on K_4,4: {bad}")

    def check_conjecture(self, rc, text):
        # K_13 is 20-wheel-free and 13-colourable: the only right answer is
        # "no counterexample"; today the call raises and counts as failed
        if rc == 0 and "over-chromatic=0" not in text:
            self.run.error(f"conjecture on K_13: {text[-200:]}")

    def finish(self, run: Run) -> None:
        """Canonical codes of a second seeded relabelling, for the equality
        check; the decoded graphs go to run.py for networkx."""
        rng = random.Random(run.seed + 1)
        again = []
        for n, e in self.canon:
            perm = list(range(n))
            rng.shuffle(perm)
            again.append(canonical_code(Graph(n, C.relabel(e, perm))))
        for (n, e), code, code2 in zip(self.canon, self.codes, again):
            if code != code2:
                run.error(f"canonical_code differs between two relabellings of {C.graph6(n, e)}")
        run.check["canonical"] = [(n, e, code) for (n, e), code in zip(self.canon, self.codes)]
        run.check["batch"] = self.batch

    def direct_calls(self) -> None:
        """Traced run only: the layer calls beneath each CLI call, on the
        graphs of its input file."""
        tr = self.run.tracer
        for name, parent, arg in self.op_spans:
            if name == "isomorphism.canonical_code":
                continue
            path = arg[1] if name != "cli.conjecture" else self.files["k13"]
            for line in Path(path).read_text().split():
                g, _ = tr.call("formats.parse_graph6", parent, parse_graph6, line)
                tr.call("formats.to_graph6", parent, to_graph6, g)
                if name == "cli.wheel":
                    t0 = perf_counter_ns()
                    wheel = find_k_wheel(g, 4)
                    tr.add("wheels.find_k_wheel." + ("absent" if wheel is None else "found"),
                           parent, t0, perf_counter_ns())
                    if wheel is not None:
                        tr.call("certificates.render", parent, render, wheel)
                elif name == "cli.ends":
                    tr.call("connectivity.ends", parent, ends, g)
                elif name == "cli.kappa":
                    tr.call("connectivity.vertex_connectivity", parent, vertex_connectivity, g)
                elif name == "cli.color4":
                    colored, _ = tr.call("structure.color4", parent, color4, g)
                    cert = colored.coloring if colored.succeeded else colored.stuck.wheel
                    tr.call("certificates.render", parent, render, cert)


# -------------------------------------------------------------------------
# entry point
# -------------------------------------------------------------------------

WORKLOADS = ("catalog-exhaustive", "random-dense", "large-singles")


def peak_rss_mib() -> float:
    # read after the first round: later rounds of large-singles raise it
    # further, as canonical_code's permutation lists outlive the call
    # until a full garbage collection (CHANGES.md), and the number of
    # rounds depends on --seconds and on the program's speed
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(run: Run, untraced: dict, traced: dict) -> dict:
    selfs = run.tracer.self_ns()
    m: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        vals = selfs.get(name, [])
        m[f"{name}.calls"] = (len(vals), "count")
        m[f"{name}.us"] = (statistics.median(vals) / 1e3 if vals else 0.0, "us")
    found = len(selfs.get("wheels.find_k_wheel.found", []))
    absent = len(selfs.get("wheels.find_k_wheel.absent", []))
    m["wheels.find_k_wheel.found_ratio"] = (found / (found + absent) if found + absent else 0.0,
                                           "ratio")
    build = selfs.get("isomorphism.class_build", [])
    m["isomorphism.class_build.s"] = (build[0] / 1e9 if build else 0.0, "s")
    m["isomorphism.class_build.yield"] = (run.check.get("class_build_yield", 0.0), "ratio")
    for cmd in CLI_COMMANDS:
        vals = selfs.get(f"cli.{cmd}", [])
        # the whole call, children included: their spans lie outside it
        m[f"cli.{cmd}.s"] = (statistics.median(vals) / 1e9 if vals else 0.0, "s")
    m["trace.spans"] = (len(run.tracer.name), "count")
    m["trace.untraced_ops_per_s"] = (untraced["ops_per_s"], "1/s")
    m["trace.traced_ops_per_s"] = (traced["ops_per_s"], "1/s")
    m["trace.overhead_pct"] = (100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    run = Run(args)
    if args.trace:
        run.tracer = Tracer()
    if args.workload == "catalog-exhaustive":
        wl = catalog_setup(run)
    elif args.workload == "random-dense":
        wl = random_setup(run)
    else:
        wl = SinglesWorkload(run)
    ready = time.monotonic()
    result = {"ready": ready, "calibration": clock.calibrate(8)}
    if args.mode == "run":
        if args.trace:
            with run.meter:
                wl.round(traced=False)
            result["peak_rss_mib"] = peak_rss_mib()
            untraced = run.end_to_end()
            run.meter = clock.Meter()
            with run.meter:
                wl.round(traced=True)
            traced = run.end_to_end()
        else:
            # whole rounds until the next one would take the program time
            # past --seconds; program time is reference time, so the number
            # of rounds does not follow the machine's speed of the moment
            rounds = 0
            while True:
                with run.meter:
                    wl.round(traced=False)
                rounds += 1
                if rounds == 1:
                    result["peak_rss_mib"] = peak_rss_mib()
                spent = run.meter.program_ns / 1e9
                if spent + spent / rounds > args.seconds:
                    break
            result["rounds"] = rounds
        if args.workload == "large-singles":
            wl.finish(run)
        else:
            pool_finish(run, wl, args.workload == "catalog-exhaustive")
        if args.trace:
            if args.workload == "large-singles":
                wl.direct_calls()
            else:
                wl.direct_calls(random.Random(args.seed))
            result["layers"] = layer_metrics(run, untraced, traced)
            run.tracer.write(run.out / "spans.tsv.gz")
        else:
            result.update(run.end_to_end())
        result.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
                      check=run.check)
    (Path(args.out) / f"{args.mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
