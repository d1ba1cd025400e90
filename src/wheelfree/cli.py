"""Command-line front end.

Reports are line-oriented ``key: value`` text, deterministic for fixed
inputs and flags (timing lines only appear with --timing so default
output stays byte-stable).  Exit codes: 0 success, 1 counterexample or
wheel-free violation found, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from . import generators
from .certificates import render, render_coloring, render_trace, render_verify_result, render_wm
from .errors import BudgetExceededError, GraphError, ParseError, ToolkitError
from .formats import read_graphs, to_graph6
from .connectivity import ends, vertex_connectivity
from .oracles import brute_chromatic_number, parse_pool_descriptor
from .structure import VerifyStatus, color4, verify_statement
from .wheels import find_k_wheel, wm_certificate

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: input is not text ({exc.reason})") from None


def _emit(out, args, started: float, status: str) -> None:
    out.append(f"status: {status}")
    if getattr(args, "timing", False):
        out.append(f"time: {time.perf_counter() - started:.3f}s")
    print("\n".join(out))


def _per_graph(args, command: str, report, count_key: str | None = None) -> int:
    """Shared driver of the per-graph commands: ``report(g, out)`` appends
    the lines for one graph; graphs for which it returns true are counted
    in the summary as ``count_key=<m>`` when a key is given."""
    started = time.perf_counter()
    graphs = read_graphs(_read_input(args.input), fmt=args.format)
    out = [f"report: {command}", f"version: {__version__}", f"input: {args.input}"]
    counted = 0
    for i, g in enumerate(graphs, start=1):
        out.append("")
        out.append(f"graph {i}: {to_graph6(g)}")
        if report(g, out):
            counted += 1
    out.append("")
    summary = f"summary: graphs={len(graphs)}"
    if count_key is not None:
        summary += f" {count_key}={counted}"
    out.append(summary)
    _emit(out, args, started, "ok")
    return EXIT_OK


def cmd_color4(args) -> int:
    def report(g, out):
        result = color4(g)
        if result.succeeded:
            out.append("status: colored")
            out.append(f"colors-used: {result.coloring.colors_used}")
            out.append(render_coloring(result.coloring))
        else:
            out.append("status: contains-4-wheel")
            out.append(render(result.stuck.wheel))
        if args.emit_trace:
            out.append(render_trace(result.trace))

    return _per_graph(args, "color4", report)


def cmd_wheel(args) -> int:
    def report(g, out):
        wheel = find_k_wheel(g, args.k)
        if wheel is None:
            out.append(f"status: {args.k}-wheel-free")
            return False
        out.append(f"status: contains-{args.k}-wheel")
        out.append(render(wheel))
        return True

    return _per_graph(args, "wheel", report, count_key="with-wheel")


def cmd_kappa(args) -> int:
    return _per_graph(args, "kappa", lambda g, out: out.append(f"kappa: {vertex_connectivity(g)}"))


def cmd_ends(args) -> int:
    def report(g, out):
        try:
            end_list = ends(g)
        except ToolkitError as exc:
            out.append(f"ends: none ({exc})")
            return
        out.append(f"ends: {len(end_list)}")
        out.extend(f"end: {' '.join(str(v) for v in f)}" for f in end_list)

    return _per_graph(args, "ends", report)


def cmd_wm_cert(args) -> int:
    try:
        targets = [int(t) for t in args.targets.split(",")]
    except ValueError:
        raise GraphError(f"--targets must be comma-separated vertex ids, "
                         f"got {args.targets!r}") from None

    def report(g, out):
        cert = wm_certificate(g, args.x, targets)
        if cert is None:
            out.append("status: no-certificate")
        else:
            out.append("status: certified")
            out.append(render_wm(cert))

    return _per_graph(args, "wm-cert", report)


def cmd_verify(args) -> int:
    started = time.perf_counter()
    pool = parse_pool_descriptor(args.pool)
    out: list[str] = []
    out.append("report: verify")
    out.append(f"version: {__version__}")
    out.append(f"statement: {args.statement}")
    out.append(f"pool: {pool.descriptor}")
    counts = {status: 0 for status in VerifyStatus}
    counters: dict[str, int] = {}
    counterexamples = []
    total = 0
    for g in pool:
        result = verify_statement(g, args.statement)
        total += 1
        counts[result.status] += 1
        for key, val in result.counters.items():
            counters[key] = counters.get(key, 0) + val
        if result.violated:
            counterexamples.append((g, result))
    out.append("")
    out.append(
        "summary: graphs={} pass={} not-applicable={} counterexamples={} budget-exceeded={}".format(
            total,
            counts[VerifyStatus.PASS],
            counts[VerifyStatus.NOT_APPLICABLE],
            counts[VerifyStatus.COUNTEREXAMPLE],
            counts[VerifyStatus.BUDGET_EXCEEDED],
        )
    )
    for key in sorted(counters):
        out.append(f"count {key}: {counters[key]}")
    if counterexamples:
        path = args.out or f"counterexample-{args.statement}.txt"
        with open(path, "w") as fh:
            for g, result in counterexamples:
                fh.write(f"graph6: {to_graph6(g)}\n")
                fh.write(render_verify_result(result))
                fh.write("\n\n")
        out.append(f"counterexample-file: {path}")
        _emit(out, args, started, "counterexample")
        return EXIT_COUNTEREXAMPLE
    _emit(out, args, started, "ok")
    return EXIT_OK


def cmd_gen(args) -> int:
    name = args.name
    params = args.params
    try:
        if name == "complete":
            g = generators.complete(int(params[0]))
        elif name == "kkk":
            g = generators.complete_bipartite(int(params[0]))
        elif name == "tight":
            g = generators.tight_example(int(params[0]))
        elif name == "petersen":
            g = generators.petersen()
        elif name == "icosahedron":
            g = generators.icosahedron()
        elif name == "cycle":
            g = generators.cycle(int(params[0]))
        else:
            print(f"error: unknown generator {name!r}", file=sys.stderr)
            return EXIT_USAGE
    except (IndexError, ValueError):
        print(f"error: generator {name!r} needs an integer parameter", file=sys.stderr)
        return EXIT_USAGE
    print(to_graph6(g))
    return EXIT_OK


def cmd_conjecture(args) -> int:
    """Exploratory search for a k-wheel-free graph that is not k-colorable.

    No outcome is expected either way; a hit exits 1 and prints the find.
    """
    started = time.perf_counter()
    pool = parse_pool_descriptor(args.pool)
    out: list[str] = []
    out.append("report: conjecture-search")
    out.append(f"version: {__version__}")
    out.append(f"k: {args.k}")
    out.append(f"pool: {pool.descriptor}")
    checked = 0
    free = 0
    over_budget = 0
    for g in pool:
        checked += 1
        if find_k_wheel(g, args.k) is not None:
            continue
        free += 1
        if g.n <= args.k:
            continue  # n colors always suffice
        try:
            chi = brute_chromatic_number(g)
        except BudgetExceededError:
            over_budget += 1
            continue
        if chi > args.k:
            out.append("")
            out.append(f"candidate: {to_graph6(g)}")
            out.append(f"chromatic-number: {chi}")
            _emit(out, args, started, "counterexample")
            return EXIT_COUNTEREXAMPLE
    out.append("")
    summary = f"summary: graphs={checked} wheel-free={free} over-chromatic=0"
    if over_budget:
        summary += f" budget-exceeded={over_budget}"
    out.append(summary)
    _emit(out, args, started, "ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wheelfree",
        description="Certificate-producing algorithms and brute-force verification "
                    "for wheel-free graph structure.",
    )
    parser.add_argument("--version", action="version", version=f"wheelfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument("--format", choices=("auto", "graph6", "dimacs", "edgelist"),
                       default="auto", help="input format (default: sniffed)")
        p.add_argument("--timing", action="store_true", help="append a wall-time line")

    p = sub.add_parser("color4", help="constructive coloring with at most 4 colors")
    add_input(p)
    p.add_argument("--emit-trace", action="store_true", help="print the elimination trace")
    p.set_defaults(func=cmd_color4)

    p = sub.add_parser("wheel", help="find a k-wheel or certify k-wheel-freeness")
    add_input(p)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=cmd_wheel)

    p = sub.add_parser("kappa", help="exact vertex connectivity")
    add_input(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("ends", help="list the ends (minimal fragments)")
    add_input(p)
    p.set_defaults(func=cmd_ends)

    p = sub.add_parser("wm-cert", help="cutset certificate that no cycle covers four neighbors")
    add_input(p)
    p.add_argument("--x", type=int, required=True, help="the apex vertex")
    p.add_argument("--X", "--targets", dest="targets", required=True, metavar="A,B,C,D",
                   help="four neighbors of x, comma separated")
    p.set_defaults(func=cmd_wm_cert)

    p = sub.add_parser("verify", help="run a statement checker over a pool")
    p.add_argument("statement", help="statement id, e.g. thm-4.8 (see README)")
    p.add_argument("--pool", required=True, help="pool descriptor, e.g. exhaustive:n=6")
    p.add_argument("--out", help="counterexample bundle file (default: derived)")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a named graph as graph6")
    p.add_argument("name", help="complete | kkk | tight | petersen | icosahedron | cycle")
    p.add_argument("params", nargs="*", help="integer parameters for the generator")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("conjecture", help="search for a k-wheel-free graph needing > k colors")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--pool", required=True)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
