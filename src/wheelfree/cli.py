"""Command-line front end.

Every report goes through one frame, ``_report``: a ``report:`` and
``version:`` header, the command's lines, a ``status:`` line and, with
--timing only, a wall-time line, so default output is byte-stable for
fixed inputs and flags.  The per-graph commands share ``_per_graph``
inside that frame.  Exit codes: 0 ok, 1 counterexample found (a
``verify`` counterexample, a ``conjecture`` candidate or a theorem
violation in a per-graph command), 2 usage, parse or input error,
printed as one ``error:`` line on stderr.  Parse warnings print as one
``warning:`` line each on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

from . import __version__
from . import generators
from .certificates import render, render_coloring, render_trace, render_verify_result, render_wm
from .errors import (BudgetExceededError, GraphError, NoFragmentsError, ParseWarning,
                     TheoremViolationError)
from .formats import GRAPH6_MAX_N, read_file, to_graph6
from .connectivity import ends, vertex_connectivity
from .oracles import brute_chromatic_number, parse_pool_descriptor
from .structure import VerifyStatus, color4, verify_pool
from .wheels import find_k_wheel, wm_certificate

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _report(args, command: str, header: list[str], body) -> int:
    """Frame one report: the ``report:``/``version:`` header and
    ``header``, then the lines ``body(out)`` appends, the status line and
    the --timing line.  ``body`` returns true when it found a
    counterexample, which makes the exit code 1."""
    started = time.perf_counter()
    out = [f"report: {command}", f"version: {__version__}", *header]
    found = body(out)
    out.append(f"status: {'counterexample' if found else 'ok'}")
    if args.timing:
        out.append(f"time: {time.perf_counter() - started:.3f}s")
    print("\n".join(out))
    return EXIT_COUNTEREXAMPLE if found else EXIT_OK


def _per_graph(args, command: str, report, count_key: str | None = None) -> int:
    """Shared driver of the per-graph commands: ``report(g, out)`` appends
    the lines for one graph; graphs for which it returns true are counted
    in the summary as ``count_key=<m>`` when a key is given.  A
    TheoremViolationError from ``report`` is that graph's
    ``counterexample:`` line and makes the report a counterexample."""
    def body(out):
        graphs = read_file(args.input)
        counted = 0
        found = False
        for i, g in enumerate(graphs, start=1):
            out += ("", f"graph {i}: {to_graph6(g)}")
            try:
                if report(g, out):
                    counted += 1
            except TheoremViolationError as exc:
                out.append(f"counterexample: {exc}")
                found = True
        summary = f"summary: graphs={len(graphs)}"
        if count_key is not None:
            summary += f" {count_key}={counted}"
        out += ("", summary)
        return found

    return _report(args, command, [f"input: {args.input}"], body)


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
    return _per_graph(args, "kappa", lambda g, out: out.append(
        f"kappa: {vertex_connectivity(g) if g.n else 'none (empty graph)'}"))


def cmd_ends(args) -> int:
    def report(g, out):
        try:
            end_list = ends(g)
        except NoFragmentsError as exc:
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
    # what no graph can meet is refused once; a graph that lacks x or a
    # target gets its own line and the report goes on
    ids = [args.x, *targets]
    if min(ids) < 0:
        raise GraphError(f"vertex {min(ids)} out of range")
    if len(targets) != 4 or len(set(targets)) != 4:
        raise GraphError("exactly four target vertices are required")
    if args.x in targets:
        raise GraphError("x must not be one of the targets")

    def report(g, out):
        if max(ids) >= g.n:
            out.append("status: no-such-vertex")
            return
        try:
            cert = wm_certificate(g, args.x, targets)
        except GraphError as exc:  # a refusal that depends on the graph
            out.append(f"status: not-applicable ({exc})")
            return
        if cert is None:
            out.append("status: no-certificate")
        else:
            out.append("status: certified")
            out.append(render_wm(cert))

    return _per_graph(args, "wm-cert", report)


def cmd_verify(args) -> int:
    pool = parse_pool_descriptor(args.pool)

    def body(out):
        report = verify_pool(pool, args.statement)
        counts = report.counts
        out += ("", f"summary: graphs={sum(counts.values())} pass={counts[VerifyStatus.PASS]} "
                f"not-applicable={counts[VerifyStatus.NOT_APPLICABLE]} "
                f"counterexamples={counts[VerifyStatus.COUNTEREXAMPLE]} "
                f"budget-exceeded={counts[VerifyStatus.BUDGET_EXCEEDED]}")
        out.extend(f"count {key}: {report.counters[key]}" for key in sorted(report.counters))
        if report.counterexamples:
            path = args.out or f"counterexample-{args.statement}.txt"
            with open(path, "w") as fh:
                for g, result in report.counterexamples:
                    name = (f"graph6: {to_graph6(g)}" if g.n <= GRAPH6_MAX_N else
                            f"vertices: {g.n}\nedges: {' '.join(f'{u}-{v}' for u, v in g.edges())}")
                    fh.write(f"{name}\n{render_verify_result(result)}\n\n")
            out.append(f"counterexample-file: {path}")
        return bool(report.counterexamples)

    return _report(args, "verify", [f"statement: {args.statement}", f"pool: {pool.descriptor}"],
                   body)


# name -> (constructor, number of integer parameters)
_GENERATORS = {
    "complete": (generators.complete, 1),
    "kkk": (generators.complete_bipartite, 1),
    "tight": (generators.tight_example, 1),
    "petersen": (generators.petersen, 0),
    "icosahedron": (generators.icosahedron, 0),
    "cycle": (generators.cycle, 1),
}


def cmd_gen(args) -> int:
    if args.name not in _GENERATORS:
        raise GraphError(f"unknown generator {args.name!r}")
    make, arity = _GENERATORS[args.name]
    if len(args.params) > arity:
        raise GraphError(f"generator {args.name!r} takes {arity} parameter"
                         f"{'' if arity == 1 else 's'}, got {len(args.params)}")
    try:
        params = [int(args.params[i]) for i in range(arity)]
    except (IndexError, ValueError):
        raise GraphError(f"generator {args.name!r} needs an integer parameter") from None
    # every generator has at least as many vertices as its parameter, and
    # graph6 output stops at GRAPH6_MAX_N, so a larger parameter is refused unbuilt
    if params and max(params) > GRAPH6_MAX_N:
        raise GraphError(f"generator {args.name!r} parameter {max(params)} is above "
                         f"{GRAPH6_MAX_N}, the graph6 vertex limit")
    print(to_graph6(make(*params)))
    return EXIT_OK


def cmd_conjecture(args) -> int:
    """Exploratory search for a k-wheel-free graph that is not k-colorable.

    No outcome is expected either way; a hit exits 1 and prints the find.
    """
    pool = parse_pool_descriptor(args.pool)

    def body(out):
        checked = free = over_budget = 0
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
                out += ("", f"candidate: {to_graph6(g)}", f"chromatic-number: {chi}")
                return True
        summary = f"summary: graphs={checked} wheel-free={free} over-chromatic=0"
        if over_budget:
            summary += f" budget-exceeded={over_budget}"
        out += ("", summary)
        return False

    return _report(args, "conjecture-search", [f"k: {args.k}", f"pool: {pool.descriptor}"], body)


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
    p.add_argument("--targets", required=True, metavar="A,B,C,D",
                   help="four neighbors of x, comma separated")
    p.set_defaults(func=cmd_wm_cert)

    p = sub.add_parser("verify", help="run a statement checker over a pool")
    p.add_argument("statement", help="statement id, e.g. thm-4.8 (see README)")
    p.add_argument("--pool", required=True, help="pool descriptor, e.g. exhaustive:n=6")
    p.add_argument("--out", help="counterexample bundle file (default: derived)")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a named graph as graph6")
    p.add_argument("name", help=" | ".join(_GENERATORS))
    p.add_argument("params", nargs="*", help="integer parameters for the generator")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("conjecture", help="search for a k-wheel-free graph needing > k colors")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--pool", required=True)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_conjecture)

    return parser


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", ParseWarning)
        warnings.showwarning = _print_warning
        try:
            # wheel and conjecture refuse --k below 3 before reading any graph
            if getattr(args, "k", 3) < 3:
                raise GraphError("wheels need at least 3 spokes")
            return args.func(args)
        except (GraphError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
