"""Interchange formats: graph6, DIMACS .col and a plain edge list.

graph6 here is the short form only (n <= 62): the size byte is n+63 and
the upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... are packed
big-endian into 6-bit groups, each stored as value+63, zero-padded.
Row j's pairs (i < j, j) are one field of j bits in that order, so the
codec reverses each group to put pair k at bit k of one int and moves
row j's field to row j of a packed bit matrix, which
``graph.symmetric_rows`` makes symmetric; encoding packs the same fields.
"""

from __future__ import annotations

import sys
import warnings

from .errors import ParseError, ParseWarning
from .graph import Graph, row_stride, symmetric_rows

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 62  # the short form: size byte n + 63 stays below 126, the long-form marker

# 6-bit values bit-reversed: graph6 puts pair k at bit 5 - k % 6 of byte k // 6
_REVERSED6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def _as_text(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError("graph6 input is not ASCII", offset=exc.start) from None
    return data


def parse_graph6(data) -> Graph:
    """Decode one graph6 line (optionally prefixed with '>>graph6<<')."""
    text = _as_text(data)
    base = 0
    if text.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        text = text[base:]
    if text.endswith("\r\n"):
        text = text[:-2]
    elif text.endswith("\n"):
        text = text[:-1]
    if not text:
        raise ParseError("empty graph6 input", offset=base)
    first = ord(text[0])
    if first == 126:
        raise ParseError(f"long-form graph6 (n > {GRAPH6_MAX_N}) is not supported", offset=base)
    n = first - 63
    if not 0 <= n <= GRAPH6_MAX_N:
        raise ParseError(f"malformed graph6 size byte {text[0]!r}", offset=base)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = text[1:]
    if len(body) < nbytes:
        raise ParseError(
            f"graph6 body truncated: expected {nbytes} bytes, got {len(body)}",
            offset=base + 1 + len(body),
        )
    if len(body) > nbytes:
        raise ParseError("trailing garbage after graph6 body", offset=base + 1 + nbytes)
    packed = 0
    for bi, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ParseError(f"invalid graph6 byte {ch!r}", offset=base + 1 + bi)
        packed |= _REVERSED6[val] << (6 * bi)
    if packed >> nbits:  # padding lives in the last body byte
        raise ParseError("nonzero padding bits in graph6 body", offset=base + nbytes)
    stride = row_stride(n)
    lower = 0
    for j in range(1, n):
        lower |= (packed & ((1 << j) - 1)) << j * stride
        packed >>= j
    return Graph._of(n, symmetric_rows(lower, n, stride))


def to_graph6(g: Graph) -> str:
    """Encode to a graph6 line (short form; requires n <= 62)."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ParseError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {n}")
    packed = 0
    shift = 0
    for j, row in enumerate(g.masks):
        packed |= (row & ((1 << j) - 1)) << shift
        shift += j
    groups = (chr(_REVERSED6[(packed >> k) & 63] + 63) for k in range(0, shift, 6))
    return chr(n + 63) + "".join(groups)


def parse_graph6_lines(text) -> list[Graph]:
    """Decode a graph6 line file (one graph per non-empty line)."""
    text = _as_text(text)
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            graphs.append(parse_graph6(line))
    return graphs


# -- edge records ---------------------------------------------------------


def _edge(fields: list[str], line: str, lineno: int, n: int, base: int) -> tuple[int, int]:
    """Validate one ``u v`` record with vertex ids ``base .. n - 1 + base``
    and return it as a 0-indexed pair ``(min, max)``."""
    if len(fields) != 2:
        raise ParseError(f"malformed edge line {line!r}", offset=lineno)
    try:
        u, v = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"non-integer endpoints in {line!r}", offset=lineno) from None
    if u == v:
        raise ParseError(f"loop edge {u} {v}", offset=lineno)
    if not (base <= u < n + base and base <= v < n + base):
        raise ParseError(f"edge endpoint out of range in {line!r}", offset=lineno)
    return min(u, v) - base, max(u, v) - base


def _collapsed(n: int, edges: list[tuple[int, int]]) -> Graph:
    """The graph of the edge records, duplicates collapsed with a ParseWarning."""
    distinct = set(edges)
    if len(distinct) < len(edges):
        warnings.warn(f"{len(edges) - len(distinct)} duplicate edge line(s) collapsed",
                      ParseWarning, stacklevel=3)
    return Graph(n, sorted(distinct))


# -- DIMACS .col ----------------------------------------------------------


def parse_dimacs_col(text) -> Graph:
    """Parse DIMACS coloring format: 'p edge n m' then 1-indexed 'e u v' lines.

    Duplicate edge lines collapse to one edge (with a ParseWarning);
    loops and out-of-range endpoints are fatal.  A mismatch between the
    declared and actual edge count is a warning, not an error.
    """
    text = _as_text(text)
    n = None
    declared_m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", offset=lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(f"malformed problem line {line!r}", offset=lineno)
            try:
                n = int(fields[2])
                declared_m = int(fields[3])
            except ValueError:
                raise ParseError(f"non-integer counts in {line!r}", offset=lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative counts in problem line", offset=lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", offset=lineno)
            edges.append(_edge(fields[1:], line, lineno, n, 1))
        else:
            raise ParseError(f"unexpected line {line!r}", offset=lineno)
    if n is None:
        raise ParseError("missing problem line")
    g = _collapsed(n, edges)
    if declared_m != g.m:
        warnings.warn(f"edge count mismatch: header says {declared_m}, found {g.m} distinct edges",
                      ParseWarning, stacklevel=2)
    return g


def to_dimacs_col(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- plain edge list ------------------------------------------------------


def parse_edge_list(text) -> Graph:
    """Parse 'n m' followed by m lines 'u v' with 0-indexed endpoints;
    lines starting with '#' are comments."""
    text = _as_text(text)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty edge list input")
    lineno, head = lines[0]
    fields = head.split()
    if len(fields) != 2:
        raise ParseError(f"malformed header {head!r}", offset=lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"non-integer header {head!r}", offset=lineno) from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", offset=lineno)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    return _collapsed(n, [_edge(ln.split(), ln, lineno, n, 0) for lineno, ln in lines[1:]])


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- detection ------------------------------------------------------------


def detect_format(text) -> str:
    """Best-effort format sniffing: returns 'graph6', 'dimacs' or 'edgelist'."""
    text = _as_text(text)
    stripped = text.lstrip()
    if stripped.startswith(GRAPH6_HEADER):
        return "graph6"
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] in ("c", "e") or (fields[0] == "p" and len(fields) >= 2):
            return "dimacs"
        if fields[0].lstrip("-").isdigit():  # graph6 bytes are 63..126
            return "edgelist"
        return "graph6"
    return "graph6"


def read_graphs(text) -> list[Graph]:
    """Parse one input, in the format ``detect_format`` sniffs, into a
    list of graphs.

    graph6 inputs may hold several graphs (one per line); DIMACS and
    edge-list inputs hold exactly one.
    """
    fmt = detect_format(text)
    if fmt == "graph6":
        return parse_graph6_lines(text)
    if fmt == "dimacs":
        return [parse_dimacs_col(text)]
    return [parse_edge_list(text)]


def read_file(path: str) -> list[Graph]:
    """Parse the graph file at ``path`` (``-`` is standard input) as text."""
    try:
        if path == "-":
            return read_graphs(sys.stdin.read())
        with open(path) as fh:
            return read_graphs(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: input is not text ({exc.reason})") from None
