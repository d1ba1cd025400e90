"""Structured-text rendering of certificates.

The schema is line oriented: ``key: value`` pairs where vertex lists
are space separated and edges are ``u-v``.  Every certificate block
starts with ``certificate: <kind>``.  The exact field names are part of
the toolkit's external interface and are frozen by golden tests.
"""

from __future__ import annotations

from .connectivity import EndBlock, Fan
from .structure import Coloring, LowDegree, TwinPair, VerifyResult
from .wheels import WMCertificate, Wheel


def _vlist(vs) -> str:
    return " ".join(str(v) for v in vs)


def _elist(es) -> str:
    return " ".join(f"{u}-{v}" for u, v in es)


def render_wheel(w: Wheel) -> str:
    return "\n".join([
        "certificate: wheel",
        f"center: {w.center}",
        f"rim: {_vlist(w.rim)}",
        f"spokes: {_elist(w.spokes)}",
    ])


def render_fan(f: Fan) -> str:
    lines = [
        "certificate: fan",
        f"origin: {f.origin}",
        f"targets: {_vlist(f.targets)}",
    ]
    lines.extend(f"path: {_vlist(p)}" for p in f.paths)
    return "\n".join(lines)


def render_end_block(b: EndBlock) -> str:
    back = {new: old for old, new in b.vertex_map.items()}
    edges = sorted((min(back[u], back[v]), max(back[u], back[v])) for u, v in b.graph.edges())
    return "\n".join([
        "certificate: end-block",
        f"fragment: {_vlist(b.fragment)}",
        f"attachment: {_vlist(b.attachment)}",
        f"markers: {_elist(b.marker_edges)}",
        f"block-vertices: {_vlist(sorted(back.values()))}",
        f"block-edges: {_elist(edges)}",
    ])


def render_wm(c: WMCertificate) -> str:
    lines = [
        "certificate: watkins-mesner",
        f"x: {c.x}",
        f"targets: {_vlist(c.targets)}",
        f"cutset: {_vlist(c.cutset)}",
    ]
    lines.extend(f"component {t}: {_vlist(c.components[t])}" for t in c.targets)
    return "\n".join(lines)


def render_coloring(c: Coloring) -> str:
    return "\n".join([
        "certificate: coloring",
        f"palette: {c.palette}",
        f"colors: {_vlist(c.colors)}",
    ])


def render_trace(trace: tuple[LowDegree | TwinPair, ...]) -> str:
    lines = ["certificate: reduction-trace"]
    for i, w in enumerate(trace, start=1):
        if isinstance(w, LowDegree):
            lines.append(f"step {i}: low-degree remove={w.vertex} bound={w.bound}")
        else:
            lines.append(f"step {i}: twins remove={w.u} keep={w.v}")
    return "\n".join(lines)


def render_verify_result(r: VerifyResult) -> str:
    lines = [
        f"statement: {r.statement}",
        f"status: {r.status.value}",
    ]
    if r.detail:
        lines.append(f"detail: {r.detail}")
    for key in sorted(r.counters):
        lines.append(f"count {key}: {r.counters[key]}")
    for cert in r.certificates:
        lines.append(render(cert))
    return "\n".join(lines)


_RENDERERS = {
    Wheel: render_wheel,
    Fan: render_fan,
    EndBlock: render_end_block,
    WMCertificate: render_wm,
    Coloring: render_coloring,
    VerifyResult: render_verify_result,
}


def render(obj) -> str:
    """Render any certificate object to its structured-text block."""
    for cls, fn in _RENDERERS.items():
        if isinstance(obj, cls):
            return fn(obj)
    raise TypeError(f"no renderer for {type(obj).__name__}")
