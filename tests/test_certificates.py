"""Golden tests freezing the structured-text certificate schema."""

from wheelfree import (
    Coloring,
    Fan,
    LowDegree,
    TwinPair,
    Wheel,
    color4,
    complete,
    complete_bipartite,
    cycle,
    end_block,
    wm_certificate,
)
from wheelfree.certificates import (
    render,
    render_coloring,
    render_end_block,
    render_fan,
    render_trace,
    render_verify_result,
    render_wheel,
    render_wm,
)
from wheelfree.structure import verify_statement


def test_wheel_golden():
    w = Wheel(center=0, rim=(1, 2, 3, 4), spokes=((0, 1), (0, 2), (0, 3), (0, 4)))
    assert render_wheel(w) == (
        "certificate: wheel\n"
        "center: 0\n"
        "rim: 1 2 3 4\n"
        "spokes: 0-1 0-2 0-3 0-4"
    )


def test_fan_golden():
    f = Fan(origin=4, targets=(0, 1, 2, 3), paths=((4, 0), (4, 1), (4, 2), (4, 3)))
    assert render_fan(f) == (
        "certificate: fan\n"
        "origin: 4\n"
        "targets: 0 1 2 3\n"
        "path: 4 0\n"
        "path: 4 1\n"
        "path: 4 2\n"
        "path: 4 3"
    )


def test_end_block_golden():
    block = end_block(cycle(5), [0])
    assert render_end_block(block) == (
        "certificate: end-block\n"
        "fragment: 0\n"
        "attachment: 1 4\n"
        "markers: 1-4\n"
        "block-vertices: 0 1 4\n"
        "block-edges: 0-1 0-4 1-4"
    )


def test_wm_golden():
    cert = wm_certificate(complete_bipartite(4), 4, [0, 1, 2, 3])
    assert render_wm(cert) == (
        "certificate: watkins-mesner\n"
        "x: 4\n"
        "targets: 0 1 2 3\n"
        "cutset: 5 6 7\n"
        "component 0: 0\n"
        "component 1: 1\n"
        "component 2: 2\n"
        "component 3: 3"
    )


def test_coloring_golden():
    c = Coloring(colors=(0, 1, 0, 1))
    assert render_coloring(c) == (
        "certificate: coloring\npalette: 4\ncolors: 0 1 0 1"
    )


def test_trace_golden():
    t = (LowDegree(vertex=3, bound=3), TwinPair(u=0, v=2))
    assert render_trace(t) == (
        "certificate: reduction-trace\n"
        "step 1: low-degree remove=3 bound=3\n"
        "step 2: twins remove=0 keep=2"
    )


def test_trace_from_color4():
    result = color4(complete(4))
    text = render_trace(result.trace)
    assert text.startswith("certificate: reduction-trace\nstep 1: low-degree remove=0 bound=3")


def test_verify_result_rendering():
    r = verify_statement(complete_bipartite(4), "thm-4.4")
    text = render_verify_result(r)
    assert "statement: thm-4.4" in text
    assert "status: pass" in text


def test_render_dispatch():
    w = Wheel(center=0, rim=(1, 2, 3), spokes=((0, 1), (0, 2), (0, 3)))
    assert render(w) == render_wheel(w)
    try:
        render(object())
        raised = False
    except TypeError:
        raised = True
    assert raised
