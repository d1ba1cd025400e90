"""CLI behavior: formats, exit codes, report shapes."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wheelfree import Graph, complete, complete_bipartite, cycle, petersen, to_graph6
from wheelfree.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_USAGE, main
from wheelfree.errors import ParseError
from wheelfree.structure import STATEMENTS, VerifyStatus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_complete4(capsys):
    code, out, _ = run(capsys, "gen", "complete", "4")
    assert code == EXIT_OK
    assert out.strip() == "C~"


def test_gen_k44_roundtrip(capsys):
    from wheelfree import complete_bipartite, parse_graph6

    code, out, _ = run(capsys, "gen", "kkk", "4")
    assert code == EXIT_OK
    assert parse_graph6(out.strip()) == complete_bipartite(4)


def test_gen_tight(capsys):
    from wheelfree import parse_graph6

    code, out, _ = run(capsys, "gen", "tight", "4")
    assert code == EXIT_OK
    assert parse_graph6(out.strip()).n == 7


def test_gen_named(capsys):
    for name, n in (("petersen", 10), ("icosahedron", 12)):
        from wheelfree import parse_graph6

        code, out, _ = run(capsys, "gen", name)
        assert code == EXIT_OK
        assert parse_graph6(out.strip()).n == n


def test_gen_bad_params(capsys):
    code, _, err = run(capsys, "gen", "complete")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "gen", "wat", "3")
    assert code == EXIT_USAGE
    # only a missing or non-integer parameter is a parameter error; a value
    # the generator refuses reports the generator's own message
    assert run(capsys, "gen", "cycle", "x") == (
        EXIT_USAGE, "", "error: generator 'cycle' needs an integer parameter\n")
    assert run(capsys, "gen", "cycle", "2") == (EXIT_USAGE, "", "error: cycle(n) requires n >= 3\n")
    # a surplus parameter is refused, not dropped
    assert run(capsys, "gen", "complete", "4", "9") == (
        EXIT_USAGE, "", "error: generator 'complete' takes 1 parameter, got 2\n")
    assert run(capsys, "gen", "petersen", "3") == (
        EXIT_USAGE, "", "error: generator 'petersen' takes 0 parameters, got 1\n")


def test_gen_refuses_parameters_above_62_unbuilt(capsys, monkeypatch):
    from wheelfree import cli

    calls = []

    def recording(n):
        calls.append(n)
        return Graph(1)

    monkeypatch.setitem(cli._GENERATORS, "complete", (recording, 1))
    assert run(capsys, "gen", "complete", "63") == (
        EXIT_USAGE, "", "error: generator 'complete' parameter 63 is above 62, "
                        "the graph6 vertex limit\n")
    assert calls == []
    assert run(capsys, "gen", "complete", "62") == (EXIT_OK, "@\n", "")
    assert calls == [62]


# per-graph command -> its lines for the empty graph and K_4, and the
# summary's count
_EMPTY_THEN_K4 = {
    "kappa": ("kappa: none (empty graph)", "kappa: 3", ""),
    "ends": ("ends: none (empty graph)",
             "ends: none (complete graphs and the single vertex have no fragments)", ""),
    "color4": ("status: colored\ncolors-used: 0\ncertificate: coloring\npalette: 4\ncolors: ",
               "status: colored\ncolors-used: 4\ncertificate: coloring\npalette: 4\n"
               "colors: 3 2 1 0", ""),
    "wheel": ("status: 4-wheel-free", "status: 4-wheel-free", " with-wheel=0"),
}


@pytest.mark.parametrize("command", [["kappa"], ["color4"], ["wheel"], ["ends"],
                                     ["wm-cert", "--x", "0", "--targets", "1,2,3,4"]])
def test_per_graph_commands_refuse_inputs_over_62_vertices(capsys, tmp_path, command):
    # every report names its graph by a graph6 short-form line
    f = tmp_path / "n63.txt"
    f.write_text("63 1\n0 62\n")
    assert run(capsys, *command, str(f)) == (
        EXIT_USAGE, "", "error: graph6 short form supports n <= 62, got 63\n")


def test_empty_graph_rules(capsys, tmp_path):
    f = tmp_path / "empty.g6"
    f.write_text("?\n")
    for statement in STATEMENTS:
        code, out, _ = run(capsys, "verify", statement, "--pool", f"file:{f}")
        assert code == EXIT_OK, statement
        assert "summary: graphs=1 pass=0 not-applicable=1 counterexamples=0" in out, statement
    # every per-graph command reports it and goes on to the next graph
    f.write_text("?\nC~\n")
    for command, lines in _EMPTY_THEN_K4.items():
        expected = (f"report: {command}\nversion: 0.1.0\ninput: {f}\n\n"
                    f"graph 1: ?\n{lines[0]}\n\ngraph 2: C~\n{lines[1]}\n\n"
                    f"summary: graphs=2{lines[2]}\nstatus: ok\n")
        assert run(capsys, command, str(f)) == (EXIT_OK, expected, ""), command
    # k < 3 is refused even when there is no vertex to search
    for g in (Graph(0), complete(5)):
        f.write_text(to_graph6(g) + "\n")
        assert run(capsys, "wheel", str(f), "--k", "2") == (
            EXIT_USAGE, "", "error: wheels need at least 3 spokes\n")


def test_color4_k4(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, out, _ = run(capsys, "color4", str(f))
    assert code == EXIT_OK
    assert "status: colored" in out
    assert "colors-used: 4" in out


def test_color4_k5_reports_wheel(capsys, tmp_path):
    f = tmp_path / "k5.g6"
    f.write_text("D~{\n")
    code, out, _ = run(capsys, "color4", str(f), "--emit-trace")
    assert code == EXIT_OK  # finding a wheel is a structured result, not an error
    assert "status: contains-4-wheel" in out
    assert "certificate: wheel" in out
    assert "certificate: reduction-trace" in out


def test_color4_malformed_input(capsys, tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("C~~~~\n")
    code, _, err = run(capsys, "color4", str(f))
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("text, err", [
    ("3 2 1\n", "error: malformed header '3 2 1' (at offset 1)\n"),
    ("5\n", "error: malformed header '5' (at offset 1)\n"),
    ("3 x\n", "error: non-integer header '3 x' (at offset 1)\n"),
])
def test_integer_first_field_is_an_edge_list(capsys, tmp_path, text, err):
    """graph6 bytes are 63..126, so a first field that is an integer makes
    the input an edge list, and a bad header gets the edge-list message."""
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert run(capsys, "kappa", str(f)) == (EXIT_USAGE, "", err)


def test_missing_file(capsys):
    code, _, err = run(capsys, "kappa", "/nonexistent/file.g6")
    assert code == EXIT_USAGE


def test_kappa_dimacs_autodetect(capsys, tmp_path):
    f = tmp_path / "tri.col"
    f.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, _ = run(capsys, "kappa", str(f))
    assert code == EXIT_OK
    assert "kappa: 2" in out


def test_ends_c5(capsys, tmp_path):
    f = tmp_path / "c5.g6"
    f.write_text("Dhc\n")  # C_5
    from wheelfree import cycle, parse_graph6

    assert parse_graph6("Dhc") == cycle(5)
    code, out, _ = run(capsys, "ends", str(f))
    assert code == EXIT_OK
    assert out.count("end: ") == 5


def test_ends_c25_past_scan_budget(capsys, tmp_path):
    f = tmp_path / "c25.g6"
    f.write_text(to_graph6(cycle(25)) + "\n")
    code, out, _ = run(capsys, "ends", str(f))
    assert code == EXIT_OK
    assert "ends: 25" in out


def test_wheel_petersen_free(capsys, tmp_path):
    from wheelfree import petersen, to_graph6

    f = tmp_path / "pet.g6"
    f.write_text(to_graph6(petersen()) + "\n")
    code, out, _ = run(capsys, "wheel", str(f), "--k", "4")
    assert code == EXIT_OK
    assert "status: 4-wheel-free" in out


def test_wm_cert_cli(capsys, tmp_path):
    from wheelfree import complete_bipartite, to_graph6

    f = tmp_path / "k44.g6"
    f.write_text(to_graph6(complete_bipartite(4)) + "\n")
    code, out, _ = run(capsys, "wm-cert", str(f), "--x", "4", "--targets", "0,1,2,3")
    assert code == EXIT_OK
    assert "certificate: watkins-mesner" in out
    assert "cutset: 5 6 7" in out


def test_wm_cert_cli_no_certificate(capsys, tmp_path):
    # the path 0-1-2-3 with apex 4: no cycle through the targets and no
    # vertex left to cut with, so there is no certificate and no violation
    f = tmp_path / "fan.g6"
    f.write_text("Dh{\n")
    assert run(capsys, "wm-cert", str(f), "--x", "4", "--targets", "0,1,2,3") == (EXIT_OK, f"""\
report: wm-cert
version: 0.1.0
input: {f}

graph 1: Dh{{
status: no-certificate

summary: graphs=1
status: ok
""", "")


def test_wm_cert_bad_targets_exit_usage(capsys, tmp_path):
    from wheelfree import complete_bipartite, to_graph6

    f = tmp_path / "k44.g6"
    f.write_text(to_graph6(complete_bipartite(4)) + "\n")
    code, out, err = run(capsys, "wm-cert", str(f), "--x", "0", "--targets", "4,5,a")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'4,5,a'" in err


def test_wm_cert_reports_a_graph_without_x_or_a_target_and_goes_on(capsys, tmp_path):
    # the empty graph has no vertex 4; K_{4,4} then gets its golden lines
    f = tmp_path / "two.g6"
    f.write_text("?\nG?~vf_\n")
    assert run(capsys, "wm-cert", str(f), "--x", "4", "--targets", "0,1,2,3") == (EXIT_OK, f"""\
report: wm-cert
version: 0.1.0
input: {f}

graph 1: ?
status: no-such-vertex

graph 2: G?~vf_
status: certified
certificate: watkins-mesner
x: 4
targets: 0 1 2 3
cutset: 5 6 7
component 0: 0
component 1: 1
component 2: 2
component 3: 3

summary: graphs=2
status: ok
""", "")


@pytest.mark.parametrize("x, targets, message", [
    ("-1", "0,1,2,3", "vertex -1 out of range"),
    ("4", "0,1,2,-3", "vertex -3 out of range"),
    ("4", "0,1,2", "exactly four target vertices are required"),
    ("4", "0,1,2,3,5", "exactly four target vertices are required"),
    ("4", "0,1,1,2", "exactly four target vertices are required"),
    ("1", "0,1,2,3", "x must not be one of the targets"),
])
def test_wm_cert_argument_errors_exit_usage_once(capsys, tmp_path, x, targets, message):
    # no graph could meet these, so they stop the command before any report
    f = tmp_path / "two.g6"
    f.write_text("?\nG?~vf_\n")
    assert run(capsys, "wm-cert", str(f), f"--x={x}", "--targets", targets) == (
        EXIT_USAGE, "", f"error: {message}\n")


def test_verify_ok_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "thm-4.8", "--pool", "exhaustive:n=4")
    assert code == EXIT_OK
    assert "counterexamples=0" in out
    assert "status: ok" in out


def test_verify_counterexample_exit_and_file(capsys, tmp_path, monkeypatch):
    """Wire-level check of the counterexample path using an injected statement."""

    def always_fails(g):
        return VerifyStatus.COUNTEREXAMPLE, "synthetic"

    monkeypatch.setitem(STATEMENTS, "test-fail", ("synthetic failure", None, always_fails))
    out_file = tmp_path / "ce.txt"
    code, out, _ = run(
        capsys, "verify", "test-fail", "--pool", "exhaustive:n=2", "--out", str(out_file)
    )
    assert code == EXIT_COUNTEREXAMPLE
    assert "status: counterexample" in out
    assert out_file.exists()
    assert "graph6:" in out_file.read_text()


@pytest.mark.parametrize("command, target, extra", [
    ("color4", "color4", ()),
    ("wheel", "find_k_wheel", ()),
    ("kappa", "vertex_connectivity", ()),
    ("ends", "ends", ()),
    ("wm-cert", "wm_certificate", ("--x", "0", "--targets", "1,2,3,4")),
])
def test_per_graph_theorem_violation_is_a_counterexample(capsys, tmp_path, monkeypatch,
                                                         command, target, extra):
    """A TheoremViolationError inside a per-graph command is that graph's
    counterexample line and exit 1: neither a traceback nor a clean report."""
    from wheelfree import cli
    from wheelfree.errors import TheoremViolationError

    def violated(g, *_):
        raise TheoremViolationError(f"{target} failed on purpose")

    monkeypatch.setattr(cli, target, violated)
    f = tmp_path / "k5.g6"
    f.write_text(to_graph6(complete(5)) + "\n")
    code, out, err = run(capsys, command, str(f), *extra)
    assert (code, err) == (EXIT_COUNTEREXAMPLE, "")
    assert f"graph 1: D~{{\ncounterexample: {target} failed on purpose\n\nsummary: graphs=1" in out
    assert out.endswith("\nstatus: counterexample\n")


def test_verify_real_counterexample(capsys, tmp_path):
    """K_{3,3} plus an edge genuinely refutes the thm-4.5 statement; the
    verify command must flag it, write the bundle and exit 1."""
    from wheelfree import Graph, to_graph6

    k33e = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)] + [(0, 1)])
    pool_file = tmp_path / "pool.g6"
    pool_file.write_text(to_graph6(k33e) + "\n")
    out_file = tmp_path / "bundle.txt"
    code, out, _ = run(
        capsys, "verify", "thm-4.5", "--pool", f"file:{pool_file}", "--out", str(out_file)
    )
    assert code == EXIT_COUNTEREXAMPLE
    assert "counterexamples=1" in out
    text = out_file.read_text()
    assert "statement: thm-4.5" in text
    assert "non-trivial end" in text


def test_verify_unknown_statement(capsys):
    code, _, err = run(capsys, "verify", "thm-0.0", "--pool", "exhaustive:n=2")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["verify", "bogus", "--pool", "file:{}"], "unknown statement 'bogus'"),
    (["wheel", "--k", "2", "{}"], "wheels need at least 3 spokes"),
    (["conjecture", "--k", "2", "--pool", "file:{}"], "wheels need at least 3 spokes"),
])
def test_invalid_argument_exits_usage_on_an_empty_input(capsys, tmp_path, argv, message):
    """An unknown id or a --k below 3 is refused before any graph is read,
    so an input that holds no graph cannot turn it into a clean report."""
    f = tmp_path / "empty.g6"
    f.write_text("")
    code, out, err = run(capsys, *(a.format(f) for a in argv))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_verify_non_numeric_descriptor_values_exit_usage(capsys):
    for pool in ("exhaustive:n=x", "random:n=5,p=abc,seed=1,count=3",
                 "exhaustive:n=4,min-degree=x"):
        code, out, err = run(capsys, "verify", "thm-4.8", "--pool", pool)
        assert code == EXIT_USAGE, pool
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(pool) in err


def test_unknown_or_repeated_descriptor_keys_exit_usage(capsys):
    """A misspelled or repeated key or flag is an input error naming it,
    not a pool that silently drops it."""
    for pool, named in (("exhaustive:n=4,min-degre=3", "unknown key 'min-degre'"),
                        ("exhaustive:n=4,dedupe", "unknown flag 'dedupe'"),
                        ("random:n=4,p=0.5,seed=1,count=3,dedup", "unknown flag 'dedup'"),
                        ("exhaustive:n=4,n=5", "repeats 'n'"),
                        ("exhaustive:n=4,dedup,dedup", "repeats 'dedup'"),
                        ("wat:n=3", "unknown pool kind 'wat'")):
        for argv in (["verify", "thm-4.8"], ["conjecture", "--k", "4"]):
            code, out, err = run(capsys, *argv, "--pool", pool)
            assert code == EXIT_USAGE, pool
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert named in err, err


def test_parse_warnings_print_one_line_each_every_call(capsys, tmp_path):
    f = tmp_path / "dup.col"
    f.write_text("p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 1 3\n")
    for _ in range(2):
        code, out, err = run(capsys, "kappa", str(f))
        assert code == EXIT_OK
        assert out == (f"report: kappa\nversion: 0.1.0\ninput: {f}\n\ngraph 1: Bw\nkappa: 2\n\n"
                       "summary: graphs=1\nstatus: ok\n")
        assert err == ("warning: 1 duplicate edge line(s) collapsed\n"
                       "warning: edge count mismatch: header says 4, found 3 distinct edges\n")


def test_commented_edge_list_is_sniffed(capsys, tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("# triangle\n3 3\n0 1\n1 2\n0 2\n")
    code, out, err = run(capsys, "kappa", str(f))
    assert (code, err) == (EXIT_OK, "")
    assert "kappa: 2\n" in out


def test_verify_wheel_free_filter_past_oracle_budget(capsys):
    """The wheel-free= pool filter runs the exact search, not the n <= 12
    brute oracle, so n=13 pools fill instead of crashing."""
    code, out, err = run(capsys, "verify", "thm-4.8", "--pool",
                         "random:n=13,p=0.3,seed=1,count=20,wheel-free=4")
    assert code == EXIT_OK
    assert err == ""
    assert "summary: graphs=20 " in out


def test_verify_unfillable_random_pool_exits_usage(capsys):
    """A filter that no draw passes ends the pool with one error line."""
    for pool in ("random:n=2,p=0.5,seed=1,count=1,min-degree=3",
                 "random:n=5,p=1,seed=1,count=1,wheel-free=4"):
        code, out, err = run(capsys, "verify", "thm-4.8", "--pool", pool)
        assert code == EXIT_USAGE, pool
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "10000 draws in a row" in err and pool.split(",")[-1] in err


def test_reports_byte_stable(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    _, out1, _ = run(capsys, "color4", str(f))
    _, out2, _ = run(capsys, "color4", str(f))
    assert out1 == out2
    assert "time:" not in out1


def test_timing_flag_adds_line(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    _, out, _ = run(capsys, "color4", str(f), "--timing")
    assert "time:" in out


def test_conjecture_search_small(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--k", "5", "--pool", "random:n=7,p=0.3,seed=5,count=25"
    )
    assert code == EXIT_OK
    assert "over-chromatic=0" in out


def test_conjecture_skips_oracle_when_n_colors_suffice(capsys, tmp_path):
    from wheelfree import complete, to_graph6

    f = tmp_path / "k13.g6"
    f.write_text(to_graph6(complete(13)) + "\n")
    code, out, err = run(capsys, "conjecture", "--k", "20", "--pool", f"file:{f}")
    assert code == EXIT_OK
    assert err == ""
    assert "summary: graphs=1 wheel-free=1 over-chromatic=0\n" in out


def test_conjecture_counts_budget_overruns(capsys, tmp_path):
    from wheelfree import cycle, to_graph6

    f = tmp_path / "c13.g6"
    f.write_text(to_graph6(cycle(13)) + "\n")
    code, out, err = run(capsys, "conjecture", "--k", "3", "--pool", f"file:{f}")
    assert code == EXIT_OK
    assert err == ""
    assert "summary: graphs=1 wheel-free=1 over-chromatic=0 budget-exceeded=1\n" in out


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, out, _ = run(capsys, "kappa", "-")
    assert code == EXIT_OK
    assert "kappa: 3" in out


_GOLDEN_REPORTS = {
    ("wheel", "graphs.g6", "--k", "4"): r"""report: wheel
version: 0.1.0
input: graphs.g6

graph 1: C~
status: 4-wheel-free

graph 2: Dhc
status: 4-wheel-free

graph 3: G?~vf_
status: 4-wheel-free

graph 4: IheA@GUAo
status: 4-wheel-free

graph 5: Ej\w
status: contains-4-wheel
certificate: wheel
center: 1
rim: 2 3 4 5
spokes: 1-2 1-3 1-4 1-5

summary: graphs=5 with-wheel=1
status: ok
""",
    ("kappa", "graphs.g6"): r"""report: kappa
version: 0.1.0
input: graphs.g6

graph 1: C~
kappa: 3

graph 2: Dhc
kappa: 2

graph 3: G?~vf_
kappa: 4

graph 4: IheA@GUAo
kappa: 3

graph 5: Ej\w
kappa: 1

summary: graphs=5
status: ok
""",
    ("ends", "graphs.g6"): r"""report: ends
version: 0.1.0
input: graphs.g6

graph 1: C~
ends: none (complete graphs and the single vertex have no fragments)

graph 2: Dhc
ends: 5
end: 0
end: 1
end: 2
end: 3
end: 4

graph 3: G?~vf_
ends: 8
end: 0
end: 1
end: 2
end: 3
end: 4
end: 5
end: 6
end: 7

graph 4: IheA@GUAo
ends: 10
end: 0
end: 1
end: 2
end: 3
end: 4
end: 5
end: 6
end: 7
end: 8
end: 9

graph 5: Ej\w
ends: 2
end: 0
end: 2 3 4 5

summary: graphs=5
status: ok
""",
    ("color4", "graphs.g6", "--emit-trace"): r"""report: color4
version: 0.1.0
input: graphs.g6

graph 1: C~
status: colored
colors-used: 4
certificate: coloring
palette: 4
colors: 3 2 1 0
certificate: reduction-trace
step 1: low-degree remove=0 bound=3
step 2: low-degree remove=1 bound=3
step 3: low-degree remove=2 bound=3
step 4: low-degree remove=3 bound=3

graph 2: Dhc
status: colored
colors-used: 3
certificate: coloring
palette: 4
colors: 2 1 0 1 0
certificate: reduction-trace
step 1: low-degree remove=0 bound=3
step 2: low-degree remove=1 bound=3
step 3: low-degree remove=2 bound=3
step 4: low-degree remove=3 bound=3
step 5: low-degree remove=4 bound=3

graph 3: G?~vf_
status: colored
colors-used: 2
certificate: coloring
palette: 4
colors: 1 1 1 1 0 0 0 0
certificate: reduction-trace
step 1: twins remove=0 keep=1
step 2: low-degree remove=4 bound=3
step 3: low-degree remove=1 bound=3
step 4: low-degree remove=2 bound=3
step 5: low-degree remove=3 bound=3
step 6: low-degree remove=5 bound=3
step 7: low-degree remove=6 bound=3
step 8: low-degree remove=7 bound=3

graph 4: IheA@GUAo
status: colored
colors-used: 3
certificate: coloring
palette: 4
colors: 0 2 0 2 1 2 1 1 0 0
certificate: reduction-trace
step 1: low-degree remove=0 bound=3
step 2: low-degree remove=1 bound=3
step 3: low-degree remove=2 bound=3
step 4: low-degree remove=3 bound=3
step 5: low-degree remove=4 bound=3
step 6: low-degree remove=5 bound=3
step 7: low-degree remove=6 bound=3
step 8: low-degree remove=7 bound=3
step 9: low-degree remove=8 bound=3
step 10: low-degree remove=9 bound=3

graph 5: Ej\w
status: contains-4-wheel
certificate: wheel
center: 1
rim: 2 3 4 5
spokes: 1-2 1-3 1-4 1-5
certificate: reduction-trace
step 1: low-degree remove=0 bound=3

summary: graphs=5
status: ok
""",
    ("wm-cert", "k44.g6", "--x", "4", "--targets", "0,1,2,3"): r"""report: wm-cert
version: 0.1.0
input: k44.g6

graph 1: G?~vf_
status: certified
certificate: watkins-mesner
x: 4
targets: 0 1 2 3
cutset: 5 6 7
component 0: 0
component 1: 1
component 2: 2
component 3: 3

summary: graphs=1
status: ok
""",
}


def test_reports_golden(capsys, tmp_path, monkeypatch):
    """The full stdout of each per-graph report, pinned as literal text."""
    from wheelfree import Graph, complete, complete_bipartite, cycle, petersen, to_graph6

    k5_pendant = Graph(6, [(0, 1)] + [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    graphs = [complete(4), cycle(5), complete_bipartite(4), petersen(), k5_pendant]
    (tmp_path / "graphs.g6").write_text("".join(to_graph6(g) + "\n" for g in graphs))
    (tmp_path / "k44.g6").write_text(to_graph6(complete_bipartite(4)) + "\n")
    monkeypatch.chdir(tmp_path)
    for argv, expected in _GOLDEN_REPORTS.items():
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_OK, expected, ""), argv


_CONJECTURE_K5 = "random:n=7,p=0.3,seed=5,count=25"
_GOLDEN_POOL_REPORTS = {
    ("verify", "thm-4.7", "--pool", "exhaustive:n=5"): (EXIT_OK, """report: verify
version: 0.1.0
statement: thm-4.7
pool: exhaustive:n=5

summary: graphs=1024 pass=212 not-applicable=812 counterexamples=0 budget-exceeded=0
count k44-block-branch: 0
count low-degree-branch: 540
status: ok
"""),
    ("verify", "thm-4.5", "--pool", "file:k33e.g6"): (EXIT_COUNTEREXAMPLE, """report: verify
version: 0.1.0
statement: thm-4.5
pool: file:k33e.g6

summary: graphs=1 pass=0 not-applicable=0 counterexamples=1 budget-exceeded=0
counterexample-file: counterexample-thm-4.5.txt
status: counterexample
"""),
    ("conjecture", "--k", "5", "--pool", _CONJECTURE_K5): (EXIT_OK, f"""report: conjecture-search
version: 0.1.0
k: 5
pool: {_CONJECTURE_K5}

summary: graphs=25 wheel-free=25 over-chromatic=0
status: ok
"""),
    ("conjecture", "--k", "3", "--pool", "file:c13.g6"): (EXIT_OK, """report: conjecture-search
version: 0.1.0
k: 3
pool: file:c13.g6

summary: graphs=1 wheel-free=1 over-chromatic=0 budget-exceeded=1
status: ok
"""),
}
_GOLDEN_K33E_BUNDLE = """graph6: Efz_
statement: thm-4.5
status: counterexample
detail: non-trivial end (0, 1) with no 4-wheel center

"""


def test_pool_reports_golden(capsys, tmp_path, monkeypatch):
    """The full stdout of verify and conjecture reports, and one bundle."""
    (tmp_path / "k33e.g6").write_text(to_graph6(_K33E) + "\n")
    (tmp_path / "c13.g6").write_text(to_graph6(cycle(13)) + "\n")
    monkeypatch.chdir(tmp_path)
    for argv, (code, expected) in _GOLDEN_POOL_REPORTS.items():
        assert run(capsys, *argv) == (code, expected, ""), argv
    assert (tmp_path / "counterexample-thm-4.5.txt").read_text() == _GOLDEN_K33E_BUNDLE


def test_conjecture_candidate_golden(capsys, monkeypatch):
    """The candidate branch, reached by an oracle that reports 6 colors."""
    from wheelfree import cli

    monkeypatch.setattr(cli, "brute_chromatic_number", lambda g: 6)
    assert run(capsys, "conjecture", "--k", "5", "--pool", _CONJECTURE_K5) == (
        EXIT_COUNTEREXAMPLE, f"""report: conjecture-search
version: 0.1.0
k: 5
pool: {_CONJECTURE_K5}

candidate: FDaGG
chromatic-number: 6
status: counterexample
""", "")


def test_directory_input_exit_usage(capsys, tmp_path):
    code, out, err = run(capsys, "wheel", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_input_exit_usage(capsys, tmp_path):
    f = tmp_path / "bad.g6"
    f.write_bytes(b"\xff\xfe\x80C~\n")
    code, out, err = run(capsys, "wheel", str(f))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run(capsys, "verify", "thm-4.8", "--pool", f"file:{f}")
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1


def test_theorem_violation_lands_in_bundle(capsys, tmp_path, monkeypatch):
    """A TheoremViolationError raised inside a checker is a counterexample
    of that statement, not a crash of the whole pool."""
    from wheelfree import structure
    from wheelfree.errors import TheoremViolationError
    from wheelfree.structure import verify_statement

    def broken_color4(g):
        raise TheoremViolationError("reduction stuck on purpose")

    monkeypatch.setattr(structure, "color4", broken_color4)
    result = verify_statement(cycle(5), "cor-1.5")
    assert result.status is VerifyStatus.COUNTEREXAMPLE
    assert result.detail == "reduction stuck on purpose"
    pool_file = tmp_path / "pool.g6"
    pool_file.write_text(to_graph6(cycle(5)) + "\n" + to_graph6(cycle(6)) + "\n")
    out_file = tmp_path / "bundle.txt"
    code, out, _ = run(capsys, "verify", "cor-1.5", "--pool", f"file:{pool_file}",
                       "--out", str(out_file))
    assert code == EXIT_COUNTEREXAMPLE
    assert "counterexamples=2" in out
    text = out_file.read_text()
    assert f"graph6: {to_graph6(cycle(5))}\n" in text
    assert f"graph6: {to_graph6(cycle(6))}\n" in text
    assert "reduction stuck on purpose" in text


_K33E = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)] + [(0, 1)])
_G6_LINES = [to_graph6(g) for g in (complete(4), cycle(5), complete_bipartite(3), petersen(), _K33E)]


def _dimacs(n, edges):
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _edge_list(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


_small_edges = st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=8)
# arbitrary bytes, plus truncated graph6 files and DIMACS / edge-list texts
# with small vertex counts that parse often enough to reach the commands
_input_bytes = st.one_of(
    st.binary(max_size=48),
    st.tuples(st.lists(st.sampled_from(_G6_LINES), max_size=3), st.integers(0, 60)).map(
        lambda t: "".join(line + "\n" for line in t[0]).encode()[:t[1]]),
    st.builds(lambda f, n, e: f(n, e).encode(), st.sampled_from([_dimacs, _edge_list]),
              st.integers(-1, 9), _small_edges),
)
_PER_GRAPH = (["color4", "--emit-trace"], ["wheel", "--k", "4"], ["kappa"], ["ends"],
              ["wm-cert", "--x", "0", "--targets", "1,2,3,4"])
_FILTERS = ("min-degree=2", "connectivity-at-least=2", "wheel-free=4", "wheel-free=2",
            "min-degree=x")


def _with_filters(heads, extra=()):
    return st.builds(lambda head, fs: ",".join([head, *fs]), heads,
                     st.lists(st.sampled_from(_FILTERS + extra), max_size=2))


# n <= 5 and count <= 5 keep each pool small (exhaustive:n=8 alone is 2^28
# graphs).
_descriptors = st.one_of(
    _with_filters(st.builds("exhaustive:n={}".format, st.integers(-1, 5)), extra=("dedup",)),
    _with_filters(st.builds("random:n={},p={},seed={},count={}".format, st.integers(-1, 5),
                            st.sampled_from(["0", "0.3", "1", "1.5", "abc"]), st.integers(-1, 9),
                            st.integers(-1, 5))),
    st.just("file:"),
    st.text(max_size=20),
)
_fuzz_settings = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def _check_contract(capsys, argv, bundle=None):
    """Exit 0, 1 or 2 with no escaping exception; 1 only with a bundle written."""
    if bundle is not None and bundle.exists():
        bundle.unlink()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_USAGE), argv
    assert "Traceback" not in err
    if code == EXIT_COUNTEREXAMPLE:
        assert bundle is not None and bundle.exists(), argv


@_fuzz_settings
@given(command=st.sampled_from(_PER_GRAPH), data=_input_bytes)
def test_fuzz_per_graph_commands(capsys, tmp_path, command, data):
    f = tmp_path / "input"
    f.write_bytes(data)
    _check_contract(capsys, [command[0], str(f), *command[1:]])


@_fuzz_settings
@given(statement=st.one_of(st.sampled_from(sorted(STATEMENTS)), st.text(max_size=8)),
       descriptor=_descriptors, pool_bytes=_input_bytes, k=st.sampled_from(["-1", "2", "3", "5"]))
def test_fuzz_pool_commands(capsys, tmp_path, statement, descriptor, pool_bytes, k):
    pool_file = tmp_path / "pool.g6"
    pool_file.write_bytes(pool_bytes)
    if descriptor == "file:":
        descriptor += str(pool_file)
    bundle = tmp_path / "bundle.txt"
    _check_contract(capsys, ["verify", statement, "--pool", descriptor, "--out", str(bundle)],
                    bundle)
    _check_contract(capsys, ["conjecture", "--k", k, "--pool", descriptor])


def test_file_pools_take_every_input_format(capsys, tmp_path):
    """A file: pool sniffs its format like a per-graph input: K_{3,3}+e as
    graph6, DIMACS and an edge list gives one thm-4.5 report and bundle."""
    edges = list(_K33E.edges())
    texts = {"k33e.g6": to_graph6(_K33E) + "\n",
             "k33e.col": _dimacs(6, [(u + 1, v + 1) for u, v in edges]),
             "k33e.txt": _edge_list(6, edges)}
    bundle = tmp_path / "bundle.txt"
    results = set()
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        code, out, err = run(capsys, "verify", "thm-4.5", "--pool", f"file:{tmp_path / name}",
                             "--out", str(bundle))
        assert (code, err) == (EXIT_COUNTEREXAMPLE, ""), name
        assert f"pool: file:{tmp_path / name}\n" in out
        results.add((out.partition("\n\n")[2], bundle.read_text()))
    [(summary, text)] = results
    assert summary.startswith("summary: graphs=1 pass=0 not-applicable=0 counterexamples=1 ")
    assert text.startswith(f"graph6: {to_graph6(_K33E)}\nstatement: thm-4.5\n")


def test_non_text_file_gets_one_error_from_every_reader(capsys, tmp_path):
    f = tmp_path / "bad.g6"
    f.write_bytes(b"\xff\xfe\x80C~\n")
    expected = (EXIT_USAGE, "", f"error: {f}: input is not text (invalid start byte)\n")
    assert run(capsys, "kappa", str(f)) == expected
    assert run(capsys, "verify", "thm-4.8", "--pool", f"file:{f}") == expected
    assert run(capsys, "conjecture", "--pool", f"file:{f}") == expected


def test_wm_cert_reports_a_graph_it_refuses_and_goes_on(capsys, tmp_path):
    # K_8 has a cycle through the targets and C_8 lacks the spokes x-1 and
    # x-2; each gets its own line between two certified K_{4,4}
    f = tmp_path / "four.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in (
        complete_bipartite(4), complete(8), cycle(8), complete_bipartite(4))))
    code, out, err = run(capsys, "wm-cert", str(f), "--x", "4", "--targets", "0,1,2,3")
    assert (code, err) == (EXIT_OK, "")
    assert out.count("status: certified\n") == 2
    assert (f"graph 2: {to_graph6(complete(8))}\nstatus: not-applicable (a cycle through the "
            f"targets exists; no certificate applies)\n\ngraph 3: {to_graph6(cycle(8))}\n"
            f"status: not-applicable (targets must all be neighbors of x)\n\ngraph 4: ") in out
    assert out.endswith("\nsummary: graphs=4\nstatus: ok\n")


@_fuzz_settings
@given(command=st.sampled_from(_PER_GRAPH), data=_input_bytes)
@example(command=_PER_GRAPH[-1], data=to_graph6(cycle(5)).encode())  # x=0 misses 2 and 3
def test_fuzz_per_graph_commands_report_every_graph(capsys, tmp_path, command, data):
    """An input that parses into m graphs a report can name prints exactly
    m ``graph i:`` blocks; any other input exits 2 with no report."""
    import re
    import warnings

    from wheelfree.formats import GRAPH6_MAX_N, read_file

    f = tmp_path / "input"
    f.write_bytes(data)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            graphs = read_file(str(f))
    except ParseError:
        graphs = None
    code = main([command[0], str(f), *command[1:]])
    out = capsys.readouterr().out
    if graphs is None or any(g.n > GRAPH6_MAX_N for g in graphs):
        assert (code, out) == (EXIT_USAGE, "")
    else:
        assert code in (EXIT_OK, EXIT_COUNTEREXAMPLE)
        assert re.findall(r"^graph (\d+): ", out, re.M) == [
            str(i) for i in range(1, len(graphs) + 1)]


def test_verify_bundle_lists_the_edges_of_a_graph_past_graph6(capsys, tmp_path, monkeypatch):
    """graph6 stops at 62 vertices, so a larger counterexample is written
    as its vertex count and edge list, and the report still exits 1."""
    from wheelfree.oracles import parse_pool_descriptor

    def always_fails(g):
        return VerifyStatus.COUNTEREXAMPLE, "synthetic"

    monkeypatch.setitem(STATEMENTS, "thm-1.2", ("synthetic failure", None, always_fails))
    descriptor = "random:n=63,p=0.1,seed=1,count=1"
    bundle = tmp_path / "b.txt"
    code, out, err = run(capsys, "verify", "thm-1.2", "--pool", descriptor, "--out", str(bundle))
    assert (code, err) == (EXIT_COUNTEREXAMPLE, "")
    assert f"counterexamples=1 budget-exceeded=0\ncounterexample-file: {bundle}\n" in out
    [g] = parse_pool_descriptor(descriptor)
    edges = " ".join(f"{u}-{v}" for u, v in g.edges())
    assert bundle.read_text() == (f"vertices: 63\nedges: {edges}\nstatement: thm-1.2\n"
                                  "status: counterexample\ndetail: synthetic\n\n")
