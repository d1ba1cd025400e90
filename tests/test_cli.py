"""CLI behavior: formats, exit codes, report shapes."""

from wheelfree.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_USAGE, main
from wheelfree.structure import STATEMENTS, VerifyResult, VerifyStatus


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
    code, out, _ = run(capsys, "wm-cert", str(f), "--x", "4", "--X", "0,1,2,3")
    assert code == EXIT_OK
    assert "certificate: watkins-mesner" in out
    assert "cutset: 5 6 7" in out
    # --targets is an accepted alias for --X
    code, out, _ = run(capsys, "wm-cert", str(f), "--x", "4", "--targets", "0,1,2,3")
    assert code == EXIT_OK


def test_wm_cert_bad_targets_exit_usage(capsys, tmp_path):
    from wheelfree import complete_bipartite, to_graph6

    f = tmp_path / "k44.g6"
    f.write_text(to_graph6(complete_bipartite(4)) + "\n")
    code, out, err = run(capsys, "wm-cert", str(f), "--x", "0", "--targets", "4,5,a")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'4,5,a'" in err


def test_verify_ok_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "thm-4.8", "--pool", "exhaustive:n=4")
    assert code == EXIT_OK
    assert "counterexamples=0" in out
    assert "status: ok" in out


def test_verify_counterexample_exit_and_file(capsys, tmp_path, monkeypatch):
    """Wire-level check of the counterexample path using an injected statement."""

    def always_fails(g):
        return VerifyResult("test-fail", VerifyStatus.COUNTEREXAMPLE, detail="synthetic")

    monkeypatch.setitem(STATEMENTS, "test-fail", ("synthetic failure", always_fails))
    out_file = tmp_path / "ce.txt"
    code, out, _ = run(
        capsys, "verify", "test-fail", "--pool", "exhaustive:n=2", "--out", str(out_file)
    )
    assert code == EXIT_COUNTEREXAMPLE
    assert "status: counterexample" in out
    assert out_file.exists()
    assert "graph6:" in out_file.read_text()


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


def test_verify_non_numeric_descriptor_values_exit_usage(capsys):
    for pool in ("exhaustive:n=x", "random:n=5,p=abc,seed=1,count=3",
                 "exhaustive:n=4,min-degree=x"):
        code, out, err = run(capsys, "verify", "thm-4.8", "--pool", pool)
        assert code == EXIT_USAGE, pool
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(pool) in err


def test_verify_wheel_free_filter_past_oracle_budget(capsys):
    """The wheel-free= pool filter runs the exact search, not the n <= 12
    brute oracle, so n=13 pools fill instead of crashing."""
    code, out, err = run(capsys, "verify", "thm-4.8", "--pool",
                         "random:n=13,p=0.3,seed=1,count=20,wheel-free=4")
    assert code == EXIT_OK
    assert err == ""
    assert "summary: graphs=20 " in out


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
