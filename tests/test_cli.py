"""End-to-end runs of the command-line drivers and their CSV contracts."""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import build_example, solve_pontryagin
from fracoc import cli
from fracoc.cli import build_parser, main


def run(tmp_path, name, *args):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines if ln.startswith("#")]
    return header, rows, comments


# -- solve -----------------------------------------------------------------------

def test_solve_zero_example_writes_zero_controls(tmp_path):
    code, out = run(tmp_path, "z.csv", "solve", "--example", "zero",
                    "--alpha", "0.5", "--n", "10")
    assert code == 0
    header, rows, _ = read_rows(out)
    assert header == ["k", "t", "u_1", "q_1", "p_1"]
    assert len(rows) == 11
    assert all(float(r[2]) == 0.0 and float(r[4]) == 0.0 for r in rows)
    assert all(float(r[3]) == 1.0 for r in rows)


def test_solve_table_round_trips_doubles(tmp_path):
    code, out = run(tmp_path, "lq.csv", "solve", "--example", "lq",
                    "--alpha", "1", "--n", "20")
    assert code == 0
    sol = solve_pontryagin(build_example("lq", 1.0, 20))
    _, rows, _ = read_rows(out)
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        assert float(row[2]) == sol.U.values[k, 0]
        assert float(row[3]) == sol.Q.values[k, 0]
        assert float(row[4]) == sol.P.values[k, 0]


def test_solve_prints_diagnostics(tmp_path, capsys):
    code, _ = run(tmp_path, "d.csv", "solve", "--example", "solved",
                  "--alpha", "0.5", "--n", "20")
    assert code == 0
    says = capsys.readouterr().out
    assert "stationarity_residual=" in says
    assert "cost=" in says
    assert "outer_iters=" in says


def test_solve_failure_suppresses_the_output_file(tmp_path):
    # n = 2 violates the standing step bound, so nothing must be written
    code, out = run(tmp_path, "fail.csv", "solve", "--example", "lq",
                    "--alpha", "1", "--n", "2")
    assert code == 1
    assert not out.exists()


def test_runs_are_deterministic(tmp_path):
    _, first = run(tmp_path, "a.csv", "solve", "--example", "lq",
                   "--alpha", "0.75", "--n", "15")
    _, second = run(tmp_path, "b.csv", "solve", "--example", "lq",
                    "--alpha", "0.75", "--n", "15")
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


# -- converge --------------------------------------------------------------------

def test_converge_small_study_fits_an_order(tmp_path, capsys):
    code, out = run(tmp_path, "c.csv", "converge", "--example", "lq",
                    "--alpha", "1", "--n-list", "10,20,40")
    assert code == 0
    header, rows, comments = read_rows(out)
    assert header == ["N", "h", "max_error", "pairwise_order"]
    assert [int(r[0]) for r in rows] == [10, 20, 40]
    assert rows[0][3] == "" and rows[1][3] != ""
    fitted = float(comments[-1].split("=")[1])
    assert 0.5 <= fitted <= 1.5
    assert f"fitted_order={comments[-1].split('=')[1]}" in capsys.readouterr().out


def test_converge_rejects_orders_without_reference(tmp_path, capsys):
    code, out = run(tmp_path, "r.csv", "converge", "--example", "lq",
                    "--alpha", "0.5", "--n-list", "10,20,40")
    assert code == 1
    assert not out.exists()
    assert "order 1 only" in capsys.readouterr().err

    code, _ = run(tmp_path, "r2.csv", "converge", "--example", "rotation",
                  "--alpha", "0.5", "--n-list", "10,20,40")
    assert code == 1


def test_converge_self_test_reports_degenerate(tmp_path, capsys):
    code, out = run(tmp_path, "s.csv", "converge", "--example", "rotation",
                    "--alpha", "0.5", "--n-list", "8,12,16", "--self-test")
    assert code == 0
    _, rows, comments = read_rows(out)
    assert all(float(r[2]) == 0.0 for r in rows)
    assert comments[-1] == "# fitted_order=degenerate"
    assert "fitted_order=degenerate" in capsys.readouterr().out


# -- noether ----------------------------------------------------------------------

def test_noether_rotation_invariant_is_flat(tmp_path, capsys):
    code, out = run(tmp_path, "n.csv", "noether", "--example", "rotation",
                    "--alpha", "0.75", "--n", "24")
    assert code == 0
    header, rows, _ = read_rows(out)
    assert header == ["k", "t", "I_k"]
    assert len(rows) == 25
    says = capsys.readouterr().out
    drift = float(says.split("max_drift=")[1].splitlines()[0])
    peak = float(says.split("max_abs=")[1].splitlines()[0])
    assert drift <= 1e-10 and peak <= 1e-10


def test_noether_zero_generator_flag(tmp_path):
    code, out = run(tmp_path, "n0.csv", "noether", "--example", "rotation",
                    "--alpha", "0.75", "--n", "16", "--zero-generator")
    assert code == 0
    _, rows, _ = read_rows(out)
    assert all(float(r[2]) == 0.0 for r in rows)


def test_noether_refuses_other_examples(tmp_path, capsys):
    code, out = run(tmp_path, "nx.csv", "noether", "--example", "lq",
                    "--alpha", "1", "--n", "16")
    assert code == 1
    assert not out.exists()
    assert "rotation" in capsys.readouterr().err


# -- argument handling --------------------------------------------------------------

def test_parser_rejects_bad_input():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "--example", "unknown", "--out", "x.csv"])
    with pytest.raises(SystemExit):
        parser.parse_args(["converge", "--example", "lq", "--n-list", "a,b"])
    with pytest.raises(SystemExit):
        parser.parse_args(["converge", "--example", "lq", "--n-list", ""])
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_invalid_order_is_a_clean_failure(tmp_path, capsys):
    code, out = run(tmp_path, "bad.csv", "solve", "--example", "lq",
                    "--alpha", "1.5", "--n", "10")
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_solver_tolerances_are_threaded_through(tmp_path, capsys):
    code, _ = run(tmp_path, "t.csv", "solve", "--example", "solved",
                  "--alpha", "0.5", "--n", "20", "--tol-stat", "1e-11",
                  "--tol-control", "1e-11")
    assert code == 0
    says = capsys.readouterr().out
    residual = float(says.split("stationarity_residual=")[1].splitlines()[0])
    assert residual <= 1e-11


def test_divergence_budget_is_respected(tmp_path, capsys):
    # one outer pass cannot converge from the zero control on this problem
    code, out = run(tmp_path, "b.csv", "solve", "--example", "lq",
                    "--alpha", "1", "--n", "10", "--max-outer", "1")
    assert code == 1
    assert not out.exists()
    assert "not converged" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, says", (
    ("f", np.nan, "non-finite"),          # a callback returns NaN at node 3
    ("df_dx", 8.0, "singular"),           # I - h^alpha df_dx is exactly zero
))
def test_node_failures_exit_1_without_output(tmp_path, capsys, monkeypatch,
                                             field, value, says):
    def broken(name, alpha, n):
        problem = build_example(name, alpha, n)
        good = getattr(problem, field)
        t3 = problem.grid.times[3]
        return dataclasses.replace(
            problem, **{field: lambda x, v, t: value if t == t3 else good(x, v, t)})

    monkeypatch.setattr(cli, "build_example", broken)
    code, out = run(tmp_path, "x.csv", "solve", "--example", "lq",
                    "--alpha", "1", "--n", "8")
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert says in err and "node 3" in err
