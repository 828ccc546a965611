"""End-to-end runs of the command-line drivers and their CSV contracts."""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import Grid, build_example, solve_pontryagin
from fracoc import cli
from fracoc.cli import build_parser, main
from fracoc.reference import (lq_exact_control, max_control_error,
                              solved_example_exact_control)


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
    # n = 1 violates the step bound h^alpha M < 1, so nothing must be written
    code, out = run(tmp_path, "fail.csv", "solve", "--example", "lq",
                    "--alpha", "1", "--n", "1")
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

    # the solved example holds at every order, alpha = 0.1 on ordinary grids too
    code, out = run(tmp_path, "c01.csv", "converge", "--example", "solved",
                    "--alpha", "0.1", "--n-list", "100,200,400,800")
    assert code == 0
    _, rows, comments = read_rows(out)
    assert [int(r[0]) for r in rows] == [100, 200, 400, 800]
    assert all(0.9 <= float(r[3]) <= 1.1 for r in rows[1:])
    assert 0.9 <= float(comments[-1].split("=")[1]) <= 1.1


@pytest.mark.parametrize("example, alpha, n_list", (
    ("solved", 0.5, "50,100,200"),  # nested grid times
    ("solved", 0.25, "30,50,70,90"),  # times that do not nest
    ("lq", 1.0, "33,64,100"),
))
def test_converge_evaluates_its_closed_form_once(tmp_path, monkeypatch, example, alpha,
                                                 n_list):
    # one call on every grid's times at once gives each grid the errors a
    # call on its own times gives, bit for bit
    calls = []
    for name in ("solved_example_exact_control", "lq_exact_control"):
        def counted(*args, _exact=getattr(cli, name)):
            calls.append(args)
            return _exact(*args)
        monkeypatch.setattr(cli, name, counted)
    argv = ["converge", "--example", example, "--alpha", str(alpha), "--n-list", n_list]
    code, out = run(tmp_path, "c.csv", *argv)
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()

    cfg = build_parser().parse_args(argv)
    rows = read_rows(out)[1]
    assert [int(r[0]) for r in rows] == sorted(cfg.n_list)
    for n, row in zip(sorted(cfg.n_list), rows):
        solution, problem = cli._solve(cfg, n)
        alone = (lq_exact_control(problem.grid.times[1:]) if example == "lq" else
                 solved_example_exact_control(alpha, problem.grid.times[1:]))
        assert float(row[2]) == max_control_error(solution.U, lambda t: alone, problem.grid)


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


def test_converge_self_test_reads_the_control_as_an_array(tmp_path, monkeypatch):
    # the control is compared with itself row for row, with no time turned
    # back into a node index
    def refused(grid, t):
        raise AssertionError("Grid.index_of called")

    monkeypatch.setattr(Grid, "index_of", refused)
    code, out = run(tmp_path, "s.csv", "converge", "--example", "solved",
                    "--alpha", "0.5", "--n-list", "8,16", "--self-test")
    assert code == 0
    assert all(float(r[2]) == 0.0 for r in read_rows(out)[1])


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

def test_unknown_example_is_refused():
    with pytest.raises(ValueError, match="unknown example 'nope'"):
        build_example("nope", 0.5, 8)


def test_parser_rejects_bad_input():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "--example", "unknown", "--out", "x.csv"])
    with pytest.raises(SystemExit):
        parser.parse_args(["converge", "--example", "lq", "--n-list", "a,b"])
    with pytest.raises(SystemExit):
        parser.parse_args(["converge", "--example", "lq", "--n-list", ""])
    with pytest.raises(SystemExit):  # N = 20 twice would fit a nan order
        parser.parse_args(["converge", "--example", "lq", "--n-list", "20,20,40"])
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_invalid_order_is_a_clean_failure(tmp_path, capsys):
    code, out = run(tmp_path, "bad.csv", "solve", "--example", "lq",
                    "--alpha", "1.5", "--n", "10")
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_nan_tolerance_is_a_clean_failure(tmp_path, capsys):
    # no residual can meet a NaN tolerance, so it is refused before the sweep
    code, out = run(tmp_path, "nan.csv", "solve", "--example", "lq",
                    "--alpha", "0.5", "--n", "50", "--tol-stat", "nan")
    assert code == 1
    assert not out.exists()
    assert "tolerances must be positive" in capsys.readouterr().err


def test_unwritable_output_is_a_clean_failure(tmp_path, capsys):
    # the solve succeeds, then its CSV cannot be opened: an error line and
    # exit 1, as for any other failure, not a traceback
    out = tmp_path / "missing" / "x.csv"
    code = main(["solve", "--example", "lq", "--n", "10", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x.csv" in err


def test_module_entry_point_runs_the_cli(tmp_path):
    # both run from a source tree with no install: PYTHONPATH=src python -m fracoc
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for module in ("fracoc.cli", "fracoc"):
        out = tmp_path / f"{module}.csv"
        done = subprocess.run([sys.executable, "-m", module, "solve", "--example", "zero",
                               "--alpha", "0.5", "--n", "4", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "outer_iters=" in done.stdout
        header, rows, _ = read_rows(out)
        assert header[:2] == ["k", "t"] and len(rows) == 5


def test_one_process_runs_match_fresh_processes(tmp_path, capsys):
    # main parses with one parser a process; a failed parse must leave it as
    # a fresh process builds it, so later runs write the same bytes
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with pytest.raises(SystemExit):
        main(["converge", "--example", "solved", "--n-list", "8,x", "--out", "c.csv"])
    for argv in (["solve", "--example", "lq", "--alpha", "0.5", "--n", "40"],
                 ["noether", "--example", "rotation", "--alpha", "0.75", "--n", "40"]):
        capsys.readouterr()
        here, fresh = tmp_path / "here.csv", tmp_path / "fresh.csv"
        assert main(argv + ["--out", str(here)]) == 0
        said = capsys.readouterr().out
        done = subprocess.run([sys.executable, "-m", "fracoc", *argv, "--out", str(fresh)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert here.read_bytes() == fresh.read_bytes() and said == done.stdout


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
        # a per-node callback; the built-in ones serve either convention
        return dataclasses.replace(problem, vectorized=False, **{
            field: lambda x, v, t: value if t == t3 else good(x, v, t)})

    monkeypatch.setattr(cli, "build_example", broken)
    code, out = run(tmp_path, "x.csv", "solve", "--example", "lq",
                    "--alpha", "1", "--n", "8")
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert says in err and "node 3" in err


# -- README -----------------------------------------------------------------------

def test_readme_flags_and_examples_match_the_parser(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {flag for p in subparsers.values() for flag in p._option_string_actions}
    # pip's own flags sit on the install lines, and the scripts' own on the
    # lines that run scripts/
    flags = {flag for line in text.splitlines()
             if not re.match(r"\s*(pip |(python3? )?scripts/)", line)
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)}
    assert flags and not flags - accepted, sorted(flags - accepted)

    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("fracoc ")]
    assert len(examples) == 3
    for argv in examples:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, capsys.readouterr().err
        assert Path(argv[at]).exists()
