"""Command-line harness: solve, converge and noether subcommands.

All output files are UTF-8 CSV with LF line endings, '.' decimal points,
'#' comment lines and floats printed with 17 significant digits, which
round-trips doubles exactly.  Runs are deterministic: the same arguments
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .frac_cauchy import FixedPointDivergenceError
from .gl_ops import TimeSeq
from .noether import conserved_quantity
from .pontryagin import (ControlUpdateError, SweepDivergenceError, SweepOpts,
                         solve_pontryagin)
from .problems import EXAMPLES, build_example, rotation_groups
from .reference import (DegenerateDataError, convergence_order,
                        lq_exact_control, max_control_error,
                        solved_example_exact_control)

__all__ = ["run_solve", "run_converge", "run_noether", "main", "entry"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_rows(table: np.ndarray) -> list[str]:
    """Row k of ``table`` as "k,x,y,...", each float as ``_fmt`` prints it, one
    row's floats at a time: all at once would grow the small-object arenas."""
    row = "%d" + ",%.17g" * table.shape[1]  # '%.17g' % x == format(x, '.17g')
    return [row % (k, *cells.tolist()) for k, cells in enumerate(table)]


def _write_csv(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sweep_opts(cfg: argparse.Namespace) -> SweepOpts:
    return SweepOpts(tol_stationarity=cfg.tol_stat, tol_control=cfg.tol_control,
                     max_outer_iters=cfg.max_outer)


def _solve(cfg: argparse.Namespace, n: int):
    problem = build_example(cfg.example, cfg.alpha, n)
    return solve_pontryagin(problem, opts=_sweep_opts(cfg)), problem


def run_solve(cfg: argparse.Namespace) -> int:
    """Solve one instance and write the k, t, u, q, p table."""
    solution, problem = _solve(cfg, cfg.n)
    grid = problem.grid
    header = (["k", "t"]
              + [f"u_{j + 1}" for j in range(problem.m)]
              + [f"q_{j + 1}" for j in range(problem.d)]
              + [f"p_{j + 1}" for j in range(problem.d)])
    table = np.column_stack((grid.times, solution.U.values, solution.Q.values,
                             solution.P.values))
    _write_csv(cfg.out, [",".join(header)] + _csv_rows(table))
    print(f"stationarity_residual={_fmt(solution.stationarity_residual)}")
    print(f"cost={_fmt(solution.cost)}")
    print(f"outer_iters={solution.outer_iters}")
    return 0


def _reference_for(cfg: argparse.Namespace):
    """The closed-form control of ``cfg.example``, taking an array of times."""
    if cfg.example == "solved":
        return lambda t: solved_example_exact_control(cfg.alpha, t)
    if cfg.example == "lq":
        if cfg.alpha != 1.0:
            raise ValueError(
                "the quadratic benchmark has a closed form at order 1 only; "
                "use --alpha 1 or --example solved")
        return lq_exact_control
    raise ValueError(
        f"no closed-form reference for example {cfg.example!r}")


def run_converge(cfg: argparse.Namespace) -> int:
    """Solve a list of grids against the closed form, fit the order.

    Self-test mode replaces the closed form by the numerical control
    itself, so every error is zero and the fit must come out degenerate.
    """
    exact = None if cfg.self_test else _reference_for(cfg)
    pairs = []
    for n in sorted(cfg.n_list):
        solution, problem = _solve(cfg, n)
        u = solution.U
        err = max_control_error(u, exact or (lambda t: u.values[1:]), problem.grid)
        pairs.append((n, problem.grid.h, err))

    lines = ["N,h,max_error,pairwise_order"]
    try:
        report = convergence_order([(h, e) for _, h, e in pairs])
        orders = ("",) + tuple(_fmt(o) for o in report.pairwise_orders)
        rows = report.rows
        fitted = f"fitted_order={_fmt(report.fitted_order)}"
    except DegenerateDataError:
        rows = pairs
        orders = ("",) * len(rows)
        fitted = "fitted_order=degenerate"
    for (n, h, e), order in zip(rows, orders):
        lines.append(",".join([str(n), _fmt(h), _fmt(e), order]))
    lines.append(f"# {fitted}")
    _write_csv(cfg.out, lines)
    print(fitted)
    return 0


def run_noether(cfg: argparse.Namespace) -> int:
    """Evaluate the candidate invariant along a rotation-example solution."""
    if cfg.example != "rotation":
        raise ValueError("the invariant is wired to the rotation example; "
                         "pass --example rotation")
    solution, problem = _solve(cfg, cfg.n)
    grid = problem.grid
    if cfg.zero_generator:
        gen = TimeSeq.zeros(grid.n, problem.d)
    else:
        gen = TimeSeq(rotation_groups()[0].generator(solution.Q.values))
    inv = conserved_quantity(cfg.alpha, grid, gen, solution.P)

    _write_csv(cfg.out, ["k,t,I_k"] + _csv_rows(np.column_stack((grid.times, inv.values))))
    iv = inv.values[:, 0]
    print(f"max_drift={_fmt(np.max(np.abs(iv - iv[0])))}")
    print(f"max_abs={_fmt(np.max(np.abs(iv)))}")
    return 0


def _parse_n_list(text: str) -> tuple:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty N list")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated grid size in N list: {text!r}")
    return values


@functools.cache  # one parser a process, shared: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracoc",
        description="Variational integrator runs for fractional optimal control")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_out: str) -> None:
        p.add_argument("--example", required=True, choices=sorted(EXAMPLES))
        p.add_argument("--alpha", type=float, default=1.0,
                       help="fractional order in (0, 1]")
        p.add_argument("--out", default=default_out, help="output CSV path")
        p.add_argument("--tol-stat", type=float, default=1e-9,
                       help="the sweep stops once the largest node norm of "
                            "dH/dv is at most this (and the control increment "
                            "meets --tol-control)")
        p.add_argument("--tol-control", type=float, default=1e-9,
                       help="the sweep stops once the largest control change "
                            "of a pass is at most this (and --tol-stat is met)")
        p.add_argument("--max-outer", type=int, default=200,
                       help="budget of outer sweep passes; the run fails "
                            "(exit 1) when it is spent")

    p_solve = sub.add_parser("solve", help="solve one instance, write u/q/p table")
    add_common(p_solve, "solve.csv")
    p_solve.add_argument("--n", type=int, default=100)

    p_conv = sub.add_parser("converge", help="error-vs-h study against a closed form")
    add_common(p_conv, "converge.csv")
    p_conv.add_argument("--n-list", type=_parse_n_list, required=True,
                        help="comma-separated grid sizes, e.g. 25,50,100")
    p_conv.add_argument("--self-test", action="store_true",
                        help="compare the solver with itself; all errors zero")

    p_noe = sub.add_parser("noether", help="evaluate the conserved sequence")
    add_common(p_noe, "noether.csv")
    p_noe.add_argument("--n", type=int, default=100)
    p_noe.add_argument("--zero-generator", action="store_true",
                       help="replace the generator by zero (the invariant vanishes)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner = {"solve": run_solve, "converge": run_converge,
              "noether": run_noether}[args.command]
    try:
        return runner(args)
    except (ValueError, SweepDivergenceError, FixedPointDivergenceError,
            ControlUpdateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
