"""Stepwise solvers for discrete fractional Cauchy problems.

The left problem marches k = 1..N through the implicit node equation

    Q_k = h^alpha * F(Q_k, t_k) + Q_0 - sum_{r=1..k-1} c_r (Q_{k-r} - Q_0),

and the right problem mirrors it from the terminal node down; it is the
left march run on reversed node indices.  Both keep the full memory tail,
so one march costs O(N^2) for the memory sums plus the work of solving
each node equation.  One private kernel, :func:`_march`, does the marching
for every solver in the package; only the node solve differs:

- the public marches :func:`solve_left_cauchy` and :func:`solve_right_cauchy`
  know F alone and solve each node by fixed-point iteration, which
  contracts whenever h^alpha * K < 1 for a Lipschitz bound K of F;
- :func:`_newton_march` is handed dF/dx as well and takes Newton steps,
  falling back to the fixed-point step whenever a Newton step does not
  at least halve the node residual;
- :func:`_linear_march` handles F(x, k) = A_k x + b_k with one linear
  solve per node, using inverses built once for all nodes.

Every node solver stops at once, naming the node, when a value turns NaN
or infinite, and the two with a Jacobian stop when I - h^alpha dF/dx is
singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gl_ops import Grid, TimeSeq, _order_value, gl_coefficients

__all__ = [
    "CauchyRhs",
    "FixedPointOpts",
    "ContractionError",
    "FixedPointDivergenceError",
    "NonFiniteError",
    "SingularNodeError",
    "solve_left_cauchy",
    "solve_right_cauchy",
]


class ContractionError(ValueError):
    """h^alpha times the Lipschitz bound is not below one."""


class FixedPointDivergenceError(RuntimeError):
    """A per-node iteration failed to converge; carries the node index."""

    def __init__(self, node: int, last_step: float, tol: float):
        self.node = node
        self.last_step = last_step
        super().__init__(
            f"iteration at node {node} still off by {last_step:.3e} "
            f"after the iteration budget (tol {tol:.1e})")


class NonFiniteError(ValueError):
    """A right-hand side value or a node iterate is NaN or infinite."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"non-finite right-hand side value or iterate at node {node}")


class SingularNodeError(ValueError):
    """I - h^alpha dF/dx is singular or non-finite at a node."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(
            f"node matrix I - h^alpha dF/dx is singular or non-finite at node {node}; "
            f"is df_dx consistent with f and lipschitz_M?")


@dataclass(frozen=True)
class CauchyRhs:
    """Right-hand side F(x, t) together with a Lipschitz bound in x."""

    eval: Callable[[np.ndarray, float], np.ndarray]
    lipschitz_K: float

    def __post_init__(self) -> None:
        if self.lipschitz_K < 0:
            raise ValueError(f"Lipschitz bound must be >= 0, got {self.lipschitz_K}")


@dataclass(frozen=True)
class FixedPointOpts:
    """Stopping rule for the per-node iterations (infinity norm).

    Fixed-point iteration stops once an update moves the iterate by at most
    ``tol``; Newton iteration stops once the node residual is at most
    ``tol * max(1, |x|)``.
    """

    tol: float = 1e-12
    max_iters: int = 100

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def _check_contraction(alpha: float, grid: Grid, lipschitz: float) -> None:
    factor = grid.h ** alpha * lipschitz
    if not factor < 1.0:
        raise ContractionError(
            f"h^alpha * K = {factor:.6g} >= 1; refine the grid or rescale")


def _march(alpha: float, grid: Grid, start: np.ndarray, solve_node,
           reverse: bool = False) -> np.ndarray:
    """Values y_0..y_N of y_j = solve_node(const_j, j, y_{j-1}), y_0 = start.

    const_j = y_0 - sum_{r=1..j-1} c_r (y_{j-r} - y_0) is the memory term of
    the node equation y_j = h^alpha F(y_j) + const_j.  With ``reverse`` the
    march runs on reversed node indices, so the returned row k is node k of
    the right problem, solved by ``solve_node(const, k, y_{k+1})``.
    """
    n, d = grid.n, start.size
    c = gl_coefficients(alpha, n).coeffs
    rc = np.ascontiguousarray(c[::-1])  # rc[n - r] = c_r, so each sum is one matvec
    y = np.empty((n + 1, d))
    dev = np.empty((n + 1, d))          # y_j - y_0
    y[0] = start
    dev[0] = 0.0
    for j in range(1, n + 1):
        const = start - rc[n - j + 1:n] @ dev[1:j]
        y[j] = solve_node(const, n - j if reverse else j, y[j - 1])
        dev[j] = y[j] - start
    return y[::-1].copy() if reverse else y


def _fixed_point_march(alpha, grid: Grid, field, start, opts: FixedPointOpts | None,
                       full_output: bool, reverse: bool):
    """Public-march body: node equations solved by fixed-point iteration."""
    opts = opts or FixedPointOpts()
    n, d = grid.n, start.size
    ha = grid.h ** alpha
    tol, max_iters = opts.tol, opts.max_iters
    iters = np.zeros(n + 1, dtype=int)
    gaps = np.zeros(n + 1)

    def solve_node(const, k, x):
        for it in range(1, max_iters + 1):
            fx = np.asarray(field(x, k), dtype=float).reshape(-1)
            if fx.size != d:
                raise ValueError(f"rhs returned size {fx.size}, expected {d}")
            x_new = ha * fx + const
            step = float(np.max(np.abs(x_new - x)))
            if not math.isfinite(step):
                raise NonFiniteError(k)
            if it == 1:
                gaps[k] = step
            x = x_new
            if step <= tol:
                iters[k] = it
                return x
        raise FixedPointDivergenceError(k, step, tol)

    seq = TimeSeq(_march(alpha, grid, start, solve_node, reverse))
    if full_output:
        return seq, {"iterations": iters, "initial_gaps": gaps}
    return seq


def _as_start(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float)).reshape(-1)


def solve_left_cauchy(alpha, grid: Grid, rhs: CauchyRhs, initial,
                      opts: FixedPointOpts | None = None,
                      full_output: bool = False):
    """March the left fractional Cauchy problem from Q_0 = initial.

    Returns the solution sequence, valid on all of [0, N].  With
    ``full_output=True`` also returns a dict with per-node iteration counts
    and first-step gaps, which bound the contraction behaviour.
    """
    a = _order_value(alpha)
    _check_contraction(a, grid, rhs.lipschitz_K)
    times = grid.times
    return _fixed_point_march(a, grid, lambda x, k: rhs.eval(x, times[k]),
                              _as_start(initial), opts, full_output, reverse=False)


def solve_right_cauchy(alpha, grid: Grid,
                       rhs_shifted: Callable[[np.ndarray, int], np.ndarray],
                       lipschitz_K: float, terminal,
                       opts: FixedPointOpts | None = None,
                       full_output: bool = False):
    """March the right fractional Cauchy problem down from P_N = terminal.

    The right-hand side is indexed by node, P_k = h^alpha * rhs(P_k, k) + ...,
    which keeps this solver ignorant of where its callers get their data.
    """
    a = _order_value(alpha)
    if lipschitz_K < 0:
        raise ValueError(f"Lipschitz bound must be >= 0, got {lipschitz_K}")
    _check_contraction(a, grid, lipschitz_K)
    return _fixed_point_march(a, grid, rhs_shifted, _as_start(terminal), opts,
                              full_output, reverse=True)


def _newton_march(alpha: float, grid: Grid, field, jacobian, start: np.ndarray,
                  opts: FixedPointOpts | None) -> TimeSeq:
    """Left march with node equations solved by safeguarded Newton steps.

    ``field(x, k)`` returns F at node k as shape (d,), ``jacobian(x, k)``
    returns dF/dx as shape (d, d).  A node is accepted on its residual
    r(x) = x - h^alpha F(x, k) - const once |r| <= tol * max(1, |x|),
    checked before each of at most ``max_iters`` steps and after the last.
    A Newton step is kept only if it at least halves |r|; otherwise the
    node takes the fixed-point step x <- h^alpha F(x, k) + const = x - r,
    which also halves |r| whenever h^alpha times the Lipschitz bound of F is
    below 1/2 (the sweep's standing gate).  A trial point with a non-finite
    residual is rejected the same way.  So an inexact Jacobian can cost
    steps and callback calls, never the accepted answer.
    """
    opts = opts or FixedPointOpts()
    d = start.size
    ha = grid.h ** alpha
    tol, max_iters = opts.tol, opts.max_iters

    if d == 1:
        def solve_node(const, k, x):
            c0, xs = const[0], x[0]
            r = xs - ha * field(x, k)[0] - c0
            for it in range(max_iters + 1):
                if not math.isfinite(r):
                    raise NonFiniteError(k)
                if abs(r) <= tol * max(1.0, abs(xs)):
                    return x
                if it == max_iters:
                    break
                g = 1.0 - ha * jacobian(x, k)[0, 0]
                if g == 0.0 or not math.isfinite(g):
                    raise SingularNodeError(k)
                trial = np.array([xs - r / g])
                r_trial = trial[0] - ha * field(trial, k)[0] - c0
                if abs(r_trial) <= 0.5 * abs(r):  # False for NaN
                    x, xs, r = trial, trial[0], r_trial
                else:
                    xs = xs - r
                    x = np.array([xs])
                    r = xs - ha * field(x, k)[0] - c0
            raise FixedPointDivergenceError(k, abs(r), tol)
    else:
        eye = np.eye(d)

        def solve_node(const, k, x):
            r = x - ha * field(x, k) - const
            err = float(np.max(np.abs(r)))
            for it in range(max_iters + 1):
                if not math.isfinite(err):
                    raise NonFiniteError(k)
                if err <= tol * max(1.0, float(np.max(np.abs(x)))):
                    return x
                if it == max_iters:
                    break
                g = eye - ha * jacobian(x, k)
                if not np.isfinite(g).all():
                    raise SingularNodeError(k)
                try:
                    trial = x - np.linalg.solve(g, r)
                except np.linalg.LinAlgError:
                    raise SingularNodeError(k) from None
                r_trial = trial - ha * field(trial, k) - const
                err_trial = float(np.max(np.abs(r_trial)))
                if err_trial <= 0.5 * err:  # False for NaN
                    x, r, err = trial, r_trial, err_trial
                else:
                    x = x - r
                    r = x - ha * field(x, k) - const
                    err = float(np.max(np.abs(r)))
            raise FixedPointDivergenceError(k, err, tol)

    return TimeSeq(_march(alpha, grid, start, solve_node))


def _linear_march(alpha: float, grid: Grid, a_mats: np.ndarray, b_vecs: np.ndarray,
                  start: np.ndarray, reverse: bool = False) -> TimeSeq:
    """March F(x, k) = A_k x + b_k with one direct solve per node.

    ``a_mats`` has shape (N+1, d, d) and ``b_vecs`` shape (N+1, d), both
    indexed by node; the row of the start node is never read.  Each node
    solves (I - h^alpha A_k) y_k = const_k + h^alpha b_k through an inverse
    built, with every other, before the march starts.
    """
    n, d = grid.n, start.size
    ha = grid.h ** alpha
    nodes = np.arange(n - 1, -1, -1) if reverse else np.arange(1, n + 1)  # march order
    bad = ~np.isfinite(b_vecs[nodes]).all(axis=1)
    if bad.any():
        raise NonFiniteError(int(nodes[np.argmax(bad)]))
    g = np.eye(d) - ha * a_mats
    singular = ~np.isfinite(g[nodes]).all(axis=(1, 2))
    if singular.any():
        raise SingularNodeError(int(nodes[np.argmax(singular)]))
    g[n if reverse else 0] = np.eye(d)  # the start row is never read
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:  # an exact zero pivot, which det sees too
        singular = np.linalg.det(g[nodes]) == 0.0
        raise SingularNodeError(int(nodes[np.argmax(singular)])) from None
    hb = ha * b_vecs

    def solve_node(const, k, _):
        return inv[k] @ (const + hb[k])

    return TimeSeq(_march(alpha, grid, start, solve_node, reverse))
