"""Stepwise solvers for discrete fractional Cauchy problems.

The left problem marches k = 1..N through the implicit node equation

    Q_k = h^alpha * F(Q_k, t_k) + Q_0 - sum_{r=1..k-1} c_r (Q_{k-r} - Q_0),

and the right problem mirrors it from the terminal node down; it is the
left march run on reversed node indices.  Both keep the full memory tail,
so one march costs O(N^2) for the memory sums plus the work of solving
each node equation.  One private kernel, :func:`_march`, does the marching
for every solver in the package, and two node solves sit on it:

- :func:`_fixed_point_march` solves nonlinear node equations with the
  fixed-point step x <- h^alpha F(x) + const, once it has checked
  h^alpha * K < 1 for the Lipschitz bound K of F its caller passes
  (``ContractionError`` otherwise), under which that step contracts.  One
  loop, on floats at d = 1, accepts a node once |x - h^alpha F(x) - const|
  <= tol * max(1, |x|).  :func:`solve_left_cauchy`, :func:`solve_right_cauchy`
  and the fallback of the sweep's state solve use it;
- :func:`_linear_march` handles F(x, k) = A_k x + b_k with one linear
  solve per node, using inverses built once for all nodes; it needs only
  I - h^alpha A_k to be invertible.  Every march of the Pontryagin sweep
  is this one: the adjoint, the linearized state, and each Newton iterate
  of the state on the whole trajectory.

Every node solve stops at once, naming the node, when a value turns NaN
or infinite, and the linear one stops when I - h^alpha A_k is singular.
"""

from __future__ import annotations

import math
import numbers
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


def _check_bound(lipschitz: float) -> None:
    if not lipschitz >= 0:  # NaN too
        raise ValueError(f"Lipschitz bound must be >= 0, got {lipschitz}")


@dataclass(frozen=True)
class CauchyRhs:
    """Right-hand side F(x, t) together with a Lipschitz bound in x."""

    eval: Callable[[np.ndarray, float], np.ndarray]
    lipschitz_K: float

    def __post_init__(self) -> None:
        _check_bound(self.lipschitz_K)


@dataclass(frozen=True)
class FixedPointOpts:
    """Stopping rule for the per-node iterations (infinity norm).

    A node is accepted once its residual |x - h^alpha F(x) - const| is at
    most ``tol * max(1, |x|)``, checked before each of at most
    ``max_iters`` steps and after the last.  The sweep's state solve holds
    its Newton iterates on the whole trajectory to the same rule and budget.
    """

    tol: float = 1e-12
    max_iters: int = 100

    def __post_init__(self) -> None:
        if not self.tol > 0:  # NaN too
            raise ValueError("tol must be positive")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


def _march(alpha: float, grid: Grid, start: np.ndarray, solve_node,
           reverse: bool = False) -> np.ndarray:
    """Values y_0..y_N of y_j = solve_node(const_j, j, y_{j-1}), y_0 = start.

    const_j = y_0 - sum_{r=1..j-1} c_r (y_{j-r} - y_0) is the memory term of
    the node equation y_j = h^alpha F(y_j) + const_j.  With ``reverse`` the
    march runs on reversed node indices, so the returned row k is node k of
    the right problem, solved by ``solve_node(const, k, y_{k+1})``.  A node
    solve may return a float at d = 1, which fills its row all the same.
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


def _as_start(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float)).reshape(-1)


def _sized(value, d: int) -> np.ndarray:
    fx = np.asarray(value, dtype=float).reshape(-1)
    if fx.size != d:
        raise ValueError(f"rhs returned size {fx.size}, expected {d}")
    return fx


def solve_left_cauchy(alpha, grid: Grid, rhs: CauchyRhs, initial,
                      opts: FixedPointOpts | None = None) -> TimeSeq:
    """March the left fractional Cauchy problem from Q_0 = initial.

    Returns the solution sequence, valid on all of [0, N].  Each node takes
    fixed-point steps, which needs h^alpha * K < 1 for the bound K of
    ``rhs`` (``ContractionError`` otherwise).
    """
    return _fixed_point_march(_order_value(alpha), grid, rhs.eval, (grid.times,),
                              _as_start(initial), rhs.lipschitz_K, opts)


def solve_right_cauchy(alpha, grid: Grid,
                       rhs_shifted: Callable[[np.ndarray, int], np.ndarray],
                       lipschitz_K: float, terminal,
                       opts: FixedPointOpts | None = None) -> TimeSeq:
    """March the right fractional Cauchy problem down from P_N = terminal.

    The right-hand side is indexed by node, P_k = h^alpha * rhs(P_k, k) + ...,
    which keeps this solver ignorant of where its callers get their data.
    """
    _check_bound(lipschitz_K)
    return _fixed_point_march(_order_value(alpha), grid, rhs_shifted,
                              (range(grid.n + 1),), _as_start(terminal), lipschitz_K,
                              opts, reverse=True)


def _check_step(ha: float, lipschitz: float) -> None:
    """Refuse h^alpha K >= 1, where the fixed-point step need not contract."""
    if not ha * lipschitz < 1.0:
        raise ContractionError(
            f"h^alpha * K = {ha * lipschitz:.6g} >= 1; refine the grid or rescale")


def _fixed_point_march(alpha: float, grid: Grid, field, rows, start: np.ndarray,
                       lipschitz: float, opts: FixedPointOpts | None,
                       reverse: bool = False) -> TimeSeq:
    """March with node equations solved by fixed-point steps.

    ``field(x, *row_k)`` returns F at node k, where row_k holds entry k of
    each sequence in ``rows``; a value of any size but d raises
    ``ValueError``.  ``lipschitz`` is a Lipschitz bound K of F in x.  A node
    is accepted on its residual r(x) = x - h^alpha F(x, k) - const once
    |r| <= tol * max(1, |x|), checked before each of at most ``max_iters``
    steps and after the last.  Each step is x <- h^alpha F(x, k) + const =
    x - r, which multiplies |r| by at most h^alpha K; the march refuses
    h^alpha K >= 1 (``ContractionError``), so the step contracts.  An
    accepted node returns its fixed-point image x - r, which costs no
    evaluation and is closer to the solution by that same factor.
    """
    ha = grid.h ** alpha
    _check_step(ha, lipschitz)
    opts = opts or FixedPointOpts()
    tol, max_iters = opts.tol, opts.max_iters

    d = start.size
    if d == 1:  # Python floats: a one-element array costs more than the field
        def image(x, row):
            return ha * _sized(field(np.array([x]), *row), 1)[0]

        size, unpack = abs, (lambda a: a[0])
    else:
        def image(x, row):
            return ha * _sized(field(x, *row), d)

        size, unpack = (lambda a: abs(a).max()), (lambda a: a)

    def solve_node(const, k, x):
        const, x, row = unpack(const), unpack(x), [seq[k] for seq in rows]
        for _ in range(max_iters + 1):
            r = x - image(x, row) - const
            err = size(r)
            if not math.isfinite(err):
                raise NonFiniteError(k)
            if err <= tol * max(1.0, size(x)):
                return x - r
            x = x - r
        raise FixedPointDivergenceError(k, err, tol)

    return TimeSeq(_march(alpha, grid, start, solve_node, reverse))


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
    g = np.eye(d) - ha * a_mats
    singular = ~np.isfinite(g[nodes]).all(axis=(1, 2))
    bad = singular | ~np.isfinite(b_vecs[nodes]).all(axis=1)
    if bad.any():  # a non-finite A_k also spoils b_k of a linearization
        j = np.argmax(bad)
        raise (SingularNodeError if singular[j] else NonFiniteError)(int(nodes[j]))
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
