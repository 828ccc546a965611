"""Shifted discrete Pontryagin systems and their forward-backward sweep.

A problem couples a left fractional state equation, a right fractional
adjoint equation driven by data one node ahead, and a nodewise stationary
condition on the control:

    state:       (left_reg Q)_k = f(Q_k, U_k, t_k),                        Q_0 = A
    adjoint:     (right_reg P)_k = dL/dx|_{k+1} + (df/dx|_{k+1})^T P_k,    P_N = 0
    stationary:  dL/dv(Q_k, U_k, t_k) + (df/dv(Q_k, U_k, t_k))^T P_{k-1} = 0

for k in the ranges carried by the operators.  ``solve_pontryagin`` fixes a
control, solves the two Cauchy problems, refreshes the control from the
stationary condition and repeats until both the stationarity defect and the
control increment fall below tolerance.

Every march of the sweep is linear, one direct solve per node: the
adjoint, the linearized state of :func:`gateaux_derivative`, and each
Newton iterate of the state on the whole trajectory.  Only a stalled state
falls back to the one nonlinear node solve, fixed-point steps node by
node, and only the state checks h^alpha M < 1, under which they contract.
A march stops with ``SingularNodeError`` when I - h^alpha df/dx cannot be
inverted at a node, and with ``NonFiniteError`` when a callback returns
NaN or infinity.

Every callback value the layer reads at (Q_k, U_k, t_k) comes from one walk
over the nodes, ``_at_nodes``; the adjoint's read of node k + 1 is one roll
of its rows.  The control update is the one other walk, since its fallback
root solve names the node it fails at.  Every walk checks its inputs'
windows and row sizes once, on entry, and then reads rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .frac_cauchy import (FixedPointOpts, _check_bound, _check_step,
                          _fixed_point_march, _linear_march)
from .gl_ops import (Grid, TimeSeq, _order_value, _require_window, delta_minus,
                     delta_plus)

__all__ = [
    "OcpProblem",
    "SweepOpts",
    "PontryaginSolution",
    "SweepDivergenceError",
    "ControlUpdateError",
    "state_solve",
    "adjoint_solve",
    "cost",
    "gateaux_derivative",
    "stationarity_residual",
    "solve_pontryagin",
    "euler_lagrange_residual",
]


class SweepDivergenceError(RuntimeError):
    """The outer sweep stopped unconverged; the message says why."""

    def __init__(self, iters: int, residual: float, increment: float, why: str = ""):
        self.iters = iters
        self.residual = residual
        self.increment = increment
        super().__init__(
            f"sweep not converged after {iters} passes "
            f"(stationarity {residual:.3e}, control increment {increment:.3e})"
            + (f": {why}" if why else ""))


# on the built-in examples at alpha from 1 down to 0.05 and N from 100 to 800
# no converging sweep's increment grew on more than three passes in a row; a
# diverging one grows on every pass
_GROWTH_PASSES = 5


class ControlUpdateError(RuntimeError):
    """The fallback scalar solve for the stationary condition failed."""

    def __init__(self, node: int, detail: str):
        self.node = node
        super().__init__(f"control update failed at node {node}: {detail}")


@dataclass(frozen=True)
class OcpProblem:
    """Data of one control problem: dynamics, running cost, derivatives.

    Callbacks may return scalars or nested lists for one-dimensional
    problems; they are normalized to arrays of shape (d,), (m,), (d, d)
    and (d, m) on use.  ``lipschitz_M`` is read only as a Lipschitz bound
    of f in x, which gates the state's fixed-point fallback; it need not
    bound df/dv.  ``alpha`` is stored as the validated float order.
    """

    d: int
    m: int
    alpha: float
    grid: Grid
    initial: np.ndarray
    L: Callable
    dL_dx: Callable
    dL_dv: Callable
    f: Callable
    df_dx: Callable
    df_dv: Callable
    lipschitz_M: float
    control_update: Callable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _order_value(self.alpha))
        if self.d < 1 or self.m < 1:
            raise ValueError("state and control dimensions must be >= 1")
        _check_bound(self.lipschitz_M)
        a = np.atleast_1d(np.asarray(self.initial, dtype=float)).reshape(-1)
        if a.size != self.d:
            raise ValueError(f"initial value has size {a.size}, expected {self.d}")
        object.__setattr__(self, "initial", a)

    # -- normalized callback evaluation -------------------------------------
    def f_at(self, x, v, t) -> np.ndarray:
        return np.asarray(self.f(x, v, t), dtype=float).reshape(self.d)

    def lx_at(self, x, v, t) -> np.ndarray:
        return np.asarray(self.dL_dx(x, v, t), dtype=float).reshape(self.d)

    def lv_at(self, x, v, t) -> np.ndarray:
        return np.asarray(self.dL_dv(x, v, t), dtype=float).reshape(self.m)

    def fx_at(self, x, v, t) -> np.ndarray:
        return np.asarray(self.df_dx(x, v, t), dtype=float).reshape(self.d, self.d)

    def fv_at(self, x, v, t) -> np.ndarray:
        return np.asarray(self.df_dv(x, v, t), dtype=float).reshape(self.d, self.m)

    def hamiltonian(self, x, v, w, t) -> float:
        """L(x, v, t) + w . f(x, v, t)."""
        w = np.asarray(w, dtype=float).reshape(self.d)
        return float(self.L(x, v, t)) + float(w @ self.f_at(x, v, t))

    def dh_dv(self, x, v, w, t) -> np.ndarray:
        w = np.asarray(w, dtype=float).reshape(self.d)
        return self.lv_at(x, v, t) + self.fv_at(x, v, t).T @ w

    def dh_dx(self, x, v, w, t) -> np.ndarray:
        w = np.asarray(w, dtype=float).reshape(self.d)
        return self.lx_at(x, v, t) + self.fx_at(x, v, t).T @ w


@dataclass(frozen=True)
class SweepOpts:
    """Outer-iteration controls.

    ``relaxation`` caps the mixing weight lambda in U <- (1-lambda) U +
    lambda U*.  With ``adaptive`` set (the default) lambda is retuned every
    pass by a vector secant estimate of the dominant eigenvalue of the
    sweep map, which the coupled benchmark problems need: their sweep maps
    have a real negative eigenvalue below -1, so any fixed lambda close to
    one diverges.  ``adaptive=False`` runs the plain fixed-lambda sweep.
    ``inner`` sets the state solve's nodewise residual tolerance and the
    budget of its trajectory Newton iterates and of its fixed-point
    fallback's steps per node, and nothing else: the control update's
    fallback root solve stops at ``tol_stationarity / sqrt(m)`` per
    component.  At m = 1 a root it returns already passes the stationarity
    test; at m > 1 its few coupling passes may stop short of it, and what
    guarantees the result is the sweep's own stationarity test.
    """

    tol_stationarity: float = 1e-9
    tol_control: float = 1e-9
    max_outer_iters: int = 200
    relaxation: float = 1.0
    adaptive: bool = True
    inner: FixedPointOpts = field(default_factory=FixedPointOpts)

    def __post_init__(self) -> None:
        if not (self.tol_stationarity > 0 and self.tol_control > 0):  # NaN too
            raise ValueError("tolerances must be positive")
        count = self.max_outer_iters
        if not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"max_outer_iters must be an integer >= 1, got {count!r}")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must be in (0, 1]")


@dataclass
class PontryaginSolution:
    """Converged triple plus diagnostics of the sweep that produced it."""

    Q: TimeSeq
    P: TimeSeq
    U: TimeSeq
    stationarity_residual: float
    outer_iters: int
    cost: float


def _at_nodes(problem: OcpProblem, xs: TimeSeq, vs: TimeSeq, *evals) -> list:
    """Each ``eval(x_k, v_k, t_k)`` stacked over nodes k = 1..N, row 0 zero.

    ``xs`` and ``vs`` are checked once to be valid on [1, N], with rows of
    size d and m; the walk then reads their rows.
    """
    _require_window(xs, problem.grid.n, "state", 1, dim=problem.d)
    _require_window(vs, problem.grid.n, "control", 1, dim=problem.m)
    cols = zip(*[[ev(x, v, t) for ev in evals] for x, v, t
                 in zip(xs.values[1:], vs.values[1:], problem.grid.times[1:])])
    return [np.array((np.zeros_like(col[0]), *col)) for col in cols]


def _node_norms(g: np.ndarray) -> np.ndarray:
    """Row norms, each summed through matmul as np.linalg.norm(g[k]) sums it."""
    return np.sqrt(g[:, None] @ g[..., None]).reshape(-1)


def state_solve(problem: OcpProblem, u: TimeSeq,
                opts: FixedPointOpts | None = None) -> TimeSeq:
    """Solve the state equation for a fixed control.

    Newton on the whole trajectory from Q_k = Q_0: each iterate is one
    linear march of f linearized at the last, so an affine f takes one.  It
    is accepted once every node residual |Q_k - h^alpha f(Q_k) - const_k| is
    at most tol * max(1, |Q_k|), with tol and the iterate budget from
    ``opts``.  An iterate that does not halve the largest residual, or a
    spent budget, restarts the solve as fixed-point steps node by node,
    which contract under h^alpha M < 1 (``ContractionError`` otherwise): a
    wrong ``df_dx`` costs work, never the answer.  u_0 is never read.
    """
    opts = opts or FixedPointOpts()
    alpha, grid = problem.alpha, problem.grid
    ha = grid.h ** alpha
    _check_step(ha, problem.lipschitz_M)
    q = TimeSeq.constant(problem.initial, grid.n)
    f, fx = _at_nodes(problem, q, u, problem.f_at, problem.fx_at)
    worst = ha * np.max(np.abs(f))  # the start's residual is -h^alpha f
    for it in range(1, opts.max_iters + 1):
        b = f - np.einsum("kij,kj->ki", fx, q.values)
        q = _linear_march(alpha, grid, fx, b, problem.initial)
        f, = _at_nodes(problem, q, u, problem.f_at)
        # Q_k - const_k = h^alpha (left_reg Q)_k; row 0 is zero on both sides
        r = ha * np.abs(delta_minus(alpha, grid, q, caputo=True).values - f).max(axis=1)
        if (r <= opts.tol * np.maximum(1.0, np.abs(q.values).max(axis=1))).all():
            return q
        if not r.max() <= 0.5 * worst or it == opts.max_iters:  # NaN too
            break
        worst = r.max()
        fx, = _at_nodes(problem, q, u, problem.fx_at)
    return _fixed_point_march(alpha, grid, problem.f, (u.values, grid.times),
                              problem.initial, problem.lipschitz_M, opts)


def adjoint_solve(problem: OcpProblem, u: TimeSeq, q: TimeSeq) -> TimeSeq:
    """Solve the shifted adjoint equation backward from P_N = 0.

    The equation at node k reads data at node k + 1, which is what makes
    the discrete integration by parts close without boundary terms.  It is
    linear in P, so each node is one solve of
    (I - h^alpha fx_{k+1}^T) P_k = const_k + h^alpha lx_{k+1}, and there is
    no iteration to tune and no step-size gate, only an invertible node
    matrix (``SingularNodeError`` otherwise).
    """
    lx, fx = _at_nodes(problem, q, u, problem.lx_at, problem.fx_at)
    # row k takes node k + 1; row N takes the zero row 0, never read
    lx, fx = np.roll(lx, -1, axis=0), np.roll(fx, -1, axis=0)
    return _linear_march(problem.alpha, problem.grid, fx.transpose(0, 2, 1), lx,
                         np.zeros(problem.d), reverse=True)


def _running_cost(problem: OcpProblem, q: TimeSeq, u: TimeSeq) -> float:
    running, = _at_nodes(problem, q, u, lambda x, v, t: float(problem.L(x, v, t)))
    # cumsum adds in node order, as a loop does; np.sum would pair terms
    return problem.grid.h * float(np.cumsum(running)[-1])


def cost(problem: OcpProblem, u: TimeSeq,
         opts: FixedPointOpts | None = None) -> float:
    """Discrete cost h * sum_{k=1..N} L(Q_k, U_k, t_k) for the induced state."""
    q = state_solve(problem, u, opts)
    return _running_cost(problem, q, u)


def gateaux_derivative(problem: OcpProblem, u: TimeSeq, ubar: TimeSeq,
                       opts: FixedPointOpts | None = None) -> float:
    """Directional derivative of the cost at u along ubar.

    Computed through the linearized state problem: solve for the first
    variation Qbar with Qbar_0 = 0, one linear solve per node, then accumulate
    h * sum_k (dL/dx . Qbar_k + dL/dv . ubar_k).
    """
    _require_window(ubar, problem.grid.n, "ubar", 1, dim=problem.m)
    q = state_solve(problem, u, opts)
    fx, fv, lx, lv = _at_nodes(problem, q, u, problem.fx_at, problem.fv_at,
                               problem.lx_at, problem.lv_at)
    ub = ubar.values[1:]
    fv_ub = np.zeros((problem.grid.n + 1, problem.d))
    fv_ub[1:] = np.einsum("kdm,km->kd", fv[1:], ub)
    qbar = _linear_march(problem.alpha, problem.grid, fx, fv_ub, np.zeros(problem.d))
    return problem.grid.h * float(np.sum(lx[1:] * qbar.values[1:])
                                  + np.sum(lv[1:] * ub))


def stationarity_residual(problem: OcpProblem, q: TimeSeq, u: TimeSeq,
                          p: TimeSeq) -> TimeSeq:
    """Nodewise norm of dH/dv(Q_k, U_k, P_{k-1}, t_k), valid on [1, N]."""
    _require_window(p, problem.grid.n, "adjoint", 0, problem.grid.n - 1, dim=problem.d)
    lv, fv = _at_nodes(problem, q, u, problem.lv_at, problem.fv_at)
    # row k pairs with P_{k-1}; the zero row 0 pairs with P_N
    g = lv + np.einsum("kdm,kd->km", fv, np.roll(p.values, 1, axis=0))
    return TimeSeq(_node_norms(g), 1, problem.grid.n)


def _secant_root(g, x0: float, tol: float, node: int) -> float:
    """Scalar root of a monotone function: secant, then bracketed bisection."""
    f0 = g(x0)
    if abs(f0) <= tol:
        return x0
    x1 = x0 + max(1e-4, 1e-4 * abs(x0))
    f1 = g(x1)
    for _ in range(60):
        if abs(f1) <= tol:
            return x1
        if f1 == f0:
            break
        x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
        f0, f1 = f1, g(x1)
    # secant stalled; expand a bracket around the best iterate
    lo, hi = x1 - 1.0, x1 + 1.0
    for _ in range(80):
        flo, fhi = g(lo), g(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0.0:
            break
        lo, hi = x1 - 2 * (x1 - lo), x1 + 2 * (hi - x1)
    else:
        raise ControlUpdateError(node, "no sign change found (is dH/dv monotone?)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = g(mid)
        if abs(fm) <= tol or hi - lo <= 1e-15 * max(1.0, abs(mid)):
            return mid
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    raise ControlUpdateError(node, "bisection did not reach tolerance")


def _update_control(problem: OcpProblem, x, w, t, v_start, tol: float,
                    node: int) -> np.ndarray:
    if problem.control_update is not None:
        return np.asarray(problem.control_update(x, w, t),
                          dtype=float).reshape(problem.m)
    # componentwise scalar solves, a few passes in case components couple
    v = np.array(v_start, dtype=float).reshape(problem.m).copy()
    for _ in range(4):
        moved = 0.0
        for j in range(problem.m):
            def comp(s, j=j):
                v_try = v.copy()
                v_try[j] = s
                dh = float(problem.dh_dv(x, v_try, w, t)[j])
                if not np.isfinite(dh):  # no bracket can mend it
                    raise ControlUpdateError(node, f"dH/dv not finite at v = {v_try}")
                return dh
            new = _secant_root(comp, float(v[j]), tol, node)
            moved = max(moved, abs(new - v[j]))
            v[j] = new
        if moved <= tol:
            break
    return v


def solve_pontryagin(problem: OcpProblem, u_init: TimeSeq | None = None,
                     opts: SweepOpts | None = None) -> PontryaginSolution:
    """Forward-backward sweep for the full shifted system.

    Each pass solves the state forward, the adjoint backward, then refreshes
    the control from the stationary condition node by node and mixes it in,
    U <- (1 - lambda) U + lambda U*.  Convergence requires both the
    stationarity residual of the current triple and the control increment
    |U* - U| to be small, so the returned triple is internally consistent.
    A sweep that goes wrong stops early with ``SweepDivergenceError``: at
    once on a non-finite residual or increment, and when the increment has
    grown on five passes in a row, which no converging sweep was seen to do.
    After convergence U_0 is set to U_1; the slot is otherwise meaningless.
    """
    opts = opts or SweepOpts()
    grid, n = problem.grid, problem.grid.n
    if u_init is None:
        u = TimeSeq.zeros(n, problem.m)
    else:
        _require_window(u_init, n, "control", 1, dim=problem.m)
        u = TimeSeq(u_init.values.copy(), 0, n)

    root_tol = opts.tol_stationarity / np.sqrt(problem.m)
    lam = min(opts.relaxation, 0.5) if opts.adaptive else opts.relaxation
    step_prev: np.ndarray | None = None
    increment_prev, grew = np.inf, 0
    for outer in range(1, opts.max_outer_iters + 1):
        q = state_solve(problem, u, opts.inner)
        p = adjoint_solve(problem, u, q)
        residual = stationarity_residual(problem, q, u, p).sup_norm()

        step = np.zeros_like(u.values)
        rows = zip(q.values[1:], p.values[:-1], grid.times[1:], u.values[1:])
        for k, (x, w, t, v) in enumerate(rows, 1):
            step[k] = _update_control(problem, x, w, t, v, root_tol, k) - v
        increment = float(np.max(np.abs(step[1:])))

        if residual <= opts.tol_stationarity and increment <= opts.tol_control:
            u.values[0] = u.values[1]
            return PontryaginSolution(Q=q, P=p, U=u,
                                      stationarity_residual=residual,
                                      outer_iters=outer,
                                      cost=_running_cost(problem, q, u))
        if not np.isfinite(residual + increment):
            raise SweepDivergenceError(outer, residual, increment,
                                       "a value is not finite")
        grew = grew + 1 if increment > increment_prev else 0
        if grew == _GROWTH_PASSES:
            raise SweepDivergenceError(
                outer, residual, increment,
                f"the control increment grew on {grew} passes in a row")
        increment_prev = increment

        if opts.adaptive and step_prev is not None:
            # secant retune of lambda from consecutive update directions;
            # recovers 1 / (1 - mu) exactly on a single dominant mode mu
            diff = step - step_prev
            denom = float(np.sum(diff * diff))
            if denom > 0.0:
                lam = -lam * float(np.sum(step_prev * diff)) / denom
                lam = min(opts.relaxation, max(1e-3, lam))
        u = TimeSeq(u.values + lam * step, 0, n)
        step_prev = step
    raise SweepDivergenceError(opts.max_outer_iters, residual, increment,
                               "the pass budget ran out")


def euler_lagrange_residual(problem: OcpProblem, q: TimeSeq, u: TimeSeq,
                            u_tol: float = 1e-6) -> TimeSeq:
    """Defect of the reduced second-order equation when f(x, v, t) = v.

    For such problems the stationary condition pins the adjoint to
    M_k = -dL/dv(Q_{k+1}, (left_reg Q)_{k+1}, t_{k+1}) with M_N = 0, and the
    adjoint equation collapses to a two-operator stencil in Q alone:

        result_k = | (right M)_k - dL/dx(Q_{k+1}, (left_reg Q)_{k+1}, t_{k+1}) |

    valid on [0, N-1].  The control must agree with left_reg Q within
    ``u_tol``, i.e. (Q, U) should come from a converged solve.
    """
    grid, n = problem.grid, problem.grid.n
    if problem.d != problem.m:
        raise ValueError("reduced form needs matching state and control dimensions")
    rng_check = np.random.default_rng(0)
    for _ in range(3):  # spot-check the dynamics really are f(x, v, t) = v
        x = rng_check.normal(size=problem.d)
        v = rng_check.normal(size=problem.m)
        t = float(rng_check.uniform(grid.a, grid.b))
        if not np.allclose(problem.f_at(x, v, t), v, atol=1e-12):
            raise ValueError("dynamics are not identity in v; no reduced form")

    _require_window(u, n, "control", 1, dim=problem.m)
    dq = delta_minus(problem.alpha, grid, q, caputo=True)
    mismatch = float(np.max(np.abs(u.values[1:] - dq.values[1:])))
    if mismatch > u_tol:
        raise ValueError(
            f"control differs from the regularized state difference by {mismatch:.3e}")

    lv, lx = _at_nodes(problem, q, dq, problem.lv_at, problem.lx_at)
    # row k takes node k + 1; row N takes the zero row 0
    lv, lx = np.roll(lv, -1, axis=0), np.roll(lx, -1, axis=0)
    dm = delta_plus(problem.alpha, grid, TimeSeq(-lv))
    return TimeSeq(_node_norms(dm.values - lx), 0, n - 1)
