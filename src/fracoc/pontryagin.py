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

Every march of the sweep is linear: the adjoint, the linearized state of
:func:`gateaux_derivative`, and each Newton iterate of the state (its step
halved until the residual falls), solved through inverses of I - h^alpha A_k
built up front, or as one Toeplitz convolution when A_k is the same at every
node.  A march stops with ``SingularNodeError`` at a node where that inverse
fails, and with ``NonFiniteError`` when a callback returns NaN or infinity.

Every callback value the layer reads at (Q_k, U_k, t_k) comes from one walk
over the nodes, ``_walk``, which makes one call per callback on a
vectorized problem and one per node otherwise.  Its N rows, nodes 1..N,
are what each linear march takes as they stand: the state's operands for
nodes 1..N, and the adjoint's for nodes 0..N-1, since node k of the
adjoint reads node k + 1.  Only a vectorized ``df_dx`` or ``df_dv`` may
return one value instead (see ``OcpProblem``); it stays one matrix, which
each march takes as one Toeplitz solve.
A closed-form control update is one such call too; without one, it is a
bracketed root solve at every node at once, from the stationarity walk's
rows and one walk per further evaluation.  The public solvers check their
inputs' windows and row sizes, then run array-level steps, which
``solve_pontryagin`` drives itself after checking ``u_init``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .frac_cauchy import (FixedPointDivergenceError, FixedPointOpts, NonFiniteError,
                          _check_bound, _checked_start, _linear_march)
from .gl_ops import (Grid, TimeSeq, _integer, _node_norms, _order_value, _real,
                     _require_window, delta_minus, delta_plus)

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
# diverging one soon grows on five (lq at alpha 0.01, N 400, by pass 32)
_GROWTH_PASSES = 5

# Anderson mixing of the sweep map U -> U*.  Every built-in sweep map is
# affine, and on an affine map Anderson(m) acts like GMRES(m) (Walker & Ni,
# SIAM J. Numer. Anal. 49(4), 2011), so depth pays off where one dominant
# mode does not: at depth 10, lq and rotation at alpha 0.05, N 800 ran into
# the growth stop.  The damping beta stays at 0.5: the coupled problems'
# sweep maps have a real eigenvalue below -1, so any fixed weight near one
# diverges, and even mixed, beta = 1 took 51 passes there against 41 at
# 0.5.  Without the condition cap the nonlinear problem of the acceptance
# tests took 42 passes against 27.
_ANDERSON_DEPTH = 20
_ANDERSON_BETA = 0.5
_ANDERSON_COND = 1e10


class ControlUpdateError(RuntimeError):
    """The bracketed root solve of the stationary condition failed."""

    def __init__(self, node: int, detail: str):
        self.node = node
        super().__init__(f"control update failed at node {node}: {detail}")


@dataclass(frozen=True)
class OcpProblem:
    """Data of one control problem: dynamics, running cost, derivatives.

    Each callback's value at one node is normalized on use to an array of
    shape () for ``L``, (d,) for ``f`` and ``dL_dx``, (m,) for ``dL_dv`` and
    ``control_update``, (d, d) for ``df_dx`` and (d, m) for ``df_dv``; any
    nesting or scalar of the right size will do.  By default a callback
    takes one node, x of shape (d,), v of shape (m,) and a float t, and is
    called once per node.  With ``vectorized`` set it always takes K
    stacked nodes, x of shape (K, d), v of shape (K, m) and t of shape
    (K,), and is called once per walk over the nodes.  It returns K stacked
    values, node first (at K = 1 a single value is that node's row); only a
    ``df_dx`` or ``df_dv`` may return one value instead, kept as one matrix
    at every node (``df_dx = lambda x, v, t: np.eye(d)``).  Any other return
    raises ``ValueError`` naming the callback and the node count.
    ``control_update(x, w, t)`` follows the same rule, with w stacked as x
    is.  A callback written with ``x[..., 0]`` and ``(x * x).sum(-1)``
    serves both conventions.  One written per node with ``x[0]`` needs
    ``vectorized=False``: stacked, its one value is refused, except a
    Jacobian's, read as node 1's matrix at every node.  ``lipschitz_M``, a
    Lipschitz bound of f in x, must be >= 0 and is not read by the sweep.
    ``alpha`` is the validated float order.  ``initial`` is checked as a
    public march's start is, before any callback runs: a non-finite one
    raises ``NonFiniteError`` at node 0.
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
    vectorized: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _order_value(self.alpha))
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        object.__setattr__(self, "m", _integer(self.m, "m", 1))
        if not isinstance(self.grid, Grid):
            raise ValueError(f"grid must be a Grid, got grid={self.grid!r}")
        _check_bound(self.lipschitz_M)
        a = _checked_start(self.initial, "initial", 0)
        if a.size != self.d:
            raise ValueError(f"initial value has size {a.size}, expected {self.d}")
        object.__setattr__(self, "initial", a)

    # -- normalized callback evaluation -------------------------------------
    def _rows(self, name: str, x: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Callback ``name`` at K stacked nodes as (K, *shape), or as (*shape)
        for a vectorized Jacobian's one value at K != 1 (see the class
        docstring); one call if the problem is vectorized, else one per row."""
        d, m = self.d, self.m
        shape = {"L": (), "f": (d,), "dL_dx": (d,), "dL_dv": (m,),
                 "df_dx": (d, d), "df_dv": (d, m), "control_update": (m,)}[name]
        size, fn, k = math.prod(shape), getattr(self, name), len(t)
        if not self.vectorized:
            rows = []
            for xk, vk, tk in zip(x, v, t):
                value = _real(fn(xk, vk, tk), name)
                if value.size != size:
                    raise ValueError(f"{name} returned {value.size} values at "
                                     f"t = {tk}, expected {size}")
                rows.append(value.reshape(shape))
            return np.array(rows).reshape(k, *shape)  # (0, *shape) for no rows
        value = _real(fn(x, v, t), name)
        one = name in ("df_dx", "df_dv") and k != 1  # at K = 1 one value is the row
        if one and value.size == size:  # one matrix at every node
            return value.reshape(shape)
        if value.size == k * size and (k == 1 or value.shape[0] == k):
            return value.reshape(k, *shape)
        expected = f"{size} or {k * size}" if one else k * size
        alt = "one matrix or " if one else ""
        nodes = "the one node" if k == 1 else f"each of the {k} nodes"
        raise ValueError(f"{name} returned {value.size} values, expected {expected}: "
                         f"{alt}one for {nodes}, stacked node first (got shape "
                         f"{value.shape}); a callback written for one node needs "
                         f"vectorized=False")

    def _at_node(self, name: str, x, v, t) -> np.ndarray:
        return self._rows(name, _real(x, "x", "is").reshape(1, -1),
                          _real(v, "v", "is").reshape(1, -1),
                          _real(t, "t", "is").reshape(1))[0]

    def f_at(self, x, v, t) -> np.ndarray:
        return self._at_node("f", x, v, t)

    def lx_at(self, x, v, t) -> np.ndarray:
        return self._at_node("dL_dx", x, v, t)

    def lv_at(self, x, v, t) -> np.ndarray:
        return self._at_node("dL_dv", x, v, t)

    def fx_at(self, x, v, t) -> np.ndarray:
        return self._at_node("df_dx", x, v, t)

    def fv_at(self, x, v, t) -> np.ndarray:
        return self._at_node("df_dv", x, v, t)

    def hamiltonian(self, x, v, w, t) -> float:
        """L(x, v, t) + w . f(x, v, t)."""
        w = _real(w, "w", "is").reshape(self.d)
        return float(self._at_node("L", x, v, t)) + float(w @ self.f_at(x, v, t))

    def dh_dv(self, x, v, w, t) -> np.ndarray:
        w = _real(w, "w", "is").reshape(self.d)
        return self.lv_at(x, v, t) + self.fv_at(x, v, t).T @ w

    def dh_dx(self, x, v, w, t) -> np.ndarray:
        w = _real(w, "w", "is").reshape(self.d)
        return self.lx_at(x, v, t) + self.fx_at(x, v, t).T @ w


@dataclass(frozen=True)
class SweepOpts:
    """Outer-iteration controls.

    Each pass mixes the new control by Anderson mixing over the last 20
    passes, damped by beta = 0.5 (see :func:`solve_pontryagin`).
    ``inner`` sets the state solve's nodewise residual tolerance and the
    budget of its trajectory Newton iterates, and nothing else: without a
    closed-form ``control_update``, the root solve of the stationary
    condition stops at ``tol_stationarity / sqrt(m)`` per component.  At
    m = 1 a root it returns already passes the stationarity test; at m > 1
    its few coupling passes may stop short of it, and what guarantees the
    result is the sweep's own stationarity test.
    """

    tol_stationarity: float = 1e-9
    tol_control: float = 1e-9
    max_outer_iters: int = 200
    inner: FixedPointOpts = field(default_factory=FixedPointOpts)

    def __post_init__(self) -> None:
        if not (self.tol_stationarity > 0 and self.tol_control > 0):  # NaN too
            raise ValueError("tolerances must be positive")
        _integer(self.max_outer_iters, "max_outer_iters", 1)
        if not isinstance(self.inner, FixedPointOpts):
            raise ValueError(f"inner must be a FixedPointOpts, got inner={self.inner!r}")


@dataclass
class PontryaginSolution:
    """Converged triple plus diagnostics of the sweep that produced it."""

    Q: TimeSeq
    P: TimeSeq
    U: TimeSeq
    stationarity_residual: float
    outer_iters: int
    cost: float


def _walk(problem: OcpProblem, x: np.ndarray, v: np.ndarray, *names: str) -> list:
    """Each named callback at (x_k, v_k, t_k) over nodes k = 1..N.

    ``x`` and ``v`` are node arrays of N + 1 rows, read from row 1 on.  Each
    callback takes rows 1..N in one call, or one call per row if the problem
    is not vectorized, and gives N stacked rows, or, from a vectorized
    ``df_dx`` or ``df_dv`` that returns one value, that one matrix.
    """
    t = problem.grid.times[1:]
    return [problem._rows(name, x[1:], v[1:], t) for name in names]


def _check_windows(problem: OcpProblem, u: TimeSeq, q: TimeSeq | None = None,
                   p: TimeSeq | None = None) -> None:
    """Refuse an adjoint, state or control off the rows the layer reads."""
    n = problem.grid.n
    if p is not None:
        _require_window(p, n, "adjoint", 0, n - 1, dim=problem.d)
    if q is not None:
        _require_window(q, n, "state", 1, dim=problem.d)
    _require_window(u, n, "control", 1, dim=problem.m)


def state_solve(problem: OcpProblem, u: TimeSeq,
                opts: FixedPointOpts | None = None) -> TimeSeq:
    """Solve the state equation for a fixed control.

    Newton on the whole trajectory: iterate 0 is Q_k = Q_0, and each next
    one is one linear march of f linearized at the last, so an affine f
    takes one.  An iterate is accepted once every node residual
    |Q_k - h^alpha f(Q_k) - const_k| is at most tol * max(1, |Q_k|), with
    tol and the iterate budget from ``opts``.  An iterate whose largest
    residual is not below the last one's is pulled back, its step halved up
    to 10 times.  A spent budget or line search raises
    ``FixedPointDivergenceError`` at the first node off tolerance (naming
    ``df_dx`` for the second), or ``NonFiniteError`` at the first node
    whose residual is not finite.  u_0 is never read.
    """
    _check_windows(problem, u)
    return TimeSeq(_state(problem, u.values, opts or FixedPointOpts()))


def _state(problem: OcpProblem, v: np.ndarray, opts: FixedPointOpts) -> np.ndarray:
    """:func:`state_solve` on the node array ``v`` of the control."""
    alpha, grid = problem.alpha, problem.grid
    ha = grid.h ** alpha
    q, iters = TimeSeq.constant(problem.initial, grid.n).values, 0
    while True:
        f, = _walk(problem, q, v, "f")
        # Q_k - const_k = h^alpha (left_reg Q)_k, zero at the constant start
        dq = delta_minus(alpha, grid, TimeSeq(q), caputo=True).values[1:] if iters else 0.0
        # row maxima a column at a time, where numpy's max(axis=1) walks the
        # short rows one by one (50 times slower at d = 2, N 102400)
        r = ha * functools.reduce(np.maximum, np.abs(dq - f).T)
        off = ~(r <= opts.tol * functools.reduce(np.maximum, np.abs(q[1:]).T, 1.0))
        if not off.any():
            return q
        if iters and not r.max() < worst:  # not below the last kept, or NaN
            lam *= 0.5
            if lam < 2.0 ** -10:
                why = "after halving the Newton step 10 times; is df_dx consistent with f?"
                break
            q = base + lam * (newton - base)
        elif iters == opts.max_iters:
            why = "after the iteration budget"
            break
        else:  # keep q and take the Newton iterate from it
            base, worst, lam = q, r.max(), 1.0
            fx, = _walk(problem, q, v, "df_dx")
            b = f - np.einsum("...ij,...j->...i", fx, q[1:])
            q = newton = _linear_march(alpha, grid, fx, b, problem.initial)
            iters += 1
    if not np.isfinite(r).all():
        raise NonFiniteError(int(np.isfinite(r).argmin()) + 1)
    k = int(off.argmax())
    raise FixedPointDivergenceError(k + 1, float(r[k]), opts.tol, why)


def adjoint_solve(problem: OcpProblem, u: TimeSeq, q: TimeSeq) -> TimeSeq:
    """Solve the shifted adjoint equation backward from P_N = 0.

    The equation at node k reads data at node k + 1, which is what makes
    the discrete integration by parts close without boundary terms.  It is
    linear in P, so each node equation is
    (I - h^alpha fx_{k+1}^T) P_k = const_k + h^alpha lx_{k+1}, solved a
    block of nodes at a time by one linear march, and there is
    no iteration to tune and no step-size gate, only an invertible node
    matrix (``SingularNodeError`` otherwise).
    """
    _check_windows(problem, u, q)
    return TimeSeq(_adjoint(problem, u.values, q.values))


def _adjoint(problem: OcpProblem, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`adjoint_solve` on node arrays."""
    lx, fx = _walk(problem, q, v, "dL_dx", "df_dx")  # rows of nodes k + 1 = 1..N
    return _linear_march(problem.alpha, problem.grid, np.swapaxes(fx, -1, -2), lx,
                         np.zeros(problem.d), reverse=True)


def _running_cost(problem: OcpProblem, q: np.ndarray, v: np.ndarray) -> float:
    running, = _walk(problem, q, v, "L")
    # cumsum adds in node order, as a loop does; np.sum would pair terms
    return problem.grid.h * float(np.cumsum(running)[-1])


def cost(problem: OcpProblem, u: TimeSeq,
         opts: FixedPointOpts | None = None) -> float:
    """Discrete cost h * sum_{k=1..N} L(Q_k, U_k, t_k) for the induced state."""
    q = state_solve(problem, u, opts)
    return _running_cost(problem, q.values, u.values)


def gateaux_derivative(problem: OcpProblem, u: TimeSeq, ubar: TimeSeq,
                       opts: FixedPointOpts | None = None) -> float:
    """Directional derivative of the cost at u along ubar.

    Computed through the linearized state problem: solve for the first
    variation Qbar with Qbar_0 = 0 by one linear march, then accumulate
    h * sum_k (dL/dx . Qbar_k + dL/dv . ubar_k).
    """
    _require_window(ubar, problem.grid.n, "ubar", 1, dim=problem.m)
    q = state_solve(problem, u, opts).values
    fx, fv, lx, lv = _walk(problem, q, u.values, "df_dx", "df_dv", "dL_dx", "dL_dv")
    ub = ubar.values[1:]
    qbar = _linear_march(problem.alpha, problem.grid, fx,
                         np.einsum("...dm,...m->...d", fv, ub), np.zeros(problem.d))
    return problem.grid.h * float(np.sum(lx * qbar[1:]) + np.sum(lv * ub))


def _dh_dv(problem: OcpProblem, x: np.ndarray, v: np.ndarray, w: np.ndarray,
           t: np.ndarray) -> np.ndarray:
    """dH/dv(x_k, v_k, w_k, t_k) at every row k, one call per callback on a
    vectorized problem; ``df_dv`` gives the rows or one matrix, einsum takes either."""
    lv, fv = (problem._rows(name, x, v, t) for name in ("dL_dv", "df_dv"))
    return lv + np.einsum("...dm,...d->...m", fv, w)


def stationarity_residual(problem: OcpProblem, q: TimeSeq, u: TimeSeq,
                          p: TimeSeq) -> TimeSeq:
    """Nodewise norm of dH/dv(Q_k, U_k, P_{k-1}, t_k), valid on [1, N]."""
    _check_windows(problem, u, q, p)
    dh = _dh_dv(problem, q.values[1:], u.values[1:], p.values[:-1], problem.grid.times[1:])
    return TimeSeq(np.concatenate(([0.0], _node_norms(dh))), 1, problem.grid.n)


def _root_controls(problem: OcpProblem, x: np.ndarray, w: np.ndarray, t: np.ndarray,
                   v: np.ndarray, g: np.ndarray, tol: float) -> np.ndarray:
    """Controls from dH/dv(x_k, v_k, w_k, t_k) = 0 at every row k, node k + 1.

    From v, where dH/dv is ``g`` (overwritten), a row off by more than ``tol``
    per component tries v_k -+ 1, 2, 4, ... (first where an increasing dH/dv
    has its root) until dH/dv changes sign, then closes the bracket by regula
    falsi with the Illinois step (Dowell & Jarratt, BIT 11, 1971) until within
    ``tol`` or narrower than 1e-15 max(1, |v_k|).  Each further evaluation
    walks the open rows once; at m > 1 up to four passes let the components couple.
    """
    v = np.array(v, dtype=float)

    def dh(rows: np.ndarray, vals: np.ndarray, g=None) -> np.ndarray:  # rows in order
        if g is None:  # else g holds dH/dv there already
            g = _dh_dv(problem, x[rows], vals, w[rows], t[rows])
        if not np.isfinite(g).all():  # no bracket can mend it; name the first bad row
            i = np.isfinite(g).all(axis=1).argmin()
            raise ControlUpdateError(rows[i] + 1, f"dH/dv not finite at v = {vals[i]}")
        return g

    g = dh(np.arange(len(t)), v, g)
    for _ in range(4 if problem.m > 1 else 1):
        for j in range(problem.m):
            # the start a and the newest point b, of opposite signs once bracketed
            a, fa, b, fb = v[:, j].copy(), g[:, j].copy(), *np.zeros((2, len(t)))
            wide, live = np.flatnonzero(np.abs(fa) > tol), np.arange(0)
            for r in range(160):  # 80 doublings, each side in turn
                if not wide.size:
                    break
                vals = v[wide]
                vals[:, j] -= np.sign(fa[wide]) * (-1.0) ** r * 2.0 ** (r // 2)
                gt = dh(wide, vals)
                root = np.abs(gt[:, j]) <= tol
                more = ~root & (gt[:, j] * fa[wide] < 0)
                v[wide[root]], g[wide[root]] = vals[root], gt[root]
                b[wide[more]], fb[wide[more]] = vals[more, j], gt[more, j]
                live, wide = np.union1d(live, wide[more]), wide[~root & ~more]
            if wide.size:
                raise ControlUpdateError(wide[0] + 1,
                                         "no sign change found (is dH/dv monotone?)")
            for _ in range(200):
                if not live.size:
                    break
                c = b[live] - fb[live] * (b[live] - a[live]) / (fb[live] - fa[live])
                vals = v[live]
                vals[:, j] = c
                gc = dh(live, vals)
                flip = live[gc[:, j] * fb[live] < 0]  # the sign changed since b
                fa[live] *= 0.5  # Illinois: an end kept twice counts half
                a[flip], fa[flip] = b[flip], fb[flip]
                b[live], fb[live] = c, gc[:, j]
                done = np.abs(gc[:, j]) <= tol
                done |= np.abs(c - a[live]) <= 1e-15 * np.maximum(1.0, np.abs(c))
                v[live[done]], g[live[done]] = vals[done], gc[done]
                live = live[~done]
            if live.size:
                raise ControlUpdateError(live[0] + 1, "regula falsi did not reach tolerance")
    return v


def _anderson_mix(df: np.ndarray, dg: np.ndarray, f: np.ndarray, g: np.ndarray) -> tuple:
    """Type-II Anderson mixing of U* = g = U + f over the columns of dF and dG.

    The columns are the kept differences of f and of g, oldest first.  Returns
    (mixed, dF, dG) with the columns kept, the oldest dropped while the
    singular values of the least-squares solve put dF's condition above
    ``_ANDERSON_COND``; with none left, mixed is the damped step U + beta f,
    beta = ``_ANDERSON_BETA``.  Nothing it is handed is modified.
    """
    while df.shape[1]:
        gamma, _, _, s = np.linalg.lstsq(df, f, rcond=None)
        # s_max / s_min on floats, whose overflow is a quiet inf, with 0 / 0
        # counted as infinite, so that an all-zero dF is dropped too
        s = s.tolist()
        if s[-1] and s[0] / s[-1] <= _ANDERSON_COND:
            return g - dg @ gamma - (1.0 - _ANDERSON_BETA) * (f - df @ gamma), df, dg
        df, dg = df[:, 1:], dg[:, 1:]
    return g - (1.0 - _ANDERSON_BETA) * f, df, dg


def solve_pontryagin(problem: OcpProblem, u_init: TimeSeq | None = None,
                     opts: SweepOpts | None = None) -> PontryaginSolution:
    """Forward-backward sweep for the full shifted system.

    Each pass solves the state forward, the adjoint backward, then refreshes
    the control from the stationary condition at every node at once and
    mixes the refreshed U* in by type-II Anderson mixing.  With f = U* - U
    over rows 1..N, and the last (at most 20) differences of f and of U* as
    the columns of dF and dG, it solves the least-squares problem
    dF gamma ~ f and sets

        U <- U* - dG gamma - (1 - beta) (f - dF gamma),

    beta = 0.5, after dropping the oldest columns while dF is worse
    conditioned than 1e10, a condition read from the singular values that
    solve computes anyway.  The first pass has no differences and takes
    U + beta f.  Convergence requires both the stationarity residual of the
    current triple and the control increment |U* - U| to be small, so the
    returned triple is internally consistent.
    A sweep that goes wrong stops early with ``SweepDivergenceError``: at
    once on a non-finite residual or increment, and when the increment has
    grown on five passes in a row, which no converging sweep was seen to do.
    After convergence U_0 is set to U_1; the slot is otherwise meaningless.
    """
    opts = opts or SweepOpts()
    grid, n = problem.grid, problem.grid.n
    if u_init is None:
        u = np.zeros((n + 1, problem.m))
    else:
        _check_windows(problem, u_init)
        u = u_init.values.copy()

    root_tol = opts.tol_stationarity / np.sqrt(problem.m)
    f_prev = g_prev = None
    # differences of f = U* - U and of g = U* as columns, oldest first
    df = dg = np.empty((n * problem.m, 0))
    increment_prev, grew = np.inf, 0
    for outer in range(1, opts.max_outer_iters + 1):
        q = _state(problem, u, opts.inner)
        p = _adjoint(problem, u, q)
        x, w, t = q[1:], p[:-1], grid.times[1:]  # node k's row: Q_k, P_{k-1}, t_k
        dh = _dh_dv(problem, x, u[1:], w, t)
        residual = float(np.max(_node_norms(dh)))
        # U* - U over rows 1..N
        if problem.control_update is not None:
            step = problem._rows("control_update", x, w, t) - u[1:]
        else:  # the root solve starts from the residual's own dH/dv rows
            step = _root_controls(problem, x, w, t, u[1:], dh, root_tol) - u[1:]
        increment = float(np.max(np.abs(step)))

        if residual <= opts.tol_stationarity and increment <= opts.tol_control:
            u[0] = u[1]
            return PontryaginSolution(Q=TimeSeq(q), P=TimeSeq(p), U=TimeSeq(u),
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

        f = step.reshape(-1)  # rows 1..N, flattened
        g = u[1:].reshape(-1) + f
        if f_prev is not None:
            df = np.column_stack((df, f - f_prev))[:, -_ANDERSON_DEPTH:]
            dg = np.column_stack((dg, g - g_prev))[:, -_ANDERSON_DEPTH:]
        f_prev, g_prev = f, g
        mixed, df, dg = _anderson_mix(df, dg, f, g)
        u[1:] = mixed.reshape(n, problem.m)
    raise SweepDivergenceError(opts.max_outer_iters, residual, increment,
                               "the pass budget ran out")


def euler_lagrange_residual(problem: OcpProblem, q: TimeSeq, u: TimeSeq) -> TimeSeq:
    """Defect of the reduced second-order equation when f(x, v, t) = v.

    For such problems the stationary condition pins the adjoint to
    M_k = -dL/dv(Q_{k+1}, (left_reg Q)_{k+1}, t_{k+1}) with M_N = 0, and the
    adjoint equation collapses to a two-operator stencil in Q alone:

        result_k = | (right M)_k - dL/dx(Q_{k+1}, (left_reg Q)_{k+1}, t_{k+1}) |

    valid on [0, N-1].  The control must agree with left_reg Q within
    1e-6, i.e. (Q, U) should come from a converged solve.
    """
    grid, n = problem.grid, problem.grid.n
    if problem.d != problem.m:
        raise ValueError("reduced form needs matching state and control dimensions")
    rng_check = np.random.default_rng(0)  # spot-check f(x, v, t) = v on three rows
    x, v = rng_check.normal(size=(2, 3, problem.d))
    t = rng_check.uniform(grid.a, grid.b, 3)
    if not np.allclose(problem._rows("f", x, v, t), v, atol=1e-12):
        raise ValueError("dynamics are not identity in v; no reduced form")

    _require_window(u, n, "control", 1, dim=problem.m)
    _require_window(q, n, "state", 0, dim=problem.d)  # the difference reads Q_0
    dq = delta_minus(problem.alpha, grid, q, caputo=True)
    mismatch = float(np.max(np.abs(u.values[1:] - dq.values[1:])))
    if mismatch > 1e-6:
        raise ValueError(
            f"control differs from the regularized state difference by {mismatch:.3e}")

    lv, lx = _walk(problem, q.values, dq.values, "dL_dv", "dL_dx")
    # row k takes node k + 1; row N is zero
    lv, lx = (np.concatenate((rows, np.zeros((1, problem.d)))) for rows in (lv, lx))
    dm = delta_plus(problem.alpha, grid, TimeSeq(-lv))
    return TimeSeq(_node_norms(dm.values - lx), 0, n - 1)
