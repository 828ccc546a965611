"""Closed-form reference controls and the convergence-study tooling.

Two benchmark problems on [0, 1] admit closed-form optimal controls: a
linear-quadratic one solvable by hyperbolic functions (integer order
only) and a linear-in-state one whose control is a two-parameter
Mittag-Leffler expression valid for every order in (0, 1].  Comparing
solver output against these on nested grids yields observed convergence
orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gl_ops import Grid, TimeSeq, _node_norms, _order_value, _real, _require_window

__all__ = [
    "DegenerateDataError",
    "ConvergenceReport",
    "mittag_leffler",
    "lq_exact_control",
    "solved_example_exact_control",
    "max_control_error",
    "convergence_order",
]

_SQRT2 = math.sqrt(2.0)
_LQ_DENOM = _SQRT2 * math.cosh(_SQRT2) - math.sinh(_SQRT2)


class DegenerateDataError(ValueError):
    """Convergence data unusable for a log-log fit (zero or negative error)."""


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows (n, h, max_error) sorted by n, with fitted and pairwise orders."""

    rows: tuple
    fitted_order: float
    pairwise_orders: tuple


_MAX_TERMS = 20100  # the most terms any element of a series may take


def mittag_leffler(alpha: float, beta: float, z):
    """Two-parameter series E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta).

    ``z`` is a number, which gives a float, or an array, which gives an
    array of its shape, each element summed on its own.  Terms are built
    from log-Gamma to dodge overflow; an element's sum stops once a term
    falls below 1e-15 relative to its partial sum.  Restricted to finite
    alpha > 0, beta > 0 and |z| <= 2.  Small alpha needs many terms there,
    and the sum may not fit a double at all (E_{0.1,1}(2) is about
    10^445): an element whose term or partial sum overflows, or that has
    not met its stopping rule after ``_MAX_TERMS`` terms, raises
    ``ValueError`` naming it, where a truncated sum would come out low.
    For z < 0 the terms alternate; an element whose term sizes add to more
    than 1e8 times its sum has lost about eight of its digits, or all of
    them, to cancellation (E_{0.2,1}(-2) would come out 0.46 against
    0.31), and raises ``ValueError`` naming it too.
    """
    if not (0 < alpha < math.inf and 0 < beta < math.inf):  # NaN fails too
        raise ValueError(f"series parameters must be positive and finite, "
                         f"got ({alpha}, {beta})")
    zs = _real(z, "z", "is")
    flat = zs.reshape(-1)
    bad = ~(np.abs(flat) <= 2.0)  # NaN too
    if bad.any():
        raise ValueError(f"series evaluation restricted to |z| <= 2, "
                         f"got {flat[bad.argmax()]}")
    total = np.full(flat.shape, 1.0 / math.gamma(beta))  # the value at z = 0
    # the elements still summing: their index, log|z|, sign, partial sum and
    # sum of term sizes, which is the partial sum itself for z > 0
    live = np.flatnonzero(flat)
    log_abs_z = np.log(np.abs(flat[live]))
    negative = flat[live] < 0.0
    partial = np.zeros(live.size)
    sizes = np.zeros(live.size)
    lost = np.zeros(flat.shape, dtype=bool)  # sizes past 1e8 |sum|
    with np.errstate(over="ignore"):  # an overflow is refused below
        for k in range(_MAX_TERMS):
            if not live.size:
                break
            term = np.exp(k * log_abs_z - math.lgamma(alpha * k + beta))
            sizes += term
            if k & 1:
                np.negative(term, out=term, where=negative)
            partial += term
            # a partial sum that overflows meets this test at that term
            done = np.abs(term) <= 1e-15 * np.abs(partial)
            if done.any():
                total[live[done]] = partial[done]
                lost[live[done]] = sizes[done] > 1e8 * np.abs(partial[done])
                keep = ~done
                live, log_abs_z, negative, partial, sizes = (
                    live[keep], log_abs_z[keep], negative[keep], partial[keep], sizes[keep])
    over = ~np.isfinite(total)
    if over.any():
        raise ValueError(f"E_{{{alpha},{beta}}}(z) overflows a double at "
                         f"z = {flat[over.argmax()]}")
    if live.size:
        raise ValueError(f"E_{{{alpha},{beta}}}(z) has not converged after "
                         f"{_MAX_TERMS} terms at z = {flat[live[0]]}")
    if lost.any():
        raise ValueError(f"E_{{{alpha},{beta}}}(z) loses its digits to cancellation "
                         f"at z = {flat[lost.argmax()]}")
    return total.reshape(zs.shape) if zs.ndim else float(total[0])


def _unit_times(t) -> np.ndarray:
    """``t`` as a float array, refused unless every element lies in [0, 1]."""
    ts = _real(t, "t", "is")
    bad = ~((0.0 <= ts) & (ts <= 1.0))  # NaN too
    if bad.any():
        raise ValueError(f"t must lie in [0, 1], got {ts.reshape(-1)[bad.argmax()]}")
    return ts


def lq_exact_control(t):
    """Optimal control of the quadratic benchmark at integer order.

    u(t) = [cosh(s) sinh(s t) - sinh(s) cosh(s t)] / (s cosh(s) - sinh(s))
         = sinh(s (t - 1)) / (s cosh(s) - sinh(s))
    with s = sqrt(2); exactly 0.0 at t = 1.  Defined on [0, 1] only; ``t``
    is a number, which gives a float, or an array, which gives an array.
    """
    ts = _unit_times(t)
    u = np.sinh(_SQRT2 * (ts - 1.0)) / _LQ_DENOM
    return u if ts.ndim else float(u)


def solved_example_exact_control(alpha, t):
    """Optimal control of the benchmark solvable at every order in (0, 1].

    u(t) = -(1 - t)^(alpha + 1) * E_{alpha, alpha + 2}((1 - t)^alpha),
    again on [0, 1], exactly 0.0 at t = 1.  ``t`` is a number, which gives
    a float, or an array, which gives an array.
    """
    a = _order_value(alpha)
    w = 1.0 - _unit_times(t)
    u = 0.0 - w ** (a + 1.0) * mittag_leffler(a, a + 2.0, w ** a)  # +0.0, not -0.0, at w = 0
    return u if w.ndim else float(u)


def max_control_error(u: TimeSeq, exact, grid: Grid) -> float:
    """max_{k=1..N} of the Euclidean gap between u_k and exact(t_k).

    ``exact`` is called once with the N times t_1..t_N in one array and
    returns their controls stacked node first, of shape (N,) or (N, m); any
    other shape, or a complex value, raises ``ValueError``.  Node 0 is
    skipped: the discrete cost never reads the control there, so solvers
    leave it unconstrained.
    """
    _require_window(u, grid.n, "control", 1)
    ref = _real(exact(grid.times[1:]), "exact")
    if ref.shape != (grid.n, u.dim) and not (ref.shape == (grid.n,) and u.dim == 1):
        raise ValueError(f"reference returned shape {ref.shape}, expected "
                         f"(N, m) = ({grid.n}, {u.dim})")
    gaps = u.values[1:] - ref.reshape(grid.n, u.dim)
    return float(np.max(_node_norms(gaps)))  # NaN stays NaN, unlike max()


def convergence_order(errors_and_h) -> ConvergenceReport:
    """Least-squares order from (h, error) pairs, plus pairwise orders.

    The fitted order is the slope of log(error) against log(h); pairwise
    orders come from consecutive rows.  Rows are reported sorted by n,
    reconstructed as round(1 / h), the grid size on the unit interval.  At
    least three pairs with distinct step sizes are required, every step
    size and error positive and finite.
    """
    pairs = [(float(h), float(e)) for h, e in errors_and_h]
    if len(pairs) < 3:
        raise DegenerateDataError(f"need at least 3 rows, got {len(pairs)}")
    if len({h for h, _ in pairs}) < len(pairs):
        raise DegenerateDataError("step sizes must be distinct")
    for h, e in pairs:
        if not 0 < h < np.inf:  # NaN too
            raise DegenerateDataError(f"step sizes must be positive and finite, got {h}")
        if not 0 < e < np.inf:
            raise DegenerateDataError(f"errors must be positive and finite, got {e}")
    rows = sorted(((int(round(1.0 / h)), h, e) for h, e in pairs), key=lambda r: r[0])
    log_h = np.log([r[1] for r in rows])
    log_e = np.log([r[2] for r in rows])
    fitted = float(np.polyfit(log_h, log_e, 1)[0])
    pairwise = tuple(
        float((log_e[i] - log_e[i + 1]) / (log_h[i] - log_h[i + 1]))
        for i in range(len(rows) - 1))
    return ConvergenceReport(rows=tuple(rows), fitted_order=fitted,
                             pairwise_orders=pairwise)
