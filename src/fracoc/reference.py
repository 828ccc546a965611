"""Closed-form reference controls and the convergence-study tooling.

Two benchmark problems on [0, 1] admit closed-form optimal controls: a
linear-quadratic one solvable by hyperbolic functions (integer order
only) and a linear-in-state one whose control is a two-parameter
Mittag-Leffler expression valid for every order in (0, 1].  Comparing
solver output against these on nested grids yields observed convergence
orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gl_ops import Grid, TimeSeq, _order_value, _require_window
from .pontryagin import _node_norms

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


@functools.lru_cache(maxsize=32)
def _log_gammas(alpha: float, beta: float) -> tuple:
    """log Gamma(alpha k + beta) for the k = 0..200 the series may reach."""
    return tuple(math.lgamma(alpha * k + beta) for k in range(201))


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Two-parameter series E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta).

    Terms are built from log-Gamma to dodge overflow; summation stops once
    a term falls below 1e-15 relative to the partial sum, or after 200
    terms.  Restricted to finite alpha > 0, beta > 0 and |z| <= 2, where that
    truncation is far below double precision.
    """
    if not (0 < alpha < math.inf and 0 < beta < math.inf):  # NaN fails too
        raise ValueError(f"series parameters must be positive and finite, "
                         f"got ({alpha}, {beta})")
    if not abs(z) <= 2.0:
        raise ValueError(f"series evaluation restricted to |z| <= 2, got {z}")
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    log_abs_z = math.log(abs(z))
    total = 0.0
    for k, log_gamma in enumerate(_log_gammas(alpha, beta)):
        term = math.copysign(1.0, z) ** k * math.exp(k * log_abs_z - log_gamma)
        total += term
        if abs(term) <= 1e-15 * abs(total):
            break
    return total


def lq_exact_control(t: float) -> float:
    """Optimal control of the quadratic benchmark at integer order.

    u(t) = [cosh(s) sinh(s t) - sinh(s) cosh(s t)] / (s cosh(s) - sinh(s))
    with s = sqrt(2); vanishes at t = 1.  Defined on [0, 1] only.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return (math.cosh(_SQRT2) * math.sinh(_SQRT2 * t)
            - math.sinh(_SQRT2) * math.cosh(_SQRT2 * t)) / _LQ_DENOM


def solved_example_exact_control(alpha, t: float) -> float:
    """Optimal control of the benchmark solvable at every order in (0, 1].

    u(t) = -(1 - t)^(alpha + 1) * E_{alpha, alpha + 2}((1 - t)^alpha),
    again on [0, 1] with u(1) = 0.
    """
    a = _order_value(alpha)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    w = 1.0 - t
    if w == 0.0:
        return 0.0
    return -(w ** (a + 1.0)) * mittag_leffler(a, a + 2.0, w ** a)


def max_control_error(u: TimeSeq, exact, grid: Grid) -> float:
    """max_{k=1..N} of the Euclidean gap between u_k and exact(t_k).

    Node 0 is skipped: the discrete cost never reads the control there, so
    solvers leave it unconstrained.
    """
    _require_window(u, grid.n, "control", 1)
    ref = np.array([exact(t) for t in grid.times[1:]], dtype=float).reshape(grid.n, -1)
    if ref.shape[1] != u.dim:
        raise ValueError(f"reference returned size {ref.shape[1]}, control dim {u.dim}")
    return float(np.max(_node_norms(u.values[1:] - ref)))  # NaN stays NaN, unlike max()


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
