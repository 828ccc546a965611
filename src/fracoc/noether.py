"""Conserved quantities of symmetric problems via a summation identity.

The building blocks are (N+1) x (N+1) matrices, one family per memory
depth r: a banded part, a first-column part, and their weighted
combination using the difference weights c_r and partial sums b_r.
Summing the combined matrices against the products G . sigma^{r-1}(P)
produces a sequence whose backward difference reproduces, up to a power
of h, the transfer term that couples the left and right operators.  For a
problem invariant under a one-parameter transformation group, applying
this with G the group generator along the solution yields a sequence that
is constant in k.

The sum is never formed from the matrices.  Its first-column and depth-1
parts are cumulative sums.  Its band part is two causal products with the
difference weights, the ones the difference operators take, and one
cumulative sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gl_ops import (Grid, TimeSeq, _causal_product, _order_value, _real,
                     _require_window, delta_minus, delta_plus, gl_coefficients)
from .pontryagin import OcpProblem, PontryaginSolution, _walk

__all__ = [
    "OneParamGroup",
    "matrix_entry",
    "dense_matrix",
    "transfer_residual",
    "conserved_quantity",
    "invariance_residual",
    "group_axiom_defect",
]

@dataclass(frozen=True)
class OneParamGroup:
    """Smooth family of maps s -> phi(s, .) with phi(0, .) = identity.

    ``generator`` must be the s-derivative of ``map`` at s = 0.  Both take
    rows of shape (K, d) and return rows of that shape, each row mapped as
    it would be alone, so a whole sequence moves in one call.
    """

    map: Callable[[float, np.ndarray], np.ndarray]
    generator: Callable[[np.ndarray], np.ndarray]


def _moved(phi: OneParamGroup, rows: np.ndarray, s: float | None = None) -> np.ndarray:
    """phi(s, .), or its generator if s is None, at all rows in one call; a
    value of another shape than the rows', or a complex one, raises ``ValueError``."""
    what = "a group generator" if s is None else "a group map"
    out = _real(phi.generator(rows) if s is None else phi.map(s, rows), what)
    if out.shape != rows.shape:
        raise ValueError(f"{what} returned shape {out.shape} for rows of shape {rows.shape}")
    return out


def group_axiom_defect(group: OneParamGroup, points: Sequence[np.ndarray]) -> float:
    """Largest sampled defect of the identity and generator axioms.

    The generator is compared with the central difference of ``map`` at
    s = +-1e-5.  Each point goes in as a one-row stack (1, d), never stacked
    with the others: a map written per row (``x[0]``, ``x[1]``) would take d
    stacked points for its components.  A map or generator value of another
    shape than its argument, or a complex point or value, raises ``ValueError``.
    """
    s, gaps = 1e-5, []
    for x in points:
        rows = np.atleast_1d(_real(x, "a point", "is"))[None]
        at_zero = _moved(group, rows, 0.0)
        fd = (_moved(group, rows, s) - _moved(group, rows, -s)) / (2 * s)
        gaps += [np.max(np.abs(at_zero - rows)), np.max(np.abs(fd - _moved(group, rows)))]
    return float(np.max(gaps, initial=0.0))  # NaN stays NaN, unlike max()


def _band_entry(r: int, i: int, j: int, n: int) -> float:
    pos = 1.0 if (1 <= i <= n - 1 and 1 <= j <= n - r and 0 <= i - j <= r - 1) else 0.0
    neg = 1.0 if (j == 0 and r <= i) else 0.0
    return pos - neg


def matrix_entry(kind: str, r: int, i: int, j: int, alpha, n: int) -> float:
    """Entry (i, j) of the depth-r matrix of the requested family.

    kind "B" is the banded family (identity at r = 1), kind "C" the
    first-column family, kind "A" their combination c_r * B_r + b_r * C_r.
    """
    if not 1 <= r <= n:
        raise ValueError(f"depth r must lie in [1, {n}], got {r}")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices must lie in [0, {n}], got ({i}, {j})")
    if kind == "B":
        if r == 1:
            return 1.0 if i == j else 0.0
        return _band_entry(r, i, j, n)
    if kind == "C":
        return 1.0 if (j == 0 and i >= r) else 0.0
    if kind == "A":
        co = gl_coefficients(alpha, n)
        return (co.coeffs[r] * matrix_entry("B", r, i, j, alpha, n)
                + co.partial_sums[r] * matrix_entry("C", r, i, j, alpha, n))
    raise ValueError(f"kind must be 'B', 'C' or 'A', got {kind!r}")


def dense_matrix(kind: str, r: int, alpha, n: int) -> np.ndarray:
    """Materialize a whole matrix; meant for tests and small n."""
    return np.array([[matrix_entry(kind, r, i, j, alpha, n)
                      for j in range(n + 1)] for i in range(n + 1)])


def _weighted_shift_sum(alpha: float, n: int, g: np.ndarray,
                        p: np.ndarray) -> np.ndarray:
    """S_i = sum_{r=1..n} [A_r x_r]_i with x_r(j) = g_j . p_{j+r-1}.

    Touches only what the band and the first column reach and never goes
    through a matrix or the difference operators, which
    ``transfer_residual`` checks against it.  The depth-1 band is the
    identity.  Column 0 of A_r is b_r - c_r (b_1 at r = 1) from row r on,
    so it adds two cumulative sums of g_0 . p_{r-1}.  The bands of depth
    r = 2..n-1 add, with m = j + r - 1,

        sum of c_{m-j+1} g_j . p_m over 1 <= j <= i <= m <= n-1, m > j,

    to row i = 1..n-1, which ``_band_pairs`` forms."""
    co = gl_coefficients(alpha, n)
    c, b = co.coeffs, co.partial_sums
    # += on zeros keeps a -0.0 product out of the result
    out = np.zeros(n + 1)
    # an inf in g or p meets zero weights and opposite infs in the products
    # and sums below; the NaN that makes is the answer, as it is for
    # delta_minus, so it is not warned about
    with np.errstate(invalid="ignore"):
        out += c[1] * np.einsum("kd,kd->k", g, p)
        dots0 = p[:n] @ g[0]  # dots0[r-1] = g_0 . p_{r-1}, r = 1..n
        out[1:] += np.cumsum(b[1:] * dots0)
        out[2:] -= np.cumsum(c[2:] * dots0[1:])
        _band_pairs(c, g, p, out, 1, n)
    return out


def _band_pairs(c, g, p, out: np.ndarray, lo: int, hi: int) -> None:
    """Add c_{m-j+1} g_j . p_m to rows j..m of ``out``, lo <= j < m < hi:
    for any p, row i gets the sum over lo <= k <= i of g_k . U_k - p_{k-1} .
    V_{k-1}, U_k = sum_{k<m<hi} c_{m-k+1} p_m, V_k = sum_{lo<=j<k} c_{k-j+1}
    g_j, causal products with c_2..c_{hi-lo} on p reversed and on g."""
    if hi - lo < 2:  # no pair
        return
    zero = np.zeros(g.shape[1])
    u = _causal_product(c[2:], p[hi - 1:lo:-1], zero)[::-1]  # U_lo..U_{hi-2}
    v = _causal_product(c[2:], g[lo:hi - 1], zero)  # V_{lo+1}..V_{hi-1}
    steps = np.zeros(hi - lo)  # U_{hi-1} = V_lo = 0
    steps[:-1] += np.einsum("kd,kd->k", g[lo:hi - 1], u)
    steps[2:] -= np.einsum("kd,kd->k", p[lo + 1:hi - 1], v[:-1])
    out[lo:hi] += np.cumsum(steps)


def conserved_quantity(alpha, grid: Grid, gen: TimeSeq, p: TimeSeq) -> TimeSeq:
    """The candidate invariant I_i = sum_r [A_r (gen . sigma^{r-1} p)]_i.

    ``gen`` is the group generator evaluated along the state and ``p`` the
    adjoint of a converged solution (so p_N = 0, though that is the
    caller's contract).  Both must be valid on all of [0, N], since every
    row enters the sum.  Constant in i exactly when the problem carries the
    corresponding symmetry.
    """
    a = _order_value(alpha)
    _require_window(gen, grid.n, "gen")
    _require_window(p, grid.n, "p", dim=gen.dim)
    vals = _weighted_shift_sum(a, grid.n, gen.values, p.values)
    return TimeSeq(vals.reshape(-1, 1), 0, grid.n)


def transfer_residual(alpha, grid: Grid, g1: TimeSeq, g2: TimeSeq) -> float:
    """Defect of the summation identity linking the two operators.

    For g2 vanishing at the last node,

        g1_k . (right g2)_{k-1} - (left_reg g1)_k . g2_{k-1}
            = h^(1-alpha) * backward-difference of S at k,      k = 1..N,

    where S is the weighted shift sum of (g1, g2).  Returns the largest
    absolute nodewise defect.
    """
    a = _order_value(alpha)
    n = grid.n
    _require_window(g1, n, "g1")
    _require_window(g2, n, "g2", dim=g1.dim)
    if np.any(g2.values[n] != 0.0):
        raise ValueError("g2 must vanish at the last node")

    s = _weighted_shift_sum(a, n, g1.values, g2.values)
    dm = delta_minus(a, grid, g1, caputo=True)
    dp = delta_plus(a, grid, g2, caputo=False)
    scale = grid.h ** (1.0 - a) / grid.h
    # nodewise dot products through matmul, which sums each as g1_k @ dp_{k-1} does;
    # an inf in g1 or g2 gives NaN here as in the weighted shift sum, silently
    with np.errstate(invalid="ignore"):
        lhs = (g1.values[1:, None] @ dp.values[:-1, :, None]
               - dm.values[1:, None] @ g2.values[:-1, :, None]).reshape(-1)
        return float(np.max(np.abs(lhs - scale * np.diff(s))))


def invariance_residual(problem: OcpProblem, groups: Sequence[OneParamGroup],
                        solution: PontryaginSolution,
                        s_samples: Sequence[float]) -> float:
    """Sampled defect of Hamiltonian invariance along a solution.

    The bracket H(Q_k, U_k, P_{k-1}, t_k) - P_{k-1} . (left_reg Q)_k,
    k = 1..N, is evaluated once as is and once per parameter s with Q, U
    and P moved by phi1(s, .), phi2(s, .) and phi3(s, .); L and f come from
    one node walk over the moved Q and U.  Each group moves its sequence in
    one call per sample; a map value of another shape, or a complex one,
    raises ``ValueError``.
    Returns the largest absolute difference over all nodes and samples, NaN
    if any bracket is NaN.
    Sampling a handful of s values is evidence of invariance, not a proof.
    """
    phi1, phi2, phi3 = groups
    grid, n = problem.grid, problem.grid.n
    q, p, u = solution.Q, solution.P, solution.U
    _require_window(q, n, "state", dim=problem.d)
    _require_window(u, n, "control", 1, dim=problem.m)
    _require_window(p, n, "adjoint", 0, n - 1, dim=problem.d)

    def bracket(qv: np.ndarray, uv: np.ndarray, pv: np.ndarray) -> np.ndarray:
        dq = delta_minus(problem.alpha, grid, TimeSeq(qv), caputo=True)
        running, f = _walk(problem, qv, uv, "L", "f")
        w = pv.reshape(n, 1, problem.d)
        # each row dot summed through matmul as w_k @ f_k sums it
        return (running + (w @ f[:, :, None]).reshape(-1)
                - (w @ dq.values[1:, :, None]).reshape(-1))

    base = bracket(q.values, u.values, p.values[:n])
    # U_0 is never read, so it is kept as is rather than moved
    gaps = [np.abs(bracket(_moved(phi1, q.values, s),
                           np.concatenate([u.values[:1], _moved(phi2, u.values[1:], s)]),
                           _moved(phi3, p.values[:n], s)) - base)
            for s in map(float, s_samples)]
    return float(np.max(gaps, initial=0.0))
