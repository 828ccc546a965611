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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gl_ops import (Grid, TimeSeq, _order_value, _require_window, delta_minus,
                     delta_plus, gl_coefficients)
from .pontryagin import OcpProblem, PontryaginSolution, _at_nodes

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
    and return vectors of the same dimension.
    """

    map: Callable[[float, np.ndarray], np.ndarray]
    generator: Callable[[np.ndarray], np.ndarray]


def group_axiom_defect(group: OneParamGroup, points: Sequence[np.ndarray],
                       s: float = 1e-5) -> float:
    """Largest sampled defect of the identity and generator axioms."""
    gaps = []
    for x in points:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        at_zero = np.asarray(group.map(0.0, x), dtype=float)
        fd = (np.asarray(group.map(s, x), dtype=float)
              - np.asarray(group.map(-s, x), dtype=float)) / (2 * s)
        gen = np.asarray(group.generator(x), dtype=float)
        gaps += [np.max(np.abs(at_zero - x)), np.max(np.abs(fd - gen))]
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

    Touches only what the band and the first column reach, in O(n^2) work,
    and never goes through a matrix or the difference operators, which
    ``transfer_residual`` checks against it.  The depth-1 band is the
    identity.  Column 0 of A_r
    is b_r - c_r (b_1 at r = 1) from row r on, so it adds two cumulative
    sums of g_0 . p_{r-1}.  For r = 2..n-1 the band holds c_r on rows
    1..n-1 and columns 1..n-r with 0 <= i - j <= r - 1: a window sum, one
    prefix sum of x_r and three slice updates per depth.  At r = n the
    window is empty.
    """
    co = gl_coefficients(alpha, n)
    c, b = co.coeffs, co.partial_sums
    # += on zeros keeps a -0.0 product out of the result
    out = np.zeros(n + 1)
    out += c[1] * np.einsum("kd,kd->k", g, p)

    dots0 = p[:n] @ g[0]  # dots0[r-1] = g_0 . p_{r-1}, r = 1..n
    out[1:] += np.cumsum(b[1:] * dots0)
    out[2:] -= np.cumsum(c[2:] * dots0[1:])

    for r in range(2, n):
        # pre[m-1] = c_r * sum_{j=1..m} g_j . p_{j+r-1}, m = 1..n-r
        pre = c[r] * np.cumsum(np.einsum("jd,jd->j", g[1 : n - r + 1], p[r:n]))
        out[1 : n - r + 1] += pre           # rows 1..n-r: prefix up to j = i
        out[n - r + 1 : n] += pre[-1]       # rows n-r+1..n-1: the whole prefix
        out[r + 1 : n] -= pre[: n - r - 1]  # rows r+1..n-1: minus up to j = i-r
    return out


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
    # nodewise dot products through matmul, which sums each as g1_k @ dp_{k-1} does
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
    one node walk over the moved Q and U.  Returns the largest absolute
    difference over all nodes and samples, NaN if any bracket is NaN.
    Sampling a handful of s values is evidence of invariance, not a proof.
    """
    phi1, phi2, phi3 = groups
    grid, n = problem.grid, problem.grid.n
    q, p, u = solution.Q, solution.P, solution.U
    _require_window(q, n, "state")
    _require_window(u, n, "control", 1)
    _require_window(p, n, "adjoint", 0, n - 1, dim=problem.d)

    def bracket(move) -> np.ndarray:
        q_m = TimeSeq(np.stack([move(phi1, x) for x in q.values]))
        # U_0 is never read, so it is kept as is rather than moved
        u_m = TimeSeq(np.stack([u.values[0], *(move(phi2, v) for v in u.values[1:])]),
                      1, n)
        w = np.stack([move(phi3, x) for x in p.values[:n]]).reshape(n, 1, problem.d)
        dq = delta_minus(problem.alpha, grid, q_m, caputo=True)
        running, f = _at_nodes(problem, q_m, u_m,
                               lambda x, v, t: float(problem.L(x, v, t)), problem.f_at)
        # each row dot summed through matmul as w_k @ f_k sums it
        return (running[1:] + (w @ f[1:, :, None]).reshape(-1)
                - (w @ dq.values[1:, :, None]).reshape(-1))

    base = bracket(lambda phi, x: x)
    gaps = [np.abs(bracket(lambda phi, x: np.asarray(phi.map(s, x), dtype=float))
                   - base) for s in map(float, s_samples)]
    return float(np.max(gaps, initial=0.0))
