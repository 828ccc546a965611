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

from .gl_ops import (Grid, TimeSeq, _order_value, delta_minus, delta_plus,
                     gl_coefficients)
from .pontryagin import OcpProblem, PontryaginSolution

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
    worst = 0.0
    for x in points:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        at_zero = np.asarray(group.map(0.0, x), dtype=float)
        worst = max(worst, float(np.max(np.abs(at_zero - x))))
        fd = (np.asarray(group.map(s, x), dtype=float)
              - np.asarray(group.map(-s, x), dtype=float)) / (2 * s)
        gen = np.asarray(group.generator(x), dtype=float)
        worst = max(worst, float(np.max(np.abs(fd - gen))))
    return worst


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
    """S_i = sum_{r=1..n} [A_r x_r]_i with x_r(j) = g_j . p_{j+r-1}, padded.

    Exploits the band/column structure to stay at O(n^2) work without
    materializing any matrix.  The padded slots of sigma^{r-1}(p) never
    meet a nonzero entry, so the padding never contributes.
    """
    co = gl_coefficients(alpha, n)
    c, b = co.coeffs, co.partial_sums
    out = np.zeros(n + 1)

    # depth 1: identity band, all rows
    out += c[1] * np.einsum("kd,kd->k", g, p)

    # first-column terms, shared by the C family and the band corrections
    dots0 = p[:n] @ g[0]  # dots0[r-1] = g_0 . p_{r-1}, r = 1..n
    out += np.concatenate(([0.0], np.cumsum(b[1:] * dots0)))
    if n >= 2:
        out -= np.concatenate(([0.0, 0.0], np.cumsum(c[2:] * dots0[1:])))

    # banded positive parts, windowed row sums via prefix sums
    idx = np.arange(n + 1)
    for r in range(2, n + 1):
        s = np.einsum("jd,jd->j", g[: n - r + 1], p[r - 1 : n])  # j = 0..n-r
        cs = np.concatenate(([0.0], np.cumsum(s)))
        lo = np.maximum(1, idx - r + 1)
        hi = np.minimum(n - r, idx)
        inside = (idx >= 1) & (idx <= n - 1) & (lo <= hi)
        win = np.where(inside, cs[np.clip(hi, 0, n - r) + 1] - cs[np.clip(lo, 0, n - r + 1)], 0.0)
        out += c[r] * win
    return out


def conserved_quantity(alpha, grid: Grid, gen: TimeSeq, p: TimeSeq) -> TimeSeq:
    """The candidate invariant I_i = sum_r [A_r (gen . sigma^{r-1} p)]_i.

    ``gen`` is the group generator evaluated along the state and ``p`` the
    adjoint of a converged solution (so p_N = 0, though that is the
    caller's contract).  Constant in i exactly when the problem carries
    the corresponding symmetry.
    """
    a = _order_value(alpha)
    n = grid.n
    if gen.n != n or p.n != n:
        raise ValueError("sequences must live on the grid nodes")
    if gen.dim != p.dim:
        raise ValueError(f"dimension mismatch: {gen.dim} vs {p.dim}")
    vals = _weighted_shift_sum(a, n, gen.values, p.values)
    return TimeSeq(vals.reshape(-1, 1), 0, n)


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
    if g1.n != n or g2.n != n:
        raise ValueError("sequences must live on the grid nodes")
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
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

    For each parameter s the transformed bracket

        H(phi1(s, Q_k), phi2(s, U_k), phi3(s, P_{k-1}), t_k)
            - phi3(s, P_{k-1}) . (left_reg phi1(s, Q))_k

    is compared with the untransformed one over k = 1..N; the maximum
    absolute difference over all nodes and samples is returned.  Sampling
    a handful of s values is evidence of invariance, not a proof.
    """
    phi1, phi2, phi3 = groups
    grid, n = problem.grid, problem.grid.n
    times = grid.times
    q, p, u = solution.Q, solution.P, solution.U

    dq = delta_minus(problem.alpha, grid, q, caputo=True)
    base = np.empty(n)
    for k in range(1, n + 1):
        w = p[k - 1]
        base[k - 1] = (problem.hamiltonian(q[k], u[k], w, times[k])
                       - float(w @ dq[k]))

    worst = 0.0
    for s in s_samples:
        s = float(s)
        q_s = TimeSeq(np.stack([np.asarray(phi1.map(s, q[k]), dtype=float)
                                for k in range(n + 1)]))
        dq_s = delta_minus(problem.alpha, grid, q_s, caputo=True)
        for k in range(1, n + 1):
            w_s = np.asarray(phi3.map(s, p[k - 1]), dtype=float)
            v_s = np.asarray(phi2.map(s, u[k]), dtype=float)
            val = (problem.hamiltonian(q_s[k], v_s, w_s, times[k])
                   - float(w_s @ dq_s[k]))
            worst = max(worst, abs(val - base[k - 1]))
    return worst
