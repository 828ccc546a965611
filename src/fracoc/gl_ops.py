"""Grunwald-Letnikov fractional difference operators on uniform grids.

Everything in this package works on sequences of vectors indexed by the
nodes of a uniform grid over [a, b].  The two one-sided difference
operators implemented here,

    left :  (D G)_k = h^(-alpha) * sum_{r=0..k}   c_r * G_{k-r},  k = 1..N,
    right:  (D G)_k = h^(-alpha) * sum_{r=0..N-k} c_r * G_{k+r},  k = 0..N-1,

use the binomial-type weights c_r produced by :func:`gl_coefficients`.
Their regularized variants subtract the boundary value (G_0 on the left,
G_N on the right) before differencing, which is what the solvers in the
rest of the package consume.  At alpha = 1 both collapse to the plain
backward and forward difference quotients.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "FracCoeffs",
    "TimeSeq",
    "gl_coefficients",
    "delta_minus",
    "delta_plus",
    "shift",
    "dfibp_residual",
]


def _order_value(alpha) -> float:
    """The order as a float, validated to lie in (0, 1]."""
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {a}")
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n subintervals (n + 1 nodes)."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(
                f"need an integer number n >= 1 of subintervals, got n={self.n!r}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @cached_property
    def times(self) -> np.ndarray:
        t = np.linspace(self.a, self.b, self.n + 1)
        t.flags.writeable = False
        return t

    def index_of(self, t: float) -> int:
        """Node index of a grid time, for callbacks handed t rather than k."""
        k = int(round((t - self.a) / self.h))
        if not 0 <= k <= self.n or abs(t - self.times[k]) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a node of {self}")
        return k


@dataclass(frozen=True)
class FracCoeffs:
    """Difference weights c_0..c_n for one order, with their partial sums.

    c_0 = 1 and c_r = c_{r-1} * (r - 1 - alpha) / r, so c_r <= 0 for
    r >= 1 and the partial sums decrease from 1 while staying positive.
    At alpha = 1 the weights reduce to (1, -1, 0, ..., 0).
    """

    alpha: float
    coeffs: np.ndarray
    partial_sums: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.flags.writeable = False
        self.partial_sums.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1


@functools.lru_cache(maxsize=128)
def _gl_cached(alpha: float, n: int) -> FracCoeffs:
    c = np.empty(n + 1)
    c[0] = 1.0
    for r in range(1, n + 1):
        c[r] = c[r - 1] * (r - 1 - alpha) / r
    return FracCoeffs(alpha=alpha, coeffs=c, partial_sums=np.cumsum(c))


def gl_coefficients(alpha, n: int) -> FracCoeffs:
    """Weights and partial sums for order alpha on n + 1 nodes."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need an integer n >= 1, got n={n!r}")
    return _gl_cached(_order_value(alpha), int(n))


class TimeSeq:
    """A node-indexed sequence of vectors with an explicit valid index range.

    Storage always spans all n + 1 slots; ``lo`` and ``hi`` bound (inclusively)
    the indices that carry meaningful data.  Operator outputs keep the full
    storage but shrink the range, and reading outside it raises.
    """

    __slots__ = ("values", "lo", "hi")

    def __init__(self, values, lo: int = 0, hi: int | None = None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError(f"expected (n+1, dim) data with n >= 1, got shape {arr.shape}")
        n = arr.shape[0] - 1
        hi = n if hi is None else int(hi)
        lo = int(lo)
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"invalid range [{lo}, {hi}] for n={n}")
        self.values = arr
        self.lo = lo
        self.hi = hi

    @classmethod
    def zeros(cls, n: int, dim: int = 1) -> "TimeSeq":
        return cls(np.zeros((n + 1, dim)))

    @classmethod
    def constant(cls, vec, n: int) -> "TimeSeq":
        v = np.atleast_1d(np.asarray(vec, dtype=float))
        return cls(np.tile(v, (n + 1, 1)))

    @property
    def n(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, k: int) -> np.ndarray:
        if not self.lo <= k <= self.hi:
            raise IndexError(f"index {k} outside valid range [{self.lo}, {self.hi}]")
        return self.values[k]

    def valid_values(self) -> np.ndarray:
        return self.values[self.lo : self.hi + 1]

    def sup_norm(self) -> float:
        """Largest Euclidean node norm over the valid range."""
        return float(np.max(np.linalg.norm(self.valid_values(), axis=1)))

    def copy(self) -> "TimeSeq":
        return TimeSeq(self.values.copy(), self.lo, self.hi)

    def __repr__(self) -> str:
        return f"TimeSeq(n={self.n}, dim={self.dim}, valid=[{self.lo}, {self.hi}])"


def _require_window(seq: TimeSeq, n: int, name: str, lo: int = 0,
                    hi: int | None = None, dim: int | None = None) -> None:
    """Refuse ``seq`` unless it has n + 1 slots valid on [lo, hi], hi defaulting
    to n, and rows of size ``dim`` unless that is None."""
    hi = n if hi is None else hi
    if seq.n != n:
        raise ValueError(f"{name} has {seq.n + 1} slots but the grid has {n + 1} nodes")
    if seq.lo > lo or seq.hi < hi:
        raise ValueError(f"{name} must be valid on all of [{lo}, {hi}], "
                         f"got [{seq.lo}, {seq.hi}]")
    if dim is not None and seq.dim != dim:
        raise ValueError(f"{name} has dimension {seq.dim}, expected {dim}")


def _left_difference(alpha, grid: Grid, base: np.ndarray) -> np.ndarray:
    """Columnwise sum_j c_j base_{k-j} / h^alpha at every node k = 0..n."""
    a = _order_value(alpha)
    c = gl_coefficients(a, grid.n).coeffs
    out = np.empty_like(base)
    for j in range(base.shape[1]):
        out[:, j] = np.convolve(c, base[:, j])[: grid.n + 1]
    out /= grid.h ** a
    return out


def delta_minus(alpha, grid: Grid, seq: TimeSeq, caputo: bool = False) -> TimeSeq:
    """Left fractional difference; valid on [1, n].

    With ``caputo=True`` the initial value is subtracted first, so constant
    sequences map to zero exactly.  For alpha = 1 the result equals the
    backward difference quotient (G_k - G_{k-1}) / h bit for bit, modulo
    the final division by h.
    """
    _require_window(seq, grid.n, "seq")
    base = seq.values - seq.values[0] if caputo else seq.values
    out = _left_difference(alpha, grid, base)
    out[0] = 0.0  # slot kept but not part of the valid range
    return TimeSeq(out, 1, grid.n)


def delta_plus(alpha, grid: Grid, seq: TimeSeq, caputo: bool = False) -> TimeSeq:
    """Right fractional difference; valid on [0, n - 1].

    The mirror of :func:`delta_minus`: weights run forward from each node,
    and ``caputo=True`` subtracts the terminal value G_n.
    """
    _require_window(seq, grid.n, "seq")
    n = grid.n
    base = seq.values - seq.values[n] if caputo else seq.values
    out = _left_difference(alpha, grid, base[::-1])[::-1]  # left on reversed nodes
    out[n] = 0.0
    return TimeSeq(out, 0, n - 1)


def shift(seq: TimeSeq, k: int, pad_with_zero: bool = False) -> TimeSeq:
    """Shift node indices by k: result_j = seq_{j+k}.

    Positive k advances the sequence.  Without padding the valid range
    shrinks to the indices that map inside the source range; with padding
    every slot is valid and out-of-range reads are zero.
    """
    n = seq.n
    k = int(k)
    if abs(k) > n:
        raise ValueError(f"|shift| must not exceed n={n}, got {k}")
    out = np.zeros_like(seq.values)
    lo = max(0, seq.lo - k)
    hi = min(n, seq.hi - k)
    if lo <= hi:
        out[lo : hi + 1] = seq.values[lo + k : hi + k + 1]
    if pad_with_zero:
        return TimeSeq(out, 0, n)
    if lo > hi:
        raise ValueError(f"shift by {k} leaves no valid indices")
    return TimeSeq(out, lo, hi)


def dfibp_residual(alpha, grid: Grid, g1: TimeSeq, g2: TimeSeq) -> float:
    """Defect of the discrete fractional integration-by-parts identity.

    For sequences with g1_0 = 0 and g2_n = 0,

        h * sum_{k=1..n} (left_reg g1)_k . g2_{k-1}
            = h * sum_{k=0..n-1} g1_{k+1} . (right_reg g2)_k

    holds exactly in exact arithmetic; the returned value is the absolute
    difference of the two sides as computed.
    """
    a = _order_value(alpha)
    _require_window(g1, grid.n, "g1")
    _require_window(g2, grid.n, "g2", dim=g1.dim)
    if np.any(g1.values[0] != 0.0):
        raise ValueError("g1 must vanish at the first node")
    if np.any(g2.values[grid.n] != 0.0):
        raise ValueError("g2 must vanish at the last node")
    n = grid.n
    dm = delta_minus(a, grid, g1, caputo=True)
    dp = delta_plus(a, grid, g2, caputo=True)
    left = grid.h * float(np.sum(dm.values[1:] * g2.values[:n]))
    right = grid.h * float(np.sum(g1.values[1:] * dp.values[:n]))
    return abs(left - right)
