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
import itertools
from numbers import Integral
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
    "dfibp_residual",
]

_SECTION = 1024  # nodes below which a difference is a direct sum; FFT section size


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int, refused unless it is an integer (numpy's too,
    but not a bool) and, when ``least`` is given, at least ``least``; floats
    are never truncated."""
    if (isinstance(value, bool) or type(value) is not int and not isinstance(value, Integral)
            or (least is not None and value < least)):  # an int skips the slow ABC check
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {name}={value!r}")
    return int(value)


def _order_value(alpha) -> float:
    """The order as a float, validated to lie in (0, 1]."""
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {a}")
    return a


_FLOAT = np.dtype(float)


def _real(value, name: str, verb: str = "returned") -> np.ndarray:
    """``value`` as a float array; a complex one raises ``ValueError`` naming
    ``name`` ("rhs returned a complex value", "initial is a complex value"),
    where a float conversion would drop its imaginary part with only a
    warning."""
    value = np.asarray(value)
    if value.dtype is not _FLOAT:
        if value.dtype.kind == "c":
            raise ValueError(f"{name} {verb} a complex value, expected a real one")
        value = value.astype(float)
    return value


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n subintervals (n + 1 nodes)."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        _integer(self.n, "n", 1)
        if not np.isfinite([self.a, self.b]).all():
            raise ValueError(f"need finite a and b, got [{self.a}, {self.b}]")
        with np.errstate(over="ignore"):  # b - a of numpy scalars may overflow
            h = self.h
        if not np.isfinite(h):
            raise ValueError(f"need a finite step, got h = {h} on [{self.a}, {self.b}]")

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
        x = (t - self.a) / self.h
        k = int(round(x)) if abs(x) <= self.n + 1 else -1  # not inf or NaN either
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

    def __post_init__(self) -> None:
        self.coeffs.flags.writeable = False

    @cached_property
    def partial_sums(self) -> np.ndarray:
        """b_r = c_0 + .. + c_r, formed on first use: the marches and the
        difference operators never read them, and a cached order would
        otherwise hold them for as long as its weights."""
        b = np.cumsum(self.coeffs)
        b.flags.writeable = False
        return b

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1


@functools.lru_cache(maxsize=128)
def _gl_cached(alpha: float, n: int) -> FracCoeffs:
    # on Python floats, which round as float64 array elements do, without
    # numpy's per-element reads and writes or a list of n floats
    c = np.fromiter(itertools.accumulate(range(1, n + 1), initial=1.0,
                                         func=lambda prev, r: prev * (r - 1 - alpha) / r),
                    float, n + 1)
    return FracCoeffs(alpha=alpha, coeffs=c)


def gl_coefficients(alpha, n: int) -> FracCoeffs:
    """Weights and partial sums for order alpha on n + 1 nodes."""
    return _gl_cached(_order_value(alpha), _integer(n, "n", 1))


def _node_norms(g: np.ndarray) -> np.ndarray:
    """Row norms, each summed through matmul as np.linalg.norm(g[k]) sums it."""
    with np.errstate(over="ignore"):  # an inf norm is the caller's to stop on
        return np.sqrt(g[:, None] @ g[..., None]).reshape(-1)


class TimeSeq:
    """A node-indexed sequence of vectors with an explicit valid index range.

    Storage always spans all n + 1 slots; ``lo`` and ``hi`` bound (inclusively)
    the indices that carry meaningful data.  Operator outputs keep the full
    storage but shrink the range, and reading outside it raises.
    """

    __slots__ = ("values", "lo", "hi")

    def __init__(self, values, lo: int = 0, hi: int | None = None):
        arr = _real(values, "TimeSeq values", "hold")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError(f"expected (n+1, dim) data with n >= 1, got shape {arr.shape}")
        n = arr.shape[0] - 1
        lo = _integer(lo, "lo")
        hi = n if hi is None else _integer(hi, "hi")
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
        v = np.atleast_1d(vec)  # refused in __init__ if complex
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
        return float(np.max(_node_norms(self.valid_values())))

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


def _left_difference(alpha, grid: Grid, values: np.ndarray,
                     origin: np.ndarray) -> np.ndarray:
    """Columnwise sum_j c_j (values_{k-j} - origin) / h^alpha at every node k = 0..n."""
    a = _order_value(alpha)
    out = _causal_product(gl_coefficients(a, grid.n).coeffs, values, origin)
    out /= grid.h ** a
    return out


def _causal_product(c: np.ndarray, values: np.ndarray,
                    origin: np.ndarray) -> np.ndarray:
    """Columnwise sum_{j<=k} c_j (values_{k-j} - origin) at every row k of
    ``values``; c has at least as many entries as ``values`` has rows.

    Below ``_SECTION`` rows the sum is ``np.convolve``'s direct one, which
    keeps integer orders exact.  From there on it is a sectioned FFT product
    (Stockham 1966) in O(n^2 / _SECTION + n log _SECTION) work, which adds a
    round-off of about eps log n sum_j |c_j| |values - origin| to each row,
    norm-wise, not relative to each term.  c and values - origin are cut
    into sections of B = ``_SECTION`` rows, each transformed at size 2B, and
    output section s is the inverse transform of sum_{p <= s} C_p X_{s-p},
    overlap-added onto the next.  Besides its output the product holds the
    two operands' transforms, each about the size of ``np.convolve``'s
    2n + 1 outputs per column, and no full-size copy of values - origin;
    one product at full size would hold several times that.

    A non-finite entry would spread through an FFT to every later row, so
    the rows from the first section that holds one on take the direct sum,
    in O(_SECTION n) work when that section is the last; it spoils only the
    rows from that entry's on.
    """
    rows, d = values.shape
    sections = -(-rows // _SECTION) if rows >= _SECTION else 0
    size = 2 * _SECTION
    c_hat = np.empty((sections, _SECTION + 1), dtype=complex)
    x_hat = np.empty((sections, _SECTION + 1, d), dtype=complex)
    out = np.zeros((rows, d))
    top = 0  # rows the sections have summed
    for s in range(sections):
        piece = values[top:top + _SECTION] - origin
        if not np.isfinite(piece).all():
            break  # output sections from s on would take this piece
        c_hat[s] = np.fft.rfft(c[top:top + _SECTION], size)
        x_hat[s] = np.fft.rfft(piece, size, axis=0)
        del piece  # not held through the section product
        y = np.fft.irfft(np.einsum("pf,pfd->fd", c_hat[:s + 1], x_hat[s::-1]),
                         size, axis=0)
        out[top:top + size] += y[:rows - top]
        top = min(rows, top + _SECTION)
    for j in range(d if top < rows else 0):
        x = values[:, j] - origin[j]
        if top:  # rows - 1 - top zeros ahead, so that row k takes c_0..c_k
            x = np.concatenate((np.zeros(rows - 1 - top), x))
            out[top:, j] = np.convolve(x, c[:rows], "valid")
        else:
            out[:, j] = np.convolve(c[:rows], x)[:rows]
    return out


def delta_minus(alpha, grid: Grid, seq: TimeSeq, caputo: bool = False) -> TimeSeq:
    """Left fractional difference; valid on [1, n].

    With ``caputo=True`` the initial value is subtracted first, so constant
    sequences map to zero exactly.  For alpha = 1 the result equals the
    backward difference quotient (G_k - G_{k-1}) / h bit for bit, modulo
    the final division by h.
    """
    _require_window(seq, grid.n, "seq")
    origin = seq.values[0] if caputo else np.zeros(seq.dim)
    out = _left_difference(alpha, grid, seq.values, origin)
    out[0] = 0.0  # slot kept but not part of the valid range
    return TimeSeq(out, 1, grid.n)


def delta_plus(alpha, grid: Grid, seq: TimeSeq, caputo: bool = False) -> TimeSeq:
    """Right fractional difference; valid on [0, n - 1].

    The mirror of :func:`delta_minus`: weights run forward from each node,
    and ``caputo=True`` subtracts the terminal value G_n.
    """
    _require_window(seq, grid.n, "seq")
    n = grid.n
    origin = seq.values[n] if caputo else np.zeros(seq.dim)
    out = _left_difference(alpha, grid, seq.values[::-1], origin)[::-1]  # on reversed nodes
    out[n] = 0.0
    return TimeSeq(out, 0, n - 1)


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
