"""Stepwise solvers for discrete fractional Cauchy problems.

The left problem marches k = 1..N through the implicit node equation

    Q_k = h^alpha * F(Q_k, t_k) + Q_0 - sum_{r=1..k-1} c_r (Q_{k-r} - Q_0),

and the right problem mirrors it from the terminal node down; it is the
left march run on reversed node indices.  Both keep the full memory tail.
One private kernel, :func:`_march`, does the marching for every solver in
the package.  It sums the memory of a node's own block of ``_BLOCK`` nodes
directly and adds that of older blocks by FFT products folded in ahead, so
one march costs O(N log^2 N) for the memory sums plus the work of solving
each node equation.  Two node solves sit on it:

- :func:`_fixed_point_march` solves nonlinear node equations with the
  fixed-point step x <- h^alpha F(x) + const, once it has checked
  h^alpha * K < 1 for the Lipschitz bound K of F its caller passes
  (``ContractionError`` otherwise), under which that step contracts.  One
  loop, on floats at d = 1, accepts a node once |x - h^alpha F(x) - const|
  <= tol * max(1, |x|) and returns its fixed-point image
  h^alpha F(x) + const.  Only h^alpha F(x) in the node equation is
  unknown, so each node starts from const plus the cubic extrapolation of
  h^alpha F over the last four accepted nodes, kept in a ring of four
  slots, the first four from y_{j-1}; most nodes then take one
  evaluation.  :func:`solve_left_cauchy`, :func:`solve_right_cauchy` and
  the fallback of the sweep's state solve use it;
- :func:`_linear_march` handles F(x, k) = A_k x + b_k with one linear
  solve per node, using inverses built once for all nodes; it needs only
  I - h^alpha A_k to be invertible.  Every march of the Pontryagin sweep
  is this one: the adjoint, the linearized state, and each Newton iterate
  of the state on the whole trajectory.  When A_k is exactly the same at
  every node the march is a Toeplitz solve instead, one FFT convolution
  with a power series cached on (alpha, N, h^alpha A), unless that series
  grows more than ``_GROWTH_CAP``-fold or is not finite.

Every node solve stops at once, naming the node, when a value turns NaN
or infinite, and the linear one stops when I - h^alpha A_k is singular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gl_ops import Grid, TimeSeq, _integer, _order_value, gl_coefficients

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
    ``max_iters`` steps and after the last.  Steps count from the node's
    start, predicted from h^alpha F at the nodes before it, which most
    nodes accept at their one evaluation.  The sweep's state solve
    holds its Newton iterates on the whole trajectory to the same rule and
    budget.
    """

    tol: float = 1e-12
    max_iters: int = 100

    def __post_init__(self) -> None:
        if not self.tol > 0:  # NaN too
            raise ValueError("tol must be positive")
        _integer(self.max_iters, "max_iters", 1)


# Width of the base blocks of :func:`_march`: a node sums the deviations of
# its own block directly, at most _BLOCK - 1 terms, and older ones reach it
# folded.  A power of two, so that a fold after node j spans j & -j nodes.
_BLOCK = 64


def _march(alpha: float, grid: Grid, start: np.ndarray, solve_node,
           reverse: bool = False) -> np.ndarray:
    """Values y_0..y_N of y_j = solve_node(const_j, j, y_{j-1}), y_0 = start.

    const_j = y_0 - sum_{i=1..j-1} c_{j-i} (y_i - y_0) is the memory term of
    the node equation y_j = h^alpha F(y_j) + const_j.  With ``reverse`` the
    march runs on reversed node indices, so the returned row k is node k of
    the right problem, solved by ``solve_node(const, k, y_{k+1})``.  At d = 1
    the march runs on floats: const and y_{j-1} are scalars, and the node
    solve returns one.

    The memory term is split as const_j = y_0 - far_j - near_j.  near_j sums
    the deviations of j's own block of ``_BLOCK`` nodes directly.  far_j
    holds the older ones and is complete when the block starts, so y_0 -
    far_j is taken for the whole block at once.  After node j, a multiple of
    the block, the last L = j & -j deviations are added into far_{j+1..j+L}
    by one FFT product of size 2L with c_1..c_{2L-1}, cut short where the
    march ends first (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
    Comput. 6, 1985).  These squares tile the block pairs below the diagonal
    once each, so a march costs O(N log^2 N) for the memory sums plus the
    work of solving each node equation.  The FFT adds a round-off of about
    eps log L sum_r |c_r| |y_{j-r} - y_0| to far_j, norm-wise, not relative
    to each term.
    """
    n, d = grid.n, start.size
    c = gl_coefficients(alpha, n).coeffs
    shape = (n + 1,) if d == 1 else (n + 1, d)
    y0 = float(start[0]) if d == 1 else start
    rc = np.ascontiguousarray(c[min(_BLOCK - 1, n):0:-1])  # c_{B-1}..c_1
    top = rc.size
    cols = c if d == 1 else c[:, None]
    y = np.zeros(shape)     # y_j holds far_j until node j is solved
    dev = np.empty(shape)   # y_j - y_0, from row 1 on
    y[0] = prev = y0
    for lo in range(1, n + 1, _BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        base = y0 - y[lo:hi]  # const_j before the near sum
        if d == 1:
            base = base.tolist()
        for i, j in enumerate(range(lo, hi)):
            const = base[i] - rc[top - i:].dot(dev[lo:j]) if i else base[i]
            prev = y[j] = solve_node(const, n - j if reverse else j, prev)
            dev[j] = prev - y0
        if j % _BLOCK or j == n:
            continue
        width = j & -j
        targets = min(width, n - j)
        size = width + targets  # 2L, or less where the march ends first
        product = np.fft.rfft(dev[j - width + 1:j + 1], size, axis=0)
        product *= np.fft.rfft(cols[:size], size, axis=0)
        y[j + 1:j + 1 + targets] += np.fft.irfft(product, size, axis=0)[width:]
    y = y.reshape(n + 1, d)
    return y[::-1].copy() if reverse else y


def _as_start(value, name: str) -> np.ndarray:
    return np.atleast_1d(_real(value, name, "is")).reshape(-1)


def _checked_start(value, name: str, node: int) -> np.ndarray:
    """The start of a public march, refused before any evaluation when it
    is empty or not finite (``NonFiniteError`` at the start node)."""
    start = _as_start(value, name)
    if start.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(start).all():
        raise NonFiniteError(node)
    return start


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


def _sized(value, d: int) -> np.ndarray:
    """The rhs value ``value`` as a float array of shape (d,)."""
    fx = _real(value, "rhs")
    if fx.size != d:
        raise ValueError(f"rhs returned size {fx.size}, expected {d}")
    return fx if fx.ndim == 1 else fx.reshape(-1)


def solve_left_cauchy(alpha, grid: Grid, rhs: CauchyRhs, initial,
                      opts: FixedPointOpts | None = None) -> TimeSeq:
    """March the left fractional Cauchy problem from Q_0 = initial.

    Returns the solution sequence, valid on all of [0, N].  Each node takes
    fixed-point steps, which needs h^alpha * K < 1 for the bound K of
    ``rhs`` (``ContractionError`` otherwise).  An empty ``initial`` raises
    ``ValueError`` and a non-finite one ``NonFiniteError`` at node 0, before
    ``rhs`` is called.
    """
    times = grid.times
    return _fixed_point_march(_order_value(alpha), grid,
                              lambda x, k: rhs.eval(x, times[k]),
                              _checked_start(initial, "initial", 0),
                              rhs.lipschitz_K, opts)


def solve_right_cauchy(alpha, grid: Grid,
                       rhs_shifted: Callable[[np.ndarray, int], np.ndarray],
                       lipschitz_K: float, terminal,
                       opts: FixedPointOpts | None = None) -> TimeSeq:
    """March the right fractional Cauchy problem down from P_N = terminal.

    The right-hand side is indexed by node, P_k = h^alpha * rhs(P_k, k) + ...,
    which keeps this solver ignorant of where its callers get their data.
    ``terminal`` is checked as ``initial`` of :func:`solve_left_cauchy` is,
    a non-finite one naming node N.
    """
    _check_bound(lipschitz_K)
    return _fixed_point_march(_order_value(alpha), grid, rhs_shifted,
                              _checked_start(terminal, "terminal", grid.n),
                              lipschitz_K, opts, reverse=True)


def _check_step(ha: float, lipschitz: float) -> None:
    """Refuse h^alpha K >= 1, where the fixed-point step need not contract."""
    if not ha * lipschitz < 1.0:
        raise ContractionError(
            f"h^alpha * K = {ha * lipschitz:.6g} >= 1; refine the grid or rescale")


def _fixed_point_march(alpha: float, grid: Grid, field, start: np.ndarray,
                       lipschitz: float, opts: FixedPointOpts | None,
                       reverse: bool = False) -> TimeSeq:
    """March with node equations solved by fixed-point steps.

    ``field(x, k)`` returns F at node k; a complex value, or one of any size
    but d, raises ``ValueError``.  The march only reads that value, so a
    read-only or cached array is safe to return.  ``lipschitz`` is a
    Lipschitz bound K of F in x.  A node is accepted on its residual
    r(x) = x - h^alpha F(x, k) - const once |r| <= tol * max(1, |x|),
    checked before each of at most ``max_iters`` steps and after the last.
    Each step maps x to its fixed-point image h^alpha F(x, k) + const =
    x - r, which multiplies |r| by at most h^alpha K; the march refuses
    h^alpha K >= 1 (``ContractionError``), so the step contracts.  Each
    evaluation forms the image once and r as x minus it, and an accepted
    node returns the image, which costs no evaluation and is closer to the
    solution by that same factor.  At d >= 2, |r| and |x| are Python
    maxima over the components, with a NaN found by their sum, since
    ``max`` skips a NaN that is not the first element.

    const_j is known before node j is solved, so only g = h^alpha F(y_j) is
    to be predicted (the predictor of fractional Adams methods; Diethelm,
    Ford & Freed, Nonlinear Dyn. 29, 2002).  Node j starts from
    const_j + 4 (g_1 + g_3) - 6 g_2 - g_4, with g_1..g_4 the values h^alpha F
    at the last four accepted iterates of this march, newest first: the
    cubic through them, h^alpha times an O(h^4) error on a smooth field,
    where y_{j-1} is O(h) off.  The first four nodes start from y_{j-1}.
    The four values live in a ring of four slots, Python floats at d = 1
    and the rows of a (4, d) array otherwise, accepted node i in slot
    i mod 4; at d >= 2 the cubic is one product of the ring with the
    weights (-1, 4, -6, 4) rotated to start at the oldest slot.  The start
    reuses values the loop computed, so it costs no evaluation.  The fixed
    point is unique, so the start moves only the path to it: 1.01
    evaluations per node on the march benchmark, where a start from y_{j-1}
    takes 3.99 and one extrapolated from the nodes themselves 1.63.
    """
    ha = grid.h ** alpha
    _check_step(ha, lipschitz)
    opts = opts or FixedPointOpts()
    tol, max_iters = opts.tol, opts.max_iters

    d = start.size
    if d == 1:  # Python floats: a one-element array costs more than the field
        def hf(x, k):
            return ha * _sized(field(np.array([x]), k), 1).item()

        size = abs
        ring = [0.0] * 4

        def extrapolate(slot):  # slot holds the oldest value, slot - 1 the newest
            return (4.0 * (ring[slot - 1] + ring[slot - 3]) - 6.0 * ring[slot - 2]
                    - ring[slot])
    else:
        ha_array = np.array(ha)  # a float times an array converts the float each time

        def hf(x, k):
            return ha_array * _sized(field(x, k), d)

        def size(a):  # max |a_i|, or NaN if an a_i is: max skips a NaN past the first
            values = a.tolist()
            return math.nan if math.isnan(sum(values)) else max(map(abs, values))

        ring = np.empty((4, d))
        # row s weighs the ring with its oldest value in slot s
        cubic = np.array([np.roll([-1.0, 4.0, -6.0, 4.0], s) for s in range(4)])

        def extrapolate(slot):
            return cubic[slot].dot(ring)

    accepted = 0  # h^alpha F at accepted node i sits in ring slot i & 3

    def solve_node(const, k, x):
        nonlocal accepted
        if d == 1:
            const = float(const)
        slot = accepted & 3
        if accepted > 3:
            x = const + extrapolate(slot)
        for _ in range(max_iters + 1):
            g = hf(x, k)
            fixed = g + const
            err = size(x - fixed)
            if not math.isfinite(err):
                raise NonFiniteError(k)
            if err <= tol or err <= tol * size(x):  # err <= tol * max(1, |x|)
                ring[slot] = g
                accepted += 1
                return fixed
            x = fixed
        raise FixedPointDivergenceError(k, err, tol)

    return TimeSeq(_march(alpha, grid, start, solve_node, reverse))


# Largest growth max_k |W_k| / |W_0| the convolution may take: its round-off
# is absolute, about eps max|W| |s|, so growing dynamics swamp the early
# nodes.  A scan against the node loop (A = lambda, alpha 0.1-0.9, N 200-4096)
# kept every case within 2.5e-13 relative below it.
_GROWTH_CAP = 100.0


@functools.lru_cache(maxsize=8)
def _toeplitz_inverse(alpha: float, n: int, d: int, ha_a: bytes):
    """Spectrum of the march's inverse Toeplitz symbol, or None where unusable.

    W_0..W_{N-1} are the coefficients of ((sum_r c_r z^r) I - h^alpha A)^{-1}
    mod z^N, for the d x d matrix h^alpha A given by its bytes.  Newton
    doubling, W <- W (2I - G W), gets them with FFT products (Brent & Kung,
    J. ACM 25, 1978).  Returns (size, rfft of W at that size) for a
    convolution with N terms, read-only since every caller shares it.  None
    when I - h^alpha A is singular, W is not finite, or W grows past
    ``_GROWTH_CAP`` times W_0; the caller then marches node by node.
    """
    fft = np.fft  # loaded on first use, not at import
    c = gl_coefficients(alpha, n).coeffs
    with np.errstate(all="ignore"):  # overflow shows as a non-finite W below
        try:
            w = np.linalg.inv(np.eye(d) - np.frombuffer(ha_a).reshape(d, d))[None]
        except np.linalg.LinAlgError:
            return None
        m = 1
        while m < n:
            # G W = I + O(z^m), so W (2I - G W) keeps W and appends -W E for
            # the terms E of G W at m..2m-1.  Those are the terms of C W, as
            # h^alpha A W has none past m - 1, and a cyclic product of size
            # 2m folds only terms past 2m, onto 0..m-2
            size = 2 * m
            wh = fft.rfft(w, size, axis=0)
            # operand order is load-bearing: W * c moves last bits a test relies on
            e = fft.irfft(fft.rfft(c[:size], size)[:, None, None] * wh, size, axis=0)[m:]
            w = np.concatenate([w, -fft.irfft(wh @ fft.rfft(e, size, axis=0), size,
                                              axis=0)[:m]])
            m = size
        w = w[:n]
        peak = np.abs(w).max(axis=(1, 2))
        if not (np.isfinite(w).all() and peak.max() <= _GROWTH_CAP * peak[0]):
            return None
    size = 1 << (2 * n - 1).bit_length()
    w_hat = fft.rfft(w, size, axis=0)
    w_hat.flags.writeable = False
    return size, w_hat


def _linear_march(alpha: float, grid: Grid, a_mats: np.ndarray, b_vecs: np.ndarray,
                  start: np.ndarray, reverse: bool = False) -> TimeSeq:
    """March F(x, k) = A_k x + b_k with one direct solve per node.

    ``a_mats`` has shape (N+1, d, d) and ``b_vecs`` shape (N+1, d), both
    indexed by node; the row of the start node is never read.  Each node
    solves (I - h^alpha A_k) y_k = const_k + h^alpha b_k through an inverse
    built, with every other, before the march starts.

    When A_k equals one A at every node, exactly, the march is the
    lower-triangular Toeplitz system (T - h^alpha A) D = s in D_k = y_k - y_0,
    with c_r on the diagonals of T and s_k = h^alpha (A y_0 + b_k) in march
    order.  Its inverse is Toeplitz too, so D is one FFT convolution with the
    coefficients W of :func:`_toeplitz_inverse`, cached on (alpha, N,
    h^alpha A) so that every march of a sweep shares them.  Its round-off
    differs from the node loop's, and where W grows past the cap of that
    function the node loop runs instead.

    That round-off is absolute, about eps max|W| |s| at every node, so the
    bound is norm-wise, not pointwise relative.  With A = 0, alpha 0.5,
    N = 800, y_0 = 0 and b_k = 1 except b_N = 1e8, node 1 is 2.1e-9 off the
    node loop relative to its value, yet no node is off by more than
    1.3e-16 max|y|.  There is no guard on the spread of |s_k|: adjoint
    forcings that are small near the terminal node would fail it and send
    sweep marches back to the node loop.
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
    a = a_mats[nodes[0]]
    if (a_mats[nodes] == a).all():
        series = _toeplitz_inverse(alpha, n, d, (ha * a).tobytes())
        if series is not None:
            size, w_hat = series
            s_hat = np.fft.rfft(ha * (b_vecs[nodes] + a @ start), size, axis=0)
            dev = np.fft.irfft(w_hat @ s_hat[..., None], size, axis=0)[:n, :, 0]
            y = np.vstack([start, start + dev])
            return TimeSeq(y[::-1].copy() if reverse else y)
    g[n if reverse else 0] = np.eye(d)  # the start row is never read
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:  # an exact zero pivot, which det sees too
        singular = np.linalg.det(g[nodes]) == 0.0
        raise SingularNodeError(int(nodes[np.argmax(singular)])) from None
    hb = ha * b_vecs
    if d == 1:  # the march runs on floats
        inv, hb = inv[:, 0, 0], hb[:, 0]

    def solve_node(const, k, _):
        return np.dot(inv[k], const + hb[k])

    return TimeSeq(_march(alpha, grid, start, solve_node, reverse))
