"""Stepwise solvers for discrete fractional Cauchy problems.

The left problem marches k = 1..N through the implicit node equation

    Q_k = h^alpha * F(Q_k, t_k) + Q_0 - sum_{r=1..k-1} c_r (Q_{k-r} - Q_0),

and the right problem mirrors it from the terminal node down; it is the
left march run on reversed node indices.  Both keep the full memory tail.
One private kernel, :func:`_march`, does the marching for every solver in
the package.  It adds the memory of older blocks of ``_BLOCK`` nodes by
FFT products folded in ahead and hands each block, with that far memory,
to a block solver, which sums the memory within the block and solves its
node equations.  One march costs O(N log^2 N) for the memory sums plus
the work of the block solves.  Both block solvers sum the memory within
the block from one scratch block per march (:func:`_near_sums`):

- :func:`_fixed_point_march` solves nonlinear node equations with the
  fixed-point step x <- h^alpha F(x) + const, once it has checked
  h^alpha * K < 1 for the Lipschitz bound K of F its caller passes
  (``ContractionError`` otherwise), under which that step contracts.  One
  loop per block accepts a node once |x - h^alpha F(x) - const| <=
  tol * max(1, |x|) and returns its fixed-point image h^alpha F(x) + const;
  it runs on one Python float a value at d = 1, an unpacked pair at d = 2
  and a list from d = 3 on, and makes no list per block.
  Only h^alpha F(x) in the node equation is unknown, so each node starts
  from const plus the cubic extrapolation of h^alpha F over the last four
  accepted nodes, the first four from y_{j-1}; most nodes then take one
  evaluation.  The two public marches use it;
- :func:`_linear_march` handles F(x, k) = A_k x + b_k with one loop per
  block, solving each node through an inverse built, with every other,
  before the loop starts; it needs only I - h^alpha A_k to be invertible.
  Every march of the Pontryagin sweep is this one: the adjoint, the
  linearized state, and each Newton iterate of the state on the whole
  trajectory.  When A_k is exactly the same at every node the march is a
  Toeplitz solve instead, one FFT convolution with a power series cached on
  (alpha, N, h^alpha A), unless it grows past ``_GROWTH_CAP`` or is not finite.

Every march stops at once, naming the node, when a value turns NaN or
infinite, and the linear one, before it starts, when I - h^alpha A_k is
singular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import count
from operator import add, sub
from typing import Callable

import numpy as np

from .gl_ops import Grid, TimeSeq, _FLOAT, _integer, _order_value, _real, gl_coefficients

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

    def __init__(self, node: int, last_step: float, tol: float,
                 why: str = "after the iteration budget"):
        self.node = node
        self.last_step = last_step
        super().__init__(
            f"iteration at node {node} still off by {last_step:.3e} {why} (tol {tol:.1e})")


class NonFiniteError(ValueError):
    """A start, a right-hand side value or a node iterate is NaN or infinite."""

    def __init__(self, node: int, what: str = "right-hand side value or iterate"):
        self.node = node
        super().__init__(f"non-finite {what} at node {node}")


class SingularNodeError(ValueError):
    """I - h^alpha dF/dx is singular or non-finite at a node."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(
            f"node matrix I - h^alpha dF/dx is singular or non-finite at node {node}; "
            f"is df_dx consistent with f?")


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


# Width of the base blocks of :func:`_march`: a block solver sums the
# deviations of its own block directly, at most _BLOCK - 1 terms a node in one
# dot about as fast at any length up to here, and older ones reach it folded
# by FFT pairs.  A power of two, so that a fold after node j spans j & -j nodes.
_BLOCK = 256

# Largest FFT size whose kernel spectrum one march keeps for its later folds.
# Fold sizes take only log2 N values, and 3 folds in 4 are of this size or
# less, so the cap keeps most reuses while holding the kept spectra to about
# 12 kB per component.
_SPECTRUM_CAP = 1024


def _march(alpha: float, grid: Grid, start: np.ndarray, solve_block,
           reverse: bool = False) -> np.ndarray:
    """Values y_0..y_N of the node equations y_j = h^alpha F(y_j) + const_j.

    y_0 = start, and const_j = y_0 - sum_{i=1..j-1} c_{j-i} (y_i - y_0) is
    the memory term.  With ``reverse`` the march runs on reversed node
    indices, so that march row j is node N - j of the right problem and the
    returned row k is node k.

    The memory term is split as const_j = y_0 - far_j - near_j.  near_j sums
    the deviations of j's own block of ``_BLOCK`` rows directly.  far_j
    holds the older ones and is complete when the block starts, so the
    kernel hands the block of rows lo..hi-1 to ``solve_block(lo, hi, base,
    y)`` with base = y_0 - far_j for its rows, of shape (hi - lo,) at d = 1
    and (hi - lo, d) otherwise.  The block solver adds the near sums, solves
    the block's node equations in march order and writes its rows of y; y
    is 1-D at d = 1, and its row 0 is y_0.  After row j, a multiple of the
    block, the kernel adds the last L = j & -j deviations y_i - y_0 into
    far_{j+1..j+L} by one FFT product of size 2L with c_1..c_{2L-1}, cut
    short where the march ends first (Hairer, Lubich & Schlichte, SIAM J.
    Sci. Stat. Comput. 6, 1985), reusing the kernel spectra of sizes up to
    ``_SPECTRUM_CAP`` within the march.
    These squares tile the block pairs below the diagonal once each, so a
    march costs O(N log^2 N) for the memory sums plus the work of the block
    solves.  The FFT adds a round-off of about eps log L sum_r |c_r|
    |y_{j-r} - y_0| to far_j, norm-wise, not relative to each term.
    """
    n, d = grid.n, start.size
    c = gl_coefficients(alpha, n).coeffs
    shape = (n + 1,) if d == 1 else (n + 1, d)
    y0 = float(start[0]) if d == 1 else start
    cols = c if d == 1 else c[:, None]
    spectra = {}            # FFT size up to the cap -> rfft of cols at that size
    y = np.zeros(shape)     # y_j holds far_j until row j is solved
    y[0] = y0
    for lo in range(1, n + 1, _BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        solve_block(lo, hi, y0 - y[lo:hi], y)
        j = hi - 1
        if j % _BLOCK or j == n:
            continue
        width = j & -j
        targets = min(width, n - j)
        size = width + targets  # 2L, or less where the march ends first
        if size <= _SPECTRUM_CAP and size not in spectra:
            spectra[size] = np.fft.rfft(cols[:size], size, axis=0)
        product = np.fft.rfft(y[j - width + 1:j + 1] - y0, size, axis=0)
        # a spectrum past the cap is a temporary, freed before the irfft
        product *= (spectra[size] if size in spectra
                    else np.fft.rfft(cols[:size], size, axis=0))
        y[j + 1:j + 1 + targets] += np.fft.irfft(product, size, axis=0)[width:]
    y = y.reshape(n + 1, d)
    return y[::-1].copy() if reverse else y


def _near_sums(alpha: float, n: int, d: int) -> tuple:
    """A march's scratch block ``blk`` for the deviations y - y_0 of the block
    being solved, shaped as the kernel's rows, its views[i] = blk[:i] and
    the dots[i] of c_i..c_1, so that block row i's near sum is
    dots[i](views[i])."""
    c = gl_coefficients(alpha, n).coeffs
    rc = np.ascontiguousarray(c[min(_BLOCK - 1, n):0:-1])  # c_{B-1}..c_1
    blk = np.empty((_BLOCK,) if d == 1 else (_BLOCK, d))
    rows = range(rc.size + 1)
    return blk, [blk[:i] for i in rows], [rc[rc.size - i:].dot for i in rows]


def _checked_start(value, name: str, node: int) -> np.ndarray:
    """The start of a march, flattened, refused before any evaluation when
    it is empty or not finite (``NonFiniteError`` at the start node)."""
    start = np.atleast_1d(_real(value, name, "is")).reshape(-1)
    if start.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(start).all():
        raise NonFiniteError(node, f"{name} value")
    return start


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
    return _fixed_point_march(_order_value(alpha), grid, rhs.eval,
                              _checked_start(initial, "initial", 0),
                              rhs.lipschitz_K, opts, memoryview(grid.times))


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
                              lipschitz_K, opts, range(grid.n, -1, -1), reverse=True)


def _fixed_point_march(alpha: float, grid: Grid, field, start: np.ndarray,
                       lipschitz: float, opts: FixedPointOpts | None, at,
                       reverse: bool = False) -> TimeSeq:
    """March with node equations solved by fixed-point steps.

    ``field(x, at[j])`` returns F at march row j, ``at`` sliced a block at a
    time: the left march passes a memoryview of its times, whose items
    reach ``field`` as Python floats, and the right one its node indices
    in march order, ``range(N, -1, -1)``.
    x is a fresh float array of shape (d,) on every call.  A float64 array
    of d elements is taken as it is; any other value goes through
    ``_sized``, so a complex value, or one of any size but d, raises
    ``ValueError``.  The march only reads that value, so a read-only or
    cached array is safe to return.  ``lipschitz`` is a Lipschitz bound K
    of F in x.  A node is accepted on its residual
    r(x) = x - h^alpha F(x) - const once |r| <= tol * max(1, |x|), checked
    before each of at most ``max_iters`` steps and after the last.  Each
    step maps x to its fixed-point image h^alpha F(x) + const = x - r,
    which multiplies |r| by at most h^alpha K; the march refuses
    h^alpha K >= 1 (``ContractionError``), so the step contracts.  Each
    evaluation forms the image once and r as x minus it, and an accepted
    node returns the image, which costs no evaluation and is closer to the
    solution by that same factor.

    const_j is known before node j is solved, so only g = h^alpha F(y_j) is
    to be predicted (the predictor of fractional Adams methods; Diethelm,
    Ford & Freed, Nonlinear Dyn. 29, 2002).  Node j starts from
    const_j + 4 (g_1 + g_3) - 6 g_2 - g_4, with g_1..g_4 the values h^alpha F
    at the last four accepted iterates of this march, newest first: the
    cubic through them, h^alpha times an O(h^4) error on a smooth field,
    where y_{j-1} is O(h) off.  The first four nodes start from y_{j-1}.
    The four values are locals of the block loop, shifted down by one at
    each accepted node, and kept in ``hist`` from one block to the next.
    The start reuses values the loop computed, so it costs no evaluation.
    The fixed point is unique, so the start moves only the path to it: 1.01
    evaluations per node on the march benchmark, where a start from y_{j-1}
    takes 3.99 and one extrapolated from the nodes themselves 1.63.

    The kernel hands over a block of ``_BLOCK`` rows at a time, and one loop
    solves them in march order, each node's near sum, start, steps and
    history shift inline, the near sum from the march's scratch block
    (:func:`_near_sums`), into whose row i it writes row i's deviation; at
    row 0 that sum is an empty dot, 0.  Const, the iterate, its image, the
    residual and the four values g are Python floats, where a small array
    costs more than the arithmetic: one each at d = 1, an unpacked pair at
    d = 2 (two-component public marches such as the benchmark's ``left-d2``
    and ``right-d2`` ops, not the planar sweep, whose marches are linear), a
    list from d = 3 on.  |r| and |x| are then maxima over the components,
    with a NaN past the first component checked apart, since a maximum keeps
    a NaN only first.  The loop reads base and the times through memoryviews
    and writes each row of y and of the scratch block through them, element
    by element, so no block builds a list of its floats.
    """
    ha = grid.h ** alpha
    if not ha * lipschitz < 1.0:  # NaN too
        raise ContractionError(
            f"h^alpha * K = {ha * lipschitz:.6g} >= 1; refine the grid or rescale")
    opts = opts or FixedPointOpts()
    tol, max_iters = opts.tol, opts.max_iters
    n, d = grid.n, start.size
    nodes = range(n, -1, -1) if reverse else range(n + 1)  # node of march row j
    steps = range(max_iters + 1)
    blk, views, dots = _near_sums(alpha, n, d)
    devs = memoryview(blk)  # writes a float faster than blk's own indexing
    hist = [0.0] * (8 if d == 2 else 4)  # g1..g4 between blocks, per component at d = 2
    array, ndarray, isfinite = np.array, np.ndarray, math.isfinite

    if d == 1:
        y0 = float(start[0])

        def solve_block(lo, hi, base, y):
            g1, g2, g3, g4 = hist
            args = at[lo:hi]
            rows, first, x = memoryview(y[lo:hi]), 4 - lo, y0  # rows past 4: i > first
            for i, b, arg, dot, view in zip(count(), memoryview(base), args, dots, views):
                const = b - float(dot(view))
                if i > first:
                    x = const + (4.0 * (g1 + g3) - 6.0 * g2 - g4)
                for _ in steps:
                    v = field(array([x]), arg)
                    if not (type(v) is ndarray and v.dtype is _FLOAT and v.size == 1):
                        v = _sized(v, 1)
                    g = ha * v.item()
                    fixed = g + const
                    err = abs(x - fixed)
                    if not isfinite(err):
                        raise NonFiniteError(nodes[lo + i])
                    if err <= tol or err <= tol * abs(x):  # err <= tol * max(1, |x|)
                        break
                    x = fixed
                else:
                    raise FixedPointDivergenceError(nodes[lo + i], err, tol)
                g4, g3, g2, g1 = g3, g2, g1, g
                rows[i] = fixed
                devs[i] = fixed - y0
                x = fixed
            hist[:] = g1, g2, g3, g4
    elif d == 2:
        y00, y01 = start.tolist()

        def solve_block(lo, hi, base, y):
            g1, g2, g3, g4, e1, e2, e3, e4 = hist  # first components g, second e
            args = at[lo:hi]
            rows, first, x0, x1 = memoryview(y[lo:hi]), 4 - lo, y00, y01
            b0s, b1s = memoryview(base[:, 0]), memoryview(base[:, 1])
            for i, b0, b1, arg, dot, view in zip(count(), b0s, b1s, args, dots, views):
                s0, s1 = dot(view).tolist()
                const0, const1 = b0 - s0, b1 - s1
                if i > first:
                    x0 = const0 + (4.0 * (g1 + g3) - 6.0 * g2 - g4)
                    x1 = const1 + (4.0 * (e1 + e3) - 6.0 * e2 - e4)
                for _ in steps:
                    v = field(array([x0, x1]), arg)
                    if not (type(v) is ndarray and v.dtype is _FLOAT and v.size == 2):
                        v = _sized(v, 2)
                    v0, v1 = (v if v.ndim == 1 else v.reshape(-1)).tolist()
                    h0, h1 = ha * v0, ha * v1
                    fixed0, fixed1 = h0 + const0, h1 + const1
                    r0, r1 = abs(x0 - fixed0), abs(x1 - fixed1)
                    err = r1 if r1 > r0 else r0  # max(r0, r1), which keeps a NaN r0
                    if not isfinite(err) or r1 != r1:
                        raise NonFiniteError(nodes[lo + i])
                    if err <= tol or err <= tol * max(abs(x0), abs(x1)):
                        break
                    x0, x1 = fixed0, fixed1
                else:
                    raise FixedPointDivergenceError(nodes[lo + i], err, tol)
                g4, g3, g2, g1 = g3, g2, g1, h0
                e4, e3, e2, e1 = e3, e2, e1, h1
                rows[i, 0], rows[i, 1] = fixed0, fixed1
                devs[i, 0], devs[i, 1] = fixed0 - y00, fixed1 - y01
                x0, x1 = fixed0, fixed1
            hist[:] = g1, g2, g3, g4, e1, e2, e3, e4
    else:
        y0 = start.tolist()

        def solve_block(lo, hi, base, y):
            g1, g2, g3, g4 = hist
            args = at[lo:hi]
            rows, first, x = memoryview(y[lo:hi]), 4 - lo, y0
            bases = zip(*map(memoryview, base.T))  # row i of base as a tuple of floats
            for i, b, arg, dot, view in zip(count(), bases, args, dots, views):
                const = list(map(sub, b, dot(view).tolist()))
                if i > first:
                    x = [cq + (4.0 * (p1 + p3) - 6.0 * p2 - p4) for cq, p1, p2, p3, p4
                         in zip(const, g1, g2, g3, g4)]
                for _ in steps:
                    v = field(array(x), arg)
                    if not (type(v) is ndarray and v.dtype is _FLOAT and v.size == d):
                        v = _sized(v, d)
                    g = [ha * vq for vq in (v if v.ndim == 1 else v.reshape(-1)).tolist()]
                    fixed = list(map(add, g, const))
                    r = list(map(sub, x, fixed))
                    err = max(map(abs, r))
                    if not isfinite(err) or math.isnan(sum(r)):
                        raise NonFiniteError(nodes[lo + i])
                    if err <= tol or err <= tol * max(map(abs, x)):
                        break
                    x = fixed
                else:
                    raise FixedPointDivergenceError(nodes[lo + i], err, tol)
                g4, g3, g2, g1 = g3, g2, g1, g
                for q, fq, y0q in zip(range(d), fixed, y0):
                    rows[i, q] = fq
                    devs[i, q] = fq - y0q
                x = fixed
            hist[:] = g1, g2, g3, g4

    return TimeSeq(_march(alpha, grid, start, solve_block, reverse))


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
                  start: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Node array y_0..y_N of the march F(x, k) = A_k x + b_k from ``start``.

    ``a_mats`` is one (d, d) matrix A for every node, or an (N, d, d) stack
    of A_k, and ``b_vecs`` is (N, d).  Row i of each is the i-th node the
    march solves, in node order: nodes 1..N, or nodes 0..N-1 with
    ``reverse``, where ``start`` is y_N.  Both are read as views in march
    order.  Node k solves
    (I - h^alpha A_k) y_k = const_k + h^alpha b_k through an inverse built,
    with every other, before a block loop that adds each node's near sum
    first; one matrix A has one inverse, read at every node.  A non-finite
    A_k or b_k (``SingularNodeError`` or ``NonFiniteError``) and a singular
    I - h^alpha A_k (``SingularNodeError``) are named before any node is
    solved, at the first such node in march order.

    When A_k is one matrix, or a stack whose rows all equal the first
    exactly, the march is the lower-triangular Toeplitz system
    (T - h^alpha A) D = s in D_k = y_k - y_0, with c_r on the diagonals of
    T and s_k = h^alpha (A y_0 + b_k) in march order.  One matrix is taken
    with no scan, and D is written into the rows of y in place.  The
    inverse is Toeplitz too, so D is one FFT convolution with the
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
    order = slice(None, None, -1 if reverse else 1)  # operand rows in march order
    nodes = range(n - 1, -1, -1) if reverse else range(1, n + 1)  # node of march row 1..N
    a, b_k = a_mats, b_vecs[order]  # views
    if a.ndim == 3:  # a stack is one matrix when every A_k equals the first
        a = a[order]
        a = a[0] if (a == a[0]).all() else a
    g = np.eye(d) - ha * a
    if not (np.isfinite(g).all() and np.isfinite(b_k).all()):
        singular = np.broadcast_to(~np.isfinite(g).all(axis=(-2, -1)), n)
        bad = singular | ~np.isfinite(b_k).all(axis=1)
        j = int(np.argmax(bad))  # a non-finite A_k also spoils b_k of a linearization
        raise (SingularNodeError if singular[j] else NonFiniteError)(nodes[j])
    if a.ndim == 2:
        series = _toeplitz_inverse(alpha, n, d, (ha * a).tobytes())
        if series is not None:
            size, w_hat = series
            s_hat = np.fft.rfft(ha * (b_k + a @ start), size, axis=0)
            dev = np.fft.irfft(w_hat @ s_hat[..., None], size, axis=0)[:n, :, 0]
            y = np.empty((n + 1, d))
            rows = y[::-1] if reverse else y  # y in march order
            rows[0] = start
            np.add(start, dev, out=rows[1:])
            return y
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:  # an exact zero pivot, which det sees too
        raise SingularNodeError(nodes[int(np.argmax(np.linalg.det(g) == 0.0))]) from None
    inv = np.broadcast_to(inv, (n, d, d))  # one matrix's inverse at every node
    hb = ha * b_k
    blk, views, dots = _near_sums(alpha, n, d)

    if d == 1:  # the kernel's rows are floats, and so are the node solves
        inv, hb, y0, devs = inv[:, 0, 0], hb[:, 0], float(start[0]), memoryview(blk)

        def solve_block(lo, hi, base, y):
            rows = memoryview(y[lo:hi])
            for i, b, dot, view, a, f in zip(count(), memoryview(base), dots, views,
                                             memoryview(inv[lo - 1:hi - 1]),
                                             memoryview(hb[lo - 1:hi - 1])):
                rows[i] = x = a * (b - float(dot(view)) + f)
                devs[i] = x - y0
    else:
        def solve_block(lo, hi, base, y):
            for i, j in enumerate(range(lo, hi)):
                y[j] = x = np.dot(inv[j - 1], base[i] - dots[i](views[i]) + hb[j - 1])
                blk[i] = x - start

    return _march(alpha, grid, start, solve_block, reverse)
