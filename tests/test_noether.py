"""Summation-identity matrices, conserved sequences and invariance probes."""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import (Grid, OcpProblem, OneParamGroup, SweepOpts, TimeSeq,
                    build_example, conserved_quantity, delta_minus, dense_matrix,
                    gl_coefficients, group_axiom_defect, invariance_residual,
                    matrix_entry, rotation_groups, solve_pontryagin,
                    transfer_residual)
from fracoc import noether
from fracoc.gl_ops import _SECTION

ALPHAS = (0.25, 0.5, 0.75, 1.0)
SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])


def exact_half_order_weights(n):
    """The order-1/2 weights as exact rationals, for golden comparisons."""
    c = [Fraction(1)]
    for r in range(1, n + 1):
        c.append(c[-1] * Fraction(2 * (r - 1) - 1, 2 * r))
    b = np.cumsum([float(x) for x in c])
    return np.array([float(x) for x in c]), b


def skew_problem(alpha, n):
    # rotation-equivariant dynamics that keep the adjoint off the state ray,
    # so the invariant below is conserved without being identically zero
    return OcpProblem(
        d=2, m=2, alpha=alpha, grid=Grid(0.0, 1.0, n), initial=np.array([1.0, 2.0]),
        L=lambda x, v, t: 0.5 * (float(x @ x) + float(v @ v)),
        dL_dx=lambda x, v, t: x,
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: SKEW @ x + v,
        df_dx=lambda x, v, t: SKEW.copy(),
        df_dv=lambda x, v, t: np.eye(2),
        lipschitz_M=1.0,
        control_update=lambda x, w, t: -w,
    )


# -- the matrix families ---------------------------------------------------------

def test_band_family_base_case_is_identity():
    npt.assert_array_equal(dense_matrix("B", 1, 0.5, 6), np.eye(7))


@pytest.mark.parametrize("r", (1, 2, 4))
def test_first_column_family_indicator(r):
    n = 5
    expect = np.zeros((6, 6))
    expect[r:, 0] = 1.0
    npt.assert_array_equal(dense_matrix("C", r, 0.5, n), expect)


def test_combined_family_five_node_golden():
    c, b = exact_half_order_weights(5)
    computed = gl_coefficients(0.5, 5)
    npt.assert_allclose(computed.coeffs, c, atol=1e-16)
    npt.assert_allclose(computed.partial_sums, b, atol=1e-16)

    golden_1 = np.array([
        [c[1], 0, 0, 0, 0, 0],
        [b[1], c[1], 0, 0, 0, 0],
        [b[1], 0, c[1], 0, 0, 0],
        [b[1], 0, 0, c[1], 0, 0],
        [b[1], 0, 0, 0, c[1], 0],
        [b[1], 0, 0, 0, 0, c[1]],
    ])
    golden_5 = np.zeros((6, 6))
    golden_5[5, 0] = b[5] - c[5]

    for r, golden in ((1, golden_1), (5, golden_5)):
        got = dense_matrix("A", r, 0.5, 5)
        npt.assert_allclose(got, golden, atol=1e-15)
        npt.assert_array_equal(got == 0.0, golden == 0.0)


def test_matrix_entry_validation():
    with pytest.raises(ValueError):
        matrix_entry("B", 0, 0, 0, 0.5, 5)
    with pytest.raises(ValueError):
        matrix_entry("B", 6, 0, 0, 0.5, 5)
    with pytest.raises(ValueError):
        matrix_entry("A", 1, -1, 0, 0.5, 5)
    with pytest.raises(ValueError):
        matrix_entry("A", 1, 0, 6, 0.5, 5)
    with pytest.raises(ValueError):
        matrix_entry("Q", 1, 0, 0, 0.5, 5)


# -- the weighted shift sum --------------------------------------------------------

def test_shift_sum_two_step_hand_cases():
    grid = Grid(0.0, 1.0, 2)
    g = TimeSeq([1.0, 2.0, 4.0])
    p = TimeSeq([3.0, 5.0, 0.0])

    # order 1: A_1 = -identity, A_2 = 0, so S_i = -g_i p_i
    s1 = conserved_quantity(1.0, grid, g, p)
    npt.assert_array_equal(s1.values[:, 0], [-3.0, -10.0, 0.0])

    # order 1/2: dyadic weights make the expansion exact
    s_half = conserved_quantity(0.5, grid, g, p)
    npt.assert_array_equal(s_half.values[:, 0], [-1.5, -3.5, 4.0])


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (1, 2, 3, 9, 24, 50))
def test_shift_sum_matches_dense_expansion(alpha, n):
    rng = np.random.default_rng(17 * n + int(10 * alpha))
    for dim in (1, 2):
        g = rng.normal(size=(n + 1, dim))
        p = rng.normal(size=(n + 1, dim))
        dense = np.zeros(n + 1)
        for r in range(1, n + 1):
            x_r = np.zeros(n + 1)
            for j in range(n - r + 2):
                x_r[j] = g[j] @ p[j + r - 1]
            dense += dense_matrix("A", r, alpha, n) @ x_r
        fast = conserved_quantity(alpha, Grid(0.0, 1.0, n), TimeSeq(g), TimeSeq(p))
        npt.assert_allclose(fast.values[:, 0], dense,
                            atol=1e-12 * max(1.0, np.max(np.abs(dense))))


def per_depth_shift_sum(alpha, n, g, p):
    """The O(n^2) evaluation with one prefix sum and three slice updates per depth."""
    co = gl_coefficients(alpha, n)
    c, b = co.coeffs, co.partial_sums
    out = np.zeros(n + 1)
    out += c[1] * np.einsum("kd,kd->k", g, p)
    dots0 = p[:n] @ g[0]
    out[1:] += np.cumsum(b[1:] * dots0)
    out[2:] -= np.cumsum(c[2:] * dots0[1:])
    for r in range(2, n):
        pre = c[r] * np.cumsum(np.einsum("jd,jd->j", g[1 : n - r + 1], p[r:n]))
        out[1 : n - r + 1] += pre
        out[n - r + 1 : n] += pre[-1]
        out[r + 1 : n] -= pre[: n - r - 1]
    return out


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (63, 64, 65, 67, 127, 128, 129, 130, 257, 1000))
def test_shift_sum_matches_per_depth_loop(alpha, n):
    # past 64 rows the band is split and its cross pairs go through the FFT;
    # rows 1..66 and 1..129 need an FFT size just past, and just at, 2^k
    rng = np.random.default_rng(n + int(100 * alpha))
    for dim in (1, 2, 3):
        g = rng.normal(size=(n + 1, dim))
        p = rng.normal(size=(n + 1, dim))
        ref = per_depth_shift_sum(alpha, n, g, p)
        got = conserved_quantity(alpha, Grid(0.0, 1.0, n), TimeSeq(g),
                                 TimeSeq(p)).values[:, 0]
        if alpha == 1.0:  # every band weight is 0, so nothing is rounded
            npt.assert_array_equal(got, ref)
        else:
            npt.assert_allclose(got, ref, rtol=0,
                                atol=1e-13 * max(1.0, np.max(np.abs(ref))))


def gram_leaf(c, g, p, out, lo, hi):
    """A masked Gram sum: every pair of rows weighted, then a suffix sum
    over m and a column sum over j."""
    k = np.arange(hi - lo)
    weights = np.triu(c[np.abs(k[None, :] - k[:, None] + 1)], 1)
    gram = weights * np.einsum("jd,md->jm", g[lo:hi], p[lo:hi])
    tails = np.cumsum(gram[:, ::-1], axis=1)[:, ::-1]
    out[lo:hi] += np.triu(tails).sum(axis=0)


def recursive_band_sum(c, g, p, out, lo, hi, leaf=gram_leaf):
    """The band pairs lo <= j < m < hi added into rows lo..hi-1 by halving
    the rows: each block's halves first, then its cross terms, in which a
    pair with j < mid <= m adds c_{m-j+1} g_j . p_m to each row in [j, m]."""
    w = hi - lo
    if w <= 64:
        leaf(c, g, p, out, lo, hi)
        return
    mid = (lo + hi) // 2
    recursive_band_sum(c, g, p, out, lo, mid, leaf)
    recursive_band_sum(c, g, p, out, mid, hi, leaf)
    nl, nr = mid - lo, hi - mid
    size = 1 << (w - 2).bit_length()
    kernel = np.fft.rfft(c[2:w + 1], size)[:, None]
    v = np.fft.irfft(np.fft.rfft(g[lo:mid], size, axis=0) * kernel, size, axis=0)
    u = np.fft.irfft(np.fft.rfft(p[mid:hi][::-1], size, axis=0) * kernel, size, axis=0)
    out[lo:mid] += np.cumsum(np.einsum("jd,jd->j", g[lo:mid],
                                       u[nr - 1:nr - 1 + nl][::-1]))
    out[mid:hi] += np.cumsum(np.einsum("md,md->m", p[mid:hi],
                                       v[nl - 1:nl - 1 + nr])[::-1])[::-1]


def recursive_shift_sum(alpha, n, g, p):
    """The weighted shift sum with its band part from ``recursive_band_sum``."""
    co = gl_coefficients(alpha, n)
    c, b = co.coeffs, co.partial_sums
    out = np.zeros(n + 1)
    with np.errstate(invalid="ignore"):
        out += c[1] * np.einsum("kd,kd->k", g, p)
        dots0 = p[:n] @ g[0]
        out[1:] += np.cumsum(b[1:] * dots0)
        out[2:] -= np.cumsum(c[2:] * dots0[1:])
        recursive_band_sum(c, g, p, out, 1, n)
    return out


@pytest.mark.parametrize("w", (1, 2, 3, 49, 50, 63, 64))
def test_product_leaf_matches_the_gram_leaf(w):
    # three blocks of w rows, none starting at row 1, each by the band
    # sum's causal products against its Gram sum
    rng = np.random.default_rng(w)
    for alpha in (0.3, 0.6, 1.0):
        c = gl_coefficients(alpha, 64).coeffs
        for d in (1, 2, 3):
            g, p = rng.normal(size=(4 * w, d)), rng.normal(size=(4 * w, d))
            got, ref = np.zeros(4 * w), np.zeros(4 * w)
            for lo in (0, w, 3 * w):
                noether._band_pairs(c, g, p, got, lo, lo + w)
                gram_leaf(c, g, p, ref, lo, lo + w)
            if alpha == 1.0:  # every band weight is 0, so nothing is rounded
                npt.assert_array_equal(got, ref)
            else:
                assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("n", (1, 2, 3, 4, 50, 51, 63, 64, 65, 67, 127, 128, 129, 130,
                               257, 1000, 3200, 6401, 25600))
def test_band_sum_matches_the_recursion(n):
    # from n = 1026 on the band's causal products are sectioned FFT products;
    # p_n is left nonzero, since the band sum does not lean on p_n = 0
    rng = np.random.default_rng(n)
    grid = Grid(0.0, 1.0, n)
    for d in (1, 2, 3):
        g, p = rng.normal(size=(n + 1, d)), rng.normal(size=(n + 1, d))
        for alpha in (0.3, 0.6, 1.0):
            got = conserved_quantity(alpha, grid, TimeSeq(g), TimeSeq(p)).values[:, 0]
            ref = recursive_shift_sum(alpha, n, g, p)
            if alpha == 1.0:  # every band weight is 0, so nothing is rounded
                npt.assert_array_equal(got, ref)
            else:
                npt.assert_allclose(got, ref, rtol=0,
                                    atol=1e-13 * max(1.0, np.max(np.abs(ref))))


@pytest.mark.parametrize("n", (130, 1000, 6401))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("where", ("g", "p"))
def test_band_sum_keeps_a_bad_value_where_the_gram_leaf_kept_it(n, bad, where):
    # a NaN or inf sends the causal products' rows from its section on to
    # their direct sums, so it spoils the rows it reaches and no others (at
    # n 6401 it sits past the first section); whether a spoiled row reads
    # NaN or inf depends on the order in which infs meet, so only the set of
    # spoiled rows is compared
    rng = np.random.default_rng(n)
    g, p = rng.normal(size=(n + 1, 2)), rng.normal(size=(n + 1, 2))
    (g if where == "g" else p)[n // 3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = conserved_quantity(0.6, Grid(0.0, 1.0, n), TimeSeq(g),
                                 TimeSeq(p)).values[:, 0]
    spoiled = ~np.isfinite(recursive_shift_sum(0.6, n, g, p))
    assert 0 < spoiled.sum() < n + 1
    npt.assert_array_equal(~np.isfinite(inv), spoiled)
    if where == "g":  # g_j reaches rows j and after only
        assert np.flatnonzero(spoiled)[0] == n // 3


@pytest.mark.parametrize("n", (130, 1000, 6401))
def test_band_sum_level_walk_keeps_the_recursions_nan_pattern(n):
    # a NaN, unlike an inf, cannot turn into an inf, so the rows the
    # recursion reads NaN are the band sum's NaN rows, label included
    rng = np.random.default_rng(n)
    g, p = rng.normal(size=(n + 1, 2)), rng.normal(size=(n + 1, 2))
    g[n // 3, 1] = np.nan
    inv = conserved_quantity(0.6, Grid(0.0, 1.0, n), TimeSeq(g),
                             TimeSeq(p)).values[:, 0]
    ref = recursive_shift_sum(0.6, n, g, p)
    assert 0 < np.isnan(ref).sum() < n + 1
    npt.assert_array_equal(np.isnan(inv), np.isnan(ref))
    finite = ~np.isnan(ref)
    npt.assert_array_equal(np.isfinite(inv), finite)
    npt.assert_allclose(inv[finite], ref[finite], rtol=0,
                        atol=1e-13 * max(1.0, np.max(np.abs(ref[finite]))))


@pytest.mark.parametrize("n", (130, 1000))
@pytest.mark.parametrize("where", ("g", "p"))
def test_an_inf_input_is_taken_without_a_warning(n, where):
    # as delta_minus takes it: the inf meets zero weights and an opposite inf
    # in the band sum's products, and the NaN rows that make are the answer
    rng = np.random.default_rng(n)
    g, p = rng.normal(size=(n + 1, 2)), rng.normal(size=(n + 1, 2))
    p[n] = 0.0
    (g if where == "g" else p)[43, 1] = np.inf
    grid, gs, ps = Grid(0.0, 1.0, n), TimeSeq(g), TimeSeq(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta_minus(0.6, grid, gs, caputo=True)
        inv = conserved_quantity(0.6, grid, gs, ps).values[:, 0]
        assert math.isnan(transfer_residual(0.6, grid, gs, ps))
    assert 0 < np.isnan(inv).sum() < n + 1
    npt.assert_array_equal(~np.isfinite(inv), ~np.isfinite(recursive_shift_sum(0.6, n, g, p)))


def test_an_inf_in_the_last_row_costs_about_what_finite_input_costs(monkeypatch):
    # g_{N-2} is the last row the band sum's products take.  A bad entry
    # sends only the rows of its own section of the product and later to
    # the direct sum, here fewer than _SECTION rows, where the whole direct
    # sum would add about N^2 / 2 terms a column; the FFT sections before
    # it cost what they cost on finite input
    alpha, grid = 0.6, Grid(0.0, 1.0, 25600)
    rng = np.random.default_rng(7)
    g, p = rng.normal(size=(grid.n + 1, 2)), rng.normal(size=(grid.n + 1, 2))
    p[-1] = 0.0
    spoiled = g.copy()
    spoiled[-3, 0] = np.inf
    pairs = ((TimeSeq(g), TimeSeq(p)), (TimeSeq(spoiled), TimeSeq(p)))
    convolve, terms = np.convolve, []

    def counted(a, v, mode="full"):
        short, long = sorted((len(a), len(v)))
        terms.append(short * (long - short + 1 if mode == "valid" else long))
        return convolve(a, v, mode)

    monkeypatch.setattr(np, "convolve", counted)
    inv = conserved_quantity(alpha, grid, *pairs[1]).values[:, 0]
    npt.assert_array_equal(np.flatnonzero(~np.isfinite(inv)), [grid.n - 2, grid.n - 1])
    assert 0 < sum(terms) <= 2 * _SECTION * grid.n
    monkeypatch.undo()
    best = [math.inf, math.inf]
    for _ in range(5):  # interleaved, so that a slower spell hits both
        for case, pair in enumerate(pairs):
            started = time.perf_counter()
            conserved_quantity(alpha, grid, *pair)
            best[case] = min(best[case], time.perf_counter() - started)
    assert best[1] <= 3.0 * best[0], f"{best[1]:.4f} s against {best[0]:.4f} s"


def test_conserved_quantity_validation():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        conserved_quantity(0.5, grid, TimeSeq.zeros(3), TimeSeq.zeros(4))
    with pytest.raises(ValueError):
        conserved_quantity(0.5, grid, TimeSeq.zeros(4, 2), TimeSeq.zeros(4))
    with pytest.raises(ValueError, match="p has dimension 2, expected 1"):
        conserved_quantity(0.5, grid, TimeSeq.zeros(4), TimeSeq.zeros(4, 2))
    # every row of both sequences enters the sum, slot 0 included
    with pytest.raises(ValueError):
        conserved_quantity(0.5, grid, TimeSeq(np.ones((5, 1)), 1, 4), TimeSeq.zeros(4))
    with pytest.raises(ValueError):
        conserved_quantity(0.5, grid, TimeSeq.zeros(4), TimeSeq(np.ones((5, 1)), 0, 3))


# -- the transfer identity -----------------------------------------------------------

def test_transfer_identity_two_step_hand_case():
    grid = Grid(0.0, 1.0, 2)
    g1 = TimeSeq([1.0, 2.0, 4.0])
    g2 = TimeSeq([3.0, 5.0, 0.0])
    assert transfer_residual(1.0, grid, g1, g2) == 0.0
    # the half-order scale factor h^(1-a) is irrational, so only near-exact
    assert transfer_residual(0.5, grid, g1, g2) <= 1e-15


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (1, 2, 5, 17, 64))
def test_transfer_identity_random_suite(alpha, n):
    rng = np.random.default_rng(31 * n + int(10 * alpha))
    grid = Grid(0.0, 1.0, n)
    for dim in (1, 3):
        for _ in range(5):
            g1 = TimeSeq(rng.normal(size=(n + 1, dim)))
            vals = rng.normal(size=(n + 1, dim))
            vals[n] = 0.0
            g2 = TimeSeq(vals)
            scale = max(1.0, g1.sup_norm() * g2.sup_norm() / grid.h ** alpha)
            assert transfer_residual(alpha, grid, g1, g2) <= 1e-11 * scale


def test_transfer_identity_requires_terminal_zero():
    grid = Grid(0.0, 1.0, 3)
    g = TimeSeq(np.ones((4, 1)))
    with pytest.raises(ValueError):
        transfer_residual(0.5, grid, g, g)
    with pytest.raises(ValueError):
        transfer_residual(0.5, grid, g, TimeSeq(np.zeros((4, 2))))


def test_transfer_identity_checks_slot_counts():
    grid = Grid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="g1 has 6 slots"):
        transfer_residual(0.5, grid, TimeSeq(np.ones((6, 1))), TimeSeq.zeros(3))
    with pytest.raises(ValueError, match="g2 has dimension 1, expected 2"):
        transfer_residual(0.5, grid, TimeSeq(np.ones((4, 2))), TimeSeq.zeros(3))


# -- conservation along solutions ------------------------------------------------------

@pytest.mark.parametrize("alpha", (1.0, 0.5))
def test_rotation_example_invariant_vanishes(alpha):
    # the isotropic problem keeps P on the state ray, pinning the invariant at 0
    problem = build_example("rotation", alpha, 50)
    sol = solve_pontryagin(problem)
    gen = TimeSeq(sol.Q.values @ SKEW.T)
    inv = conserved_quantity(alpha, problem.grid, gen, sol.P)
    scale = 1.0 + sol.P.sup_norm() * sol.Q.sup_norm()
    assert np.max(np.abs(inv.values)) <= 1e-12 * scale


@pytest.mark.parametrize("alpha", (0.75, 0.5))
def test_skew_dynamics_conserve_a_nonzero_invariant(alpha):
    problem = skew_problem(alpha, 60)
    opts = SweepOpts(tol_stationarity=1e-11, tol_control=1e-11)
    sol = solve_pontryagin(problem, opts=opts)
    gen = TimeSeq(sol.Q.values @ SKEW.T)
    inv = conserved_quantity(alpha, problem.grid, gen, sol.P).values[:, 0]
    assert np.max(np.abs(inv)) >= 0.1
    drift = np.max(np.abs(inv - inv[0]))
    assert drift <= 1e-9 * (1.0 + np.max(np.abs(inv)))


def test_conservation_needs_the_solution():
    # same generator, same problem, but a perturbed adjoint loses constancy
    alpha = 0.5
    problem = skew_problem(alpha, 60)
    sol = solve_pontryagin(problem)
    gen = TimeSeq(sol.Q.values @ SKEW.T)
    p_bad = TimeSeq(sol.P.values * (1.0 + 0.05 * np.sin(np.arange(61))[:, None]))
    inv = conserved_quantity(alpha, problem.grid, gen, p_bad).values[:, 0]
    assert np.max(np.abs(inv - inv[0])) > 1e-3


# -- invariance sampling ------------------------------------------------------------------

def test_rotation_bracket_is_invariant_along_solutions():
    problem = build_example("rotation", 0.75, 40)
    sol = solve_pontryagin(problem)
    res = invariance_residual(problem, rotation_groups(), sol,
                              (-1.0, -0.5, 0.5, 1.0))
    assert res <= 1e-9


def test_stacked_rotations_move_each_row_bit_for_bit():
    rows = np.random.default_rng(31).normal(size=(50, 2))
    for theta, group in zip((1.0, 1.0, -1.0), rotation_groups()):
        for s in (-0.7, 0.0, 0.3, 2.5):
            c, sn = math.cos(s * theta), math.sin(s * theta)
            # the matrix entries written out per row
            expect = np.array([[c * x[0] - sn * x[1], sn * x[0] + c * x[1]] for x in rows])
            npt.assert_array_equal(group.map(s, rows), expect)
            npt.assert_array_equal(group.map(s, rows),
                                   np.stack([group.map(s, x) for x in rows]))
        npt.assert_array_equal(group.generator(rows),
                               [[-theta * x[1], theta * x[0]] for x in rows])


def test_stacked_invariance_residual_matches_the_per_row_path():
    problem = build_example("rotation", 0.6, 30)
    sol = solve_pontryagin(problem)
    samples = (-0.8, 0.1, 0.9)
    stacked = invariance_residual(problem, rotation_groups(), sol, samples)

    def per_row(group):  # the map and generator applied one row at a time
        return OneParamGroup(map=lambda s, xs: np.stack([group.map(s, x) for x in xs]),
                             generator=lambda xs: np.stack([group.generator(x) for x in xs]))

    rows = invariance_residual(problem, [per_row(g) for g in rotation_groups()],
                               sol, samples)
    assert stacked == rows


def test_invariance_residual_calls_a_stacked_group_once_per_sample():
    problem = build_example("rotation", 0.5, 12)
    sol = solve_pontryagin(problem)
    shapes = []

    def counted(group):
        def move(s, x):
            shapes.append(x.shape)
            return group.map(s, x)
        return dataclasses.replace(group, map=move)

    samples = (-1.0, 0.25, 0.5)
    invariance_residual(problem, [counted(g) for g in rotation_groups()], sol, samples)
    n = problem.grid.n
    assert shapes == [(n + 1, 2), (n, 2), (n, 2)] * len(samples)


def test_invariance_residual_refuses_a_stacked_map_of_the_wrong_shape():
    problem = build_example("rotation", 0.75, 20)
    sol = solve_pontryagin(problem)
    phi1, phi2, phi3 = rotation_groups()
    for wrong in (lambda s, x: x[:-1], lambda s, x: x[:, :1], lambda s, x: x.T):
        broken = dataclasses.replace(phi2, map=wrong)
        with pytest.raises(ValueError, match="^a group map returned shape"):
            invariance_residual(problem, (phi1, broken, phi3), sol, (0.5,))


def test_invariance_residual_reports_a_nan_stacked_map():
    problem = build_example("rotation", 0.75, 20)
    sol = solve_pontryagin(problem)
    phi1, phi2, phi3 = rotation_groups()
    broken = dataclasses.replace(phi3, map=lambda s, x: np.full(x.shape, np.nan))
    res = invariance_residual(problem, (phi1, phi2, broken), sol, (0.5,))
    assert np.isnan(res)


def test_invariance_residual_checks_its_windows():
    problem = build_example("rotation", 0.5, 12)
    sol = solve_pontryagin(problem)
    off_grid = TimeSeq(np.zeros((10, 2)))
    no_p0 = TimeSeq(sol.P.values, 1)  # P_0 is read
    for field, seq, message in (("Q", off_grid, "state has 10 slots"),
                                ("U", off_grid, "control has 10 slots"),
                                ("P", off_grid, "adjoint has 10 slots"),
                                ("P", no_p0, "adjoint must be valid"),
                                ("P", TimeSeq(np.zeros((13, 1))),
                                 "adjoint has dimension 1, expected 2")):
        broken = dataclasses.replace(sol, **{field: seq})
        with pytest.raises(ValueError, match=message):
            invariance_residual(problem, rotation_groups(), broken, (0.5,))


def test_anisotropic_cost_breaks_rotation_invariance():
    eye = np.eye(2)
    problem = OcpProblem(
        d=2, m=2, alpha=0.5, grid=Grid(0.0, 1.0, 40), initial=np.array([1.0, 2.0]),
        L=lambda x, v, t: (1.0 - t) * x[0] + 0.5 * float(v @ v),
        dL_dx=lambda x, v, t: np.array([1.0 - t, 0.0]),
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: x + v,
        df_dx=lambda x, v, t: eye,
        df_dv=lambda x, v, t: eye,
        lipschitz_M=1.0,
        control_update=lambda x, w, t: -w,
    )
    sol = solve_pontryagin(problem)
    res = invariance_residual(problem, rotation_groups(), sol,
                              (-1.0, -0.5, 0.5, 1.0))
    assert res >= 0.1


def test_group_axioms_hold_for_rotations():
    rng = np.random.default_rng(23)
    points = [rng.normal(size=2) for _ in range(10)]
    for group in rotation_groups():
        assert group_axiom_defect(group, points) <= 1e-8


def test_group_axioms_catch_a_wrong_generator():
    rot = rotation_groups()[0]
    broken = OneParamGroup(map=rot.map, generator=lambda x: 2.0 * rot.generator(x))
    points = [np.array([1.0, 0.5])]
    assert group_axiom_defect(broken, points) >= 1e-3
    silent = OneParamGroup(map=rot.map, generator=lambda x: np.full(x.shape, np.nan))
    assert np.isnan(group_axiom_defect(silent, points))


def test_group_axioms_hand_a_stacked_group_one_row():
    rot = rotation_groups()[0]
    shapes = []

    def move(s, x):
        shapes.append(x.shape)
        return rot.map(s, x)

    points = [np.array([1.0, 0.5]), np.array([-2.0, 3.0])]
    assert group_axiom_defect(dataclasses.replace(rot, map=move), points) <= 1e-8
    assert shapes == [(1, 2)] * 6
    broken = dataclasses.replace(rot, generator=lambda x: 2.0 * rot.generator(x))
    assert group_axiom_defect(broken, points) >= 1e-3


# one case each, parametrized so that the test ids stay "...[True]"
@pytest.mark.parametrize("stacked", (True,))
def test_group_axioms_refuse_misshapen_values_on_both_paths(stacked):
    # read as a row, a flat (d,) value for a one-row stack would give its
    # first entry for the whole point
    rot = rotation_groups()[0]
    flat = lambda s, x: rot.map(s, x).reshape(-1)
    points = [np.array([1.0, 0.5])]
    for broken, name in ((dataclasses.replace(rot, map=flat), "group map"),
                         (dataclasses.replace(rot, generator=lambda x: flat(1.0, x)),
                          "group generator")):
        with pytest.raises(ValueError, match=f"^a {name} returned shape"):
            group_axiom_defect(broken, points)


def plus_one_entry(move):
    return lambda s, x: np.concatenate([move(s, x), np.ones(np.shape(x)[:-1] + (1,))], axis=-1)


@pytest.mark.parametrize("stacked", (True,))
def test_invariance_residual_refuses_complex_and_misshapen_maps_on_both_paths(stacked):
    problem = build_example("rotation", 0.75, 20)
    sol = solve_pontryagin(problem)
    groups = rotation_groups()
    for i, move, message in ((2, lambda s, x: groups[2].map(s, x) + 1e-3j,
                              "a group map returned a complex value"),
                             (1, plus_one_entry(groups[1].map),
                              "group map returned shape")):
        broken = list(groups)
        broken[i] = dataclasses.replace(groups[i], map=move)
        with pytest.raises(ValueError, match=message):
            invariance_residual(problem, broken, sol, (0.5,))


@pytest.mark.parametrize("stacked", (True,))
def test_group_axioms_refuse_complex_values_on_both_paths(stacked):
    rot = rotation_groups()[0]
    points = [np.array([1.0, 0.5])]
    for broken, message in (
            (dataclasses.replace(rot, map=lambda s, x: rot.map(s, x) + 1e-3j),
             "a group map returned a complex value"),
            (dataclasses.replace(rot, generator=lambda x: 1j * rot.generator(x)),
             "a group generator returned a complex value")):
        with pytest.raises(ValueError, match=message):
            group_axiom_defect(broken, points)
    with pytest.raises(ValueError, match="a point is a complex value"):
        group_axiom_defect(rot, [np.array([1.0, 0.5j])])
