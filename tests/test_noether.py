"""Summation-identity matrices, conserved sequences and invariance probes."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import (Grid, OcpProblem, OneParamGroup, SweepOpts, TimeSeq,
                    build_example, conserved_quantity, dense_matrix,
                    gl_coefficients, group_axiom_defect, invariance_residual,
                    matrix_entry, rotation_groups, solve_pontryagin,
                    transfer_residual)

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


def test_invariance_residual_reports_a_nan_group_map():
    problem = build_example("rotation", 0.75, 20)
    sol = solve_pontryagin(problem)
    phi1, phi2, phi3 = rotation_groups()
    broken = OneParamGroup(map=lambda s, x: np.full(2, np.nan),
                           generator=phi2.generator)
    res = invariance_residual(problem, (phi1, broken, phi3), sol, (0.5,))
    assert np.isnan(res)


def test_invariance_residual_moves_each_node_once_per_sample():
    problem = build_example("rotation", 0.5, 12)
    sol = solve_pontryagin(problem)
    calls = [0, 0, 0]

    def counted(group, i):
        def move(s, x):
            calls[i] += 1
            return group.map(s, x)
        return OneParamGroup(map=move, generator=group.generator)

    groups = [counted(g, i) for i, g in enumerate(rotation_groups())]
    samples = (-1.0, 0.25, 0.5)
    n, s = problem.grid.n, len(samples)
    invariance_residual(problem, groups, sol, samples)
    # Q on nodes 0..N, U on 1..N, P on 0..N-1; the base bracket moves nothing
    assert calls == [(n + 1) * s, n * s, n * s]
    invariance_residual(problem, groups, sol, ())
    assert calls == [(n + 1) * s, n * s, n * s]


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
    silent = OneParamGroup(map=rot.map, generator=lambda x: np.full(2, np.nan))
    assert np.isnan(group_axiom_defect(silent, points))
