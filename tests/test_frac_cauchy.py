"""Stepwise Cauchy solvers against dense linear-system oracles and closed forms."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import (CauchyRhs, ContractionError, FixedPointDivergenceError,
                    FixedPointOpts, Grid, NonFiniteError, TimeSeq, delta_minus,
                    gl_coefficients, solve_left_cauchy, solve_right_cauchy)

ALPHAS = (0.25, 0.5, 0.75, 1.0)
TIGHT = FixedPointOpts(tol=1e-14, max_iters=200)


def dense_left_solve(alpha, grid, a_mat, g_of_t, q0):
    """Solve the left scheme for F(x, t) = a_mat x + g(t) as one linear system.

    Row k:  (I - h^a A) q_k + sum_{r=1..k-1} c_r q_{k-r} = h^a g(t_k) + b_{k-1} q0.
    """
    n, d = grid.n, q0.size
    co = gl_coefficients(alpha, n)
    ha = grid.h ** alpha
    eye = np.eye(d)
    m = np.zeros((n * d, n * d))
    rhs = np.zeros(n * d)
    for k in range(1, n + 1):
        row = (k - 1) * d
        m[row:row + d, row:row + d] = eye - ha * a_mat
        for r in range(1, k):
            col = (k - r - 1) * d
            m[row:row + d, col:col + d] += co.coeffs[r] * eye
        rhs[row:row + d] = ha * g_of_t(grid.times[k]) + co.partial_sums[k - 1] * q0
    flat = np.linalg.solve(m, rhs)
    return np.vstack([q0, flat.reshape(n, d)])


def dense_right_solve(alpha, grid, b_mat, g_of_k, p_n):
    """Mirror oracle: rows k = 0..n-1 with memory running up the index range."""
    n, d = grid.n, p_n.size
    co = gl_coefficients(alpha, n)
    ha = grid.h ** alpha
    eye = np.eye(d)
    m = np.zeros((n * d, n * d))
    rhs = np.zeros(n * d)
    for k in range(n):
        row = k * d
        m[row:row + d, row:row + d] = eye - ha * b_mat
        for r in range(1, n - k):
            col = (k + r) * d
            if col < n * d:
                m[row:row + d, col:col + d] += co.coeffs[r] * eye
        rhs[row:row + d] = ha * g_of_k(k) + co.partial_sums[n - k - 1] * p_n
    flat = np.linalg.solve(m, rhs)
    return np.vstack([flat.reshape(n, d), p_n])


# -- closed forms ---------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
def test_zero_rhs_freezes_the_state(alpha):
    grid = Grid(0.0, 1.0, 9)
    q = solve_left_cauchy(alpha, grid, CauchyRhs(lambda x, t: 0.0 * x, 0.0),
                          np.array([2.0, -1.0]))
    npt.assert_array_equal(q.values, np.tile([2.0, -1.0], (10, 1)))
    p = solve_right_cauchy(alpha, grid, lambda x, k: 0.0 * x, 0.0,
                           np.array([3.0]))
    npt.assert_array_equal(p.values, np.full((10, 1), 3.0))


def test_integer_order_is_implicit_euler():
    # at order 1 each node equation is x_k = x_{k-1} + h F(x_k, t_k)
    grid = Grid(0.0, 1.0, 10)
    q = solve_left_cauchy(1.0, grid, CauchyRhs(lambda x, t: x, 1.0),
                          np.array([1.0]), TIGHT)
    expect = (1.0 / (1.0 - grid.h)) ** np.arange(11)
    npt.assert_allclose(q.values[:, 0], expect, rtol=1e-12)

    # affine equation residual, node by node
    for k in range(1, 11):
        res = q.values[k] - q.values[k - 1] - grid.h * q.values[k]
        assert abs(res[0]) <= 10 * TIGHT.tol


def test_default_tolerance_does_not_accumulate_over_the_march():
    # an accepted node is returned as its fixed-point image, one contraction
    # factor closer than the residual rule asks; node errors of size tol
    # would otherwise add up to ~1e-10 over 500 implicit Euler steps
    grid = Grid(0.0, 1.0, 500)
    h, g = grid.h, np.cos(3.0 * grid.times)
    rhs = CauchyRhs(lambda x, t: np.cos(3.0 * t) - 0.4 * x, 0.4)
    q = solve_left_cauchy(1.0, grid, rhs, np.array([1.5]))
    p = solve_right_cauchy(1.0, grid, lambda x, k: g[k] - 0.4 * x, 0.4, np.array([1.5]))
    q_ref, p_ref = np.full(501, 1.5), np.full(501, 1.5)
    for k in range(1, 501):
        q_ref[k] = (q_ref[k - 1] + h * g[k]) / (1.0 + 0.4 * h)
        p_ref[500 - k] = (p_ref[501 - k] + h * g[500 - k]) / (1.0 + 0.4 * h)
    npt.assert_allclose(q.values[:, 0], q_ref, rtol=0.0, atol=1e-12)
    npt.assert_allclose(p.values[:, 0], p_ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (1, 2, 5, 17, 64))
def test_left_solver_matches_dense_oracle(alpha, n):
    grid = Grid(0.0, 1.0, n)
    a_mat = np.array([[-0.4]])
    g = lambda t: np.array([np.cos(3.0 * t)])
    q0 = np.array([1.5])
    q = solve_left_cauchy(alpha, grid,
                          CauchyRhs(lambda x, t: a_mat @ x + g(t), 0.4),
                          q0, TIGHT)
    npt.assert_allclose(q.values, dense_left_solve(alpha, grid, a_mat, g, q0),
                        atol=1e-9)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (1, 2, 5, 17, 64))
def test_right_solver_matches_dense_oracle(alpha, n):
    grid = Grid(0.0, 1.0, n)
    b_mat = np.array([[0.3]])
    g = lambda k: np.array([0.1 * k - 1.0])
    p_n = np.array([0.7])
    p = solve_right_cauchy(alpha, grid, lambda x, k: b_mat @ x + g(k), 0.3,
                           p_n, TIGHT)
    npt.assert_allclose(p.values, dense_right_solve(alpha, grid, b_mat, g, p_n),
                        atol=1e-9)


@pytest.mark.parametrize("alpha", (0.5, 1.0))
def test_planar_system_matches_dense_oracle(alpha):
    grid = Grid(0.0, 1.0, 12)
    a_mat = np.array([[0.0, -0.5], [0.5, -0.2]])
    g = lambda t: np.array([np.sin(t), 1.0 - t])
    q0 = np.array([1.0, -2.0])
    q = solve_left_cauchy(alpha, grid,
                          CauchyRhs(lambda x, t: a_mat @ x + g(t), 0.7),
                          q0, TIGHT)
    npt.assert_allclose(q.values, dense_left_solve(alpha, grid, a_mat, g, q0),
                        atol=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_left_and_right_solvers_mirror(alpha):
    # an x-only rhs makes the two marches exact mirror images, bit for bit
    grid = Grid(0.0, 1.0, 13)
    f = lambda x: 0.3 * np.sin(x)
    q = solve_left_cauchy(alpha, grid, CauchyRhs(lambda x, t: f(x), 0.3),
                          np.array([0.8]), TIGHT)
    p = solve_right_cauchy(alpha, grid, lambda x, k: f(x), 0.3,
                           np.array([0.8]), TIGHT)
    npt.assert_array_equal(p.values[::-1], q.values)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_solution_satisfies_the_operator_equation(alpha):
    # the regularized left difference of the output reproduces F at every node
    grid = Grid(0.0, 1.0, 20)
    rhs = CauchyRhs(lambda x, t: np.cos(t) - 0.5 * x, 0.5)
    opts = FixedPointOpts(tol=1e-12)
    q = solve_left_cauchy(alpha, grid, rhs, np.array([1.0]), opts)
    dm = delta_minus(alpha, grid, q, caputo=True)
    bound = 10.0 * opts.tol / grid.h ** alpha
    for k in range(1, 21):
        assert abs(dm[k][0] - rhs.eval(q[k], grid.times[k])[0]) <= bound


# -- iteration behaviour ----------------------------------------------------------

@pytest.mark.parametrize("d", (1, 2))
def test_node_solves_stay_within_iteration_budget(d):
    # count rhs evaluations per node by wrapping the right-hand side
    grid = Grid(0.0, 1.0, 10)
    opts = FixedPointOpts(tol=1e-12)
    start = np.array([1.0, -0.5][:d])
    left_calls = np.zeros(11, dtype=int)
    right_calls = np.zeros(11, dtype=int)

    def left(x, t):
        left_calls[np.searchsorted(grid.times, t)] += 1
        return 0.9 * x

    def right(x, k):
        right_calls[k] += 1
        return 0.9 * x

    solve_left_cauchy(1.0, grid, CauchyRhs(left, 0.9), start, opts)
    assert left_calls[0] == 0 and np.all(left_calls[1:] >= 1)
    # contraction factor h^a K = 0.09: the residual shrinks 11x per step
    assert np.all(left_calls[1:] <= 20)

    solve_right_cauchy(1.0, grid, right, 0.9, start, opts)
    assert right_calls[10] == 0 and np.all(right_calls[:10] >= 1)
    npt.assert_array_equal(right_calls[::-1], left_calls)


def test_contraction_precondition_is_enforced():
    grid = Grid(0.0, 1.0, 1)  # h = 1, so the factor equals the bound itself
    with pytest.raises(ContractionError):
        solve_left_cauchy(1.0, grid, CauchyRhs(lambda x, t: x, 1.0),
                          np.array([1.0]))
    with pytest.raises(ContractionError):
        solve_right_cauchy(0.5, grid, lambda x, k: x, 1.2, np.array([1.0]))
    # just under the threshold is accepted, given a budget matching the rate
    solve_left_cauchy(1.0, grid, CauchyRhs(lambda x, t: 0.99 * x, 0.99),
                      np.array([1.0]), FixedPointOpts(tol=1e-9, max_iters=5000))


def test_understated_bound_surfaces_as_divergence():
    # claimed K passes the check but the true map expands; the node is reported
    grid = Grid(0.0, 1.0, 2)
    with pytest.raises(FixedPointDivergenceError) as exc:
        solve_left_cauchy(1.0, grid, CauchyRhs(lambda x, t: 4.0 * x, 0.5),
                          np.array([1.0]))
    assert exc.value.node == 1


def test_iteration_budget_exhaustion_raises():
    grid = Grid(0.0, 1.0, 4)
    opts = FixedPointOpts(tol=1e-15, max_iters=2)
    with pytest.raises(FixedPointDivergenceError):
        solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: np.cos(x), 1.0),
                          np.array([0.0]), opts)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("d", (1, 2))
def test_non_finite_rhs_stops_at_its_node(d, bad):
    # reported on the first evaluation that returns it, not after the budget;
    # with d = 2 only the last component goes bad
    grid = Grid(0.0, 1.0, 8)
    start = np.ones(d)
    seen = []

    def poisoned(x):
        return np.r_[-x[:-1], bad]

    def left(x, t):
        seen.append(t)
        return poisoned(x) if t == grid.times[3] else -x

    with pytest.raises(NonFiniteError) as exc:
        solve_left_cauchy(0.5, grid, CauchyRhs(left, 1.0), start)
    assert exc.value.node == 3
    assert seen.count(grid.times[3]) == 1

    with pytest.raises(NonFiniteError) as exc:
        solve_right_cauchy(0.5, grid,
                           lambda x, k: poisoned(x) if k == 3 else -x, 1.0, start)
    assert exc.value.node == 3


# -- input validation --------------------------------------------------------------

def test_rhs_shape_mismatch_is_reported():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="rhs returned size"):
        solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: np.zeros(3), 0.1),
                          np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="rhs returned size"):
        solve_right_cauchy(0.5, grid, lambda x, k: np.zeros(2), 0.1,
                           np.array([1.0]))


def test_option_and_bound_validation():
    with pytest.raises(ValueError):
        CauchyRhs(lambda x, t: x, -1.0)
    with pytest.raises(ValueError):  # bound < 0 is False for NaN
        CauchyRhs(lambda x, t: x, float("nan"))
    with pytest.raises(ValueError):
        FixedPointOpts(tol=0.0)
    with pytest.raises(ValueError):  # tol <= 0 is False for NaN
        FixedPointOpts(tol=float("nan"))
    with pytest.raises(ValueError):
        FixedPointOpts(max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        FixedPointOpts(max_iters=2.5)
    FixedPointOpts(max_iters=np.int64(3))
    grid = Grid(0.0, 1.0, 4)
    for bad in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            solve_right_cauchy(0.5, grid, lambda x, k: x, bad, np.array([1.0]))


def test_scalar_initial_data_is_normalized():
    grid = Grid(0.0, 1.0, 3)
    q = solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: -x, 1.0), 2.0)
    assert q.dim == 1 and q.values[0, 0] == 2.0
