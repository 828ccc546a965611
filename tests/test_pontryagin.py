"""Sweep solver pieces: state/adjoint closed forms, cost calculus, convergence."""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import (CauchyRhs, ContractionError, FixedPointDivergenceError,
                    FixedPointOpts, Grid, NonFiniteError, OcpProblem,
                    SingularNodeError, SweepDivergenceError, SweepOpts,
                    TimeSeq, adjoint_solve, build_example, cost, delta_minus,
                    euler_lagrange_residual, gateaux_derivative,
                    gl_coefficients, solve_left_cauchy, solve_pontryagin,
                    state_solve, stationarity_residual)
from fracoc.pontryagin import ControlUpdateError, _secant_root

TIGHT_INNER = FixedPointOpts(tol=1e-14, max_iters=200)


def reduced_problem(alpha, n, dl_dv=None, l_fun=None):
    """f(x, v, t) = v with a quadratic running cost unless overridden."""
    return OcpProblem(
        d=1, m=1, alpha=alpha, grid=Grid(0.0, 1.0, n), initial=np.array([1.0]),
        L=l_fun or (lambda x, v, t: 0.5 * (x[0] ** 2 + v[0] ** 2)),
        dL_dx=lambda x, v, t: x,
        dL_dv=dl_dv or (lambda x, v, t: v),
        f=lambda x, v, t: v,
        df_dx=lambda x, v, t: 0.0,
        df_dv=lambda x, v, t: 1.0,
        lipschitz_M=1.0,
        control_update=None if dl_dv else (lambda x, w, t: -w),
    )


def nonlinear_problem(alpha, n):
    return OcpProblem(
        d=1, m=1, alpha=alpha, grid=Grid(0.0, 1.0, n), initial=np.array([1.0]),
        L=lambda x, v, t: 0.5 * (x[0] ** 2 + v[0] ** 2),
        dL_dx=lambda x, v, t: x,
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: np.sin(x) + v,
        df_dx=lambda x, v, t: np.cos(x[0]),
        df_dv=lambda x, v, t: 1.0,
        lipschitz_M=1.0,
        control_update=lambda x, w, t: -w,
    )


# -- state and adjoint closed forms --------------------------------------------

def test_state_solve_integer_order_geometric():
    problem = build_example("lq", 1.0, 10)
    q = state_solve(problem, TimeSeq.zeros(10), TIGHT_INNER)
    expect = (1.0 / (1.0 - problem.grid.h)) ** np.arange(11)
    npt.assert_allclose(q.values[:, 0], expect, rtol=1e-12)


def test_adjoint_solve_integer_order_recurrence():
    problem = build_example("lq", 1.0, 10)
    h = problem.grid.h
    u = TimeSeq.zeros(10)
    q = state_solve(problem, u, TIGHT_INNER)
    p = adjoint_solve(problem, u, q)

    expect = np.zeros(11)
    for k in range(9, -1, -1):
        expect[k] = (expect[k + 1] + h * q.values[k + 1, 0]) / (1.0 - h)
    npt.assert_allclose(p.values[:, 0], expect, rtol=1e-11)
    assert p.values[10, 0] == 0.0


def test_solver_layers_reject_unstable_steps():
    # the state's fixed-point fallback contracts only while h^alpha M < 1
    marginal = build_example("lq", 1.0, 1)  # h M = 1 exactly
    with pytest.raises(ContractionError):
        state_solve(marginal, TimeSeq.zeros(1))
    with pytest.raises(ContractionError):
        solve_pontryagin(marginal)
    with pytest.raises(ContractionError):
        gateaux_derivative(marginal, TimeSeq.zeros(1), TimeSeq.zeros(1))
    # h M = 1/2 needs no stricter gate: the fallback contracts, need not halve
    sol = solve_pontryagin(build_example("lq", 1.0, 2))
    assert sol.stationarity_residual <= SweepOpts().tol_stationarity


def test_control_shape_validation():
    problem = build_example("lq", 1.0, 8)
    with pytest.raises(ValueError):
        state_solve(problem, TimeSeq.zeros(7))
    with pytest.raises(ValueError):
        state_solve(problem, TimeSeq.zeros(8, 2))
    with pytest.raises(ValueError):
        state_solve(problem, TimeSeq(np.zeros((9, 1)), 2, 8))
    # a control valid on [1, n] only is enough: slot 0 is never read
    state_solve(problem, TimeSeq(np.zeros((9, 1)), 1, 8))
    with pytest.raises(ValueError, match="ubar has dimension 2, expected 1"):
        gateaux_derivative(problem, TimeSeq.zeros(8), TimeSeq.zeros(8, 2))


def tanh_problem(alpha, n, d):
    """f(x, v, t) = W tanh(x) + v: nonlinear, so Newton needs several steps."""
    w = np.array([[-0.8]]) if d == 1 else np.array([[-0.6, 0.4], [-0.3, -0.5]])
    return OcpProblem(
        d=d, m=d, alpha=alpha, grid=Grid(0.0, 1.0, n),
        initial=np.array([1.0, -0.5][:d]),
        L=lambda x, v, t: 0.5 * (float(x @ x) + float(v @ v)),
        dL_dx=lambda x, v, t: x,
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: w @ np.tanh(x) + v,
        df_dx=lambda x, v, t: w * (1.0 - np.tanh(x) ** 2),
        df_dv=lambda x, v, t: np.eye(d),
        lipschitz_M=float(np.linalg.norm(w, 2)),
    )


def tanh_control(t, d):
    return np.array([np.sin(3.0 * t), np.cos(2.0 * t)][:d])


def tanh_controls(problem):
    return TimeSeq(np.array([tanh_control(t, problem.d) for t in problem.grid.times]))


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("alpha", (0.3, 0.75, 1.0))
def test_state_solve_matches_the_fixed_point_march(alpha, d):
    problem = tanh_problem(alpha, 30, d)
    grid, u = problem.grid, tanh_controls(problem)
    q = state_solve(problem, u, TIGHT_INNER)
    rhs = CauchyRhs(lambda x, t: problem.f_at(x, tanh_control(t, d), t),
                    problem.lipschitz_M)
    ref = solve_left_cauchy(alpha, grid, rhs, problem.initial, TIGHT_INNER)
    npt.assert_allclose(q.values, ref.values, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", (1, 2))
def test_wrong_jacobian_gives_the_same_state(d):
    # a wrong but non-singular df_dx may cost Newton steps, never the answer
    problem = tanh_problem(0.5, 30, d)
    wrong = dataclasses.replace(problem, df_dx=lambda x, v, t: 0.5 * np.eye(d))
    u = tanh_controls(problem)
    npt.assert_allclose(state_solve(wrong, u, TIGHT_INNER).values,
                        state_solve(problem, u, TIGHT_INNER).values,
                        rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_diverging_newton_falls_back_to_the_fixed_point_step(example):
    # h^alpha = 0.1 and df_dx = 40 I give I - h^alpha df_dx = -3 I against a
    # true 0.9 I: every Newton step overshoots by 1.3 times the error
    problem = build_example(example, 1.0, 10)
    wrong = dataclasses.replace(problem, df_dx=lambda x, v, t: 40.0 * np.eye(problem.d))
    u = TimeSeq(np.sin(3.0 * np.outer(problem.grid.times, np.arange(1, problem.m + 1))))
    npt.assert_allclose(state_solve(wrong, u, TIGHT_INNER).values,
                        state_solve(problem, u, TIGHT_INNER).values,
                        rtol=0.0, atol=1e-12)


def counting_problem(problem):
    """A copy of ``problem`` whose f and df_dx count their calls."""
    calls = {"f": 0, "df_dx": 0}

    def counted(name):
        fn = getattr(problem, name)

        def wrapped(x, v, t):
            calls[name] += 1
            return fn(x, v, t)
        return wrapped

    return dataclasses.replace(problem, f=counted("f"), df_dx=counted("df_dx")), calls


@pytest.mark.parametrize("d", (1, 2))
def test_state_budget_exhaustion_names_the_node(d):
    problem = tanh_problem(0.5, 10, d)
    counting, calls = counting_problem(problem)
    opts = FixedPointOpts(tol=1e-15, max_iters=1)
    with pytest.raises(FixedPointDivergenceError) as exc:
        state_solve(counting, tanh_controls(problem), opts)
    assert exc.value.node == 1
    # each trajectory iterate walks df_dx at most once, the fallback never;
    # f: the start, the one iterate, then node 1's start residual and one
    # fixed-point step, with no unchecked step after it
    n = problem.grid.n
    assert calls["df_dx"] <= opts.max_iters * n
    assert calls["f"] <= 2 * n + 2


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_stalled_newton_iterate_falls_back_at_once(example):
    # df_dx = 40 I overshoots (see above): the first trajectory iterate does
    # not halve the start's residual, so df_dx is walked once, not per iterate
    problem = build_example(example, 1.0, 10)
    wrong = dataclasses.replace(problem, df_dx=lambda x, v, t: 40.0 * np.eye(problem.d))
    counting, calls = counting_problem(wrong)
    u = TimeSeq.constant(np.ones(problem.m), 10)
    npt.assert_allclose(state_solve(counting, u, TIGHT_INNER).values,
                        state_solve(problem, u, TIGHT_INNER).values,
                        rtol=0.0, atol=1e-12)
    assert calls["df_dx"] == 10


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_affine_state_is_one_linear_march(example):
    problem = build_example(example, 0.5, 40)
    counting, calls = counting_problem(problem)

    def control(t):
        return np.sin(3.0 * t * np.arange(1, problem.m + 1))

    u = TimeSeq(np.array([control(t) for t in problem.grid.times]))
    q = state_solve(counting, u)
    # f at the start and at the one iterate, df_dx at the start only
    assert calls["f"] <= 2 * 40
    assert calls["df_dx"] <= 40
    rhs = CauchyRhs(lambda x, t: problem.f_at(x, control(t), t), problem.lipschitz_M)
    ref = solve_left_cauchy(0.5, problem.grid, rhs, problem.initial, TIGHT_INNER)
    npt.assert_allclose(q.values, ref.values, rtol=0.0, atol=1e-12)


def dense_adjoint_solve(problem, u, q):
    """All adjoint node equations as one block upper-triangular system.

    Row k = 0..N-1:  (I - h^a B_k) P_k + sum_{r=1..N-k-1} c_r P_{k+r} = h^a g_k
    with B_k = df/dx^T and g_k = dL/dx, both at node k + 1, and P_N = 0.
    """
    grid, n, d = problem.grid, problem.grid.n, problem.d
    c = gl_coefficients(problem.alpha, n).coeffs
    ha = grid.h ** problem.alpha
    m = np.zeros((n * d, n * d))
    rhs = np.zeros(n * d)
    for k in range(n):
        x1, v1, t1 = q[k + 1], u[k + 1], grid.times[k + 1]
        row = slice(k * d, (k + 1) * d)
        m[row, row] = np.eye(d) - ha * problem.fx_at(x1, v1, t1).T
        for r in range(1, n - k):
            m[row, (k + r) * d:(k + r + 1) * d] += c[r] * np.eye(d)
        rhs[row] = ha * problem.lx_at(x1, v1, t1)
    return np.vstack([np.linalg.solve(m, rhs).reshape(n, d), np.zeros(d)])


@pytest.mark.parametrize("alpha", (0.6, 1.0))
def test_adjoint_matches_dense_block_triangular_solve(alpha):
    # planar, time-varying and not symmetric, so the transpose is exercised
    def a_of(t):
        return np.array([[-0.5, t], [-0.6 * t, 0.3 * np.cos(3.0 * t)]])

    problem = OcpProblem(
        d=2, m=2, alpha=alpha, grid=Grid(0.0, 1.0, 24), initial=np.array([1.0, 2.0]),
        L=lambda x, v, t: 0.5 * (float(x @ x) + float(v @ v)) + np.sin(t) * x[0],
        dL_dx=lambda x, v, t: x + np.array([np.sin(t), 0.0]),
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: a_of(t) @ x + v,
        df_dx=lambda x, v, t: a_of(t),
        df_dv=lambda x, v, t: np.eye(2),
        lipschitz_M=1.5,
    )
    rng = np.random.default_rng(5)
    q = TimeSeq(rng.normal(size=(25, 2)))
    u = TimeSeq(rng.normal(size=(25, 2)))
    p = adjoint_solve(problem, u, q)
    npt.assert_allclose(p.values, dense_adjoint_solve(problem, u, q),
                        rtol=0.0, atol=1e-12)


def test_adjoint_solve_needs_no_step_size_gate():
    # h^alpha M = 0.55 at alpha = 0.1, N = 400: the state's fallback contracts
    # without halving, and the state, Gateaux and adjoint solves all run
    problem = build_example("lq", 0.1, 400)
    times = problem.grid.times
    q = TimeSeq(np.exp(-times)[:, None])
    u = TimeSeq(np.sin(3.0 * times)[:, None])
    assert np.isfinite(state_solve(problem, u).values).all()
    assert np.isfinite(gateaux_derivative(problem, u, u))
    p = adjoint_solve(problem, u, q)
    npt.assert_allclose(p.values, dense_adjoint_solve(problem, u, q),
                        rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_non_finite_callbacks_stop_at_their_node(example):
    base = build_example(example, 0.5, 8)
    t3 = base.grid.times[3]
    u = TimeSeq.zeros(8, base.m)

    def poisoned(fn):
        return lambda x, v, t: np.full(np.shape(fn(x, v, t)), np.nan) if t == t3 else fn(x, v, t)

    with pytest.raises(NonFiniteError) as exc:
        state_solve(dataclasses.replace(base, f=poisoned(base.f)), u)
    assert exc.value.node == 3
    q = state_solve(base, u)
    # the adjoint equation at node k reads its data at node k + 1
    with pytest.raises(NonFiniteError) as exc:
        adjoint_solve(dataclasses.replace(base, dL_dx=poisoned(base.dL_dx)), u, q)
    assert exc.value.node == 2
    with pytest.raises(NonFiniteError) as exc:
        gateaux_derivative(dataclasses.replace(base, df_dv=poisoned(base.df_dv)),
                           u, TimeSeq.constant(np.ones(base.m), 8))
    assert exc.value.node == 3


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_non_finite_jacobian_is_reported_as_singular(example):
    # the state's linearization b = f - df_dx Q goes non-finite with df_dx,
    # but the node matrix is what is at fault
    base = build_example(example, 0.5, 8)
    t3 = base.grid.times[3]
    bad = dataclasses.replace(base, df_dx=lambda x, v, t: (
        np.full((base.d, base.d), np.nan) if t == t3 else base.df_dx(x, v, t)))
    u = TimeSeq.zeros(8, base.m)
    with pytest.raises(SingularNodeError) as exc:
        state_solve(bad, u)
    assert exc.value.node == 3
    with pytest.raises(SingularNodeError) as exc:
        adjoint_solve(bad, u, state_solve(base, u))
    assert exc.value.node == 2


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_inconsistent_jacobian_is_reported_as_singular(example):
    # h^alpha = 1/4 and df_dx = 4 I make I - h^alpha df_dx exactly zero,
    # though lipschitz_M = 1 passes the step-size gate
    base = build_example(example, 1.0, 4)
    bad = dataclasses.replace(base, df_dx=lambda x, v, t: 4.0 * np.eye(base.d))
    u = TimeSeq.zeros(4, base.m)
    with pytest.raises(SingularNodeError) as exc:
        state_solve(bad, u)
    assert exc.value.node == 1
    with pytest.raises(SingularNodeError) as exc:
        adjoint_solve(bad, u, state_solve(base, u))
    assert exc.value.node == 3  # the first node the backward march reaches
    with pytest.raises(SingularNodeError):
        solve_pontryagin(bad)


# -- cost and its derivative -----------------------------------------------------

def test_cost_of_frozen_dynamics_is_quadrature():
    problem = build_example("zero", 0.5, 20)
    u = TimeSeq.constant(3.0, 20)
    npt.assert_allclose(cost(problem, u), 0.5 * 9.0, rtol=1e-14)


def test_cost_matches_geometric_sum():
    problem = build_example("lq", 1.0, 10)
    h = problem.grid.h
    rho = 1.0 / (1.0 - h)
    expect = 0.5 * h * sum(rho ** (2 * k) for k in range(1, 11))
    npt.assert_allclose(cost(problem, TimeSeq.zeros(10), TIGHT_INNER),
                        expect, rtol=1e-11)


@pytest.mark.parametrize("alpha", (0.5, 1.0))
def test_gateaux_matches_central_difference_quadratic(alpha):
    # quadratic cost: the symmetric difference quotient is exact in epsilon
    problem = build_example("lq", alpha, 12)
    rng = np.random.default_rng(2)
    u = TimeSeq(rng.normal(size=(13, 1)))
    ubar = TimeSeq(rng.normal(size=(13, 1)))
    dj = gateaux_derivative(problem, u, ubar, TIGHT_INNER)
    eps = 1e-3
    up = TimeSeq(u.values + eps * ubar.values)
    um = TimeSeq(u.values - eps * ubar.values)
    fd = (cost(problem, up, TIGHT_INNER) - cost(problem, um, TIGHT_INNER)) / (2 * eps)
    npt.assert_allclose(dj, fd, rtol=1e-8, atol=1e-9)


def test_gateaux_matches_central_difference_nonlinear():
    # a d = 2, m = 1 problem too, so the (d, m) contraction of df_dv is tested
    wide = OcpProblem(
        d=2, m=1, alpha=0.5, grid=Grid(0.0, 1.0, 15), initial=np.array([1.0, -0.5]),
        L=lambda x, v, t: 0.5 * (x[0] ** 2 + x[1] ** 2 + v[0] ** 2) + x[0] * v[0],
        dL_dx=lambda x, v, t: np.array([x[0] + v[0], x[1]]),
        dL_dv=lambda x, v, t: v + x[0],
        f=lambda x, v, t: np.array([np.sin(x[0]) + x[1], -x[0] + np.cos(t) * v[0]]),
        df_dx=lambda x, v, t: np.array([[np.cos(x[0]), 1.0], [-1.0, 0.0]]),
        df_dv=lambda x, v, t: np.array([[0.0], [np.cos(t)]]),
        lipschitz_M=1.7)
    rng = np.random.default_rng(4)
    for problem in (nonlinear_problem(0.5, 15), wide):
        u = TimeSeq(rng.normal(size=(16, 1)))
        ubar = TimeSeq(rng.normal(size=(16, 1)))
        dj = gateaux_derivative(problem, u, ubar, TIGHT_INNER)
        eps = 1e-4
        up = TimeSeq(u.values + eps * ubar.values)
        um = TimeSeq(u.values - eps * ubar.values)
        fd = (cost(problem, up, TIGHT_INNER) - cost(problem, um, TIGHT_INNER)) / (2 * eps)
        assert abs(dj - fd) <= 1e-6


def test_stationarity_residual_formula():
    problem = build_example("lq", 0.75, 6)
    rng = np.random.default_rng(9)
    q = TimeSeq(rng.normal(size=(7, 1)))
    u = TimeSeq(rng.normal(size=(7, 1)))
    p = TimeSeq(rng.normal(size=(7, 1)))
    res = stationarity_residual(problem, q, u, p)
    assert (res.lo, res.hi) == (1, 6)
    for k in range(1, 7):
        assert res[k][0] == abs(u.values[k, 0] + p.values[k - 1, 0])

    # d = 2, m = 3 with a df_dv that varies with the node
    wide = OcpProblem(
        d=2, m=3, alpha=0.75, grid=Grid(0.0, 1.0, 6), initial=np.zeros(2),
        L=lambda x, v, t: 0.0, dL_dx=lambda x, v, t: np.zeros(2),
        dL_dv=lambda x, v, t: (1.0 + t) * v + x[0],
        f=lambda x, v, t: np.zeros(2), df_dx=lambda x, v, t: np.zeros((2, 2)),
        df_dv=lambda x, v, t: np.array([[1.0, t, -x[1]], [x[0], 2.0, t * t]]),
        lipschitz_M=1.0)
    q = TimeSeq(rng.normal(size=(7, 2)))
    u = TimeSeq(rng.normal(size=(7, 3)))
    p = TimeSeq(rng.normal(size=(7, 2)))
    res = stationarity_residual(wide, q, u, p)
    for k in range(1, 7):
        g = wide.dh_dv(q[k], u[k], p[k - 1], wide.grid.times[k])
        npt.assert_allclose(res[k][0], np.linalg.norm(g), rtol=1e-14)


def test_stationarity_residual_checks_its_windows():
    problem = build_example("lq", 0.75, 6)
    full = TimeSeq(np.ones((7, 1)))
    stationarity_residual(problem, full, full, TimeSeq(np.ones((7, 1)), 0, 5))
    with pytest.raises(ValueError, match="adjoint"):  # P_{N-1} is read
        stationarity_residual(problem, full, full, TimeSeq(np.ones((7, 1)), 0, 3))
    with pytest.raises(ValueError, match="adjoint"):  # P_0 is read
        stationarity_residual(problem, full, full, TimeSeq(np.ones((7, 1)), 1, 6))
    with pytest.raises(ValueError, match="adjoint"):
        stationarity_residual(problem, full, full, TimeSeq.zeros(5))
    # einsum would broadcast a second column into the residual
    with pytest.raises(ValueError, match="adjoint has dimension 2, expected 1"):
        stationarity_residual(problem, full, full, TimeSeq(np.ones((7, 2))))
    with pytest.raises(ValueError, match="control"):
        stationarity_residual(problem, full, TimeSeq(np.ones((7, 1)), 2, 6), full)


@pytest.mark.parametrize("walk", ("adjoint", "stationarity"))
def test_node_walks_refuse_a_state_off_their_window(walk):
    problem = build_example("lq", 0.75, 8)
    u, p = TimeSeq.zeros(8), TimeSeq.zeros(8)
    run = {"adjoint": lambda q: adjoint_solve(problem, u, q),
           "stationarity": lambda q: stationarity_residual(problem, q, u, p)}[walk]
    run(TimeSeq(np.ones((9, 1)), 1, 8))  # Q_0 is never read
    with pytest.raises(ValueError, match="state has 13 slots"):
        run(TimeSeq(np.ones((13, 1))))
    with pytest.raises(ValueError, match="state must be valid"):
        run(TimeSeq(np.ones((9, 1)), 0, 5))
    with pytest.raises(ValueError, match="state has dimension 2, expected 1"):
        run(TimeSeq(np.ones((9, 2))))


# -- the outer sweep ----------------------------------------------------------------

def test_zero_problem_converges_immediately():
    sol = solve_pontryagin(build_example("zero", 0.5, 10))
    assert sol.outer_iters == 1
    assert sol.stationarity_residual == 0.0
    npt.assert_array_equal(sol.U.values, 0.0)
    npt.assert_array_equal(sol.P.values, 0.0)
    npt.assert_array_equal(sol.Q.values, 1.0)
    assert sol.cost == 0.0


@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75, 1.0))
def test_solved_example_tracks_its_closed_form(alpha):
    from fracoc import max_control_error, solved_example_exact_control
    problem = build_example("solved", alpha, 100)
    sol = solve_pontryagin(problem)
    assert sol.outer_iters <= 10
    err = max_control_error(sol.U, lambda t: solved_example_exact_control(alpha, t),
                            problem.grid)
    assert 0.0 < err < 0.1


def test_lq_tracks_its_closed_form():
    from fracoc import lq_exact_control, max_control_error
    problem = build_example("lq", 1.0, 100)
    sol = solve_pontryagin(problem)
    err = max_control_error(sol.U, lq_exact_control, problem.grid)
    assert 0.0 < err < 0.04


def test_converged_solution_is_internally_consistent():
    opts = SweepOpts(tol_stationarity=1e-10, tol_control=1e-10)
    problem = build_example("lq", 1.0, 30)
    sol = solve_pontryagin(problem, opts=opts)
    assert sol.stationarity_residual <= 1e-10
    recomputed = stationarity_residual(problem, sol.Q, sol.U, sol.P).sup_norm()
    assert recomputed == sol.stationarity_residual
    npt.assert_array_equal(sol.U.values[0], sol.U.values[1])
    npt.assert_allclose(sol.cost, cost(problem, sol.U), rtol=1e-12)


def test_plain_unit_relaxation_diverges_on_the_coupled_problem():
    # the sweep map of this problem has a real eigenvalue below -1, so the
    # unrelaxed iteration cannot converge; the adaptive default handles it
    problem = build_example("lq", 1.0, 10)
    opts = SweepOpts(max_outer_iters=40, adaptive=False, relaxation=1.0)
    with pytest.raises(SweepDivergenceError, match="grew on 5 passes") as exc:
        solve_pontryagin(problem, opts=opts)
    assert exc.value.iters == 6  # stopped early, not at the budget of 40
    assert exc.value.increment > 1.0

    sol = solve_pontryagin(problem, opts=SweepOpts(max_outer_iters=40))
    assert sol.outer_iters <= 20


def test_sweep_stops_early_when_the_increment_keeps_growing():
    # the default sweep diverges at this small alpha, its increment growing
    # on every pass
    with pytest.raises(SweepDivergenceError, match="grew") as exc:
        solve_pontryagin(build_example("lq", 0.02, 100))
    assert exc.value.iters < 20


def test_sweep_says_when_its_pass_budget_runs_out():
    opts = SweepOpts(max_outer_iters=3)
    with pytest.raises(SweepDivergenceError, match=r"\): the pass budget ran out$") as exc:
        solve_pontryagin(build_example("lq", 0.5, 40), opts=opts)
    assert exc.value.iters == 3


def test_sweep_stops_at_once_on_a_non_finite_residual():
    problem = build_example("lq", 0.5, 40)
    dl_dv = problem.dL_dv
    broken = dataclasses.replace(problem, dL_dv=lambda x, v, t: (
        np.nan if t == problem.grid.times[20] else dl_dv(x, v, t)))
    with pytest.raises(SweepDivergenceError, match="not finite") as exc:
        solve_pontryagin(broken)
    assert exc.value.iters == 1
    assert np.isnan(exc.value.residual)


def test_fixed_relaxation_below_threshold_converges():
    # 2 / (1 + |mu|) with |mu| ~ 1.36 puts the stability cap near 0.85
    problem = build_example("lq", 1.0, 10)
    opts = SweepOpts(adaptive=False, relaxation=0.4)
    sol = solve_pontryagin(problem, opts=opts)
    assert sol.stationarity_residual <= opts.tol_stationarity


def test_warm_start_accepts_and_checks_u_init():
    problem = build_example("solved", 0.5, 40)
    cold = solve_pontryagin(problem)
    warm = solve_pontryagin(problem, u_init=cold.U)
    assert warm.outer_iters <= cold.outer_iters
    npt.assert_allclose(warm.U.values, cold.U.values, atol=1e-8)
    with pytest.raises(ValueError):
        solve_pontryagin(problem, u_init=TimeSeq.zeros(39))


def test_sweep_option_validation():
    with pytest.raises(ValueError):
        SweepOpts(tol_stationarity=0.0)
    with pytest.raises(ValueError):  # tol <= 0 is False for NaN
        SweepOpts(tol_stationarity=float("nan"))
    with pytest.raises(ValueError):
        SweepOpts(tol_control=float("nan"))
    with pytest.raises(ValueError):
        SweepOpts(max_outer_iters=0)
    with pytest.raises(ValueError, match="max_outer_iters"):
        SweepOpts(max_outer_iters=2.5)
    SweepOpts(max_outer_iters=np.int64(3))
    with pytest.raises(ValueError):
        SweepOpts(relaxation=0.0)
    with pytest.raises(ValueError):
        SweepOpts(relaxation=1.5)


# -- scalar control updates without a closed form -------------------------------------

def test_secant_root_finds_monotone_cubic_root():
    root = _secant_root(lambda s: s ** 3 - 2.0, 1.0, 1e-13, node=3)
    npt.assert_allclose(root, 2.0 ** (1.0 / 3.0), rtol=1e-10)


def test_secant_root_reports_rootless_input():
    with pytest.raises(ControlUpdateError):
        _secant_root(lambda s: 1.0 / (1.0 + s * s) + 0.5, 0.0, 1e-13, node=7)


@pytest.mark.parametrize("dh, x0", [
    (lambda s: float(np.clip(s - 5.0, -1.0, 1.0)), 0.0),  # a plateau stalls the secant
    (lambda s: float(np.clip(2.0 - s, -1.0, 1.0)), 10.0),  # decreasing
    (lambda s: 0.0 if s >= 3.0 else -1.0, 0.0),            # the bracket's top is a root
    (lambda s: 0.0 if s <= -3.0 else 1.0, 0.0),            # and here its bottom
])
def test_secant_root_brackets_and_bisects_after_a_stall(dh, x0):
    assert abs(dh(_secant_root(dh, x0, 1e-12, node=4))) <= 1e-12


def test_fallback_root_solve_stops_on_a_non_finite_derivative():
    calls = []

    def dl_dv(x, v, t):
        if t == problem.grid.times[20]:
            calls.append(t)
            return np.full(1, np.nan)
        return v + v ** 3

    problem = reduced_problem(0.5, 40, dl_dv=dl_dv)
    with pytest.raises(ControlUpdateError, match="node 20: .*not finite") as err:
        solve_pontryagin(problem)
    assert err.value.node == 20
    assert len(calls) <= 3  # not the whole bracket search


def test_implicit_control_update_agrees_with_cardano():
    # dH/dv = v^3 + v + p has one real root, known in closed form
    def cardano(x, w, t):
        p0 = float(w[0])
        disc = np.sqrt(p0 ** 2 / 4.0 + 1.0 / 27.0)
        return np.array([np.cbrt(-p0 / 2.0 + disc) + np.cbrt(-p0 / 2.0 - disc)])

    quartic_l = lambda x, v, t: 0.5 * x[0] ** 2 + 0.25 * v[0] ** 4 + 0.5 * v[0] ** 2
    quartic_lv = lambda x, v, t: v ** 3 + v
    implicit = reduced_problem(0.5, 20, dl_dv=quartic_lv, l_fun=quartic_l)
    explicit = OcpProblem(
        d=1, m=1, alpha=0.5, grid=implicit.grid, initial=implicit.initial,
        L=quartic_l, dL_dx=implicit.dL_dx, dL_dv=quartic_lv,
        f=implicit.f, df_dx=implicit.df_dx, df_dv=implicit.df_dv,
        lipschitz_M=1.0, control_update=cardano)

    sol_e = solve_pontryagin(explicit)
    # the root solve answers to the sweep's tolerance, not the state's
    for inner in (FixedPointOpts(), FixedPointOpts(tol=1e-6)):
        sol_i = solve_pontryagin(implicit, opts=SweepOpts(inner=inner))
        npt.assert_allclose(sol_i.U.values, sol_e.U.values, atol=1e-8)
        assert sol_i.stationarity_residual <= 1e-9


def test_implicit_control_update_couples_two_components():
    # dH/dv = v + s^3 (1, 1) + w with s = v_1 + v_2, so s solves
    # 2 s^3 + s + (w_1 + w_2) = 0 and v = -w - s^3; the root solve must
    # pass between the components to find it
    def closed_form(x, w, t):
        c = float(w[0] + w[1])
        disc = np.sqrt(c ** 2 / 16.0 + 1.0 / 216.0)
        s = np.cbrt(-c / 4.0 + disc) + np.cbrt(-c / 4.0 - disc)
        return -np.asarray(w, dtype=float) - s ** 3

    eye = np.eye(2)
    kw = dict(d=2, m=2, alpha=0.5, grid=Grid(0.0, 1.0, 20), initial=np.array([1.0, -0.5]),
              L=lambda x, v, t: 0.5 * float(x @ x + v @ v) + 0.25 * (v[0] + v[1]) ** 4,
              dL_dx=lambda x, v, t: x, dL_dv=lambda x, v, t: v + (v[0] + v[1]) ** 3,
              f=lambda x, v, t: x + v, df_dx=lambda x, v, t: eye,
              df_dv=lambda x, v, t: eye, lipschitz_M=1.0)
    sol_e = solve_pontryagin(OcpProblem(**kw, control_update=closed_form))
    sol_i = solve_pontryagin(OcpProblem(**kw))
    npt.assert_allclose(sol_i.U.values, sol_e.U.values, atol=1e-8)
    assert sol_i.stationarity_residual <= 1e-9


# -- the reduced second-order form ------------------------------------------------------

def test_reduced_residual_matches_hand_stencil_at_order_one():
    rng = np.random.default_rng(12)
    n = 9
    problem = reduced_problem(1.0, n)
    h = problem.grid.h
    qv = rng.normal(size=n + 1)
    q = TimeSeq(qv)
    dq = np.zeros(n + 1)
    dq[1:] = ((qv[1:] - qv[0]) - (qv[:-1] - qv[0])) / h
    u = TimeSeq(dq.reshape(-1, 1), 1, n)

    m_seq = np.zeros(n + 1)
    m_seq[:n] = -dq[1:]
    expect = np.abs((m_seq[:n] - m_seq[1:]) / h - qv[1:])

    res = euler_lagrange_residual(problem, q, u)
    assert (res.lo, res.hi) == (0, n - 1)
    npt.assert_allclose(res.valid_values()[:, 0], expect, atol=1e-10)


def test_reduced_residual_is_small_on_converged_solutions():
    opts = SweepOpts(tol_stationarity=1e-11, tol_control=1e-11,
                     inner=FixedPointOpts(tol=1e-14, max_iters=200))
    for alpha in (0.5, 1.0):
        problem = reduced_problem(alpha, 40)
        sol = solve_pontryagin(problem, opts=opts)
        res = euler_lagrange_residual(problem, sol.Q, sol.U)
        assert res.sup_norm() <= 1e-6


def test_reduced_residual_input_guards():
    problem = reduced_problem(0.5, 8)
    q = TimeSeq(np.linspace(1.0, 2.0, 9))
    with pytest.raises(ValueError, match="differs"):
        euler_lagrange_residual(problem, q, TimeSeq.constant(9.0, 8))

    wide = build_example("rotation", 0.5, 8)
    with pytest.raises(ValueError, match="not identity"):
        euler_lagrange_residual(wide, TimeSeq.zeros(8, 2), TimeSeq.zeros(8, 2))

    mixed = OcpProblem(
        d=2, m=1, alpha=0.5, grid=Grid(0.0, 1.0, 8), initial=np.zeros(2),
        L=lambda x, v, t: 0.0, dL_dx=lambda x, v, t: np.zeros(2),
        dL_dv=lambda x, v, t: np.zeros(1), f=lambda x, v, t: np.zeros(2),
        df_dx=lambda x, v, t: np.zeros((2, 2)),
        df_dv=lambda x, v, t: np.zeros((2, 1)), lipschitz_M=0.0)
    with pytest.raises(ValueError, match="matching"):
        euler_lagrange_residual(mixed, TimeSeq.zeros(8, 2), TimeSeq.zeros(8))


# -- problem container -------------------------------------------------------------------

def test_problem_validation():
    grid = Grid(0.0, 1.0, 4)
    kw = dict(grid=grid, initial=np.array([1.0]),
              L=lambda x, v, t: 0.0, dL_dx=lambda x, v, t: 0.0,
              dL_dv=lambda x, v, t: 0.0, f=lambda x, v, t: 0.0,
              df_dx=lambda x, v, t: 0.0, df_dv=lambda x, v, t: 0.0,
              lipschitz_M=1.0)
    with pytest.raises(ValueError):
        OcpProblem(d=0, m=1, alpha=0.5, **kw)
    with pytest.raises(ValueError):
        OcpProblem(d=1, m=1, alpha=1.5, **kw)
    with pytest.raises(ValueError):
        OcpProblem(d=2, m=1, alpha=0.5, **kw)  # initial has size 1
    for bad in (-1.0, float("nan")):  # bound < 0 is False for NaN
        with pytest.raises(ValueError):
            OcpProblem(d=1, m=1, alpha=0.5, **dict(kw, lipschitz_M=bad))


def test_hamiltonian_and_gradients_normalize_scalars():
    problem = build_example("lq", 1.0, 4)
    x, v, w = np.array([2.0]), np.array([3.0]), [0.5]
    npt.assert_allclose(problem.hamiltonian(x, v, w, 0.25),
                        0.5 * (4.0 + 9.0) + 0.5 * 5.0)
    npt.assert_allclose(problem.dh_dv(x, v, w, 0.25), [3.5])
    npt.assert_allclose(problem.dh_dx(x, v, w, 0.25), [2.5])
