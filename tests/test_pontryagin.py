"""Sweep solver pieces: state/adjoint closed forms, cost calculus, convergence."""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import frac_cauchy, pontryagin
from fracoc import (CauchyRhs, FixedPointDivergenceError, FixedPointOpts, Grid,
                    NonFiniteError, OcpProblem, OneParamGroup, SingularNodeError,
                    SweepDivergenceError, SweepOpts, TimeSeq, adjoint_solve,
                    build_example, cost, delta_minus, euler_lagrange_residual,
                    gateaux_derivative, gl_coefficients, invariance_residual,
                    rotation_groups, solve_left_cauchy, solve_pontryagin,
                    state_solve, stationarity_residual)
from fracoc.pontryagin import ControlUpdateError, _root_controls

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


def nonlinear_problem(alpha, n, vectorized=False):
    """The acceptance tests' f = sin x + v, per node or on stacked nodes."""
    return OcpProblem(
        d=1, m=1, alpha=alpha, grid=Grid(0.0, 1.0, n), initial=np.array([1.0]),
        L=lambda x, v, t: 0.5 * (x[..., 0] ** 2 + v[..., 0] ** 2),
        dL_dx=lambda x, v, t: x,
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: np.sin(x) + v,
        df_dx=lambda x, v, t: np.cos(x[..., 0]),
        df_dv=lambda x, v, t: 1.0,
        lipschitz_M=1.0,
        control_update=lambda x, w, t: -w,
        vectorized=vectorized,
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
    # h M = 1 exactly: I - h df_dx = 0, so no Newton iterate can be formed
    marginal = build_example("lq", 1.0, 1)
    for solve in (lambda: state_solve(marginal, TimeSeq.zeros(1)),
                  lambda: solve_pontryagin(marginal),
                  lambda: gateaux_derivative(marginal, TimeSeq.zeros(1), TimeSeq.zeros(1))):
        with pytest.raises(SingularNodeError) as exc:
            solve()
        assert exc.value.node == 1
    # h M = 1/2 needs no stricter gate
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


def counting_problem(problem):
    """A copy of ``problem`` whose f and df_dx count the nodes they are called at.

    A vectorized call at K stacked nodes counts K, a per-node call one.
    """
    calls = {"f": 0, "df_dx": 0}

    def counted(name):
        fn = getattr(problem, name)

        def wrapped(x, v, t):
            calls[name] += np.size(t)
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
    # the one Newton iterate walks df_dx once, at the start; f is walked at
    # the start and at that iterate, and the spent budget stops the solve
    # with no further walk
    n = problem.grid.n
    assert calls == {"f": 2 * n, "df_dx": opts.max_iters * n}


def wrong_sign_jacobian(example):
    # h^alpha = 0.1 and df_dx = 40 I give I - h^alpha df_dx = -3 I against a
    # true 0.9 I: each node's Newton step points away from its solution, so
    # the line search soon runs out of step lengths that lower the residual
    problem = build_example(example, 1.0, 10)
    return dataclasses.replace(problem, df_dx=lambda x, v, t: 40.0 * np.eye(problem.d))


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_a_wrong_sign_jacobian_stops_the_line_search_naming_df_dx(example):
    wrong = wrong_sign_jacobian(example)
    u = TimeSeq(np.sin(3.0 * np.outer(wrong.grid.times, np.arange(1, wrong.m + 1))))
    with pytest.raises(FixedPointDivergenceError, match="halving the Newton step.*df_dx"):
        state_solve(wrong, u, TIGHT_INNER)


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_a_wrong_sign_jacobian_is_named_after_one_df_dx_walk(example):
    # one Newton iterate, rejected at each of its 11 step lengths: df_dx is
    # walked once, f at the start and at each trial
    counting, calls = counting_problem(wrong_sign_jacobian(example))
    with pytest.raises(FixedPointDivergenceError, match="df_dx"):
        state_solve(counting, TimeSeq.constant(np.ones(counting.m), 10), TIGHT_INNER)
    assert calls["df_dx"] == 10
    assert calls["f"] <= 12 * 10


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


def test_a_start_that_solves_the_state_is_returned_unmarched():
    # f = 0 leaves the start's residual h^alpha max|f| at zero, read off the
    # first f walk: no df_dx walk and no march, and the march's own answer
    # (A = 0, b = 0) would be the start exactly
    problem = build_example("zero", 0.5, 1600)
    counting, calls = counting_problem(problem)
    q = state_solve(counting, TimeSeq.constant(np.ones(1), 1600))
    assert calls == {"f": 1600, "df_dx": 0}
    assert np.array_equal(q.values, np.ones((1601, 1)))


@pytest.mark.parametrize("example, differences",
                         (("lq", 1), ("rotation", 1), ("zero", 0)))
def test_state_solve_differences_each_iterate_but_not_the_start(monkeypatch, example,
                                                                differences):
    # the constant start has no memory term, so its residual needs no
    # delta_minus; an affine state is accepted at its one Newton iterate
    problem = build_example(example, 0.5, 40)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return delta_minus(*args, **kwargs)

    monkeypatch.setattr(pontryagin, "delta_minus", counted)
    state_solve(problem, TimeSeq.constant(np.ones(problem.m), 40))
    assert len(calls) == differences


def test_a_non_finite_start_still_takes_its_first_iterate():
    # a NaN residual at the start does not skip the first Newton iterate, so
    # the march names the node whose matrix I - h^alpha df_dx is not finite
    base = build_example("lq", 0.5, 10)
    t3 = base.grid.times[3]
    # one stacked call each: NaN in the rows of node 3 only
    bad = dataclasses.replace(
        base, f=lambda x, v, t: np.where((t == t3)[:, None], np.nan, base.f(x, v, t)),
        df_dx=lambda x, v, t: np.where((t == t3)[:, None, None], np.nan,
                                       base.df_dx(x, v, t)))
    with pytest.raises(SingularNodeError) as exc:
        state_solve(bad, TimeSeq.zeros(10, base.m))
    assert exc.value.node == 3


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

    # the poison is a per-node callback; the built-in ones serve either convention
    per_node = dataclasses.replace(base, vectorized=False)
    with pytest.raises(NonFiniteError) as exc:
        state_solve(dataclasses.replace(per_node, f=poisoned(base.f)), u)
    assert exc.value.node == 3
    q = state_solve(base, u)
    # the adjoint equation at node k reads its data at node k + 1
    with pytest.raises(NonFiniteError) as exc:
        adjoint_solve(dataclasses.replace(per_node, dL_dx=poisoned(base.dL_dx)), u, q)
    assert exc.value.node == 2
    with pytest.raises(NonFiniteError) as exc:
        gateaux_derivative(dataclasses.replace(per_node, df_dv=poisoned(base.df_dv)),
                           u, TimeSeq.constant(np.ones(base.m), 8))
    assert exc.value.node == 3


def test_a_state_whose_newton_steps_all_go_non_finite_stops_at_its_node():
    # f is finite only at the constant start Q_k = 1, so the Newton iterate
    # and each of its ten halvings are NaN from node 1 on
    calls = []

    def f(x, v, t):
        calls.append(1)
        return np.where(x == 1.0, 0.5 + 0 * v, np.nan)

    problem = dataclasses.replace(build_example("lq", 0.5, 8), f=f,
                                  df_dx=lambda x, v, t: 1.0)
    with pytest.raises(NonFiniteError, match="value or iterate at node 1$") as exc:
        state_solve(problem, TimeSeq.zeros(8, 1))
    assert exc.value.node == 1
    assert len(calls) == 12  # the start, the Newton iterate and ten halvings


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_non_finite_jacobian_is_reported_as_singular(example):
    # the state's linearization b = f - df_dx Q goes non-finite with df_dx,
    # but the node matrix is what is at fault
    base = build_example(example, 0.5, 8)
    t3 = base.grid.times[3]
    # one stacked call: NaN in the rows of node 3 only
    bad = dataclasses.replace(base, df_dx=lambda x, v, t: np.where(
        (t == t3)[:, None, None], np.nan, base.df_dx(x, v, t)))
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


def test_default_sweep_converges_on_lq_at_order_one_within_20_passes():
    # the sweep map of this problem has a real eigenvalue below -1, so an
    # unmixed sweep at unit weight diverges; the damped Anderson mixing does not
    problem = build_example("lq", 1.0, 10)
    sol = solve_pontryagin(problem, opts=SweepOpts(max_outer_iters=40))
    assert sol.outer_iters <= 20


def test_sweep_stops_early_when_the_increment_keeps_growing():
    # the default sweep diverges at this small alpha, its increment growing
    # on five passes in a row well before the pass budget
    opts = SweepOpts()
    with pytest.raises(SweepDivergenceError, match="grew on 5 passes") as exc:
        solve_pontryagin(build_example("lq", 0.01, 400), opts=opts)
    assert exc.value.iters < opts.max_outer_iters


def test_anderson_sweep_converges_at_small_alpha():
    # the secant retune this replaced diverged here
    problem = build_example("lq", 0.02, 100)
    opts = SweepOpts()
    sol = solve_pontryagin(problem, opts=opts)
    assert sol.stationarity_residual <= opts.tol_stationarity


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_anderson_sweep_pass_counts(example):
    # the secant retune this replaced took 50 (lq) and 54 (rotation) passes
    problem = build_example(example, 0.1, 100)
    sol = solve_pontryagin(problem)
    assert sol.outer_iters <= 30
    tight = solve_pontryagin(problem, opts=SweepOpts(tol_stationarity=1e-13,
                                                     tol_control=1e-13))
    npt.assert_allclose(sol.U.values, tight.U.values, rtol=0, atol=1e-8)


def test_builtin_sweep_marches_by_convolution(monkeypatch):
    # df_dx = I at every node, so no march of the sweep runs the node loop;
    # a count stands in for a timing, and the result is the loop's to round-off
    problem = build_example("rotation", 0.5, 200)
    calls = []
    node_loop = frac_cauchy._march

    def counted(*args, **kwargs):
        calls.append(1)
        return node_loop(*args, **kwargs)

    monkeypatch.setattr(frac_cauchy, "_march", counted)
    fast = solve_pontryagin(problem)
    assert calls == []
    monkeypatch.setattr(frac_cauchy, "_toeplitz_inverse", lambda *key: None)
    loop = solve_pontryagin(problem)
    assert calls and loop.outer_iters == fast.outer_iters
    for name in ("Q", "P", "U"):
        ref = getattr(loop, name).values
        npt.assert_allclose(getattr(fast, name).values, ref, rtol=0.0,
                            atol=1e-12 * np.abs(ref).max(), err_msg=name)


def march_jacobians(monkeypatch):
    """Record the ndim of every A handed to the sweep's linear marches."""
    seen = []
    march = pontryagin._linear_march

    def recorded(alpha, grid, a_mats, *args, **kwargs):
        seen.append(np.ndim(a_mats))
        return march(alpha, grid, a_mats, *args, **kwargs)

    monkeypatch.setattr(pontryagin, "_linear_march", recorded)
    return seen


def stacked_jacobians(problem):
    """``problem`` with df_dx and df_dv returning a (K, ...) stack of copies."""
    def stacked(fn):
        return lambda x, v, t: np.array([fn(x, v, t)] * len(t)).reshape(len(t), problem.d, -1)

    return dataclasses.replace(problem, df_dx=stacked(problem.df_dx),
                               df_dv=stacked(problem.df_dv))


@pytest.mark.parametrize("example", ("lq", "solved", "rotation", "zero"))
def test_builtin_examples_hand_the_march_one_matrix(monkeypatch, example):
    # every built-in Jacobian is one value for all nodes, and it reaches the
    # linear march as that one matrix, never as a stack of N + 1 copies
    problem = build_example(example, 0.5, 60)
    seen = march_jacobians(monkeypatch)
    sol = solve_pontryagin(problem)
    gateaux_derivative(problem, sol.U, sol.U)
    adjoint_solve(problem, sol.U, sol.Q)
    assert seen and set(seen) == {2}


@pytest.mark.parametrize("alpha", (1.0, 0.5, 0.05))
@pytest.mark.parametrize("example", ("lq", "solved", "rotation", "zero"))
def test_stacked_jacobians_give_the_same_sweep_bit_for_bit(monkeypatch, example, alpha):
    problem = build_example(example, alpha, 80)
    stacked = stacked_jacobians(problem)
    seen = march_jacobians(monkeypatch)
    a, b = solve_pontryagin(problem), solve_pontryagin(stacked)
    assert 2 in seen and 3 in seen  # each form took its own path
    for seq in ("Q", "P", "U"):
        assert np.array_equal(getattr(a, seq).values, getattr(b, seq).values), seq
    assert (a.outer_iters, a.stationarity_residual, a.cost) == \
        (b.outer_iters, b.stationarity_residual, b.cost)
    direction = TimeSeq(np.random.default_rng(5).normal(size=(81, problem.m)))
    assert gateaux_derivative(problem, a.U, direction) == \
        gateaux_derivative(stacked, a.U, direction)


@pytest.mark.parametrize("stacked", (False, True))
def test_the_adjoint_march_takes_the_walks_rows_themselves(monkeypatch, stacked):
    # the adjoint at node k reads node k + 1, which is row k of the walk over
    # nodes 1..N: dL_dx reaches the march as the walk returned it, and df_dx
    # as a transposed view of the walk's value, with no padded copy
    problem = build_example("rotation", 0.5, 40)
    problem = stacked_jacobians(problem) if stacked else problem
    u = TimeSeq(np.sin(np.outer(problem.grid.times, [1.0, 2.0])))
    q = state_solve(problem, u)
    walks, marches = [], []
    walk, march = pontryagin._walk, pontryagin._linear_march

    def recorded_walk(*args):
        walks.append(walk(*args))
        return walks[-1]

    def recorded_march(alpha, grid, a_mats, b_vecs, start, reverse=False):
        marches.append((a_mats, b_vecs, reverse))
        return march(alpha, grid, a_mats, b_vecs, start, reverse)

    monkeypatch.setattr(pontryagin, "_walk", recorded_walk)
    monkeypatch.setattr(pontryagin, "_linear_march", recorded_march)
    p = adjoint_solve(problem, u, q)
    (lx, fx), = walks
    (a_mats, b_vecs, reverse), = marches
    assert reverse and b_vecs is lx
    assert fx.ndim == (3 if stacked else 2) and np.shares_memory(a_mats, fx)
    assert np.array_equal(a_mats, np.swapaxes(fx, -1, -2))
    monkeypatch.undo()
    assert np.array_equal(p.values, adjoint_solve(problem, u, q).values)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_a_non_finite_initial_value_is_refused_at_node_0(bad):
    # as the public marches refuse their start, before any callback runs
    problem = build_example("lq", 0.5, 50)
    with pytest.raises(NonFiniteError) as exc:
        dataclasses.replace(problem, initial=np.array([bad]))
    assert exc.value.node == 0
    with pytest.raises(ValueError, match="initial value has size 2, expected 1"):
        dataclasses.replace(problem, initial=np.array([1.0, 2.0]))


@pytest.mark.parametrize("grid", (None, 50, (0.0, 1.0, 50)), ids=("None", "int", "tuple"))
def test_a_grid_that_is_not_a_grid_is_refused_by_name(grid):
    # not an AttributeError from the first sweep that reads grid.n
    with pytest.raises(ValueError, match="^grid must be a Grid"):
        dataclasses.replace(build_example("lq", 0.5, 50), grid=grid)


def test_anderson_mix_drops_an_all_zero_difference():
    # the cap counts 0 / 0 as infinite, so a zero column is dropped with
    # every column older than it, and a lone zero column leaves the damped step
    rng = np.random.default_rng(2)
    f, g, older = rng.normal(size=6), rng.normal(size=6), rng.normal(size=6)
    damped = g - (1.0 - pontryagin._ANDERSON_BETA) * f
    for df in (np.zeros((6, 1)), np.column_stack((older, np.zeros(6)))):
        mixed, kept_f, kept_g = pontryagin._anderson_mix(df, rng.normal(size=df.shape), f, g)
        npt.assert_array_equal(mixed, damped)
        assert kept_f.shape == kept_g.shape == (6, 0)
    newest, dg = rng.normal(size=6), rng.normal(size=6)
    mixed, kept_f, kept_g = pontryagin._anderson_mix(
        np.column_stack((np.zeros(6), newest)), np.column_stack((rng.normal(size=6), dg)),
        f, g)
    npt.assert_array_equal(kept_f, newest[:, None])
    npt.assert_array_equal(kept_g, dg[:, None])
    gamma = np.linalg.lstsq(newest[:, None], f, rcond=None)[0]
    npt.assert_allclose(mixed, g - dg * gamma - (1.0 - pontryagin._ANDERSON_BETA)
                        * (f - newest * gamma), rtol=1e-14)


def test_anderson_mix_caps_from_its_own_solve_and_keeps_its_arguments(monkeypatch):
    # the condition comes from the least-squares solve's singular values, so
    # there is no SVD of its own; what it drops is a slice, not a mutation
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rng = np.random.default_rng(3)
    f, g, base = rng.normal(size=8), rng.normal(size=8), rng.normal(size=(8, 3))
    # the oldest column repeats the newest, so only the first try is singular
    df, dg = np.column_stack((base[:, 2], base)), rng.normal(size=(8, 4))
    df_in, dg_in = df.copy(), dg.copy()
    mixed, kept_f, kept_g = pontryagin._anderson_mix(df, dg, f, g)
    npt.assert_array_equal(df, df_in)
    npt.assert_array_equal(dg, dg_in)
    npt.assert_array_equal(kept_f, base)
    npt.assert_array_equal(kept_g, dg[:, 1:])
    gamma = np.linalg.lstsq(base, f, rcond=None)[0]
    npt.assert_allclose(mixed, g - dg[:, 1:] @ gamma - (1.0 - pontryagin._ANDERSON_BETA)
                        * (f - base @ gamma), rtol=1e-14)


def test_sweep_says_when_its_pass_budget_runs_out():
    opts = SweepOpts(max_outer_iters=3)
    with pytest.raises(SweepDivergenceError, match=r"\): the pass budget ran out$") as exc:
        solve_pontryagin(build_example("lq", 0.5, 40), opts=opts)
    assert exc.value.iters == 3


def test_sweep_stops_at_once_on_a_non_finite_residual():
    problem = build_example("lq", 0.5, 40)
    dl_dv = problem.dL_dv
    broken = dataclasses.replace(problem, dL_dv=lambda x, v, t: np.where(
        (t == problem.grid.times[20])[:, None], np.nan, dl_dv(x, v, t)))
    with pytest.raises(SweepDivergenceError, match="not finite") as exc:
        solve_pontryagin(broken)
    assert exc.value.iters == 1
    assert np.isnan(exc.value.residual)


def test_a_sweep_whose_residual_overflows_stops_as_not_finite():
    # f = 3x + v at alpha 0.3, N 60: the sweep diverges until a square in
    # the stationarity norm passes the float range
    problem = build_example("lq", 0.3, 60)
    steep = dataclasses.replace(problem, f=lambda x, v, t: 3.0 * x + v,
                                df_dx=lambda x, v, t: 3.0, lipschitz_M=3.0)
    with pytest.raises(SweepDivergenceError, match="not finite") as exc:
        solve_pontryagin(steep)
    assert exc.value.residual == np.inf


def test_nonlinear_sweep_at_small_alpha_stops_in_the_sweep():
    # the state of every pass is solved; it is the outer sweep that diverges
    with pytest.raises(SweepDivergenceError):
        solve_pontryagin(nonlinear_problem(0.05, 100, vectorized=True))


def random_affine_problem(rng, alpha, d, m, n):
    """f = A x + B v + e and L = (x'W_x x + v'W_v v) / 2, W_x and W_v SPD.

    Returns the problem and its controls on nodes 1..N from one dense solve
    of the whole discrete system, N (2d + m) unknowns in the order Q_1..Q_N,
    P_0..P_{N-1}, U_1..U_N:

        sum_{r<k} c_r (Q_{k-r} - Q_0) - h^a (A Q_k + B U_k + e) = 0,  k = 1..N
        sum_{r<N-k} c_r P_{k+r} - h^a (A' P_k + W_x Q_{k+1}) = 0,     k = 0..N-1
        W_v U_k + B' P_{k-1} = 0,                                     k = 1..N
    """
    def spd(k):
        g = rng.normal(size=(k, k))
        return g @ g.T + k * np.eye(k)

    a = rng.choice((0.3, 1.0, 2.0)) * rng.normal(size=(d, d))
    b, e, initial = rng.normal(size=(d, m)), rng.normal(size=d), rng.normal(size=d)
    wx, wv = spd(d), spd(m)
    gain = np.linalg.solve(wv, b.T)  # U* = -W_v^-1 B' w
    problem = OcpProblem(
        d=d, m=m, alpha=alpha, grid=Grid(0.0, 1.0, n), initial=initial,
        L=lambda x, v, t: 0.5 * (np.einsum("...i,ij,...j->...", x, wx, x)
                                 + np.einsum("...i,ij,...j->...", v, wv, v)),
        dL_dx=lambda x, v, t: x @ wx,
        dL_dv=lambda x, v, t: v @ wv,
        f=lambda x, v, t: x @ a.T + v @ b.T + e,
        df_dx=lambda x, v, t: a,
        df_dv=lambda x, v, t: b,
        lipschitz_M=float(np.linalg.norm(a, 2)),
        control_update=lambda x, w, t: -w @ gain.T,
        vectorized=True)

    ha = problem.grid.h ** alpha
    c = gl_coefficients(alpha, n).coeffs[:n]
    k = np.arange(n)
    lower = np.where(k[:, None] >= k, c[np.abs(k[:, None] - k)], 0.0)
    eye_n, eye_d = np.eye(n), np.eye(d)
    system = np.block([
        [np.kron(lower, eye_d) - ha * np.kron(eye_n, a), np.zeros((n * d, n * d)),
         -ha * np.kron(eye_n, b)],
        [-ha * np.kron(eye_n, wx), np.kron(lower.T, eye_d) - ha * np.kron(eye_n, a.T),
         np.zeros((n * d, n * m))],
        [np.zeros((n * m, n * d)), np.kron(eye_n, b.T), np.kron(eye_n, wv)]])
    rhs = np.concatenate((np.kron(np.cumsum(c), initial) + ha * np.tile(e, n),
                          np.zeros(n * (d + m))))
    return problem, np.linalg.solve(system, rhs)[2 * n * d:].reshape(n, m)


def random_affine_draws(seed, count):
    """The first ``count`` random affine problems at N 60 drawn from
    ``default_rng(seed)``, each as (alpha, d, m, problem, dense controls)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha = float(rng.choice((0.05, 0.1, 0.3, 0.5, 0.75, 1.0)))
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        yield (alpha, d, m, *random_affine_problem(rng, alpha, d, m, 60))


def assert_near_dense(sol, exact, case):
    # relative to max(1, |U|), as the sweep's own tolerances are absolute
    gap = np.abs(sol.U.values[1:] - exact).max()
    assert gap <= 1e-8 * max(1.0, np.abs(exact).max()), (*case, gap)


def test_random_affine_sweeps_match_one_dense_solve():
    # no step-size gate refuses a problem whose linear system is well posed,
    # and no state solve stops: each sweep converges to the dense solution
    # or stops in the outer iteration
    converged = 0
    for alpha, d, m, problem, exact in random_affine_draws(2012, 40):
        try:
            sol = solve_pontryagin(problem)
        except SweepDivergenceError:
            continue
        assert_near_dense(sol, exact, (alpha, d, m))
        converged += 1
    assert converged >= 30


def test_a_random_affine_sweep_that_wanders_still_converges():
    # the 14th draw of default_rng(1) goes 84 passes without a new best
    # stationarity residual and converges at pass 168, within 1.2e-15 of the
    # dense solve; a stall stop after 84 passes or fewer would refuse it
    *_, (alpha, d, m, problem, exact) = random_affine_draws(1, 14)
    assert (alpha, d, m) == (0.3, 2, 1)
    assert_near_dense(solve_pontryagin(problem), exact, (alpha, d, m))


def dense_optimality_system(problem):
    """The residual map of ``problem``'s discrete optimality system, written
    out densely for any stacked ``OcpProblem``, with no march, FFT or
    difference operator of the package.

    The unknowns z hold Q_1..Q_N, P_0..P_{N-1} and U_1..U_N, node by node.
    T is the N x N lower-triangular Toeplitz matrix of c_0..c_{N-1}, and each
    callback takes the stacked rows of nodes 1..N in one call, so row k of
    each block below is node k + 1 (k = 0..N-1):

        T (Q - Q_0) - h^a f(Q_{k+1}, U_{k+1}, t_{k+1}) = 0
        T' P - h^a (dL/dx + (df/dx)' P_k)|_{k+1} = 0
        dL/dv(Q_{k+1}, U_{k+1}, t_{k+1}) + (df/dv|_{k+1})' P_k = 0
    """
    d, m, n = problem.d, problem.m, problem.grid.n
    ha, t = problem.grid.h ** problem.alpha, problem.grid.times[1:]
    c = gl_coefficients(problem.alpha, n).coeffs[:n]
    k = np.arange(n)
    lower = np.where(k[:, None] >= k, c[np.abs(k[:, None] - k)], 0.0)

    def rows(value, *shape):  # n stacked values, or one Jacobian at every node
        return np.broadcast_to(np.asarray(value, dtype=float).reshape(-1, *shape),
                               (n, *shape))

    def residual(z):
        q, p, u = np.split(z, [n * d, 2 * n * d])
        q, p, u = q.reshape(n, d), p.reshape(n, d), u.reshape(n, m)
        fx = rows(problem.df_dx(q, u, t), d, d)
        fv = rows(problem.df_dv(q, u, t), d, m)
        state = lower @ (q - problem.initial) - ha * rows(problem.f(q, u, t), d)
        adjoint = lower.T @ p - ha * (rows(problem.dL_dx(q, u, t), d)
                                      + np.einsum("kij,ki->kj", fx, p))
        control = rows(problem.dL_dv(q, u, t), m) + np.einsum("kij,ki->kj", fv, p)
        return np.concatenate((state.ravel(), adjoint.ravel(), control.ravel()))

    return residual


def newton_optimality_solve(problem):
    """Q_1..Q_N, P_0..P_{N-1} and U_1..U_N solving ``dense_optimality_system``
    by Newton with a dense central-difference Jacobian (step 1e-6), halving
    the step until ||r||_2 decreases, from Q = Q_0, P = 0, U = 0 to
    ||r||_inf <= 1e-13."""
    d, m, n = problem.d, problem.m, problem.grid.n
    residual = dense_optimality_system(problem)
    z = np.concatenate((np.tile(problem.initial, n), np.zeros(n * (d + m))))
    r = residual(z)
    steps = 1e-6 * np.eye(z.size)
    for _ in range(20):
        if np.abs(r).max() <= 1e-13:
            q, p, u = np.split(z, [n * d, 2 * n * d])
            return q.reshape(n, d), p.reshape(n, d), u.reshape(n, m)
        jac = np.column_stack([residual(z + e) - residual(z - e) for e in steps]) / 2e-6
        dz, lam = np.linalg.solve(jac, -r), 1.0
        while np.linalg.norm(trial := residual(z + lam * dz)) >= np.linalg.norm(r):
            lam /= 2
            assert lam >= 2.0 ** -30, "no step decreases the residual"
        z, r = z + lam * dz, trial
    raise AssertionError(f"Newton left a residual of {np.abs(r).max():.3e}")


def quartic_problem(alpha, n):
    """f = x + v and L = (|x|^2 + |v|^2) / 2 + |x|^4 / 4 from x_0 = (1, 2), stacked."""
    return OcpProblem(
        d=2, m=2, alpha=alpha, grid=Grid(0.0, 1.0, n), initial=np.array([1.0, 2.0]),
        L=lambda x, v, t: (0.5 * ((x * x).sum(-1) + (v * v).sum(-1))
                           + 0.25 * (x * x).sum(-1) ** 2),
        dL_dx=lambda x, v, t: x * (1.0 + (x * x).sum(-1, keepdims=True)),
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: x + v,
        df_dx=lambda x, v, t: np.eye(2),
        df_dv=lambda x, v, t: np.eye(2),
        lipschitz_M=1.0,
        control_update=lambda x, w, t: -w,
        vectorized=True)


@pytest.mark.parametrize("problem", [
    *(nonlinear_problem(alpha, n, vectorized=True)
      for alpha in (0.5, 0.75, 1.0) for n in (50, 100)),
    *(quartic_problem(alpha, n) for alpha in (0.5, 1.0) for n in (25, 50))],
    ids=lambda problem: f"d{problem.d}-a{problem.alpha}-n{problem.grid.n}")
def test_nonlinear_sweeps_match_the_newton_oracle(problem):
    # the sweep's converged (Q, P, U) against Newton on the whole discrete
    # system; each gap is at most 1e-8
    q, p, u = newton_optimality_solve(problem)
    sol = solve_pontryagin(problem)
    assert np.abs(sol.Q.values[1:] - q).max() <= 1e-8
    assert np.abs(sol.P.values[:-1] - p).max() <= 1e-8
    assert np.abs(sol.U.values[1:] - u).max() <= 1e-8


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


def test_sweep_options_refuse_inner_options_of_another_type():
    # each was taken, and the sweep failed at its first read of inner.tol
    for bad in (None, 1e-9, {"tol": 1e-9}):
        with pytest.raises(ValueError, match=r"^inner must be a FixedPointOpts, got inner="):
            SweepOpts(inner=bad)


# -- scalar control updates without a closed form -------------------------------------

def root_controls(problem, x, w, t, v, tol):
    """``_root_controls`` from dH/dv at the start v, walked as the sweep walks it."""
    g = problem._rows("dL_dv", x, v, t) + np.einsum(
        "kdm,kd->km", problem._rows("df_dv", x, v, t), w)
    return _root_controls(problem, x, w, t, v, g, tol)


def stacked_roots(dh, starts, tol, calls=None):
    """``_root_controls`` on nodes 1..K whose dH/dv at node k is dh(s, k)."""
    grid = Grid(0.0, 1.0, len(starts))

    def dl_dv(x, v, t):
        k = grid.index_of(t)
        if calls is not None:
            calls[k] = calls.get(k, 0) + 1
        return dh(float(v[0]), k)

    zero = lambda x, v, t: 0.0
    problem = OcpProblem(d=1, m=1, alpha=0.5, grid=grid, initial=np.zeros(1), L=zero,
                         dL_dx=zero, dL_dv=dl_dv, f=zero, df_dx=zero, df_dv=zero,
                         lipschitz_M=1.0)
    rows = np.zeros((len(starts), 1))
    return root_controls(problem, rows, rows, grid.times[1:],
                         np.reshape(starts, (-1, 1)), tol)[:, 0]


def test_root_controls_find_monotone_cubic_root():
    root, = stacked_roots(lambda s, k: s ** 3 - 2.0, [1.0], 1e-13)
    npt.assert_allclose(root, 2.0 ** (1.0 / 3.0), rtol=1e-10)


def test_root_controls_report_rootless_input():
    with pytest.raises(ControlUpdateError, match="no sign change found") as err:
        stacked_roots(lambda s, k: 1.0 / (1.0 + s * s) + 0.5, [0.0], 1e-13)
    assert err.value.node == 1


@pytest.mark.parametrize("dh, x0", [
    (lambda s: float(np.clip(s - 5.0, -1.0, 1.0)), 0.0),
    (lambda s: float(np.clip(2.0 - s, -1.0, 1.0)), 10.0),
    (lambda s: 0.0 if s >= 3.0 else -1.0, 0.0),
    (lambda s: 0.0 if s <= -3.0 else 1.0, 0.0),
], ids=["plateau", "decreasing", "root_at_top", "root_at_bottom"])
def test_root_controls_bracket_and_close_on_hard_input(dh, x0):
    root, = stacked_roots(lambda s, k: dh(s), [x0], 1e-12)
    assert abs(dh(root)) <= 1e-12


def test_root_controls_close_a_convex_bracket_from_both_ends():
    # plain regula falsi keeps the lower end and takes 67 evaluations here;
    # the Illinois step halves that end's value and takes 15
    calls = {}
    root, = stacked_roots(lambda s, k: s ** 10 - 1.0, [0.2], 1e-12, calls)
    assert abs(root - 1.0) <= 1e-12 and calls[1] <= 20


@pytest.mark.parametrize("first, root, most", [
    (lambda s: s - 1.0, 1.0, 3),               # the start, then one trial per component
    (lambda s: s ** 3 - 2.0, 2.0 ** (1.0 / 3.0), 17),  # a closed bracket, then a trial
])
def test_root_controls_pass_fresh_values_between_components(first, root, most):
    # dH/dv = (first(v_1), v_2 - v_1): the second component starts from
    # dH/dv at the first one's root only if the values found there are kept
    calls = []
    grid = Grid(0.0, 1.0, 1)
    zero = lambda x, v, t: 0.0

    def dl_dv(x, v, t):
        calls.append(1)
        return np.array([first(v[0]), v[1] - v[0]])

    problem = OcpProblem(d=1, m=2, alpha=0.5, grid=grid, initial=np.zeros(1), L=zero,
                         dL_dx=zero, dL_dv=dl_dv, f=zero, df_dx=zero,
                         df_dv=lambda x, v, t: np.zeros(2), lipschitz_M=1.0)
    v = root_controls(problem, np.zeros((1, 1)), np.zeros((1, 1)), grid.times[1:],
                      np.zeros((1, 2)), 1e-12)
    npt.assert_allclose(v, [[root, root]], rtol=1e-12)
    assert len(calls) <= most


def test_root_controls_keep_each_node_to_its_own_solve():
    # nodes that close after different numbers of steps, or none, must each
    # end where a solve of that node alone ends, bit for bit
    funcs = [lambda s: s - 0.3, lambda s: s ** 3 - 2.0,
             lambda s: float(np.clip(s - 5.0, -1.0, 1.0)),
             lambda s: np.tanh(3.0 * (s + 2.5)), lambda s: s - 0.7,
             lambda s: float(np.clip(2.0 - s, -1.0, 1.0)), lambda s: 0.01 * (s + 40.0)]
    starts = [0.0, 1.0, 0.0, 0.0, 0.7, 10.0, 0.0]
    calls = {}
    roots = stacked_roots(lambda s, k: funcs[k - 1](s), starts, 1e-12, calls)
    for k, (fn, x0) in enumerate(zip(funcs, starts), 1):
        alone, = stacked_roots(lambda s, _: fn(s), [x0], 1e-12)
        assert roots[k - 1] == alone
        assert abs(fn(alone)) <= 1e-12
    assert len(set(calls.values())) >= 4  # the nodes did close at different steps


@pytest.mark.parametrize("start_20, width", [(0.0, 1.0), (-2.4, 0.3)])
def test_root_controls_name_the_lowest_non_finite_node(start_20, width):
    # NaN within width of the root at nodes 20 and 30, met in one walk: the
    # first, or the first closing step, node 20 having taken longer to bracket
    def dh(s, k):
        return np.nan if k in (20, 30) and abs(s - 0.6) < width else s - 0.6

    starts = np.zeros(40)
    starts[19] = start_20
    with pytest.raises(ControlUpdateError, match="node 20: dH/dv not finite") as err:
        stacked_roots(dh, starts, 1e-12)
    assert err.value.node == 20


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


def test_root_solve_starts_from_the_stationarity_walk(monkeypatch):
    # each pass walks dH/dv at (Q, U, P_{k-1}) once, for the residual, and the
    # root solve starts from those rows, bit for bit the ones a walk of its own
    # would give: 52 dL_dv calls over 12 passes here, where walking them again
    # in the root solve made 64
    closed = build_example("lq", 0.5, 6400)
    calls, inside, starts = [], [], []
    root = pontryagin._root_controls

    def dl_dv(x, v, t):
        calls.append(1)
        return closed.dL_dv(x, v, t)

    def start_checked(problem, x, w, t, v, g, tol):
        own = closed._rows("dL_dv", x, v, t) + np.einsum(
            "...dm,...d->...m", closed._rows("df_dv", x, v, t), w)
        starts.append(np.array_equal(g, own))
        before = len(calls)
        try:
            return root(problem, x, w, t, v, g, tol)
        finally:
            inside.append(len(calls) - before)

    monkeypatch.setattr(pontryagin, "_root_controls", start_checked)
    sol = solve_pontryagin(dataclasses.replace(closed, control_update=None, dL_dv=dl_dv))
    assert starts == [True] * sol.outer_iters
    assert len(calls) - sum(inside) == sol.outer_iters  # one walk a pass outside
    assert len(calls) <= 4.5 * sol.outer_iters, f"{len(calls)} over {sol.outer_iters}"
    assert sol.stationarity_residual <= 1e-9
    assert np.abs(sol.U.values - solve_pontryagin(closed).U.values).max() <= 1e-8


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


def test_reduced_residual_checks_the_state_before_differencing_it():
    # the regularized difference reads Q_0, so the state must be valid on
    # [0, N]; each of these was misreported by the difference or by the
    # control comparison
    problem = reduced_problem(0.5, 10)
    sol = solve_pontryagin(problem)
    with pytest.raises(ValueError, match=r"^state must be valid on all of \[0, 10\], "
                                         r"got \[1, 10\]"):
        euler_lagrange_residual(problem, TimeSeq(sol.Q.values, 1), sol.U)
    with pytest.raises(ValueError, match="^state has 12 slots but the grid has 11 nodes"):
        euler_lagrange_residual(problem, TimeSeq(np.ones(12)), sol.U)
    with pytest.raises(ValueError, match="^state has dimension 2, expected 1"):
        euler_lagrange_residual(problem, TimeSeq(np.repeat(sol.Q.values, 2, axis=1)), sol.U)


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
    with pytest.raises(ValueError, match="d=1.0"):  # not a failure in reshape
        OcpProblem(d=1.0, m=1, alpha=0.5, **kw)
    with pytest.raises(ValueError, match="m=1.0"):
        OcpProblem(d=1, m=1.0, alpha=0.5, **kw)
    assert OcpProblem(d=np.int64(1), m=np.int64(1), alpha=0.5, **kw).d == 1
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


# -- stacked and per-node callbacks --------------------------------------------

def scaling_groups():
    group = OneParamGroup(map=lambda s, x: np.exp(s) * np.asarray(x),
                          generator=lambda x: np.asarray(x))
    return (group, group, group)


@pytest.mark.parametrize("example", ("lq", "rotation"))
def test_per_node_and_vectorized_forms_agree_bit_for_bit(example):
    # the built-in callbacks serve either convention, so the two problems
    # differ only in how the layer calls them
    stacked = build_example(example, 0.5, 200)
    per_node = dataclasses.replace(stacked, vectorized=False)
    a, b = solve_pontryagin(stacked), solve_pontryagin(per_node)
    for seq in ("Q", "P", "U"):
        assert np.array_equal(getattr(a, seq).values, getattr(b, seq).values)
    assert (a.cost, a.stationarity_residual, a.outer_iters) == \
        (b.cost, b.stationarity_residual, b.outer_iters)
    assert cost(stacked, a.U) == cost(per_node, a.U)
    assert np.array_equal(stationarity_residual(stacked, a.Q, a.U, a.P).values,
                          stationarity_residual(per_node, a.Q, a.U, a.P).values)
    direction = TimeSeq(np.random.default_rng(3).normal(size=(201, stacked.m)))
    assert gateaux_derivative(stacked, a.U, direction) == \
        gateaux_derivative(per_node, a.U, direction)
    groups = rotation_groups() if example == "rotation" else scaling_groups()
    samples = (-0.5, 0.25, 1.0)
    assert invariance_residual(stacked, groups, a, samples) == \
        invariance_residual(per_node, groups, a, samples)

    # a wrapped callback is stored as given and called once per walk
    calls = []

    def wrapped_f(x, v, t):
        calls.append(np.shape(t))
        return stacked.f(x, v, t)

    traced = dataclasses.replace(stacked, f=wrapped_f)
    assert traced.f is wrapped_f and traced.vectorized
    c = solve_pontryagin(traced)
    assert np.array_equal(c.U.values, a.U.values) and c.outer_iters == a.outer_iters
    # each pass walks f at the start and at the one Newton iterate
    assert calls == [(200,)] * (2 * a.outer_iters)


def test_vectorized_callbacks_only_see_stacked_nodes():
    base = build_example("rotation", 0.5, 30)
    seen = set()

    def checked(name):
        fn = getattr(base, name)

        def stacked_only(x, second, t):
            assert x.ndim == second.ndim == 2 and t.ndim == 1
            assert len(x) == len(second) == len(t)
            seen.add((name, len(t)))
            return fn(x, second, t)
        return stacked_only

    names = ("L", "dL_dx", "dL_dv", "f", "df_dx", "df_dv", "control_update")
    problem = dataclasses.replace(base, **{name: checked(name) for name in names})
    sol = solve_pontryagin(problem)
    gateaux_derivative(problem, sol.U, sol.U)
    x, v, w = np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.array([0.25, 0.0])
    problem.f_at(x, v, 0.5), problem.fx_at(x, v, 0.5), problem.fv_at(x, v, 0.5)
    problem.lx_at(x, v, 0.5), problem.hamiltonian(x, v, w, 0.5)
    problem.dh_dv(x, v, w, 0.5), problem.dh_dx(x, v, w, 0.5)
    assert seen == {(name, k) for name in names for k in (30, 1)} - {("control_update", 1)}


def test_closed_form_update_and_root_solve_agree_when_stacked():
    # without control_update the root solve walks dL_dv and df_dv over all
    # open nodes in one call each per evaluation
    stacked = build_example("lq", 0.5, 40)
    rooted = dataclasses.replace(stacked, control_update=None)
    a, b = solve_pontryagin(stacked), solve_pontryagin(rooted)
    assert b.stationarity_residual <= SweepOpts().tol_stationarity
    npt.assert_allclose(b.U.values, a.U.values, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("vectorized", (True, False))
def test_a_one_element_running_cost_counts_as_a_scalar(vectorized):
    # L returning x ** 2 keeps a length-one axis per node; float() of such an
    # array raises under numpy 2, after the sweep had converged
    lq = dataclasses.replace(build_example("lq", 0.5, 20), vectorized=vectorized)
    boxed = dataclasses.replace(lq, L=lambda x, v, t: 0.5 * (x ** 2 + v ** 2))
    sol, ref = solve_pontryagin(boxed), solve_pontryagin(lq)
    assert sol.cost == ref.cost
    assert cost(boxed, ref.U) == cost(lq, ref.U)
    x, v, w = np.array([2.0]), np.array([3.0]), np.array([0.5])
    assert boxed.hamiltonian(x, v, w, 0.25) == lq.hamiltonian(x, v, w, 0.25)

    rot = dataclasses.replace(build_example("rotation", 0.5, 20), vectorized=vectorized)
    boxed = dataclasses.replace(rot, L=lambda x, v, t: 0.5 * (
        (x * x).sum(-1, keepdims=True) + (v * v).sum(-1, keepdims=True)))
    sol = solve_pontryagin(rot)
    assert invariance_residual(boxed, rotation_groups(), sol, (0.5, 1.0)) == \
        invariance_residual(rot, rotation_groups(), sol, (0.5, 1.0))


def test_callback_values_of_the_wrong_size_are_refused():
    stacked = build_example("lq", 0.5, 8)
    u = TimeSeq.zeros(8)
    three = dataclasses.replace(stacked, df_dx=lambda x, v, t: np.ones(3))
    with pytest.raises(ValueError, match=r"df_dx returned 3 values, expected 1 or 8: "):
        state_solve(three, u)
    with pytest.raises(ValueError, match=r"df_dx returned 3 values, expected 1: "):
        three.fx_at(np.ones(1), np.zeros(1), 0.5)
    short = dataclasses.replace(stacked, f=lambda x, v, t: (x + v)[1:])
    with pytest.raises(ValueError, match=r"f returned 7 values, expected 8: "):
        state_solve(short, u)
    rot = build_example("rotation", 0.5, 8)
    with pytest.raises(ValueError, match=r"L returned 16 values, expected 8: "):
        cost(dataclasses.replace(rot, L=lambda x, v, t: x * x), TimeSeq.zeros(8, 2))
    # the right count laid out node last is refused, not read as rows
    node_last = dataclasses.replace(rot, dL_dx=lambda x, v, t: x.T)
    with pytest.raises(ValueError, match=r"dL_dx returned 16 values, .*\(got shape \(2, 8\)\)"):
        adjoint_solve(node_last, TimeSeq.zeros(8, 2), TimeSeq.zeros(8, 2))
    # one call per node: a node's value has the size of one node's value
    per_node = dataclasses.replace(three, vectorized=False)
    with pytest.raises(ValueError, match=r"df_dx returned 3 values at t = .*, expected 1$"):
        state_solve(per_node, u)
    with pytest.raises(ValueError, match=r"f returned 2 values at t = .*, expected 1$"):
        state_solve(dataclasses.replace(stacked, vectorized=False,
                                        f=lambda x, v, t: np.ones(2)), u)


def test_one_value_for_many_stacked_nodes_is_refused_but_from_a_jacobian():
    lq = build_example("lq", 0.5, 8)
    one = dataclasses.replace(lq, f=lambda x, v, t: x[0] + v[0])
    with pytest.raises(ValueError, match=r"^f returned 1 values, expected 8: one for each "
                                         r"of the 8 nodes.* needs vectorized=False$"):
        state_solve(one, TimeSeq.zeros(8))
    # at one node a single value is that node's row
    npt.assert_array_equal(one.f_at([2.0], [3.0], 0.5), [5.0])
    # lq's df_dx and df_dv return one matrix for every node
    assert pontryagin._walk(lq, np.ones((9, 1)), np.ones((9, 1)), "df_dx")[0].shape == (1, 1)


def test_a_per_node_callback_built_vectorized_is_refused():
    # acceptance test 7's problem as written there, with x[0]; built vectorized,
    # its L and df_dx read node 1's row as one value for every node, and the
    # sweep converged to another problem's U, with cost 1.67 against 0.71
    per_node = OcpProblem(
        d=1, m=1, alpha=0.5, grid=Grid(0.0, 1.0, 50), initial=np.array([1.0]),
        L=lambda x, v, t: 0.5 * (x[0] ** 2 + v[0] ** 2),
        dL_dx=lambda x, v, t: x,
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: np.sin(x) + v,
        df_dx=lambda x, v, t: np.cos(x[0]),
        df_dv=lambda x, v, t: 1.0,
        lipschitz_M=1.0,
        control_update=lambda x, w, t: -w,
    )
    assert solve_pontryagin(per_node).cost == pytest.approx(0.71, abs=0.005)
    with pytest.raises(ValueError, match=r"^L returned 1 values, expected 50: .*"
                                         r"needs vectorized=False$"):
        solve_pontryagin(dataclasses.replace(per_node, vectorized=True))


@pytest.mark.parametrize("vectorized", (True, False))
def test_callbacks_at_no_nodes_keep_their_value_shape(vectorized):
    # a walk over no nodes still gives (0, *shape), per node as stacked, except
    # that a vectorized Jacobian's one value stays one matrix
    rot = dataclasses.replace(build_example("rotation", 0.5, 8), vectorized=vectorized)
    none, t = np.zeros((0, 2)), np.zeros(0)
    fv = (2, 2) if vectorized else (0, 2, 2)
    for name, shape in (("L", (0,)), ("f", (0, 2)), ("df_dv", fv)):
        assert rot._rows(name, none, none, t).shape == shape


def test_a_complex_initial_value_is_refused_by_name():
    with pytest.raises(ValueError, match="^initial is a complex value"):
        dataclasses.replace(build_example("lq", 0.5, 20), initial=np.array([1.0 + 2j]))


@pytest.mark.parametrize("accessor, arg", [
    *((name, arg) for name in ("f_at", "lx_at", "lv_at", "fx_at", "fv_at")
      for arg in ("x", "v", "t")),
    *((name, arg) for name in ("hamiltonian", "dh_dv", "dh_dx")
      for arg in ("x", "v", "w", "t"))])
def test_one_node_accessors_refuse_a_complex_argument_by_name(accessor, arg):
    # a float conversion would keep the real part and only warn:
    # hamiltonian(1 + 2j, 0, 1, 0.5) would be the 1.5 of x = 1
    lq = build_example("lq", 0.5, 8)
    args = {"x": np.array([1.0]), "v": [0.0], "w": [1.0], "t": 0.5}
    if accessor not in ("hamiltonian", "dh_dv", "dh_dx"):
        del args["w"]
    args[arg] = np.add(args[arg], 2j)
    with pytest.raises(ValueError, match=f"^{arg} is a complex value"):
        getattr(lq, accessor)(**args)


@pytest.mark.parametrize("vectorized", (True, False))
def test_complex_callback_values_are_refused(vectorized):
    # a float conversion would keep the real part and only warn
    lq = dataclasses.replace(build_example("lq", 0.5, 20), vectorized=vectorized)
    shifted = dataclasses.replace(lq, f=lambda x, v, t: lq.f(x, v, t) + 1j)
    with pytest.raises(ValueError, match="^f returned a complex value"):
        solve_pontryagin(shifted)
    with pytest.raises(ValueError, match="^dL_dv returned a complex value"):
        dataclasses.replace(lq, dL_dv=lambda x, v, t: 1j * v).lv_at([1.0], [2.0], 0.5)
