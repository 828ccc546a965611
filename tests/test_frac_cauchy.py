"""Stepwise Cauchy solvers against dense linear-system oracles and closed forms."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import frac_cauchy
from fracoc import (CauchyRhs, ContractionError, FixedPointDivergenceError,
                    FixedPointOpts, Grid, NonFiniteError, TimeSeq, build_example,
                    delta_minus, gl_coefficients, solve_left_cauchy, solve_right_cauchy)

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

@pytest.mark.parametrize("d", (1, 2, 3))
def test_node_solves_stay_within_iteration_budget(d):
    # count rhs evaluations per node by wrapping the right-hand side
    grid = Grid(0.0, 1.0, 10)
    opts = FixedPointOpts(tol=1e-12)
    start = np.array([1.0, -0.5, 0.25][:d])
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


@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_spent_budget_is_named_at_its_node_at_every_width(d):
    # the d = 1, d = 2 and d >= 3 loops each have their own budget stop
    grid = Grid(0.0, 1.0, 50)
    rhs = CauchyRhs(lambda x, t: np.sin(3.0 * x) + 1.0, 1.0)
    with pytest.raises(FixedPointDivergenceError, match="after the iteration budget") as exc:
        solve_left_cauchy(0.5, grid, rhs, np.zeros(d), FixedPointOpts(tol=1e-15, max_iters=1))
    assert exc.value.node == 1


@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_non_finite_rhs_stops_at_its_node(d, bad):
    # reported on the first evaluation that returns it, not after the budget;
    # with d >= 2 only the last component goes bad
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



@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_a_bad_middle_component_is_named_at_its_node(bad):
    # the residual's size is a maximum, which skips a NaN that is not its
    # first element; node 6 starts from the predicted value in both marches.
    # d = 2 has its own loop, so each of its components is poisoned too
    grid = Grid(0.0, 1.0, 16)
    for start, poisoned_component in ((np.array([0.5, -0.2, 0.8]), 1),
                                      (np.array([0.5, -0.2]), 1),
                                      (np.array([0.5, -0.2]), 0)):
        seen = []

        def field(x, poisoned):
            value = -np.tanh(x)
            if poisoned:
                value[poisoned_component] = bad
            return value

        def left(x, t):
            seen.append(t)
            return field(x, t == grid.times[6])

        with pytest.raises(NonFiniteError) as exc:
            solve_left_cauchy(0.5, grid, CauchyRhs(left, 1.0), start)
        assert exc.value.node == 6
        assert seen.count(grid.times[6]) == 1

        with pytest.raises(NonFiniteError) as exc:
            solve_right_cauchy(0.5, grid, lambda x, k: field(x, k == 6), 1.0, start)
        assert exc.value.node == 6


def tanh_field(d, n, omega=3.0, k_tanh=0.8):
    """-K tanh(x) + cos(omega t) as a left rhs, a node-indexed right rhs and
    a call count for each."""
    grid = Grid(0.0, 1.0, n)
    weights = np.array([1.0, -0.5, 0.25][:d])
    forcing = np.multiply.outer(np.cos(omega * grid.times), weights)
    calls = {"left": 0, "right": 0}

    def left(x, t):
        calls["left"] += 1
        return -k_tanh * np.tanh(x) + np.cos(omega * t) * weights

    def right(x, k):
        calls["right"] += 1
        return -k_tanh * np.tanh(x) + forcing[k]

    return grid, CauchyRhs(left, k_tanh), right, calls


def tanh_marches(alpha, d, n, opts=None):
    grid, rhs, right, calls = tanh_field(d, n)
    start = np.array([0.6, -0.3, 0.9][:d])
    q = solve_left_cauchy(alpha, grid, rhs, start, opts).values
    p = solve_right_cauchy(alpha, grid, right, rhs.lipschitz_K, start, opts).values
    return q, p, calls


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("alpha", (0.3, 0.9))
def test_extrapolated_start_takes_few_evaluations_per_node(alpha, d):
    # from y_{j-1} a node starts O(h) off: about 4 evaluations per node at
    # alpha 0.9 and 9 at 0.3, and from the quadratic through the last three
    # nodes about 2 and 4.  Predicted as the memory term plus the cubic
    # through h^alpha F at the last four, it starts h^alpha O(h^4) off and
    # needs about 1.03 and 1.4-1.6.  Each step gains only
    # log10(1 / (h^alpha K)), 3 digits at 0.9 but 1 at 0.3.
    _, _, calls = tanh_marches(alpha, d, 2000)
    most = {0.3: 2.0, 0.9: 1.2}[alpha]
    assert calls["left"] / 2000 <= most
    assert calls["right"] / 2000 <= most


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("alpha", (0.3, 0.9))
def test_extrapolated_start_is_only_a_start(alpha, d):
    # the fixed point is unique, so a tight solve lands on the same values
    q, p, _ = tanh_marches(alpha, d, 2000)
    q_ref, p_ref, _ = tanh_marches(alpha, d, 2000, FixedPointOpts(tol=1e-15, max_iters=300))
    npt.assert_array_less(np.abs(q - q_ref), 1e-12 * np.maximum(1.0, np.abs(q_ref)))
    npt.assert_array_less(np.abs(p - p_ref), 1e-12 * np.maximum(1.0, np.abs(p_ref)))


def test_march_history_does_not_leak_between_calls():
    # each march extrapolates from its own nodes only
    alone = [tanh_marches(0.5, 2, n)[:2] for n in (40, 300)]
    back_to_back = [tanh_marches(0.5, 2, n)[:2] for n in (300, 40)][::-1]
    for (q, p), (q2, p2) in zip(alone, back_to_back):
        npt.assert_array_equal(q, q2)
        npt.assert_array_equal(p, p2)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_non_finite_rhs_past_the_first_nodes_is_named(d):
    # node 5 starts from the predicted value in both marches (the fifth
    # node of the left one, the twelfth of the right one on 16 intervals)
    grid, rhs, right, _ = tanh_field(d, 16)
    start = np.ones(d)
    seen = []

    def left(x, t):
        seen.append(t)
        return np.full(d, np.nan) if t == grid.times[5] else rhs.eval(x, t)

    with pytest.raises(NonFiniteError) as exc:
        solve_left_cauchy(0.5, grid, CauchyRhs(left, rhs.lipschitz_K), start)
    assert exc.value.node == 5
    assert seen.count(grid.times[5]) == 1

    with pytest.raises(NonFiniteError) as exc:
        solve_right_cauchy(0.5, grid,
                           lambda x, k: np.r_[x[:-1], np.nan] if k == 5 else right(x, k),
                           rhs.lipschitz_K, start)
    assert exc.value.node == 5


@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_field_cubic_in_t_is_predicted_exactly(d):
    # with K = 0 and F cubic in t, h^alpha F is a cubic in the node index, so
    # from node 5 on the predicted start is the fixed point to round-off and
    # is accepted at its one evaluation; nodes 1-4 start from y_{j-1} and
    # take two.  A start extrapolated from y itself takes about two everywhere
    n = 400
    grid = Grid(0.0, 1.0, n)
    weights = np.array([1.0, -0.5, 0.25][:d])
    calls = {"left": 0, "right": 0}

    def cubic(t):
        return (0.3 - 1.2 * t + 2.0 * t ** 2 - 0.7 * t ** 3) * weights

    def left(x, t):
        calls["left"] += 1
        return cubic(t)

    def right(x, k):
        calls["right"] += 1
        return cubic(grid.times[k])

    start = np.array([0.4, -0.2, 0.1][:d])
    solve_left_cauchy(0.6, grid, CauchyRhs(left, 0.0), start)
    solve_right_cauchy(0.6, grid, right, 0.0, start)
    assert calls["left"] <= n + 4
    assert calls["right"] <= n + 4


@pytest.mark.parametrize("bad", (np.inf, np.nan))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_non_finite_start_is_refused_at_its_node(d, bad):
    # before any evaluation, and named by the start node, not the first
    # node marched from it
    grid, rhs, right, calls = tanh_field(d, 8)
    start = np.r_[np.ones(d - 1), bad]
    with pytest.raises(NonFiniteError) as exc:
        solve_left_cauchy(0.5, grid, rhs, start)
    assert exc.value.node == 0
    with pytest.raises(NonFiniteError) as exc:
        solve_right_cauchy(0.5, grid, right, rhs.lipschitz_K, start)
    assert exc.value.node == 8
    assert calls == {"left": 0, "right": 0}


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_a_refused_start_is_named_as_a_start(bad):
    # not as a right-hand side value or iterate, which it is not
    grid, rhs, right, _ = tanh_field(1, 8)
    with pytest.raises(NonFiniteError, match=r"^non-finite initial value at node 0$"):
        solve_left_cauchy(0.5, grid, rhs, [bad])
    with pytest.raises(NonFiniteError, match=r"^non-finite terminal value at node 8$"):
        solve_right_cauchy(0.5, grid, right, rhs.lipschitz_K, [bad])
    with pytest.raises(NonFiniteError, match=r"^non-finite initial value at node 0$"):
        dataclasses.replace(build_example("lq", 0.5, 8), initial=np.array([bad]))


def test_an_empty_start_is_refused_by_name():
    grid, rhs, right, calls = tanh_field(1, 8)
    with pytest.raises(ValueError, match="initial"):
        solve_left_cauchy(0.5, grid, rhs, [])
    with pytest.raises(ValueError, match="terminal"):
        solve_right_cauchy(0.5, grid, right, rhs.lipschitz_K, np.empty(0))
    assert calls == {"left": 0, "right": 0}


# -- the march kernel against its definition -------------------------------------

B = frac_cauchy._BLOCK


def node_by_node(alpha, n, solve_node, reverse):
    """A block solver for ``_march`` that solves one node per call, as the
    kernel did before it took blocks: y_j = solve_node(const_j, k, y_{j-1})
    for node k of march row j, with the near sum formed as the fixed-point
    block forms it."""
    c = gl_coefficients(alpha, n).coeffs
    rc = np.ascontiguousarray(c[min(B - 1, n):0:-1])
    top = rc.size

    def block(lo, hi, base, y):
        for i, j in enumerate(range(lo, hi)):
            const = base[i] - rc[top - i:].dot(y[lo:j] - y[0]) if i else base[i]
            y[j] = solve_node(const, n - j if reverse else j, y[j - 1])

    return block


def direct_march(alpha, n, start, solve_node, reverse):
    """``_march``'s contract as its O(N^2) direct memory sum."""
    c = gl_coefficients(alpha, n).coeffs
    y = np.empty((n + 1, start.size))
    y[0] = start
    for j in range(1, n + 1):
        const = start - c[j - 1:0:-1] @ (y[1:j] - start)
        y[j] = solve_node(const, n - j if reverse else j, y[j - 1])
    return y[::-1] if reverse else y


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("alpha", (0.3, 0.9, 1.0))
@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("n", (1, 2, 63, 64, 65, 128, 197, B - 1, B, B + 1, 2 * B,
                               3 * B + 5, 1000, 4103))
def test_march_kernel_matches_its_direct_sum(n, d, alpha, reverse):
    # folded far blocks plus the near sum of each block give every memory term
    # once; the node solve is closed-form, so only the sums can differ.  The
    # marches shorter than a block take their near sums alone
    rng = np.random.default_rng(n)
    noise, start = rng.standard_normal((n + 1, d)), rng.standard_normal(d)
    rows = noise[:, 0] if d == 1 else noise  # the kernel runs on floats at d = 1
    seen, solved = [], [start[0] if d == 1 else start]

    def node(const, k, prev):
        assert np.ndim(const) == np.ndim(rows[k])
        npt.assert_array_equal(prev, solved[-1])
        seen.append(k)
        solved.append(0.5 * const + rows[k])
        return solved[-1]

    got = frac_cauchy._march(alpha, Grid(0.0, 1.0, n), start,
                             node_by_node(alpha, n, node, reverse), reverse)
    want = direct_march(alpha, n, start, lambda const, k, _: 0.5 * const + noise[k],
                        reverse)
    assert got.shape == (n + 1, d)
    assert seen == (list(range(n - 1, -1, -1)) if reverse else list(range(1, n + 1)))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# -- the block solvers against node-by-node solves ---------------------------------

def node_loop_fixed_point_march(alpha, grid, field, start, lipschitz, opts=None,
                                reverse=False):
    """The fixed-point march as one node solve per call through
    ``node_by_node``: the same stopping rule, budget, predictor and errors
    as ``_fixed_point_march``, with the predictor at d >= 2 one product of
    a (4, d) ring with the rotated cubic weights."""
    ha = grid.h ** alpha
    opts = opts or FixedPointOpts()
    tol, max_iters, d = opts.tol, opts.max_iters, start.size
    if d == 1:
        def hf(x, k):
            return ha * frac_cauchy._sized(field(np.array([x]), k), 1).item()

        size = abs
        ring = [0.0] * 4

        def extrapolate(slot):
            return (4.0 * (ring[slot - 1] + ring[slot - 3]) - 6.0 * ring[slot - 2]
                    - ring[slot])
    else:
        def hf(x, k):
            return ha * frac_cauchy._sized(field(x, k), d)

        def size(a):
            values = a.tolist()
            return math.nan if math.isnan(sum(values)) else max(map(abs, values))

        ring = np.empty((4, d))
        cubic = np.array([np.roll([-1.0, 4.0, -6.0, 4.0], s) for s in range(4)])

        def extrapolate(slot):
            return cubic[slot].dot(ring)

    accepted = 0

    def solve_node(const, k, x):
        nonlocal accepted
        if d == 1:
            const, x = float(const), float(x)
        slot = accepted & 3
        if accepted > 3:
            x = const + extrapolate(slot)
        for _ in range(max_iters + 1):
            g = hf(x, k)
            fixed = g + const
            err = size(x - fixed)
            if not math.isfinite(err):
                raise NonFiniteError(k)
            if err <= tol or err <= tol * size(x):
                ring[slot] = g
                accepted += 1
                return fixed
            x = fixed
        raise FixedPointDivergenceError(k, err, tol)

    return frac_cauchy._march(alpha, grid, start,
                              node_by_node(alpha, grid.n, solve_node, reverse), reverse)


def tanh_fields(d, n):
    """A left rhs of t, the same field by node index, and a right rhs."""
    grid = Grid(0.0, 1.0, n)
    weights = np.array([1.0, -0.5, 0.25][:d])

    def left(x, t):
        return -0.3 * np.tanh(x) + np.cos(3.0 * t) * weights

    return grid, left, lambda x, k: left(x, grid.times[k])


@pytest.mark.parametrize("n", (1, 63, 64, 65, 200, B - 1, B, B + 1, 2 * B + 5))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_fixed_point_block_matches_the_node_loop(d, n):
    # the same floats at d = 1; at d >= 2 the predictor sums its cubic in
    # another order, which moves only the start of each node.  At 2B + 5 the
    # four predictor values carry across two block boundaries
    grid, left, by_node = tanh_fields(d, n)
    start = np.array([0.6, -0.3, 0.9][:d])
    for reverse, got in (
            (False, solve_left_cauchy(0.6, grid, CauchyRhs(left, 0.3), start).values),
            (True, solve_right_cauchy(0.6, grid, by_node, 0.3, start).values)):
        want = node_loop_fixed_point_march(0.6, grid, by_node, start, 0.3, reverse=reverse)
        if d == 1:
            npt.assert_array_equal(got, want)
        else:
            npt.assert_array_less(np.abs(got - want), 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_non_finite_rhs_mid_block_is_named(d):
    # march row B + 6 is the sixth row of the second block in both directions
    n, row = 2 * B + 8, B + 6
    grid, left, by_node = tanh_fields(d, n)
    start, seen = np.full(d, 0.5), []

    def poisoned(x, t):
        seen.append(t)
        return np.full(d, np.nan) if t == grid.times[row] else left(x, t)

    with pytest.raises(NonFiniteError) as exc:
        solve_left_cauchy(0.6, grid, CauchyRhs(poisoned, 0.3), start)
    assert exc.value.node == row
    assert seen.count(grid.times[row]) == 1 and max(seen) == grid.times[row]

    with pytest.raises(NonFiniteError) as exc:
        solve_right_cauchy(0.6, grid,
                           lambda x, k: np.r_[x[:-1], np.nan] if k == n - row else by_node(x, k),
                           0.3, start)
    assert exc.value.node == n - row


@pytest.mark.parametrize("d", (1, 2, 3))
def test_every_evaluation_gets_its_own_x(d):
    # the block loop keeps its iterates as floats, so a callback may keep or
    # overwrite the array it is handed without touching the march
    grid, left, by_node = tanh_fields(d, 2 * B + 8)  # three blocks
    start, kept = np.array([0.6, -0.3, 0.9][:d]), []

    def scribbling(x, t):
        value = left(x, t)
        kept.append(x)
        x[:] = np.nan
        return value

    q = solve_left_cauchy(0.6, grid, CauchyRhs(scribbling, 0.3), start).values
    p = solve_right_cauchy(0.6, grid, lambda x, k: scribbling(x, grid.times[k]), 0.3,
                           start).values
    assert len({id(x) for x in kept}) == len(kept) > 2 * grid.n
    npt.assert_array_equal(q, solve_left_cauchy(0.6, grid, CauchyRhs(left, 0.3), start).values)
    npt.assert_array_equal(p, solve_right_cauchy(0.6, grid, by_node, 0.3, start).values)


def varying_march_data(d, n, seed=0):
    """A_k that varies by node, with the b_k and start of a linear march."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n + 1)
    a_mats = (-0.5 * np.eye(d) + np.sin(5.0 * t)[:, None, None]
              * rng.uniform(-0.4, 0.4, (d, d)))
    return a_mats, rng.standard_normal((n + 1, d)), rng.standard_normal(d)


def linear_march(alpha, grid, a_mats, b, start, reverse=False):
    """The linear march on node-indexed data, handed the rows it solves:
    [1:], or [:-1] with ``reverse``; one (d, d) A goes as it is."""
    rows = slice(None, -1) if reverse else slice(1, None)
    a_rows = a_mats if np.ndim(a_mats) == 2 else a_mats[rows]
    return frac_cauchy._linear_march(alpha, grid, a_rows, b[rows], start, reverse)


def node_loop_linear_march(alpha, grid, a_mats, b, start, reverse):
    """(I - h^alpha A_k) y_k = const_k + h^alpha b_k, one node a call."""
    ha = grid.h ** alpha
    g = np.eye(start.size) - ha * a_mats

    def solve_node(const, k, _):
        return np.linalg.solve(g[k], np.reshape(const + ha * b[k], -1)).reshape(np.shape(const))

    return frac_cauchy._march(alpha, grid, start,
                              node_by_node(alpha, grid.n, solve_node, reverse), reverse)


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("n", (1, 63, 64, 65, 300, B - 1, B, B + 1, 2 * B + 5))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_time_varying_linear_block_matches_the_node_loop(d, n, reverse):
    # the block solver's inverses built up front against a solve per node
    grid = Grid(0.0, 1.0, n)
    a_mats, b, start = varying_march_data(d, n, seed=n)
    got = linear_march(0.6, grid, a_mats, b, start, reverse)
    want = node_loop_linear_march(0.6, grid, a_mats, b, start, reverse)
    npt.assert_array_equal(got[n if reverse else 0], start)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("d", (1, 2))
def test_a_singular_node_in_the_second_block_is_named(d, reverse):
    # h = 1/4B = 1/1024, so h^alpha = 1/32 exactly and h^alpha A_k = 32/32
    # leaves a zero pivot; march rows B + 100 and B + 150 are both singular,
    # and B + 100 comes first
    n = 4 * B
    grid = Grid(0.0, 1.0, n)
    a_mats, b, start = varying_march_data(d, n)
    for row in (B + 100, B + 150):
        a_mats[n - row if reverse else row, 0] = [32.0] + [0.0] * (d - 1)
    with pytest.raises(frac_cauchy.SingularNodeError) as exc:
        linear_march(0.5, grid, a_mats, b, start, reverse)
    assert exc.value.node == (n - B - 100 if reverse else B + 100)


# -- linear march with a constant Jacobian ---------------------------------------

def march_calls(monkeypatch):
    """Count the node-loop marches from here on."""
    calls = []
    node_loop = frac_cauchy._march

    def counted(*args, **kwargs):
        calls.append(1)
        return node_loop(*args, **kwargs)

    monkeypatch.setattr(frac_cauchy, "_march", counted)
    return calls


def node_loop_march(monkeypatch, *args, **kwargs):
    """The linear march with its convolution branch turned off."""
    with monkeypatch.context() as m:
        m.setattr(frac_cauchy, "_toeplitz_inverse", lambda *key: None)
        return linear_march(*args, **kwargs)


def constant_march_data(d, n, seed=0):
    a_mat = np.array([[-0.4]]) if d == 1 else np.array([[0.0, -0.5], [0.5, -0.2]])
    rng = np.random.default_rng(seed)
    return (np.broadcast_to(a_mat, (n + 1, d, d)).copy(),
            rng.standard_normal((n + 1, d)), rng.standard_normal(d))


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("d", (1, 2))
def test_constant_jacobian_march_is_one_convolution(monkeypatch, d, reverse):
    # the FFT path and the node loop differ only in round-off
    grid = Grid(0.0, 1.0, 4096)
    a_mats, b, start = constant_march_data(d, 4096)
    loop = node_loop_march(monkeypatch, 0.5, grid, a_mats, b, start, reverse)
    calls = march_calls(monkeypatch)
    fast = linear_march(0.5, grid, a_mats, b, start, reverse)
    assert calls == []
    npt.assert_array_equal(fast[4096 if reverse else 0], start)
    npt.assert_allclose(fast, loop, rtol=0.0, atol=1e-12 * np.abs(loop).max())


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (1, 2, 5, 17, 64))
@pytest.mark.parametrize("d", (1, 2))
def test_constant_jacobian_march_matches_dense_oracle(alpha, n, d):
    grid = Grid(0.0, 1.0, n)
    a_mats, b, start = constant_march_data(d, n, seed=n)
    q = linear_march(alpha, grid, a_mats, b, start)
    npt.assert_allclose(q, dense_left_solve(alpha, grid, a_mats[0],
                                            lambda t: b[round(t * n)], start),
                        atol=1e-12)
    p = linear_march(alpha, grid, a_mats, b, start, reverse=True)
    npt.assert_allclose(p, dense_right_solve(alpha, grid, a_mats[0],
                                             lambda k: b[k], start),
                        atol=1e-12)


@pytest.mark.parametrize("reverse", (False, True))
def test_time_varying_jacobian_marches_node_by_node(monkeypatch, reverse):
    grid = Grid(0.0, 1.0, 16)
    a_mats, b, start = constant_march_data(2, 16)
    a_mats[7, 0, 1] += 0.25  # one node differs
    calls = march_calls(monkeypatch)
    linear_march(0.5, grid, a_mats, b, start, reverse)
    assert calls == [1]
    # the equality gate reads every row: a stack that differs from its first
    # row only in the last row solved, node N or node 0 with reverse, too
    a_mats[7, 0, 1] -= 0.25
    a_mats[0 if reverse else 16, 0, 1] += 0.25
    calls.clear()
    linear_march(0.5, grid, a_mats, b, start, reverse)
    assert calls == [1]


GROWING = (
    (5.0, 0.5, 4096),   # W grows 1e10-fold: an unguarded FFT loses 5 digits
    (20.0, 0.9, 800),   # 1e12-fold: it loses 9
    (20.0, 0.5, 800),   # W overflows to NaN
)


@pytest.mark.parametrize("lam, alpha, n", GROWING)
def test_growing_dynamics_keep_the_node_loop(monkeypatch, lam, alpha, n):
    grid = Grid(0.0, 1.0, n)
    a_mats = np.full((n + 1, 1, 1), lam)
    b, start = np.ones((n + 1, 1)), np.ones(1)
    loop = node_loop_march(monkeypatch, alpha, grid, a_mats, b, start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linear_march(alpha, grid, a_mats, b, start)
    npt.assert_allclose(got, loop, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam, alpha, n", GROWING)
def test_a_refused_series_inverts_one_matrix_once(monkeypatch, lam, alpha, n):
    # where the series is refused, the node loop inverts I - h^alpha A once
    # and reads that inverse at every node, for one matrix and for a stack
    # of equal rows alike, rather than inverting N copies of it
    grid = Grid(0.0, 1.0, n)
    b, start = np.ones((n + 1, 1)), np.ones(1)
    loop = node_loop_linear_march(alpha, grid, np.full((n + 1, 1, 1), lam), b, start,
                                  False)
    inv, shapes = np.linalg.inv, []

    def counted(m):
        shapes.append(np.shape(m))
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", counted)
    frac_cauchy._toeplitz_inverse.cache_clear()
    one = linear_march(alpha, grid, np.array([[lam]]), b, start)
    stacked = linear_march(alpha, grid, np.full((n + 1, 1, 1), lam), b, start)
    # the series' own inverse, then one per march; the second march's
    # series is a cache hit
    assert shapes == [(1, 1)] * 3
    npt.assert_array_equal(one, stacked)
    npt.assert_allclose(one, loop, rtol=1e-12, atol=0.0)


def test_convolution_round_off_is_bounded_norm_wise(monkeypatch):
    # the FFT's round-off is absolute, about eps max|W| |s| at every node:
    # with one forcing 1e8 times the rest, node 1 is off by 2e-9 of its own
    # value, yet every node stays within a tiny fraction of max|y|
    grid = Grid(0.0, 1.0, 800)
    a_mats = np.zeros((801, 1, 1))
    b, start = np.ones((801, 1)), np.zeros(1)
    b[800] = 1e8
    loop = node_loop_march(monkeypatch, 0.5, grid, a_mats, b, start)
    fast = linear_march(0.5, grid, a_mats, b, start)
    assert np.abs(fast - loop).max() <= 1e-13 * np.abs(loop).max()

@pytest.mark.parametrize("reverse", (False, True))
def test_constant_jacobian_march_names_a_non_finite_node(reverse):
    grid = Grid(0.0, 1.0, 12)
    a_mats, b, start = constant_march_data(2, 12)
    b[5, 1] = np.nan
    b[2 if reverse else 9, 0] = np.nan  # reached later in march order
    with pytest.raises(NonFiniteError) as exc:
        linear_march(0.5, grid, a_mats, b, start, reverse)
    assert exc.value.node == 5


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("d", (1, 2))
def test_linear_march_refusals_name_their_node(d, reverse):
    # march rows are read as views in march order; each refusal names the
    # node where the march meets it first
    n = 40
    grid = Grid(0.0, 1.0, n)
    first = n - 1 if reverse else 1
    march = lambda *data: linear_march(0.5, grid, *data, reverse)
    for value in (np.inf, -np.inf):  # a constant non-finite A
        a_mats, b, start = constant_march_data(d, n)
        with pytest.raises(frac_cauchy.SingularNodeError) as exc:
            march(np.full_like(a_mats, value), b, start)
        assert exc.value.node == first
    a_mats, b, start = constant_march_data(d, n)
    a_mats[17, -1, 0] = np.nan  # one A_k, which also ends the Toeplitz path
    with pytest.raises(frac_cauchy.SingularNodeError) as exc:
        march(a_mats, b, start)
    assert exc.value.node == 17
    for a_mats in (constant_march_data(d, n)[0], varying_march_data(d, n)[0]):
        late = 2 if reverse else n - 2  # near the march's end
        b[late, 0] = np.inf
        with pytest.raises(NonFiniteError) as exc:
            march(a_mats, b, start)
        assert exc.value.node == late
        b[late, 0] = 0.0
    # h = 1/16 and alpha 0.5 give h^alpha = 1/4, so A = 4 I makes h^alpha A = I
    grid = Grid(0.0, 1.0, 16)
    with pytest.raises(frac_cauchy.SingularNodeError) as exc:
        linear_march(0.5, grid, np.broadcast_to(4.0 * np.eye(d), (17, d, d)),
                     np.ones((17, d)), np.ones(d), reverse)
    assert exc.value.node == (15 if reverse else 1)


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("d", (1, 2))
def test_toeplitz_path_inverts_no_node_stack(monkeypatch, d, reverse):
    # with one A at every node the march inverts no stack of N node matrices:
    # the only inverse is the d x d one of the cached series
    n = 300
    grid = Grid(0.0, 1.0, n)
    a_mats, b, start = constant_march_data(d, n)
    inv, shapes = np.linalg.inv, []

    def counted(m):
        shapes.append(np.shape(m))
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", counted)
    frac_cauchy._toeplitz_inverse.cache_clear()
    fast = linear_march(0.5, grid, a_mats, b, start, reverse)
    assert shapes == [(d, d)]
    loop = node_loop_march(monkeypatch, 0.5, grid, a_mats, b, start, reverse)
    assert shapes[1:] == [(d, d)]  # the node loop inverts the one matrix once
    npt.assert_allclose(fast, loop, rtol=0.0, atol=1e-12 * np.abs(loop).max())


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("d", (1, 2))
def test_one_matrix_refusals_name_the_first_node_in_march_order(d, reverse):
    # one (d, d) A for every node is refused at the march's first node, as a
    # stack of N + 1 copies of it is, and a bad b_k at its own node
    n = 16  # h^alpha = 1/4 at alpha 0.5
    grid = Grid(0.0, 1.0, n)
    first = n - 1 if reverse else 1
    a_mat, b, start = constant_march_data(d, n)[0][0], np.ones((n + 1, d)), np.ones(d)
    for bad_a, error in ((np.full((d, d), np.nan), frac_cauchy.SingularNodeError),
                         (np.full((d, d), np.inf), frac_cauchy.SingularNodeError),
                         (4.0 * np.eye(d), frac_cauchy.SingularNodeError)):  # h^alpha A = I
        for a_mats in (bad_a, np.broadcast_to(bad_a, (n + 1, d, d))):
            with pytest.raises(error) as exc:
                linear_march(0.5, grid, a_mats, b, start, reverse)
            assert exc.value.node == first
    late = b.copy()
    late[5, -1], late[11, 0] = np.inf, np.nan  # node 11 comes first in reverse
    with pytest.raises(NonFiniteError) as exc:
        linear_march(0.5, grid, a_mat, late, start, reverse)
    assert exc.value.node == (11 if reverse else 5)
    with pytest.raises(frac_cauchy.SingularNodeError) as exc:  # A before b
        linear_march(0.5, grid, np.full((d, d), np.nan), late, start, reverse)
    assert exc.value.node == first


@pytest.mark.parametrize("reverse", (False, True))
def test_a_finite_matrix_whose_node_matrix_overflows_is_refused(reverse):
    # h = 100, so h^alpha A = 10 * 1e308 overflows though A is finite; the
    # march refuses it at its first node like a non-finite A
    grid = Grid(0.0, 1e3, 10)
    with np.errstate(over="ignore"), pytest.raises(frac_cauchy.SingularNodeError) as exc:
        linear_march(0.5, grid, np.array([[1e308]]), np.zeros((11, 1)), np.zeros(1), reverse)
    assert exc.value.node == (9 if reverse else 1)


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("d", (1, 2))
def test_one_matrix_march_equals_its_stacked_copies(monkeypatch, d, reverse):
    # on the convolution and on the node loop alike, and the start row is
    # written where the march begins
    n = 300
    grid = Grid(0.0, 1.0, n)
    a_mats, b, start = constant_march_data(d, n)
    one = linear_march(0.5, grid, a_mats[0], b, start, reverse)
    npt.assert_array_equal(one, linear_march(0.5, grid, a_mats, b, start, reverse))
    npt.assert_array_equal(one[n if reverse else 0], start)
    npt.assert_array_equal(node_loop_march(monkeypatch, 0.5, grid, a_mats[0], b, start, reverse),
                           node_loop_march(monkeypatch, 0.5, grid, a_mats, b, start, reverse))


# -- input validation --------------------------------------------------------------

def test_rhs_shape_mismatch_is_reported():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="rhs returned size"):
        solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: np.zeros(3), 0.1),
                          np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="rhs returned size"):
        solve_right_cauchy(0.5, grid, lambda x, k: np.zeros(2), 0.1,
                           np.array([1.0]))



@pytest.mark.parametrize("d", (1, 2, 3))
def test_complex_rhs_values_are_refused(d):
    # a float conversion would keep the real part and only warn
    grid, start = Grid(0.0, 1.0, 8), np.ones(d)
    with pytest.raises(ValueError, match="rhs returned a complex value"):
        solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: -x + 1j, 0.5), start)
    with pytest.raises(ValueError, match="rhs returned a complex value"):
        solve_right_cauchy(0.5, grid, lambda x, k: (-x).astype(complex), 0.5, start)


def test_an_integer_rhs_value_is_taken_as_a_float():
    grid = Grid(0.0, 1.0, 8)
    ints = solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: np.array([1]), 0.0), [0.0])
    floats = solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: np.array([1.0]), 0.0), [0.0])
    npt.assert_array_equal(ints.values, floats.values)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_column_or_row_rhs_value_is_taken_as_its_entries(d):
    grid, left, by_node = tanh_fields(d, 70)
    start = np.array([0.6, -0.3, 0.9][:d])
    q = solve_left_cauchy(0.6, grid, CauchyRhs(left, 0.3), start).values
    p = solve_right_cauchy(0.6, grid, by_node, 0.3, start).values
    for shape in ((d, 1), (1, d)):
        npt.assert_array_equal(solve_left_cauchy(
            0.6, grid, CauchyRhs(lambda x, t: left(x, t).reshape(shape), 0.3), start).values, q)
        npt.assert_array_equal(solve_right_cauchy(
            0.6, grid, lambda x, k: by_node(x, k).reshape(shape), 0.3, start).values, p)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_the_residual_is_scaled_by_the_largest_component(d):
    # a node is accepted once |r| <= tol * max(1, |x|) in the infinity norm;
    # the last component sits near 1e8, whose round-off alone is about
    # 1e-8, so a rule scaled by any other component runs out the budget
    grid = Grid(0.0, 1.0, 40)
    start = np.r_[np.full(d - 1, 0.1), 1e8]

    def field(x, t):
        return -0.5 * x + np.cos(3.0 * t)

    solve_left_cauchy(0.5, grid, CauchyRhs(field, 0.5), start)
    solve_right_cauchy(0.5, grid, lambda x, k: field(x, grid.times[k]), 0.5, start)


@pytest.mark.parametrize("start", ([1.0 + 2j], np.array([1.0 + 2j]), np.array([1.0, 2j])))
def test_complex_starts_are_refused_by_name(start):
    # a float conversion would march from the real part and only warn
    grid = Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="^initial is a complex value"):
        solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: -x, 0.5), start)
    with pytest.raises(ValueError, match="^terminal is a complex value"):
        solve_right_cauchy(0.5, grid, lambda x, k: -x, 0.5, start)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_the_march_never_writes_into_a_callback_value(d):
    # a read-only value, one buffer refilled on every call and one cached
    # constant each give the march of a callback that returns a fresh array
    grid = Grid(0.0, 1.0, 40)
    weights, start = np.array([1.0, -0.5, 0.25][:d]), np.array([0.6, -0.3, 0.9][:d])
    constant, buffer = np.array([0.3, -0.7, 0.2][:d]), np.empty(d)

    def fresh(x, t):
        return -0.8 * np.tanh(x) + np.cos(3.0 * t) * weights

    def read_only(x, t):
        value = fresh(x, t)
        value.flags.writeable = False
        return value

    def refilled(x, t):
        buffer[:] = fresh(x, t)
        return buffer

    def marches(field):
        q = solve_left_cauchy(0.5, grid, CauchyRhs(field, 0.8), start)
        p = solve_right_cauchy(0.5, grid, lambda x, k: field(x, grid.times[k]), 0.8,
                               start)
        return q.values, p.values

    for field, reference in ((read_only, fresh), (refilled, fresh),
                             (lambda x, t: constant, lambda x, t: constant.copy())):
        for got, want in zip(marches(field), marches(reference)):
            npt.assert_array_equal(got, want)
    npt.assert_array_equal(constant, [0.3, -0.7, 0.2][:d])


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
    with pytest.raises(ValueError, match="max_iters"):  # a bool is no count
        FixedPointOpts(max_iters=True)
    FixedPointOpts(max_iters=np.int64(3))
    grid = Grid(0.0, 1.0, 4)
    for bad in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            solve_right_cauchy(0.5, grid, lambda x, k: x, bad, np.array([1.0]))


def test_scalar_initial_data_is_normalized():
    grid = Grid(0.0, 1.0, 3)
    q = solve_left_cauchy(0.5, grid, CauchyRhs(lambda x, t: -x, 1.0), 2.0)
    assert q.dim == 1 and q.values[0, 0] == 2.0
