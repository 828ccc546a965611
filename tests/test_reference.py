"""Closed-form controls, series evaluation and the order-fitting harness."""

from __future__ import annotations

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from fracoc import (ConvergenceReport, DegenerateDataError, Grid, TimeSeq,
                    convergence_order, lq_exact_control, max_control_error,
                    mittag_leffler, solved_example_exact_control)

mpmath = pytest.importorskip("mpmath")


def oracle_ml(alpha, beta, z, terms=400):
    """Independent high-precision partial sum of the same series."""
    with mpmath.workdps(50):
        total = mpmath.nsum(lambda k: mpmath.mpf(z) ** k
                            / mpmath.gamma(alpha * k + beta), [0, terms])
        return float(total)


# -- series evaluation ------------------------------------------------------------

def test_series_reduces_to_elementary_functions():
    for z in (-1.0, 0.0, 0.5, 1.0, 2.0):
        npt.assert_allclose(mittag_leffler(1.0, 1.0, z), math.exp(z), rtol=1e-14)
    # shifting the second parameter integrates the exponential remainder
    npt.assert_allclose(mittag_leffler(1.0, 2.0, 1.0), math.e - 1.0, rtol=1e-14)
    npt.assert_allclose(mittag_leffler(1.0, 3.0, 1.0), math.e - 2.0, rtol=1e-14)
    npt.assert_allclose(mittag_leffler(2.0, 1.0, 1.0), math.cosh(1.0), rtol=1e-14)
    assert mittag_leffler(0.3, 2.0, 0.0) == 1.0 / math.gamma(2.0)


def test_series_frozen_values():
    npt.assert_allclose(mittag_leffler(0.5, 2.5, 1.0),
                        1.8806009136667708924, atol=1e-15)
    npt.assert_allclose(mittag_leffler(0.75, 2.75, 1.0),
                        1.1023010342823550234, atol=1e-15)
    npt.assert_allclose(mittag_leffler(0.25, 2.25, 1.0),
                        4.2344003301754865062, atol=1e-14)


@pytest.mark.parametrize("alpha", (0.25, 0.6, 1.0))
@pytest.mark.parametrize("beta", (1.0, 2.25))
@pytest.mark.parametrize("z", (-1.0, -0.3, 0.7, 1.0))
def test_series_against_long_oracle_sum(alpha, beta, z):
    npt.assert_allclose(mittag_leffler(alpha, beta, z),
                        oracle_ml(alpha, beta, z), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("alpha", (0.25, 0.6))
@pytest.mark.parametrize("beta", (1.0, 2.25))
def test_series_at_the_edge_of_its_domain(alpha, beta):
    # at z = 2 and small alpha the terms peak far above the sum, so plain
    # double accumulation gives up a couple of digits; the contract is looser
    npt.assert_allclose(mittag_leffler(alpha, beta, 2.0),
                        oracle_ml(alpha, beta, 2.0), rtol=1e-11)


def test_series_domain_checks():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -1.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, 2.5)


@pytest.mark.parametrize("args", ((0.5, 1.0, math.nan), (math.nan, 1.0, 0.5),
                                  (0.5, math.nan, 0.5), (math.inf, 1.0, 0.5),
                                  (0.5, math.inf, 0.5)))
def test_series_refuses_nan(args):
    with pytest.raises(ValueError):
        mittag_leffler(*args)


def scalar_mittag_leffler(alpha, beta, z):
    """The one-number series loop the array recursion replaced: math.exp per
    term, stopping after a term below 1e-15 of the partial sum."""
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    log_abs_z = math.log(abs(z))
    total = 0.0
    for k in itertools.count():
        term = (math.copysign(1.0, z) ** k
                * math.exp(k * log_abs_z - math.lgamma(alpha * k + beta)))
        total += term
        if abs(term) <= 1e-15 * abs(total):
            break
    return total


@pytest.mark.parametrize("alpha", (0.05, 0.3, 0.5, 0.75, 1.0, 2.0))
@pytest.mark.parametrize("shift", (False, True))
def test_array_series_matches_the_scalar_loop(alpha, shift):
    beta = alpha + 2.0 if shift else 1.0
    z = np.linspace(-2.0, 2.0, 81)
    assert 0.0 in z
    if alpha < 0.1:
        # past |z| of about 1.4 the terms at alpha 0.05 overflow a double,
        # which the array series refuses and math.exp raises on
        with pytest.raises(ValueError, match="overflows a double at z = -2.0$"):
            mittag_leffler(alpha, beta, z)
        z = z[np.abs(z) <= 1.3]
        # from z = -1.2 down the term sizes add to more than 1e8 times the
        # sum, which the array series refuses as lost to cancellation;
        # z = -1.15 sits at the edge, refused at beta 1 only
        for zk in z[z < -1.175]:
            with pytest.raises(ValueError, match=f"cancellation at z = {zk}$"):
                mittag_leffler(alpha, beta, zk)
        z = z[z > -1.125]
    got = mittag_leffler(alpha, beta, z)
    assert got.shape == z.shape
    for zk, gk in zip(z, got):
        ref = scalar_mittag_leffler(alpha, beta, zk)
        # np.exp and math.exp may differ in the last bit of each term; for
        # z < 0 the terms alternate, so that bit is measured against the sum
        # of their sizes, E(|z|), which is the sum itself for z >= 0
        scale = max(1.0, scalar_mittag_leffler(alpha, beta, abs(zk)))
        assert abs(gk - ref) <= 4e-15 * scale, (zk, gk, ref)
    assert got[z == 0.0][0] == 1.0 / math.gamma(beta)


@pytest.mark.parametrize("alpha, beta, z, terms", (
    (0.2, 1.0, 2.0, 600),     # its terms still grow at k = 200
    (0.05, 2.05, 1.0, 2000),  # the solved example's series at alpha 0.05
    (0.05, 2.05, 0.3, 2000),
    (0.05, 2.05, -1.0, 2000),
))
def test_small_orders_are_summed_to_convergence(alpha, beta, z, terms):
    # a sum cut at 200 terms came out 8 % low for the first case and 7e-9
    # low for the second
    value = mittag_leffler(alpha, beta, z)
    npt.assert_allclose(value, oracle_ml(alpha, beta, z, terms), rtol=1e-12)
    assert mittag_leffler(alpha, beta, np.array([0.0, z, 0.5]))[1] == value


def test_series_refuses_what_it_cannot_sum():
    # E_{0.1,1}(2) is about 1e445; the first element that overflows is
    # named, not the ones before it
    with pytest.raises(ValueError, match=r"^E_\{0.1,1.0\}\(z\) overflows a double at z = 2.0$"):
        mittag_leffler(0.1, 1.0, np.array([0.5, -1.0, 2.0]))
    with pytest.raises(ValueError, match="overflows a double at z = -2.0$"):
        mittag_leffler(0.1, 1.0, -2.0)
    # at alpha 5e-4 the terms 1/Gamma(alpha k + 1) need about 40000 to fall
    # below 1e-15 of the sum
    with pytest.raises(ValueError, match="has not converged after 20100 terms at z = 1.0$"):
        mittag_leffler(5e-4, 1.0, np.array([0.5, 1.0]))


def test_series_refuses_a_sum_lost_to_cancellation():
    # E_{0.2,1}(-2) is 0.3057, but its term sizes add to E_{0.2,1}(2) = 3.9e14,
    # so a double sum came out 0.461; E_{0.05,1}(-1.35) came out 1.8e162
    assert oracle_ml(0.2, 1.0, 2.0, 600) > 1e8 * abs(oracle_ml(0.2, 1.0, -2.0, 600))
    with pytest.raises(ValueError, match=r"^E_\{0.2,1.0\}\(z\) loses its digits "
                                         r"to cancellation at z = -2.0$"):
        mittag_leffler(0.2, 1.0, np.array([0.5, -2.0, 1.0]))
    with pytest.raises(ValueError, match="cancellation at z = -1.35$"):
        mittag_leffler(0.05, 1.0, -1.35)
    # E_{0.5,1}(-2) = e^4 erfc(2), whose term sizes add to about 430 times it
    with mpmath.workdps(50):
        exact = float(mpmath.exp(4) * mpmath.erfc(2))
    npt.assert_allclose(mittag_leffler(0.5, 1.0, -2.0), exact, rtol=1e-12)


def test_series_keeps_the_kind_and_shape_of_its_argument():
    value = mittag_leffler(0.5, 2.5, 1.0)
    assert type(value) is float
    assert type(mittag_leffler(0.5, 2.5, np.float64(0.3))) is float
    z = np.array([[0.0, 0.5, -1.0], [2.0, -2.0, 1.0]])
    values = mittag_leffler(0.5, 2.5, z)
    assert values.shape == (2, 3)
    assert values[1, 2] == value
    npt.assert_array_equal(values.reshape(-1), mittag_leffler(0.5, 2.5, z.reshape(-1)))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, 2.5))
def test_series_refuses_a_bad_element_by_value(bad):
    z = np.array([0.1, -0.5, bad, 3.0])
    with pytest.raises(ValueError, match=f"got {bad}$"):
        mittag_leffler(0.5, 1.0, z)
    with pytest.raises(ValueError, match="^z is a complex value"):
        mittag_leffler(0.5, 1.0, np.array([0.5 + 0.0j]))


# -- benchmark controls ------------------------------------------------------------

def test_quadratic_benchmark_frozen_values():
    npt.assert_allclose(lq_exact_control(0.0), -1.6894983915943829869, atol=1e-15)
    npt.assert_allclose(lq_exact_control(0.5), -0.67012110607371865764, atol=1e-15)
    assert lq_exact_control(1.0) == 0.0
    with pytest.raises(ValueError):
        lq_exact_control(-0.1)
    with pytest.raises(ValueError):
        lq_exact_control(1.1)


def test_order_family_benchmark_frozen_values():
    cases = {1.0: -0.71828182845904523536,
             0.75: -1.1023010342823550234,
             0.5: -1.8806009136667708924,
             0.25: -4.2344003301754865062}
    for alpha, expect in cases.items():
        npt.assert_allclose(solved_example_exact_control(alpha, 0.0), expect,
                            atol=1e-14)
    npt.assert_allclose(solved_example_exact_control(0.5, 0.5),
                        -0.47640139686714419445, atol=1e-15)
    assert solved_example_exact_control(0.3, 1.0) == 0.0


def test_order_family_collapses_to_elementary_form_at_one():
    # at order 1 the control is -(e^(1-t) - 1 - (1-t))
    for t in np.linspace(0.0, 1.0, 101):
        expect = -(math.exp(1.0 - t) - 1.0 - (1.0 - t))
        npt.assert_allclose(solved_example_exact_control(1.0, t), expect,
                            atol=1e-12)


def test_benchmark_controls_validate_arguments():
    with pytest.raises(ValueError):
        solved_example_exact_control(0.5, 1.5)
    with pytest.raises(ValueError):
        solved_example_exact_control(1.5, 0.5)


@pytest.mark.parametrize("control", (lq_exact_control,
                                     lambda t: solved_example_exact_control(0.5, t)))
def test_benchmark_controls_on_arrays(control):
    t = np.linspace(0.0, 1.0, 41)
    u = control(t)
    assert u.shape == t.shape
    assert u[-1] == 0.0 and math.copysign(1.0, u[-1]) == 1.0
    npt.assert_allclose(u, [control(tk) for tk in t], rtol=4e-15, atol=0.0)
    assert type(control(0.25)) is float
    npt.assert_array_equal(control(t.reshape(41, 1)), u.reshape(41, 1))
    with pytest.raises(ValueError, match="got 1.5$"):
        control(np.array([0.0, 1.5, 0.5]))
    with pytest.raises(ValueError, match="got nan$"):
        control(np.array([0.0, math.nan]))


# -- error measurement ---------------------------------------------------------------

def test_max_control_error_skips_the_first_node():
    grid = Grid(0.0, 1.0, 4)
    vals = np.tile([3.0, 4.0], (5, 1))
    vals[0] = 1e9  # never read
    u = TimeSeq(vals)
    err = max_control_error(u, lambda t: np.zeros((len(t), 2)), grid)
    assert err == 5.0
    # a reference that is NaN on half the nodes makes the error NaN
    half_nan = lambda t: np.where(t[:, None] > 0.5, np.nan, np.zeros((len(t), 2)))
    assert np.isnan(max_control_error(u, half_nan, grid))


def test_max_control_error_validation():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        max_control_error(TimeSeq.zeros(3), lambda t: 0.0, grid)
    with pytest.raises(ValueError):
        max_control_error(TimeSeq.zeros(4), lambda t: np.zeros(2), grid)


def test_max_control_error_per_node_and_stacked_agree():
    grid = Grid(0.0, 1.0, 16)
    rng = np.random.default_rng(3)

    def per_node(exact):  # exact called at one time per node, its values stacked
        return lambda ts: np.stack([np.reshape(exact(t), -1) for t in ts])

    for m in (1, 2):
        u = TimeSeq(rng.normal(size=(grid.n + 1, m)))
        w = np.arange(1, m + 1)

        def exact(t):  # arithmetic only, so one node and all nodes agree bit for bit
            return np.multiply.outer(1.0 - t, w) * 0.3

        stacked = max_control_error(u, exact, grid)
        assert stacked == max_control_error(u, per_node(exact), grid)
    one = TimeSeq(rng.normal(size=(grid.n + 1, 1)))
    flat = max_control_error(one, lambda t: 2.0 * t, grid)  # shape (N,)
    assert flat == max_control_error(one, per_node(lambda t: 2.0 * t), grid)
    assert flat == float(np.max(np.abs(one.values[1:, 0] - 2.0 * grid.times[1:])))


def test_max_control_error_stacked_shapes_and_nan():
    grid = Grid(0.0, 1.0, 8)
    u2 = TimeSeq(np.ones((grid.n + 1, 2)))
    with pytest.raises(ValueError, match=r"shape \(9,\)"):  # (N+1,)
        max_control_error(TimeSeq(np.ones((grid.n + 1, 1))),
                          lambda t: np.zeros(grid.n + 1), grid)
    with pytest.raises(ValueError, match=r"shape \(8, 3\)"):  # (N, m+1)
        max_control_error(u2, lambda t: np.zeros((len(t), 3)), grid)
    with pytest.raises(ValueError, match=r"shape \(8,\)"):  # (N,) with m = 2
        max_control_error(u2, lambda t: np.zeros(len(t)), grid)
    with pytest.raises(ValueError):
        max_control_error(u2, lambda t: 0.0, grid)

    def nan_row(t):
        ref = np.zeros((len(t), 2))
        ref[3, 1] = np.nan
        return ref

    assert np.isnan(max_control_error(u2, nan_row, grid))


# one case, parametrized so that the test id stays "...[True]"
@pytest.mark.parametrize("stacked", (True,))
def test_max_control_error_refuses_a_complex_reference(stacked):
    # a float conversion would keep the real part, 1.0, and only warn
    grid = Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError, match="^exact returned a complex value"):
        max_control_error(TimeSeq.zeros(1), lambda t: np.array([1 + 5j]), grid)


# -- order fitting ----------------------------------------------------------------------

def test_fit_recovers_exact_power_laws():
    hs = [1.0 / n for n in (25, 50, 100, 200)]
    rep = convergence_order([(h, 3.0 * h) for h in hs])
    npt.assert_allclose(rep.fitted_order, 1.0, atol=1e-12)
    npt.assert_allclose(rep.pairwise_orders, 1.0, atol=1e-12)

    rep2 = convergence_order([(h, 0.2 * h ** 2) for h in hs])
    npt.assert_allclose(rep2.fitted_order, 2.0, atol=1e-12)


def test_fit_survives_mild_noise():
    rng = np.random.default_rng(6)
    hs = [1.0 / n for n in (25, 50, 100, 200, 400)]
    rows = [(h, h ** 0.9 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))) for h in hs]
    rep = convergence_order(rows)
    assert 0.85 <= rep.fitted_order <= 0.95


def test_fit_is_scale_invariant():
    hs = [1.0 / n for n in (10, 20, 40)]
    rows = [(h, h ** 1.3) for h in hs]
    base = convergence_order(rows).fitted_order
    scaled = convergence_order([(h, 7.3 * e) for h, e in rows]).fitted_order
    npt.assert_allclose(base, scaled, atol=1e-12)


def test_fit_sorts_rows_and_reconstructs_n():
    rows = [(1.0 / 100, 1e-3), (1.0 / 25, 4e-3), (1.0 / 50, 2e-3)]
    rep = convergence_order(rows)
    assert isinstance(rep, ConvergenceReport)
    assert [r[0] for r in rep.rows] == [25, 50, 100]
    assert len(rep.pairwise_orders) == 2


def test_fit_rejects_degenerate_data():
    with pytest.raises(DegenerateDataError):
        convergence_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(DegenerateDataError):
        convergence_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.2)])
    with pytest.raises(DegenerateDataError):
        convergence_order([(0.1, 1.0), (-0.05, 0.5), (0.025, 0.2)])
    for bad in (np.nan, np.inf):  # non-finite error, then step size
        with pytest.raises(DegenerateDataError):
            convergence_order([(0.1, 1.0), (0.05, bad), (0.025, 0.2)])
        with pytest.raises(DegenerateDataError):
            convergence_order([(0.1, 1.0), (bad, 0.5), (0.025, 0.2)])
    with pytest.raises(DegenerateDataError):  # repeated step size
        convergence_order([(0.05, 1.0), (0.05, 1.0), (0.025, 0.5)])
