"""Closed-form controls, series evaluation and the order-fitting harness."""

from __future__ import annotations

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


# -- error measurement ---------------------------------------------------------------

def test_max_control_error_skips_the_first_node():
    grid = Grid(0.0, 1.0, 4)
    vals = np.tile([3.0, 4.0], (5, 1))
    vals[0] = 1e9  # never read
    u = TimeSeq(vals)
    err = max_control_error(u, lambda t: np.zeros(2), grid)
    assert err == 5.0
    # a reference that is NaN on half the nodes makes the error NaN
    half_nan = lambda t: np.full(2, np.nan if t > 0.5 else 0.0)
    assert np.isnan(max_control_error(u, half_nan, grid))


def test_max_control_error_validation():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        max_control_error(TimeSeq.zeros(3), lambda t: 0.0, grid)
    with pytest.raises(ValueError):
        max_control_error(TimeSeq.zeros(4), lambda t: np.zeros(2), grid)


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
