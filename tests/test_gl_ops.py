"""Weight recurrences, difference operators, shifts and summation by parts."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracoc import (Grid, TimeSeq, delta_minus, delta_plus, dfibp_residual,
                    gl_coefficients, shift)

ALPHAS = (0.25, 0.5, 0.75, 1.0)


def random_seq(rng, n, dim=1, zero_first=False, zero_last=False):
    vals = rng.normal(size=(n + 1, dim))
    if zero_first:
        vals[0] = 0.0
    if zero_last:
        vals[n] = 0.0
    return TimeSeq(vals)


# -- coefficient recurrence ---------------------------------------------------

def test_weights_half_order_by_hand():
    # the alpha = 1/2 weights are dyadic rationals, so equality is exact
    co = gl_coefficients(0.5, 3)
    npt.assert_array_equal(co.coeffs, [1.0, -0.5, -0.125, -0.0625])
    npt.assert_array_equal(co.partial_sums, [1.0, 0.5, 0.375, 0.3125])
    assert co.n == 3


def test_weights_integer_order_truncate():
    co = gl_coefficients(1.0, 6)
    npt.assert_array_equal(co.coeffs, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    npt.assert_array_equal(co.partial_sums, [1.0] + [0.0] * 6)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=1e-3, max_value=1.0),
       n=st.integers(min_value=1, max_value=80))
def test_weight_sign_and_partial_sum_invariants(alpha, n):
    co = gl_coefficients(alpha, n)
    assert co.coeffs[0] == 1.0
    assert np.all(co.coeffs[1:] <= 0.0)
    assert np.all(np.diff(co.partial_sums) <= 0.0)
    assert np.all(co.partial_sums >= 0.0)


def test_weights_are_cached_and_read_only():
    co = gl_coefficients(0.75, 12)
    assert gl_coefficients(0.75, 12) is co
    with pytest.raises(ValueError):
        co.coeffs[0] = 2.0


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001, 2.0])
def test_order_domain_rejected(bad):
    with pytest.raises(ValueError):
        gl_coefficients(bad, 4)


def test_weights_need_at_least_one_step():
    with pytest.raises(ValueError):
        gl_coefficients(0.5, 0)
    with pytest.raises(ValueError, match="n=2.5"):  # not the n = 2 weights
        gl_coefficients(0.5, 2.5)
    assert gl_coefficients(0.5, np.int64(3)) is gl_coefficients(0.5, 3)


# -- grid and sequence containers ---------------------------------------------

def test_grid_nodes_and_index_lookup():
    grid = Grid(0.0, 2.0, 8)
    assert grid.h == 0.25
    npt.assert_array_equal(grid.times, np.linspace(0.0, 2.0, 9))
    for k in range(9):
        assert grid.index_of(grid.times[k]) == k
    with pytest.raises(ValueError):
        grid.index_of(0.1)  # between nodes
    with pytest.raises(ValueError):
        grid.index_of(2.3)  # outside [a, b]


@pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0),
                                   (0.0, 1.0, 2.5)])
def test_grid_rejects_degenerate_input(a, b, n):
    with pytest.raises(ValueError):
        Grid(a, b, n)


def test_timeseq_reshapes_and_guards_range():
    seq = TimeSeq([1.0, 2.0, 3.0])
    assert (seq.n, seq.dim) == (2, 1)
    npt.assert_array_equal(seq[1], [2.0])

    sub = TimeSeq(seq.values, 1, 2)
    with pytest.raises(IndexError):
        sub[0]
    npt.assert_array_equal(sub.valid_values(), [[2.0], [3.0]])

    with pytest.raises(ValueError):
        TimeSeq(np.zeros((3, 1)), 2, 1)
    with pytest.raises(ValueError):
        TimeSeq(np.zeros(1))  # a single node is not a sequence


def test_timeseq_constructors_and_norm():
    z = TimeSeq.zeros(3, 2)
    assert (z.n, z.dim) == (3, 2)
    c = TimeSeq.constant([3.0, 4.0], 5)
    assert c.sup_norm() == 5.0
    cp = c.copy()
    cp.values[0, 0] = -1.0
    assert c.values[0, 0] == 3.0


# -- difference operators -----------------------------------------------------

def test_integer_order_reduces_to_difference_quotients():
    rng = np.random.default_rng(3)
    grid = Grid(0.0, 1.0, 16)
    seq = random_seq(rng, 16, dim=2)
    h = grid.h

    dm = delta_minus(1.0, grid, seq)
    expect = (seq.values[1:] - seq.values[:-1]) / h
    npt.assert_array_equal(dm.valid_values(), expect)
    assert (dm.lo, dm.hi) == (1, 16)

    dp = delta_plus(1.0, grid, seq)
    expect = (seq.values[:-1] - seq.values[1:]) / h
    npt.assert_array_equal(dp.valid_values(), expect)
    assert (dp.lo, dp.hi) == (0, 15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_caputo_variant_kills_constants(alpha):
    grid = Grid(0.0, 1.0, 12)
    const = TimeSeq.constant([2.5, -1.0], 12)
    dm = delta_minus(alpha, grid, const, caputo=True)
    npt.assert_array_equal(dm.valid_values(), 0.0)
    dp = delta_plus(alpha, grid, const, caputo=True)
    npt.assert_array_equal(dp.valid_values(), 0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_plain_variant_on_constants_follows_partial_sums(alpha):
    grid = Grid(0.0, 1.0, 9)
    const = TimeSeq.constant(3.0, 9)
    co = gl_coefficients(alpha, 9)
    scale = 3.0 / grid.h ** alpha

    dm = delta_minus(alpha, grid, const)
    npt.assert_allclose(dm.valid_values()[:, 0],
                        scale * co.partial_sums[1:], rtol=1e-13)
    dp = delta_plus(alpha, grid, const)
    npt.assert_allclose(dp.valid_values()[:, 0],
                        scale * co.partial_sums[9 - np.arange(9)], rtol=1e-13)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_caputo_equals_plain_when_boundary_vanishes(alpha):
    rng = np.random.default_rng(5)
    grid = Grid(0.0, 1.0, 10)
    g1 = random_seq(rng, 10, zero_first=True)
    npt.assert_array_equal(delta_minus(alpha, grid, g1, caputo=True).values,
                           delta_minus(alpha, grid, g1).values)
    g2 = random_seq(rng, 10, zero_last=True)
    npt.assert_array_equal(delta_plus(alpha, grid, g2, caputo=True).values,
                           delta_plus(alpha, grid, g2).values)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("caputo", [False, True])
def test_operators_mirror_each_other(alpha, caputo):
    # reversing the node order swaps the two operators bit for bit
    rng = np.random.default_rng(11)
    grid = Grid(0.0, 1.0, 14)
    seq = random_seq(rng, 14, dim=3)
    rev = TimeSeq(seq.values[::-1].copy())
    dp = delta_plus(alpha, grid, seq, caputo=caputo)
    dm = delta_minus(alpha, grid, rev, caputo=caputo)
    npt.assert_array_equal(dp.values[:14], dm.values[14:0:-1])


@pytest.mark.parametrize("alpha", (0.25, 0.75))
def test_operators_are_linear(alpha):
    rng = np.random.default_rng(7)
    grid = Grid(0.0, 1.0, 11)
    x, y = random_seq(rng, 11), random_seq(rng, 11)
    combo = TimeSeq(2.0 * x.values - 3.0 * y.values)
    for op in (delta_minus, delta_plus):
        direct = op(alpha, grid, combo)
        parts = 2.0 * op(alpha, grid, x).values - 3.0 * op(alpha, grid, y).values
        npt.assert_allclose(direct.values, parts, atol=1e-11)


def test_operator_rejects_partial_or_mismatched_input():
    grid = Grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        delta_minus(0.5, grid, TimeSeq.zeros(4))
    with pytest.raises(ValueError):
        delta_minus(0.5, grid, TimeSeq(np.zeros((6, 1)), 1, 5))


def test_operator_output_blocks_invalid_endpoint():
    grid = Grid(0.0, 1.0, 5)
    seq = TimeSeq(np.arange(6.0))
    dm = delta_minus(0.5, grid, seq)
    with pytest.raises(IndexError):
        dm[0]
    dp = delta_plus(0.5, grid, seq)
    with pytest.raises(IndexError):
        dp[5]


# -- index shifts ---------------------------------------------------------------

def test_shift_forward_and_backward():
    seq = TimeSeq(np.arange(5.0))

    fwd = shift(seq, 2)
    assert (fwd.lo, fwd.hi) == (0, 2)
    npt.assert_array_equal(fwd.valid_values()[:, 0], [2.0, 3.0, 4.0])

    back = shift(seq, -1)
    assert (back.lo, back.hi) == (1, 4)
    npt.assert_array_equal(back.valid_values()[:, 0], [0.0, 1.0, 2.0, 3.0])


def test_shift_padding_and_range_interaction():
    seq = TimeSeq(np.arange(5.0))
    padded = shift(seq, 3, pad_with_zero=True)
    assert (padded.lo, padded.hi) == (0, 4)
    npt.assert_array_equal(padded.values[:, 0], [3.0, 4.0, 0.0, 0.0, 0.0])

    sub = TimeSeq(np.arange(5.0), 2, 3)
    moved = shift(sub, 1)
    assert (moved.lo, moved.hi) == (1, 2)
    npt.assert_array_equal(moved.valid_values()[:, 0], [2.0, 3.0])


def test_shift_rejects_oversized_or_empty_results():
    seq = TimeSeq(np.arange(5.0))
    with pytest.raises(ValueError):
        shift(seq, 5)
    narrow = TimeSeq(np.arange(5.0), 0, 0)
    with pytest.raises(ValueError):
        shift(narrow, 1)
    padded = shift(narrow, 1, pad_with_zero=True)
    npt.assert_array_equal(padded.values, 0.0)


# -- summation by parts ---------------------------------------------------------

def test_summation_by_parts_two_step_hand_case():
    # g1 = (0, 1, 2), g2 = (3, 5, 0) at order 1: both sides equal 8 exactly
    grid = Grid(0.0, 1.0, 2)
    g1 = TimeSeq([0.0, 1.0, 2.0])
    g2 = TimeSeq([3.0, 5.0, 0.0])
    dm = delta_minus(1.0, grid, g1, caputo=True)
    left = grid.h * float(np.sum(dm.values[1:] * g2.values[:2]))
    assert left == 8.0
    dp = delta_plus(1.0, grid, g2, caputo=True)
    right = grid.h * float(np.sum(g1.values[1:] * dp.values[:2]))
    assert right == 8.0
    assert dfibp_residual(1.0, grid, g1, g2) == 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (2, 5, 17, 64))
def test_summation_by_parts_random_suite(alpha, n):
    rng = np.random.default_rng(1000 * n + int(100 * alpha))
    grid = Grid(0.0, 1.0, n)
    for dim in (1, 3):
        for _ in range(5):
            g1 = random_seq(rng, n, dim, zero_first=True)
            g2 = random_seq(rng, n, dim, zero_last=True)
            scale = (g1.sup_norm() * g2.sup_norm()
                     * (grid.b - grid.a) / grid.h ** alpha)
            assert dfibp_residual(alpha, grid, g1, g2) <= 1e-12 * max(1.0, scale)


def test_summation_by_parts_requires_zero_boundaries():
    grid = Grid(0.0, 1.0, 4)
    good1 = TimeSeq([0.0, 1.0, 2.0, 3.0, 4.0])
    good2 = TimeSeq([4.0, 3.0, 2.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        dfibp_residual(0.5, grid, good2, good2)  # g1 nonzero at the first node
    with pytest.raises(ValueError):
        dfibp_residual(0.5, grid, good1, good1)  # g2 nonzero at the last node
    with pytest.raises(ValueError):
        dfibp_residual(0.5, grid, good1, TimeSeq(np.zeros((5, 2))))
