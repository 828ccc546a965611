"""Weight recurrences, difference operators and summation by parts."""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracoc import (Grid, TimeSeq, delta_minus, delta_plus, dfibp_residual,
                    gl_coefficients)
from fracoc.gl_ops import _SECTION, _integer

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


def elementwise_weights(alpha, n):
    """The weight recurrence as it was written before, one array element at a time."""
    c = np.empty(n + 1)
    c[0] = 1.0
    for r in range(1, n + 1):
        c[r] = c[r - 1] * (r - 1 - alpha) / r
    return c


@pytest.mark.parametrize("alpha", (0.05, 0.33, 0.5, 0.65, 0.87, 1.0))
@pytest.mark.parametrize("n", (1, 2, 6400, 25600))
def test_weights_match_the_elementwise_recurrence_bit_for_bit(alpha, n):
    co = gl_coefficients(alpha, n)
    npt.assert_array_equal(co.coeffs, elementwise_weights(alpha, n))
    npt.assert_array_equal(co.partial_sums, np.cumsum(elementwise_weights(alpha, n)))


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


def refusal(value, name, least=None):
    """The message of ``_integer``'s refusal of ``value``."""
    with pytest.raises(ValueError) as exc:
        _integer(value, name, least)
    return str(exc.value)


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, Fraction(2)],
                         ids=["bool", "numpy-bool", "float", "fraction"])
def test_counts_refuse_bools_and_non_integers(value):
    # a plain int takes a fast path; everything else still meets the Integral test
    assert refusal(value, "n", 1) == f"n must be an integer >= 1, got n={value!r}"
    assert refusal(value, "k") == f"k must be an integer, got k={value!r}"


@pytest.mark.parametrize("value", [3, np.int64(3)], ids=["int", "numpy-int"])
def test_counts_take_ints_and_numpy_ints(value):
    got = _integer(value, "n", 1)
    assert got == 3 and type(got) is int
    assert refusal(value, "n", 4) == f"n must be an integer >= 4, got n={value!r}"


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
    for t in (np.inf, -np.inf, np.nan):  # no overflow or NaN cast on the way
        with pytest.raises(ValueError, match=r"t=-?(inf|nan) is not a node of"):
            grid.index_of(t)


@pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0),
                                   (0.0, 1.0, 2.5), (0.0, np.inf, 4),
                                   (-np.inf, 0.0, 4), (-1e308, 1e308, 4),
                                   pytest.param(np.float64(-1e308), np.float64(1e308),
                                                4, id="numpy-ends-overflow"),
                                   pytest.param(0.0, 1.0, True, id="bool-count")])
def test_grid_rejects_degenerate_input(a, b, n):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            Grid(a, b, n)
    assert caught == []  # refused before b - a can overflow


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
    with pytest.raises(ValueError, match="lo=1.7"):  # not the window [1, 3]
        TimeSeq(np.arange(5.0), 1.7, 3.9)
    with pytest.raises(ValueError, match="hi=3.0"):
        TimeSeq(np.arange(5.0), 1, 3.0)
    numpy_window = TimeSeq(np.arange(5.0), np.int64(1), np.int64(3))
    assert (numpy_window.lo, numpy_window.hi) == (1, 3)


def test_timeseq_constructors_and_norm():
    z = TimeSeq.zeros(3, 2)
    assert (z.n, z.dim) == (3, 2)
    c = TimeSeq.constant([3.0, 4.0], 5)
    assert c.sup_norm() == 5.0
    cp = c.copy()
    cp.values[0, 0] = -1.0
    assert c.values[0, 0] == 3.0


def test_timeseq_refuses_complex_values_by_name():
    # a float conversion would keep the real part and only warn
    with pytest.raises(ValueError, match="^TimeSeq values hold a complex value"):
        TimeSeq(np.array([1 + 2j, 3.0, 4.0]))
    with pytest.raises(ValueError, match="^TimeSeq values hold a complex value"):
        TimeSeq.constant([1.0, 2j], 3)
    floats = np.arange(6.0).reshape(3, 2)
    assert TimeSeq(floats).values is floats  # float rows are kept, not copied


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


def convolve_oracle(op, alpha, grid, values, caputo):
    """Either operator's valid rows as one direct np.convolve per column."""
    c = gl_coefficients(alpha, grid.n).coeffs
    rows = values if op is delta_minus else values[::-1]
    base = rows - rows[0] if caputo else rows
    out = np.stack([np.convolve(c, col)[: grid.n + 1] for col in base.T], axis=1)
    out = out / grid.h ** alpha
    return out[1:] if op is delta_minus else out[::-1][:-1]


@pytest.mark.parametrize("op", [delta_minus, delta_plus])
@pytest.mark.parametrize("caputo", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("nodes", [_SECTION - 1, _SECTION, 25601])
def test_operators_match_direct_sums_across_the_fft_switch(op, caputo, dim, nodes):
    # from _SECTION nodes on the sum is a sectioned FFT product, whose
    # round-off is norm-wise, about eps log n sum |c_r| |G|
    rng = np.random.default_rng(nodes + 10 * dim)
    grid = Grid(0.0, 1.0, nodes - 1)
    seq = random_seq(rng, nodes - 1, dim=dim)
    got = op(0.35, grid, seq, caputo=caputo).valid_values()
    ref = convolve_oracle(op, 0.35, grid, seq.values, caputo)
    npt.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_spoils_only_later_rows(bad):
    # an FFT product would spread a NaN or inf to every row
    rng = np.random.default_rng(13)
    n, k = _SECTION + 500, 700
    grid = Grid(0.0, 1.0, n)
    seq = random_seq(rng, n, dim=2)
    clean = delta_minus(0.6, grid, seq).values
    seq.values[k, 1] = bad
    spoiled = delta_minus(0.6, grid, seq).values
    assert np.isfinite(spoiled[:k]).all()
    npt.assert_allclose(spoiled[:k], clean[:k], rtol=0,
                        atol=1e-14 * np.abs(clean).max())
    assert not np.isfinite(spoiled[k:, 1]).any()
    npt.assert_allclose(spoiled[:, 0], clean[:, 0], rtol=0,
                        atol=1e-14 * np.abs(clean).max())


# rows of the bad entry among 3 * _SECTION + 201: mid-way through a middle
# section, row 0, a middle section's first and last rows, and the last row,
# in the partial last section
BAD_ROWS = {"": 2 * _SECTION + 100, "-row0": 0, "-middle-first": _SECTION,
            "-middle-last": 3 * _SECTION - 1, "-partial-last": 3 * _SECTION + 200}


@pytest.mark.parametrize("bad, alpha, k", [
    pytest.param(bad, alpha, k, id=f"{bad}-{alpha}{tag}")
    for tag, k in BAD_ROWS.items() for bad in (np.nan, np.inf) for alpha in (0.6, 1.0)])
def test_non_finite_input_past_the_first_section_keeps_the_fft_rows_before_it(bad, alpha, k):
    # only the rows from the section that holds the bad entry on take the
    # direct sum: those before it are the finite input's FFT rows bit for
    # bit, and the rows it spoils, NaN or inf, are the direct sum's
    rng = np.random.default_rng(17)
    n, top = 3 * _SECTION + 200, k // _SECTION * _SECTION
    grid = Grid(0.0, 1.0, n)
    seq = random_seq(rng, n, dim=2)
    clean = delta_minus(alpha, grid, seq).values
    seq.values[k, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spoiled = delta_minus(alpha, grid, seq).values
    npt.assert_array_equal(spoiled[:top], clean[:top])
    ref = convolve_oracle(delta_minus, alpha, grid, seq.values, False)  # rows 1..n
    npt.assert_array_equal(np.isnan(spoiled[1:]), np.isnan(ref))
    npt.assert_array_equal(np.isinf(spoiled[1:]), np.isinf(ref))
    first = max(k - 1, 0)  # ref's row of node max(k, 1), the first spoiled
    assert np.isfinite(ref[:first]).all() and not np.isfinite(ref[first:, 1]).any()
    finite = np.isfinite(ref)
    npt.assert_allclose(spoiled[1:][finite], clean[1:][finite], rtol=0,
                        atol=1e-14 * np.abs(clean[1:]).max())


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
