from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import series_engine as se


def series(values, order=None):
    return se.TSeries.make(values, order)


def test_make_pads_and_truncates():
    s = series([1, 2], order=4)
    assert s.order == 4
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert series([1, 2, 3, 4], order=1).coeffs == (1, 2)


def test_catalan_series():
    assert [int(c) for c in se.catalan_series(6).coeffs] == [1, 1, 2, 5, 14, 42, 132]


def test_x2_series_solves_kernel_root():
    # the root equation itself is the registry check stock-series
    x2 = se.x2_series(25)
    assert [int(c) for c in x2.coeffs[:4]] == [0, 1, 1, 2]


def test_neg_pow_series_examples():
    assert [int(c) for c in se.neg_pow_series(1, 3).coeffs] == [1, 4, 16, 64]
    assert [int(c) for c in se.neg_pow_series(Fraction(3, 2), 3).coeffs] == [1, 6, 30, 140]


def test_divide_t_requires_divisibility():
    s = series([0, 0, 3, 4], order=3)
    assert s.divide_t(2).coeffs == (3, 4, 0, 0)
    with pytest.raises(ValueError):
        series([1, 2]).divide_t()
    with pytest.raises(ValueError):
        series([0, 3, 4]).divide_t(2)


def test_shift_up_keeps_order():
    s = series([1, 2, 3])
    assert s.shift_up(1).coeffs == (0, 1, 2)
    assert s.shift_up(5).coeffs == (0, 0, 0)


def test_t_derivative():
    s = series([5, 1, 7])
    assert s.t_derivative().coeffs == (0, 1, 14)


def series_of(coefficients):
    return st.lists(coefficients, min_size=1, max_size=6).map(lambda v: series(v, order=5))


# int-only series (the kernel chain's ring) and rational ones (the closed route's)
small_series = series_of(st.integers(min_value=-9, max_value=9)) | series_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6)
)


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_ring_laws(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(max_examples=40)
@given(small_series, st.integers(min_value=0, max_value=4))
def test_shift_then_divide_roundtrip(f, j):
    assert f.shift_up(j).divide_t(j).coeffs[: f.order + 1 - j] == f.coeffs[: f.order + 1 - j]


def test_dk_from_table():
    assert [int(c) for c in se.dk_from_table(1, 4).coeffs] == [0, 1, 7, 38, 187]
    assert [int(c) for c in se.dk_from_table(0, 4).coeffs] == [1, 1, 2, 5, 14]


def test_dk_closed_reduces_at_k1():
    lhs = se.dk_closed(1, 10)
    rhs = (
        se.neg_pow_series(Fraction(3, 2), 10) - se.neg_pow_series(1, 10)
    ).scale(Fraction(1, 2))
    assert lhs == rhs


def test_dk_closed_is_rational_and_matches_kernel():
    for k in range(1, 5):
        closed = se.dk_closed(k, 12)
        # below t^(k-1) sit the zeros that shift_up pads in
        assert all(type(c) is Fraction for c in closed.coeffs[k - 1 :])
        assert closed == se.dk_kernel(k, 12)


def test_dk_closed_rejects_zero():
    with pytest.raises(ValueError):
        se.dk_closed(0, 5)


def test_dk_kernel_examples():
    assert [int(c) for c in se.dk_kernel(2, 5).coeffs] == [0, 0, 7, 106, 1010, 7740]
    with pytest.raises(ValueError):
        se.dk_kernel(0, 5)


def test_kernel_chain_stays_in_integers():
    for k in range(7):
        f, d, b = se.kernel_chain(k, 16)
        assert all(type(c) is int for c in d.coeffs)
        assert all(type(c) is int for xt in (f, b) for row in xt.rows for c in row)


def test_int_and_fraction_coefficients_compare_and_print_alike():
    ints, fracs = series([1, 2]), series([Fraction(1), Fraction(2)])
    assert ints == fracs
    assert ints.to_text() == fracs.to_text() == "1 2"


def test_fk_next_entrywise_rule():
    b0 = se.bk_from_table(0, 4, 4)
    f1 = se.fk_next(b0, 1)
    for j in range(5):
        for n in range(5):
            assert f1.entry(j, n) == n * b0.entry(j, n)


def test_bk_solve_checks_divisibility():
    bad_f = se.XTSeries.make([[0, 0], [1, 1]], 2, 1)  # forces a nonzero constant term
    d = se.catalan_series(1)
    assert all(type(c) is int for row in bad_f.rows for c in row)
    with pytest.raises(ValueError):
        se.bk_solve(bad_f, d)


def test_to_text_format():
    assert series([1, Fraction(1, 2), -3]).to_text() == "1 1/2 -3"


def test_xtseries_slicing_and_shifts():
    b1 = se.bk_from_table(1, 3, 5)
    assert list(b1.rows[0]) == [0, 1, 7, 38, 187, 874]
    assert b1.mul_x().entry(1, 2) == b1.entry(0, 2)
    assert b1.mul_t().entry(0, 2) == b1.entry(0, 1)
