from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import series_engine as se
from youngwalls.exact_arith import NotIntegralError


def test_catalan_series():
    assert se.catalan_series(6) == (1, 1, 2, 5, 14, 42, 132)


def test_x2_series_solves_kernel_root():
    # the root equation itself is the registry check stock-series
    x2 = se.x2_series(25)
    assert x2[:4] == (0, 1, 1, 2)


def test_neg_pow_series_examples():
    assert se.neg_half_pow_series(2, 3) == (1, 4, 16, 64)
    assert se.neg_half_pow_series(3, 3) == (1, 6, 30, 140)


def neg_pow_reference(alpha, order):
    """(1 - 4t)^(-alpha) by the rational recurrence c_{n+1} = c_n 4 (alpha + n) / (n + 1)."""
    cs = [Fraction(1)]
    for n in range(order):
        cs.append(cs[-1] * 4 * (alpha + n) / (n + 1))
    return cs


def test_neg_pow_series_is_the_rational_recurrence_in_integers():
    for p in range(-9, 40):
        s = se.neg_half_pow_series(p, 30)
        assert all(type(c) is int for c in s)
        assert list(s) == neg_pow_reference(Fraction(p, 2), 30), p


def test_divide_t_requires_divisibility():
    # the one division by t of the kernel chain drops the constant term
    assert se._divide_t((0, 3, 4), "F_k", 2, 1) == (3, 4)
    assert se._divide_t([0], "F_k", 2, 1) == ()
    with pytest.raises(NotIntegralError, match="kernel level 2: slice 1 of F_k"):
        se._divide_t((1, 2), "F_k", 2, 1)


def test_shift_up_keeps_order():
    assert se.shift_up((1, 2, 3)) == (0, 1, 2)
    assert se.shift_up((7,)) == (0,)
    assert se.shift_up(()) == ()


def test_series_mul_truncates_to_the_shorter_operand():
    assert se.series_mul((1, 1, 0), (1, 1)) == (1, 2)
    assert se.series_mul((1, 2, 3), (1, 1, 1)) == (1, 3, 6)


def series_of(coefficients):
    return st.lists(coefficients, min_size=1, max_size=6).map(tuple)


# int-only series (the ring of every D_k route) and rational ones
small_series = series_of(st.integers(min_value=-9, max_value=9)) | series_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6)
)


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_ring_laws(f, g, h):
    mul = se.series_mul

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    assert mul(mul(f, g), h) == mul(f, mul(g, h))
    assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))
    assert mul(f, g) == mul(g, f)


@settings(max_examples=40)
@given(small_series)
def test_shift_up_is_multiplication_by_t_power(f):
    t = tuple(int(n == 1) for n in range(len(f)))
    assert se.shift_up(f) == se.series_mul(f, t)


def test_dk_from_table():
    assert se.dk_from_table(1, 4) == (0, 1, 7, 38, 187)
    assert se.dk_from_table(0, 4) == (1, 1, 2, 5, 14)


def test_dk_closed_reduces_at_k1():
    # D_1 = ((1 - 4t)^(-3/2) - (1 - 4t)^(-1)) / 2
    pairs = zip(se.neg_half_pow_series(3, 10), se.neg_half_pow_series(2, 10))
    assert se.dk_closed(1, 10) == tuple(Fraction(p - q, 2) for p, q in pairs)


def test_dk_closed_is_integer_and_matches_the_other_routes():
    for k in range(1, 13):
        closed = se.dk_closed(k, 20)
        assert all(type(c) is int for c in closed)
        assert closed == se.dk_kernel(k, 20) == se.dk_from_table(k, 20), k


def test_dk_closed_rejects_zero():
    with pytest.raises(ValueError):
        se.dk_closed(0, 5)


def test_dk_kernel_examples():
    assert se.dk_kernel(2, 5) == (0, 0, 7, 106, 1010, 7740)
    assert se.dk_kernel(0, 5) == se.catalan_series(5)
    with pytest.raises(ValueError):
        se.dk_kernel(-1, 5)


def test_dk_kernel_matches_the_table_deep():
    for k in (1, 8, 12):
        assert se.dk_kernel(k, 100) == se.dk_from_table(k, 100), k


def test_dk_kernel_level_zero_is_the_initial_condition():
    for k in range(9):
        assert se.dk_kernel(k, 30) == se.dk_from_table(k, 30), k
    for n in range(41):
        assert se.dk_kernel(0, n) == se.catalan_series(n), n


def test_kernel_chain_stays_in_integers():
    for _k, (f, d, b) in zip(range(7), se.kernel_levels(16)):
        assert all(type(c) is int for c in d)
        assert all(type(c) is int for rows in (f, b) for row in rows for c in row)


def test_fk_next_entrywise_rule():
    b0 = se.bk_from_table(0, 4)[0]
    f1 = se._fk_next(b0, 1)
    for j in range(5):
        for n in range(5):
            assert f1[j][n] == n * b0[j][n]


def test_bk_solve_checks_divisibility():
    bad_f = ((1, 0), (1, 1), (0, 0))  # slice 1 divides; slice 2 keeps a constant term
    d = se.catalan_series(1)
    with pytest.raises(NotIntegralError, match="kernel level 4: slice 2 of"):
        se._bk_solve(bad_f, d, 4)


def test_bk_from_table_rows():
    levels = se.bk_from_table(2, 5)
    b1 = levels[1]
    assert len(levels) == 3 and len(b1) == 6 and {len(row) for row in b1} == {6}
    assert b1[0] == (0, 1, 7, 38, 187, 874)
    assert all(
        b_k[j][m] == se.wall_tables.b3(m + j, m, k)
        for k, b_k in enumerate(levels) for j in range(6) for m in range(6)
    )


def subs_x_reference(rows, inner):
    """The defining sum sum_j rows[j] * inner^j, with series_mul products."""
    n = min(len(rows[0]), len(inner))
    acc = (0,) * n
    power = (1,) + (0,) * (n - 1)
    for row in rows:
        acc = tuple(a + c for a, c in zip(acc, se.series_mul(row, power)))
        power = se.series_mul(power, inner)
    return acc


small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def xt_rows(draw):
    """Integer rows with x-order below, equal to or above their t-order."""
    t_order = draw(st.integers(min_value=0, max_value=7))
    x_order = draw(st.sampled_from([max(t_order - 2, 0), t_order, t_order + 3]))
    row = st.lists(small_ints, min_size=t_order + 1, max_size=t_order + 1).map(tuple)
    return draw(st.lists(row, min_size=x_order + 1, max_size=x_order + 1).map(tuple))


@settings(max_examples=80)
@given(xt_rows())
def test_subs_x2_matches_defining_sum(rows):
    assert se._subs_x2(rows) == subs_x_reference(rows, se.x2_series(len(rows[0]) - 1))


@settings(max_examples=40)
@given(xt_rows())
def test_subs_x2_reads_slice_j_to_t_order_n_minus_j(rows):
    # cut to the kernel's shape, slice j holding n - j + 1 coefficients as
    # x F_k / t does, the rows substitute to the same series
    n = len(rows[0]) - 1
    shaped = tuple(row[: n - j + 1] for j, row in enumerate(rows[: n + 1]))
    assert se._subs_x2(shaped) == se._subs_x2(rows)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=14))
def test_kernel_levels_exact_on_triangle(order):
    # slice j of B_k is exact to t-order W - j; D_k is slice 0
    tables = se.bk_from_table(6, order)
    for k, (_, d, b), table in zip(range(7), se.kernel_levels(order), tables):
        assert d == se.dk_from_table(k, order)
        for j in range(order + 1):
            assert b[j][: order - j + 1] == table[j][: order - j + 1], (k, j)


def test_kernel_levels_store_only_exact_entries():
    # slice j of B_k, and of F_k for k >= 1, holds t-orders 0..W - j, each
    # equal to the table: B_k[j][n] = b3(j + n, n, k), F_k = (n + 1 - k) B_{k-1}
    for order in range(13):
        tables = se.bk_from_table(5, order)
        triangle = [order - j + 1 for j in range(order + 1)]
        for k, (f, _, b) in zip(range(6), se.kernel_levels(order)):
            assert [len(row) for row in b] == triangle, (order, k)
            assert all(v == tables[k][j][n] for j, row in enumerate(b) for n, v in enumerate(row))
            if k:
                assert [len(row) for row in f] == triangle, (order, k)
                assert all(v == (n + 1 - k) * tables[k - 1][j][n]
                           for j, row in enumerate(f) for n, v in enumerate(row))


def kernel_residual_reference(b, f, d):
    """(x - x^2 - t) B - (x F - t D) entry by entry on the common rectangle
    of B and F, with t D cut at D's own order (its top coefficient falls off)."""

    def at(rows, j, n):
        return rows[j][n] if j >= 0 and n >= 0 else 0

    def t_d(n):
        return d[n - 1] if 1 <= n < len(d) else 0

    return tuple(
        tuple(
            at(b, j - 1, n) - at(b, j - 2, n) - at(b, j, n - 1)
            - at(f, j - 1, n) + (t_d(n) if j == 0 else 0)
            for n in range(min(len(b[0]), len(f[0])))
        )
        for j in range(min(len(b), len(f)))
    )


orders = st.integers(min_value=0, max_value=7)
integer_series = orders.flatmap(
    lambda n: st.lists(small_ints, min_size=n + 1, max_size=n + 1)).map(tuple)


@st.composite
def integer_rows(draw):
    x_order, t_order = draw(orders), draw(orders)
    row = st.lists(small_ints, min_size=t_order + 1, max_size=t_order + 1).map(tuple)
    return draw(st.lists(row, min_size=x_order + 1, max_size=x_order + 1).map(tuple))


@settings(max_examples=150)
@given(integer_rows(), integer_rows(), integer_series)
def test_kernel_residual_matches_its_definition(b, f, d):
    assert se.kernel_residual(b, f, d) == kernel_residual_reference(b, f, d)
