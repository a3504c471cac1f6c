import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import wall_tables as wt
from youngwalls.exact_arith import double_factorial, factorial

from conftest import TABLE_A, TABLE_B


def test_a_matches_reference_triangle():
    for n, row in TABLE_A.items():
        assert [wt.a_rec(n, k) for k in range(n + 1)] == row


def test_b_matches_reference_triangle():
    for n, row in TABLE_B.items():
        assert [wt.b(n, k) for k in range(n + 1)] == row


def test_a_outside_domain_is_zero():
    assert wt.a_rec(2, 3) == 0
    assert wt.a_rec(-1, 0) == 0
    assert wt.a_rec(3, -1) == 0


def test_a_base_column_is_odd_double_factorial():
    for n in range(25):
        assert wt.a_rec(n, 0) == double_factorial(2 * n - 1)


def test_a_diagonal_sticks():
    # the recurrence's zero extension makes a(n, n) = a(n, n-1) + 0 twice over
    for n in range(1, 12):
        assert wt.a_rec(n, n) == wt.a_rec(n, n - 1)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_main_identity(n, k):
    if k > n:
        assert wt.a_rec(n, k) == wt.b(n, k) == 0
    else:
        assert 2 ** (n - k) * wt.a_rec(n, k) == factorial(n - k + 1) * wt.b(n, k)


def test_b3_spot_values():
    assert wt.b3(0, 0, 0) == 1
    assert wt.b3(1, 1, 1) == 1
    assert wt.b3(2, 1, 0) == 2
    assert wt.b3(2, 1, 1) == 3
    assert wt.b3(3, 2, 1) == 23
    assert wt.b3(2, 3, 1) == 0
    assert wt.b3(3, 2, 3) == 0


def test_b3_diagonal_is_b():
    for n in range(12):
        for k in range(n + 1):
            assert wt.b3(n, n, k) == wt.b(n, k)


def test_b3_hook_closed_form():
    # the agreement with b3(n, m, 0) is the registry check hook-base
    with pytest.raises(ValueError):
        wt.b3_hook(2, 3)


def test_b_cor_rec_matches_b():
    # the agreement with b is the registry check cor-rec
    with pytest.raises(ValueError):
        wt.b_cor_rec(3, 4)


def test_omega_seed_and_guards():
    assert wt.omega(-1, 5, 2) == 0
    assert wt.omega(0, 2, 1) == 7
    assert wt.omega(1, 0, 0) == 1
    assert wt.omega(1, 1, 1) == 3
    assert wt.omega(4, 0, 1) == 0  # above the k = m + 1 layer
    with pytest.raises(ValueError):
        wt.omega(-2, 0, 0)
    with pytest.raises(ValueError):
        wt.omega(0, -1, 0)


def test_table_values_are_stable():
    t = wt.CountTable3()
    first = t.value(7, 5, 3)
    assert t.value(7, 5, 3) == first
    assert first == wt.b3(7, 5, 3)


def test_memo_handles_sparse_far_request():
    table = wt.CountTable2()
    # a far row first: the fill stops at column 1, then reads are plain indexing
    far = table.value(600, 1)
    assert far == table.value(600, 0) + (2 * 600 + 1 - 1) * table.value(599, 1)
    assert far == table.value(600, 1)


def test_cells_asked_out_of_order():
    table = wt.CountTable2()
    # a far column first (grows n), then a larger k at small n (widens the
    # filled rows), then the whole reference triangle
    assert table.value(40, 1) == wt.a_rec(40, 1)
    assert table.value(5, 4) == TABLE_A[5][4]
    for n, row in TABLE_A.items():
        assert [table.value(n, k) for k in range(n + 1)] == row


def test_b_cor_rec_deep_column():
    # depth 1500 raised RecursionError when the route recursed
    assert 2**1498 * wt.a_rec(1500, 2) == factorial(1499) * wt.b_cor_rec(1500, 2)
