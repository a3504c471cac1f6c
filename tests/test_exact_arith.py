import math

import pytest
from hypothesis import given, strategies as st

from youngwalls import exact_arith as ea


def test_factorial_small():
    assert [ea.factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        ea.factorial(-1)


def test_double_factorial_conventions():
    assert ea.double_factorial(-1) == 1
    assert ea.double_factorial(0) == 1
    assert ea.double_factorial(1) == 1
    assert ea.double_factorial(5) == 15
    assert ea.double_factorial(6) == 48
    with pytest.raises(ValueError):
        ea.double_factorial(-2)


@given(st.integers(min_value=0, max_value=200))
def test_double_factorial_splits_factorial(m):
    assert ea.double_factorial(m) * ea.double_factorial(m - 1) == ea.factorial(m)


@given(st.integers(min_value=-1, max_value=60), st.integers(min_value=0, max_value=30))
def test_double_factorial_run(low, length):
    run = ea.double_factorials(low, low + length)
    assert run == [ea.double_factorial(v) for v in range(low, low + length + 1)]


def test_binomial_zero_extension():
    assert ea.binomial(5, -1) == 0
    assert ea.binomial(5, 6) == 0
    assert ea.binomial(0, 0) == 1
    with pytest.raises(ValueError):
        ea.binomial(-1, 0)


def test_binomial_is_math_comb_for_nonnegative_k():
    # k > n is already 0 in math.comb; only k < 0 differs
    assert all(ea.binomial(n, k) == math.comb(n, k) for n in range(13) for k in range(n + 4))


@given(st.integers(min_value=1, max_value=80), st.integers(min_value=-2, max_value=82))
def test_binomial_pascal(n, k):
    assert ea.binomial(n, k) == ea.binomial(n - 1, k - 1) + ea.binomial(n - 1, k)


def test_odd_catalan_relation():
    # 2^n (2n-1)!! = (n+1)! Cat(n)
    for n in range(20):
        catalan = ea.binomial(2 * n, n) // (n + 1)
        assert 2**n * ea.double_factorial(2 * n - 1) == ea.factorial(n + 1) * catalan
