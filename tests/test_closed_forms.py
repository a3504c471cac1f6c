import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import closed_forms as cf
from youngwalls import wall_tables as wt
from youngwalls.exact_arith import NotIntegralError, double_factorial, factorial


def _gamma(k: int) -> Fraction:
    # gamma_k is entry 0 of the integer row of gamma_{k-i} / i!
    nums, den = cf._gamma_row(k)
    return Fraction(nums[0], den)


def _alpha(s: int, p: int, q: int) -> Fraction:
    # the rational coefficient alpha_s(p, q) of the unfolded omega recurrence,
    # the reference for the integer weights of lemma28_rhs
    if p < 1 or q < 1:
        raise ValueError(f"need p, q >= 1, got ({p}, {q})")
    if s - q - 2 * p + 2 < 0 or s - 1 + q - p < 0:
        raise ValueError(f"alpha out of domain at ({s}, {p}, {q})")
    sign = -1 if (q - p + 1) % 2 else 1
    return Fraction(
        sign * factorial(s - 1 + q - p),
        factorial(s - q - 2 * p + 2) * factorial(q - 1) * 2 ** (q - 1) * factorial(p - 1),
    )


def test_gamma_first_values(monkeypatch):
    # a negative index is rejected, never served the row cached last: with
    # the cache filled past row 5, then cut back to its seed row
    cf._gamma_row(5)
    for _ in range(2):
        with pytest.raises(ValueError):
            cf._gamma_row(-1)
        with pytest.raises(ValueError):
            cf.gamma_dfact_terms(2, -1)
        monkeypatch.setattr(cf, "_GAMMA_ROWS", cf._GAMMA_ROWS[:1])
    assert [_gamma(k) for k in range(4)] == [
        Fraction(1),
        Fraction(-1),
        Fraction(1, 6),
        Fraction(17, 48),
    ]


def test_delta_values():
    # delta_j = j! gamma_j, the weights of the delta form of tc_closed
    assert [factorial(j) * _gamma(j) for j in range(4)] == [
        Fraction(1),
        Fraction(-1),
        Fraction(1, 3),
        Fraction(17, 8),
    ]


def test_a_closed_matches_recurrence():
    # the agreement with a_rec is the registry check closed-a
    with pytest.raises(ValueError):
        cf.a_closed(3, 4)


def test_gamma_matches_the_fraction_recursion():
    # the defining recursion summed term by term in Fractions, as a reference
    ref = [Fraction(1)]
    for j in range(1, 61):
        acc = sum(
            ref[j - i] * Fraction(double_factorial(3 * j + i - 3), factorial(i))
            for i in range(1, j + 1)
        )
        ref.append(-acc / double_factorial(3 * j - 3))
    assert [_gamma(k) for k in range(61)] == ref


def test_integer_rows_restate_the_weights():
    for k in range(12):
        nums, den = cf._gamma_row(k)
        assert isinstance(nums, tuple)
        weights = [_gamma(k - i) / factorial(i) for i in range(k + 1)]
        assert [Fraction(c, den) for c in nums] == weights


def test_closed_forms_far_row():
    # beyond the closed-a and closed-b defaults (n <= 25)
    n = 60
    for k in range(n + 1):
        assert cf.a_closed(n, k) == wt.a_rec(n, k), k
        assert cf.b_closed(n, k) == wt.b(n, k), k


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=45))
def test_closed_forms_at_domain_edges(n):
    assert cf.a_closed(n, 0) == double_factorial(2 * n - 1)
    assert cf.a_closed(n, n) == wt.a_rec(n, n)
    assert cf.b_closed(n, 0) == factorial(2 * n) // (factorial(n) * factorial(n + 1))
    assert cf.b_closed(n, n) == wt.b(n, n)
    seeds = next(itertools.islice(cf.omega_init_layers(n + 1), n, None))
    assert seeds[n + 1] == 0
    assert seeds[0] == Fraction(2**n * double_factorial(2 * n - 1), factorial(n + 1))


def test_a_diag():
    assert [cf.a_closed(n, n) for n in range(7)] == [1, 1, 7, 106, 2575, 87595, 3864040]


# fixed-k double-factorial expressions, low columns


def _a_fixed_k(n: int, k: int) -> Fraction:
    df = double_factorial
    if k == 0:
        return Fraction(df(2 * n - 1))
    if k == 1:
        return Fraction(df(2 * n + 1) - df(2 * n))
    if k == 2:
        return (n + Fraction(5, 3)) * df(2 * n + 1) - df(2 * n + 2)
    if k == 3:
        return Fraction(n + 3, 3) * df(2 * n + 3) - (n + Fraction(79, 48)) * df(2 * n + 2)
    if k == 4:
        return (Fraction(n * n, 6) + Fraction(7 * n, 6) + Fraction(319, 189)) * df(
            2 * n + 3
        ) - Fraction((16 * n + 31) * (n + 2), 24) * df(2 * n + 2)
    if k == 5:
        return Fraction(63 * n * n + 609 * n + 1006, 1890) * (2 * n + 5) * df(
            2 * n + 3
        ) - (Fraction(n * n, 6) + Fraction(13 * n, 16) + Fraction(9107, 9216)) * df(2 * n + 4)
    raise ValueError(k)


def _b_fixed_k(n: int, k: int) -> Fraction:
    fac = factorial
    if k == 0:
        return Fraction(fac(2 * n), fac(n) * fac(n + 1))
    if k == 1:
        return Fraction(fac(2 * n + 1), 2 * fac(n) ** 2) - 2 ** (2 * n - 1)
    if k == 2:
        return Fraction(n, 4) * (n + Fraction(5, 3)) * Fraction(
            fac(2 * n + 1), fac(n) ** 2
        ) - n * (n + 1) * 2 ** (2 * n - 1)
    if k == 3:
        return Fraction(n + 3, 3 * 2**4) * Fraction(
            fac(2 * n + 3), fac(n - 2) * fac(n + 1)
        ) - (n - 1) * n * (n + 1) * (n + Fraction(79, 48)) * 2 ** (2 * n - 2)
    if k == 4:
        return (Fraction(n * n, 6) + Fraction(7 * n, 6) + Fraction(319, 189)) * Fraction(
            fac(2 * n + 3), 2**5 * fac(n - 3) * fac(n + 1)
        ) - Fraction(16 * n + 31, 3) * (n - 2) * (n - 1) * n * (n + 1) * (n + 2) * 2 ** (
            2 * n - 6
        )
    if k == 5:
        poly = (
            Fraction(n**3, 15)
            + Fraction(73 * n * n, 90)
            + Fraction(5057 * n, 1890)
            + Fraction(503, 189)
        )
        first = poly * Fraction(fac(2 * n + 4), 2**7 * fac(n - 4) * fac(n + 2))
        second = (
            (Fraction(n * n, 6) + Fraction(13 * n, 16) + Fraction(9107, 9216))
            * (n - 3) * (n - 2) * (n - 1) * n * (n + 1) * (n + 2)
            * 2 ** (2 * n - 3)
        )
        return first - second
    raise ValueError(k)


def test_fixed_k_expressions_for_a():
    for k in range(6):
        for n in range(max(k, 2), 13):
            assert _a_fixed_k(n, k) == wt.a_rec(n, k), (n, k)


def test_fixed_k_expressions_for_b():
    for k in range(6):
        for n in range(max(k, 2), 13):
            assert _b_fixed_k(n, k) == wt.b(n, k), (n, k)


def test_omega_init_values_and_vanishing():
    assert cf.b_closed(0, 0) == 1
    assert cf.b_closed(1, 0) == 1
    assert cf.b_closed(1, 1) == 1
    assert cf.b_closed(2, 1) == 7
    assert cf.b_closed(3, 0) == 5
    with pytest.raises(ValueError):
        cf.b_closed(1, 3)
    with pytest.raises(ValueError):
        cf.b_closed(-1, 0)
    # the seed omega(0, s, s + 1) vanishes
    assert [seeds[s + 1] for s, seeds in zip(range(9), cf.omega_init_layers(9))] == [0] * 9


def _seed(s, k):
    # the seed omega(0, s, k): b(s, k) for k <= s, 0 at k = s + 1
    return cf.b_closed(s, k) if k <= s else 0


def test_omega_init_is_the_integer_b_closed():
    for s, seeds in zip(range(31), cf.omega_init_layers(31)):
        for k, seed in enumerate(seeds):
            assert type(seed) is int, (s, k)
            if k <= s:
                assert type(cf.b_closed(s, k)) is int, (s, k)
                assert seed == cf.b_closed(s, k), (s, k)


@pytest.mark.parametrize("width", [0, 1, 2, 4, 5, 12, 40])
def test_omega_init_layers_carry_the_seeds(width):
    layers = cf.omega_init_layers(width)
    for s, seeds in zip(range(61), layers):
        assert seeds == [_seed(s, k) for k in range(min(s + 1, width) + 1)], s


def test_omega_init_layers_carry_a_deep_seed_column():
    # 1300 slides of the window, each entry divided by s + 1
    for s, seeds in zip(range(1301), cf.omega_init_layers(0)):
        assert seeds == [cf.b_closed(s, 0)], s


def test_omega_init_layers_slide_one_window():
    # widths past s + 1 cover the columns that enter layer by layer; the
    # column k = width reads what was the window's top two entries a layer
    # earlier
    seeds = {(s, k): _seed(s, k) for s in range(91) for k in range(min(s + 1, 17) + 1)}
    for width in range(18):
        for s, layer in zip(range(91), cf.omega_init_layers(width)):
            assert layer == [seeds[s, k] for k in range(min(s + 1, width) + 1)], (width, s)


def test_omega_init_layers_check_every_seed(monkeypatch):
    # gamma_2 moved by 1: the seed omega(0, 1, 2) is off by 1/2
    rows = cf._GAMMA_ROWS[:1]
    monkeypatch.setattr(cf, "_GAMMA_ROWS", rows)
    nums, den = cf._gamma_row(2)
    rows[2] = ((nums[0] + den, *nums[1:]), den)
    layers = cf.omega_init_layers(2)
    next(layers)
    with pytest.raises(NotIntegralError, match=r"\('omega_init_layers', 1, 2\)"):
        next(layers)


def test_alpha_fixtures_and_domain():
    assert _alpha(1, 1, 1) == -1
    assert _alpha(2, 1, 1) == -1
    assert _alpha(2, 1, 2) == 1
    with pytest.raises(ValueError):
        _alpha(1, 0, 1)
    with pytest.raises(ValueError):
        _alpha(1, 1, 3)  # s - q - 2p + 2 < 0
    # the same fixtures as the integer weights at depth 1, over 1! 2^1
    first, second = cf._lemma28_weights(1)
    assert [(p, q, Fraction(w, 2)) for p, q, w in (*first, *second)] == [
        (1, 1, -1), (1, 1, -1), (1, 2, 1)]


def test_lemma28_sum_vanishes():
    # the vanishing itself is the registry check lemma28
    with pytest.raises(ValueError):
        cf.lemma28_rhs(3, 2, 4, wt.omega)


def test_lemma28_single_step_expansion():
    # s = 1 unfolds to omega(n-1,k,k) - omega(n-1,k,k-1) - omega(n-2,k,k)
    for n in range(2, 8):
        for k in range(1, 5):
            expanded = (
                wt.omega(n - 1, k, k)
                - wt.omega(n - 1, k, k - 1)
                - wt.omega(n - 2, k, k)
            )
            # times s! 2^s = 2
            assert cf.lemma28_rhs(n, k, 1, wt.omega) == 2 * expanded


def test_lemma28_weights_are_scaled_alphas():
    for s in range(31):
        first, second = cf._lemma28_weights(s)
        for t, block in ((s, first), (s + 1, second)):
            assert [(p, q) for p, q, _ in block] == [
                (p, q) for p in range(1, (t + 1) // 2 + 1) for q in range(1, t + 2 - 2 * p + 1)
            ]
            for p, q, w in block:
                assert type(w) is int, (s, t, p, q)
                assert w == _alpha(t, p, q) * factorial(s) * 2**s, (s, t, p, q)


def test_lemma28_weights_are_built_without_alpha():
    # each weight is one integer division of factorials; the rational alpha
    # is only the reference of the tests (_alpha)
    cf._lemma28_weights.cache_clear()
    assert cf._lemma28_weights(1) == (((1, 1, -2),), ((1, 1, -2), (1, 2, 2)))
    assert len(cf._lemma28_weights(12)[1]) == 49  # t = 13: q <= 15 - 2p, p <= 7


def test_lemma28_rhs_is_the_alpha_sum():
    # the rational sum of the definition, term by term, on a moved omega
    def source(n, m, k):
        if n < 0 or k < 0:
            return 0
        return wt.omega(n, m, k) + (n + 2 * m + 3 * k) % 5

    for n in range(1, 7):
        for k in range(1, 5):
            for s in range(1, n + 1):
                want = sum(
                    _alpha(s, p, q) * source(n - s - 1, k + s - p, k + 1 - q)
                    for p in range(1, (s + 1) // 2 + 1) for q in range(1, s + 3 - 2 * p)
                ) - sum(
                    _alpha(s + 1, p, q) * source(n - s, k + s - p, k + 1 - q)
                    for p in range(1, (s + 2) // 2 + 1) for q in range(1, s + 4 - 2 * p)
                )
                assert cf.lemma28_rhs(n, k, s, source) == want * factorial(s) * 2**s, (n, k, s)


def test_lemma29_identity():
    # the identity itself is the registry check lemma29
    with pytest.raises(ValueError):
        cf.lemma29_check(1, 0, 0)
