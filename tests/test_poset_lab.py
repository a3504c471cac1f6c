import itertools

import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import poset_lab as pl
from youngwalls import wall_tables as wt
from youngwalls.exact_arith import binomial, factorial


def test_poset_validation():
    with pytest.raises(ValueError):
        pl.Poset(2, [(0, 2)])
    with pytest.raises(ValueError):
        pl.Poset(2, [(0, 0)])
    with pytest.raises(ValueError):
        pl.Poset(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        pl.Poset(3, [(0, 1), (1, 2), (0, 2)])  # redundant cover


def test_chain_and_antichain_counts():
    assert pl.count_linear_extensions(pl.Poset.chain(6)) == 1
    assert pl.count_linear_extensions(pl.Poset.antichain(6)) == factorial(6)
    assert pl.count_linear_extensions(pl.Poset.antichain(0)) == 1


def test_direct_sum_shuffles():
    # a 3-chain beside a 4-chain: the extensions are the shuffles of the two
    p = pl.Poset(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    assert pl.count_linear_extensions(p) == binomial(7, 3)


def test_ordinal_sum_multiplies():
    # every element of one 3-antichain below every element of another
    p = pl.Poset(6, [(s, t) for s in range(3) for t in range(3, 6)])
    assert pl.count_linear_extensions(p) == factorial(3) ** 2
    # a 2-chain below a 2-antichain: only the top pair is free
    q = pl.Poset(4, [(0, 1), (1, 2), (1, 3)])
    assert pl.count_linear_extensions(q) == 2


def test_capacity_cap():
    with pytest.raises(pl.CapacityError):
        pl.count_linear_extensions(pl.Poset.antichain(25))


# random up-forests: parent[i] < i, arrows point from child up to parent
forest_parents = st.lists(
    st.integers(min_value=-1, max_value=6), min_size=0, max_size=8
).map(
    lambda raw: [min(p, i - 1) if p >= 0 else -1 for i, p in enumerate(raw)]
)


@settings(max_examples=60)
@given(forest_parents)
def test_hook_product_matches_dp_on_forests(parents):
    covers = [(i, p) for i, p in enumerate(parents) if p >= 0]
    poset = pl.Poset(len(parents), covers)
    assert pl.forest_hook_count(poset) == pl.count_linear_extensions(poset)


def test_hook_product_rejects_wide_elements():
    diamondish = pl.Poset(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        pl.forest_hook_count(diamondish)


def test_build_f_examples():
    assert pl.forest_hook_count(pl.build_F(2, [1])) == 1
    assert pl.forest_hook_count(pl.build_F(2, [2])) == 2
    assert pl.f_closed(2, 1) == 3
    with pytest.raises(ValueError):
        pl.build_F(2, [0])
    with pytest.raises(ValueError):
        pl.build_F(2, [1, 1])


def test_f_family_three_ways():
    for n in range(7):
        for k in range(n + 1):
            brute = sum(
                pl.forest_hook_count(pl.build_F(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert brute == pl.f_closed(n, k) == pl.f_sum(n, k), (n, k)


def test_ftilde_family():
    assert pl.forest_hook_count(pl.build_Ftilde(2, [1])) == 6
    assert pl.ftilde(2, 1) == 18
    for n in range(1, 6):
        for k in range(n + 1):
            brute = sum(
                pl.forest_hook_count(pl.build_Ftilde(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert brute == pl.ftilde(n, k), (n, k)
    # the two extension counters agree on a non-trivial member
    sample = pl.build_Ftilde(4, [2, 3])
    assert pl.count_linear_extensions(sample) == pl.forest_hook_count(sample)


def test_d_family_sums_to_b():
    for n in range(6):
        for k in range(n + 1):
            brute = sum(
                pl.count_linear_extensions(pl.build_D(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert brute == wt.b(n, k), (n, k)


def test_u_family_sums_to_transform():
    assert pl.u_from_b(2, 1) == 13
    for n in range(6):
        for k in range(n + 1):
            brute = sum(
                pl.count_linear_extensions(pl.build_U(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert brute == pl.u_from_b(n, k), (n, k)


def test_r_family_brute_matches_formula():
    for n in range(1, 5):
        for k in range(n + 1):
            brute = 0
            for j in range(1, n + 1):
                for s in range(k + 1):
                    for left in itertools.combinations(range(1, j + 1), k - s):
                        for right in itertools.combinations(range(j + 1, n + 1), s):
                            brute += pl.count_linear_extensions(
                                pl.build_R(n, left, j, right)
                            )
            assert brute == pl.r_sum(n, k), (n, k)
    assert pl.r_sum(2, 1) == 23


def test_build_r_degenerate_top():
    assert pl.build_R(3, [1, 3], 3, []) == pl.build_Ftilde(3, [1, 3])
    with pytest.raises(ValueError):
        pl.build_R(3, [], 3, [3])


def test_decomposition_reproduces_b():
    for n in range(1, 13):
        for k in range(n + 1):
            assert (
                binomial(2 * n + k, n) * pl.f_closed(n, k) - pl.r_sum(n, k)
                == wt.b(n, k)
            ), (n, k)


def test_monster_recurrence():
    # the agreement with b is the registry check monster (n <= 12)
    with pytest.raises(ValueError):
        pl.b_monster(0, 0)
    for n in range(13, 25):
        for k in range(n + 1):
            assert pl.b_monster(n, k) == wt.b(n, k), (n, k)


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=30))
def test_monster_at_domain_edges(n):
    assert pl.b_monster(n, 0) == binomial(2 * n, n) // (n + 1)
    assert pl.b_monster(n, n) == wt.b(n, n)


def test_wallshape_validation():
    with pytest.raises(ValueError):
        pl.WallShape((1, 2, 0))
    with pytest.raises(ValueError):
        pl.WallShape((3, 2, 1), walls=frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        pl.WallShape((3, 2, 1), removed=frozenset({(0, 0), (1, 0)}))


def test_tableau_poset_plain_shape_is_syt_count():
    # no walls, no removals: standard (2,2,2) filling count
    shape = pl.WallShape((2, 2, 2))
    assert pl.count_linear_extensions(pl.tableau_poset(shape)) == 5


def test_wall_semantics_on_small_shape():
    # walls in the top row of (2,2,2) lift one constraint: 5 -> 7 fillings
    shape = pl.WallShape((2, 2, 2), walls=frozenset({(2, 0)}))
    assert pl.count_linear_extensions(pl.tableau_poset(shape)) == 7


def test_brute_oracles_small():
    for n in range(6):
        for k in range(n + 1):
            assert pl.a_brute(n, k) == wt.a_rec(n, k), ("a", n, k)
            assert pl.b_brute(n, k) == wt.b(n, k), ("b", n, k)
    for n in range(5):
        for m in range(n + 1):
            for k in range(m + 1):
                assert pl.b3_brute(n, m, k) == wt.b3(n, m, k), (n, m, k)
