import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import poset_lab as pl
from youngwalls import wall_tables as wt
from youngwalls.exact_arith import binomial, factorial

from conftest import u_literal


POSET_REJECTIONS = [
    (-1, [], "negative size"),
    (2, [(0, 2)], "cover 0>2 out of range"),
    (2, [(0, 0)], "reflexive cover at 0"),
    (2, [(0, 1), (1, 0)], "cover relation has a cycle"),
    (3, [(0, 1), (1, 2), (0, 2)], "redundant cover 0>2"),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], "redundant cover 0>3"),
    # range and reflexivity are checked cover by cover, in sorted order
    (3, [(2, 5), (1, 1)], "reflexive cover at 1"),
    (3, [(1, 2), (0, 5), (1, 1)], "cover 0>5 out of range"),
    # then a cycle, then the first redundant cover in sorted order
    (3, [(0, 1), (1, 0), (2, 2)], "reflexive cover at 2"),
    (5, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 3)], "cover relation has a cycle"),
    (4, [(2, 3), (1, 3), (0, 2), (1, 2), (0, 1)], "redundant cover 0>2"),
]


def test_poset_validation():
    for size, covers, message in POSET_REJECTIONS:
        with pytest.raises(ValueError) as err:
            pl.Poset(size, covers)
        assert str(err.value) == message


def test_poset_merges_duplicate_covers():
    merged = pl.Poset(2, [(0, 1), (0, 1)])
    assert (merged.size, merged.covers) == (2, ((0, 1),))
    assert pl.Poset(3, [(1, 2), (0, 1), (1, 2)]).covers == ((0, 1), (1, 2))


def _is_hasse_diagram(size, covers):
    """Warshall's transitive closure of the relation: it is the cover
    relation of a partial order when no element reaches itself and no edge
    is implied by a longer path."""
    reach = [[(s, t) in covers for t in range(size)] for s in range(size)]
    for mid in range(size):
        for s in range(size):
            if reach[s][mid]:
                for t in range(size):
                    reach[s][t] = reach[s][t] or reach[mid][t]
    if any(reach[v][v] for v in range(size)):
        return False
    return not any(reach[s][u] and reach[u][t] for s, t in covers for u in range(size))


# relations on at most 7 labels; half of them point upward only, so they
# have no cycle and hide their redundant covers behind longer paths
relations = st.integers(min_value=0, max_value=7).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=12)
        if size else st.just(frozenset()),
        st.booleans(),
    )
).map(lambda r: (r[0], {(min(e), max(e)) for e in r[1] if e[0] != e[1]} if r[2] else r[1]))


@settings(max_examples=300)
@given(relations)
def test_poset_accepts_exactly_hasse_diagrams(relation):
    size, covers = relation
    try:
        p = pl.Poset(size, covers)
    except ValueError:
        assert not _is_hasse_diagram(size, covers)
        return
    assert _is_hasse_diagram(size, covers)
    if size <= 6:
        # the DP counts the permutations that respect every cover
        brute = sum(all(pos[s] < pos[t] for s, t in covers)
                    for pos in itertools.permutations(range(size)))
        assert pl.count_linear_extensions(p) == brute


def test_chain_and_antichain_counts():
    assert pl.count_linear_extensions(pl.Poset(6, [(i, i + 1) for i in range(5)])) == 1
    assert pl.count_linear_extensions(pl.Poset(6)) == factorial(6)
    assert pl.count_linear_extensions(pl.Poset(0)) == 1


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
        pl.count_linear_extensions(pl.Poset(25))


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


def _u_below(n, k):
    # u(i, 0..min(i, k)) for i < n, off one walk
    return list(itertools.islice(pl.u_rows(k), n))


def _b_below(n, k):
    # b(i, 0..min(i, k)) for i < n, off one walk
    return list(itertools.islice(wt.b_rows(k), n))


def test_u_family_sums_to_transform():
    u = list(itertools.islice(pl.u_rows(5), 6))
    assert u[2][1] == 13
    for n in range(6):
        for k in range(n + 1):
            brute = sum(
                pl.count_linear_extensions(pl.build_U(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert brute == u[n][k], (n, k)


def test_u_family_is_the_d_family_with_its_pendants_turned():
    # the ladder m_1 < ... < m_n, r_1 < ... < r_n, rungs m_i < r_i, and
    # m_{i_j} < q_j for the j-th index i_j, written out
    for n in range(6):
        for k in range(n + 1):
            for idx in itertools.combinations(range(1, n + 1), k):
                ladder = [(i, i + 1) for i in range(n - 1)]
                ladder += [(n + i, n + i + 1) for i in range(n - 1)]
                ladder += [(i, n + i) for i in range(n)]
                ladder += [(i - 1, 2 * n + j) for j, i in enumerate(idx)]
                u = pl.build_U(n, idx)
                assert (u.size, u.covers) == (2 * n + k, tuple(sorted(ladder))), (n, idx)


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
            assert brute == pl.r_sum(n, k, _u_below(n, k)), (n, k)
    assert pl.r_sum(2, 1, _u_below(2, 1)) == 23


def test_transforms_match_their_literal_sums():
    # the literal sums, references for the shared alternating helper
    for n, u in zip(range(21), pl.u_rows(20)):
        for k in range(n + 1):
            assert u[k] == u_literal(n, k), (n, k)
    for n in range(1, 11):
        for k in range(n + 1):
            total = 0
            for j in range(1, n + 1):
                for s in range(k + 1):
                    for i in range(min(s, n - j) + 1):
                        total += (
                            binomial(2 * j + k - s - 1, j) * pl.f_closed(j, k - s)
                            * (-1) ** i * binomial(2 * n + k, s - i)
                            * binomial(n - j - i, s - i) * factorial(s - i)
                            * u_literal(n - j, i)
                        )
            assert pl.r_sum(n, k, _u_below(n, k)) == total, (n, k)


def test_build_r_degenerate_top():
    r, ftilde = pl.build_R(3, [1, 3], 3, []), pl.build_Ftilde(3, [1, 3])
    assert (r.size, r.covers) == (ftilde.size, ftilde.covers)
    with pytest.raises(ValueError):
        pl.build_R(3, [], 3, [3])


def test_decomposition_reproduces_b():
    for n in range(1, 13):
        for k in range(n + 1):
            assert (
                binomial(2 * n + k, n) * pl.f_closed(n, k) - pl.r_sum(n, k, _u_below(n, k))
                == wt.b(n, k)
            ), (n, k)


def test_monster_recurrence():
    # the agreement with b is the registry check monster (n <= 12)
    with pytest.raises(ValueError):
        pl.b_monster(0, 0, [])
    rows = list(itertools.islice(wt.b_rows(24), 25))
    for n in range(13, 25):
        for k in range(n + 1):
            assert pl.b_monster(n, k, rows) == rows[n][k], (n, k)


def test_monster_terms_factor_into_binomials():
    # the reference is the factorial quotient of the recurrence as stated;
    # b_monster sums the binomial products, each times 2^(k-s)
    f = factorial
    for n in range(1, 21):
        for k in range(n + 1):
            for j in range(1, n + 1):
                for s in range(max(k - j, 0), min(k, n - j) + 1):
                    for m in range(s + 1):
                        quotient = Fraction(
                            (j + k - s) * f(n - j - m) * f(k + 2 * j - m - 1),
                            2 ** (k - s) * f(j - k + s) * f(k - s) * f(j) * f(s - m) * f(n - j - s),
                        )
                        if m < k:
                            term = ((j + k - s) * math.comb(j, k - s) * math.comb(2 * j, j)
                                    * math.comb(n - j - m, s - m)
                                    * math.perm(k + 2 * j - m - 1, k - m - 1))
                        else:
                            term = math.comb(2 * j - 1, j)
                        assert term == quotient * 2 ** (k - s), (n, k, j, s, m)


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=30))
def test_monster_at_domain_edges(n):
    assert pl.b_monster(n, 0, _b_below(n, 0)) == binomial(2 * n, n) // (n + 1)
    assert pl.b_monster(n, n, _b_below(n, n)) == wt.b(n, n)


def test_poset_keeps_its_fields_in_slots():
    p = pl.Poset(3, [(0, 1), (1, 2)])
    assert not hasattr(p, "__dict__")
    assert p.below == (0b000, 0b001, 0b011)


TABLEAU_REJECTIONS = [
    ((1, 2, 0), {}, "row lengths must decrease upward: (1, 2, 0)"),
    ((3, 2, 1), {"walls": frozenset({(0, 2)})}, "wall (0, 2) out of bounds"),
    ((3, 2, 1), {"removed": frozenset({(0, 0), (1, 0)})},
     "removed cells must all lie in a single row"),
    ((3, 2, 1), {"removed": frozenset({(1, 2)})}, "removed cell (1, 2) out of bounds"),
]


def test_tableau_poset_validation():
    for rows, marks, message in TABLEAU_REJECTIONS:
        with pytest.raises(ValueError) as err:
            pl.tableau_poset(rows, **marks)
        assert str(err.value) == message


def test_tableau_poset_plain_shape_is_syt_count():
    # no walls, no removals: standard (2,2,2) filling count
    assert pl.count_linear_extensions(pl.tableau_poset((2, 2, 2))) == 5


def test_wall_semantics_on_small_shape():
    # walls in the top row of (2,2,2) lift one constraint: 5 -> 7 fillings
    walled = pl.tableau_poset((2, 2, 2), walls=frozenset({(2, 0)}))
    assert pl.count_linear_extensions(walled) == 7


def test_brute_oracle_walks_each_poset_once(monkeypatch):
    # b(4, 2) sums over the C(4, 2) = 6 ways to keep two bottom cells: one
    # poset each, whose constructor runs the one down-set pass that
    # validation and the extension count share
    calls = []
    init = pl.Poset.__init__
    monkeypatch.setattr(pl.Poset, "__init__", lambda p, *a: calls.append(p) or init(p, *a))
    assert pl.b_brute(4, 2) == wt.b(4, 2)
    assert len(calls) == 6


def test_brute_oracles_small():
    for n in range(6):
        for k in range(n + 1):
            assert pl.a_brute(n, k) == wt.a_rec(n, k), ("a", n, k)
            assert pl.b_brute(n, k) == wt.b(n, k), ("b", n, k)
    for n in range(5):
        for m in range(n + 1):
            for k in range(m + 1):
                assert pl.b3_brute(n, m, k) == wt.b3(n, m, k), (n, m, k)
