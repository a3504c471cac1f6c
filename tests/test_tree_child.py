import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import tree_child as tcn, wall_tables
from youngwalls.exact_arith import double_factorial

from conftest import TC_SPOT


@pytest.mark.parametrize(
    "fn",
    [tcn.tc, tcn.tc_closed],
    ids=["tc", "tc_closed"],
)
def test_domain_guards(fn):
    with pytest.raises(ValueError):
        fn(0, 0)
    with pytest.raises(ValueError):
        fn(3, 3)
    with pytest.raises(ValueError):
        fn(3, -1)


def _cell(rows, n, k):
    # tc(n, k) off a walk of a row stream of width k, whose first row is n = 1
    return next(itertools.islice(rows(k), n - 1, None))[k]


def test_spot_values():
    for (n, k), want in TC_SPOT.items():
        assert tcn.tc(n, k) == want, (n, k)


def test_self_contained_routes_deep_column():
    # depth 1500 raised RecursionError when the routes recursed
    assert _cell(wall_tables.tc_rec_rows, 1500, 2) == tcn.tc(1500, 2)


def test_closed_route_far_rows():
    # beyond the tc-routes default (n <= 15)
    for n in range(60, 81):
        for k in range(n):
            assert tcn.tc_closed(n, k) == tcn.tc(n, k), (n, k)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=60))
def test_closed_route_at_domain_edges(n):
    assert tcn.tc_closed(n, 0) == double_factorial(2 * n - 3)
    assert tcn.tc_closed(n, n - 1) == tcn.tc(n, n - 1)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=60))
def test_rec_route_at_domain_edges(n):
    assert _cell(wall_tables.tc_rec_rows, n, 0) == double_factorial(2 * n - 3)
    assert _cell(wall_tables.tc_rec_rows, n, n - 1) == tcn.tc(n, n - 1)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=25), st.data())
def test_rec_route_matches_normative(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert _cell(wall_tables.tc_rec_rows, n, k) == tcn.tc(n, k)


def test_asym_log_is_finite_where_exp_overflows():
    log_est = tcn.tc_asym_log(400, 2)
    assert math.isfinite(log_est)
    with pytest.raises(OverflowError):
        math.exp(tcn.tc_asym_log(400, 2))


def test_asym_tracks_exact_counts():
    for k in range(4):
        err = tcn.tc_asym_rel_error(tcn.tc_asym_log(100, k), tcn.tc(100, k))
        assert err < 1e-2, (k, err)


def test_asym_error_shrinks_with_n():
    for k in range(4):
        errs = [tcn.tc_asym_rel_error(tcn.tc_asym_log(n, k), tcn.tc(n, k)) for n in (50, 100, 200)]
        assert errs[0] > errs[1] > errs[2], (k, errs)


def test_asym_small_case_close():
    est = math.exp(tcn.tc_asym_log(10, 1))
    exact = tcn.tc(10, 1)
    assert abs(est / exact - 1) < 0.05
