"""Acceptance gate: twelve criteria, one test (one pass/fail line) each.

Every comparison below is exact integer equality unless a tolerance is
named explicitly.  Wall-clock budgets use time.perf_counter and are meant
as generous sanity caps, not benchmarks.
"""

import io
import itertools
import time
from fractions import Fraction

from youngwalls import (
    checks,
    cli,
    closed_forms,
    poset_lab,
    series_engine,
    tree_child,
    wall_tables,
)
from youngwalls.exact_arith import binomial, double_factorial

from conftest import TABLE_A, TABLE_B
from test_closed_forms import _a_fixed_k, _b_fixed_k


def _cli(*argv):
    buf = io.StringIO()
    code = cli.main(list(argv), out=buf)
    return code, buf.getvalue()


def test_criterion_01_reference_tables_cell_for_cell():
    t0 = time.perf_counter()
    for seq, table in (("a", TABLE_A), ("b", TABLE_B)):
        code, text = _cli("table", "--seq", seq, "--nmax", "6")
        assert code == 0
        got = [[int(v) for v in line.split(",")] for line in text.splitlines()]
        assert got == [table[n] for n in range(7)], seq
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_main_identity_to_n30():
    # both checks read b off the b3 diagonal, not off b_rows, whose step is
    # the conjugate of a_rows' step: main-identity ties the diagonal to a,
    # cor-rec to b_rows
    t0 = time.perf_counter()
    for name in ("main-identity", "cor-rec"):
        assert checks.CHECKS[name].run(nmax=30) == ("PASS", "n <= 30"), name
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_omega_bridge_and_vanishing_layers():
    for n in range(15):
        for m in range(15 - n):
            for k in range(m + 2):
                assert wall_tables.omega(n, m, k) == wall_tables.b3(n + m, m, k), (n, m, k)
    for k in range(1, 7):
        for n in range(11):
            assert wall_tables.omega(n, k - 1, k) == 0, (n, k)


def test_criterion_04_semi_closed_forms_match_recurrences():
    for n in range(26):
        for k in range(n + 1):
            assert closed_forms.a_closed(n, k) == wall_tables.a_rec(n, k), ("a", n, k)
            assert closed_forms.b_closed(n, k) == wall_tables.b(n, k), ("b", n, k)
    for k in range(4):
        for n in range(max(k, 2), 13):
            assert _a_fixed_k(n, k) == wall_tables.a_rec(n, k), ("a-fixture", n, k)
            assert _b_fixed_k(n, k) == wall_tables.b(n, k), ("b-fixture", n, k)


def test_criterion_05_lemma_suite_and_alpha_fixtures():
    for n in range(1, 9):
        for k in range(1, 7):
            for i in range(k + 1):
                assert closed_forms.lemma29_check(n, k, i), (n, k, i)
    for n in range(1, 9):
        for k in range(1, 6):
            for s in range(1, n + 1):
                assert closed_forms.lemma28_rhs(n, k, s, wall_tables.omega) == 0, (n, k, s)
    # alpha_1(1, 1) = -1, alpha_2(1, 1) = -1 and alpha_2(1, 2) = 1, as the
    # integer weights of lemma28_rhs at depth s = 1 over s! 2^s = 2
    first, second = closed_forms._lemma28_weights(1)
    assert [(p, q, Fraction(w, 2)) for p, q, w in (*first, *second)] == [
        (1, 1, -1), (1, 1, -1), (1, 2, 1)]


def test_criterion_06_generating_function_three_way_agreement():
    t0 = time.perf_counter()
    for k in range(1, 9):
        table = series_engine.dk_from_table(k, 20)
        assert table == series_engine.dk_closed(k, 20) == series_engine.dk_kernel(k, 20), k
    for k, (f, d, b) in zip(range(6), series_engine.kernel_levels(24)):
        res = series_engine.kernel_residual(b, f, d)
        assert all(res[j][n] == 0 for j in range(13) for n in range(13)), k
    pairs = zip(series_engine.neg_half_pow_series(3, 10),
                series_engine.neg_half_pow_series(2, 10))
    assert series_engine.dk_closed(1, 10) == tuple(Fraction(p - q, 2) for p, q in pairs)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_brute_force_oracles_to_n6():
    t0 = time.perf_counter()
    for n in range(7):
        for k in range(n + 1):
            assert poset_lab.a_brute(n, k) == wall_tables.a_rec(n, k), ("a", n, k)
            assert poset_lab.b_brute(n, k) == wall_tables.b(n, k), ("b", n, k)
    for n in range(7):
        for m in range(n + 1):
            for k in range(m + 1):
                assert poset_lab.b3_brute(n, m, k) == wall_tables.b3(n, m, k), (n, m, k)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_extension_family_machinery():
    for n in range(7):
        for k in range(n + 1):
            brute = sum(
                poset_lab.forest_hook_count(poset_lab.build_F(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert brute == poset_lab.f_closed(n, k) == poset_lab.f_sum(n, k), (n, k)
    for n in range(1, 6):
        for k in range(n + 1):
            ft_brute = sum(
                poset_lab.forest_hook_count(poset_lab.build_Ftilde(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert ft_brute == poset_lab.ftilde(n, k), (n, k)
            u_brute = sum(
                poset_lab.count_linear_extensions(poset_lab.build_U(n, idx))
                for idx in itertools.combinations(range(1, n + 1), k)
            )
            assert u_brute == next(itertools.islice(poset_lab.u_rows(k), n, None))[k], (n, k)
    for n in range(9):
        for k in range(n + 1):
            u = next(itertools.islice(poset_lab.u_rows(k), n, None))
            assert poset_lab.b_from_u(n, k, u) == wall_tables.b(n, k), (n, k)
    for n in range(1, 13):
        for k in range(n + 1):
            u = list(itertools.islice(poset_lab.u_rows(k), n))
            decompose = binomial(2 * n + k, n) * poset_lab.f_closed(n, k) - poset_lab.r_sum(n, k, u)
            assert decompose == wall_tables.b(n, k), ("decomposition", n, k)
            rows = list(itertools.islice(wall_tables.b_rows(k), n))
            assert poset_lab.b_monster(n, k, rows) == wall_tables.b(n, k), ("monster", n, k)


def test_criterion_09_tree_child_route_agreement():
    # rows n = 1..15 of the self-contained route, off one walk
    rec = list(itertools.islice(wall_tables.tc_rec_rows(14), 15))
    for n in range(1, 16):
        for k in range(n):
            want = tree_child.tc(n, k)
            assert rec[n - 1][k] == want, ("rec", n, k)
            assert tree_child.tc_closed(n, k) == want, ("closed", n, k)
    for n in range(2, 16):
        assert tree_child.tc(n, 0) == double_factorial(2 * n - 3), n


def test_criterion_10_asymptotic_error_decreases_and_is_small():
    t0 = time.perf_counter()
    for k in range(4):
        errs = [tree_child.tc_asym_rel_error(tree_child.tc_asym_log(n, k), tree_child.tc(n, k))
                for n in (50, 100, 200)]
        assert errs[0] > errs[1] > errs[2], (k, errs)
        if k == 0:
            assert errs[2] < 1e-3, errs
    assert time.perf_counter() - t0 < 10.0


def test_criterion_11_oeis_crosschecks_agree_offline():
    t0 = time.perf_counter()
    for map_name in sorted(cli.OEIS_MAPS):
        code, text = _cli("crosscheck", "--map", map_name, "--offline")
        assert code == 0, (map_name, text)
        assert "agree" in text, (map_name, text)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_12_boundary_sum_checks_at_three_times_their_bounds():
    # lemma28 (n <= 24, k <= 15), lemma29 (n <= 24, k <= 18) and gamma-sum
    # (k <= 120) in one process: about 0.5 s in integer sums, about
    # 4 s when every term was a Fraction
    t0 = time.perf_counter()
    for name in ("lemma28", "lemma29", "gamma-sum"):
        bounds = {flag: 3 * v for flag, v in checks.CHECKS[name].bounds.items()}
        status, _ = checks.CHECKS[name].run(**bounds)
        assert status == "PASS", name
    assert time.perf_counter() - t0 < 3.0
