"""Counts of tree-child networks with n leaves and k reticulations, tied to
the wall-tableau tables by tc(n, k) = n!/(n-k)! * a(n-1, k).

Two exact formulas are kept, plus a float asymptotic evaluated in log space
(the counts overflow doubles long before the interesting range ends).
``tc_from_a`` is the normative formula in one cell of a; the normative
``tc`` applies it to a point read of a(n-1, k) that walks to it.
``tc_closed`` is ``tc_from_a(n, k, a_closed(n-1, k))``, which Pons and
Batle's delta formula equals term by term.  tc's own two-term recurrence
is a table, so ``wall_tables.tc_rec_rows`` steps it.

`tc-routes` compares ``tc_from_a`` on the rows of a with ``tc_rec_rows``:
two routes, one recurrence, for tc_rec_rows' recurrence is that of a's rows
under the formula.
"""

from __future__ import annotations

import math

from . import closed_forms, wall_tables
from .exact_arith import binomial


def _check_domain(n: int, k: int) -> None:
    if n < 1 or not 0 <= k <= n - 1:
        raise ValueError(f"need n >= 1 and 0 <= k <= n-1, got ({n}, {k})")


def tc(n: int, k: int) -> int:
    """tc(n, k) = n!/(n-k)! * a(n-1, k), the normative route."""
    _check_domain(n, k)
    return tc_from_a(n, k, wall_tables.a_rec(n - 1, k))


def tc_from_a(n: int, k: int, a: int) -> int:
    """The normative formula n!/(n-k)! * a, given a = a(n-1, k)."""
    return math.perm(n, k) * a


def tc_closed(n: int, k: int) -> int:
    """tc by the delta-weighted double-factorial formula

        tc(n, k) = C(n, k) sum_{i=0}^{k} C(k, i) (2n+2k-i-3)!! delta_i

    with delta_0 = 1 and
        delta_i = -sum_{j=1}^{i} C(i, j) (3i+j-3)!!/(3i-3)!! delta_{i-j},

    so delta_j = j! gamma_j.  With C(k, i) delta_{k-i} = k! gamma_{k-i} / i!
    and C(n, k) k! = n!/(n-k)!, the sum is n!/(n-k)! times the gamma sum of
    closed_forms.a_closed(n-1, k), term by term.  No check reads it: `closed-a`
    already compares a_closed with the rows of a.
    """
    _check_domain(n, k)
    return tc_from_a(n, k, closed_forms.a_closed(n - 1, k))


def tc_asym_log(n: int, k: int) -> float:
    """Natural log of the asymptotic estimate

        C(n, k) * sqrt(2)/e^n * (2n)^(n+k-1) * P(k, 1/sqrt(2n))

    where P is the four-term correction polynomial.  Log space keeps n in
    the hundreds representable."""
    _check_domain(n, k)
    x = 2.0 * n
    s = math.sqrt(math.pi / 2.0)
    corr = math.fsum(
        [
            1.0,
            -s * k / math.sqrt(x),
            (14.0 * k * k - 26.0 * k + 11.0) / (12.0 * x),
            -s * k * (31.0 * k * k - 93.0 * k + 70.0) / (48.0 * x**1.5),
            (2900.0 * k**4 - 14376.0 * k**3 + 25264.0 * k**2 - 19332.0 * k + 5565.0)
            / (6048.0 * x**2),
        ]
    )
    return (
        math.log(binomial(n, k))
        + 0.5 * math.log(2.0)
        - n
        + (n + k - 1) * math.log(x)
        + math.log(corr)
    )


def tc_asym_rel_error(log_estimate: float, exact: int) -> float:
    """|estimate/exact - 1| computed entirely in log space, given the log
    of the estimate that tc_asym_log returned and the exact count."""
    return abs(math.expm1(log_estimate - math.log(exact)))
