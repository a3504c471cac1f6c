"""Semi-closed forms for the wall-tableau sequences.

Everything here is built from one family of rational coefficients gamma_k.
The k-th gamma is fixed by requiring that the double-factorial expansion of
a(n, k) stays consistent when n shrinks to the degenerate corner, which
gives a self-referential sum that we simply solve for gamma_k.  All closed
forms return exact values; the integer-valued ones check integrality
before converting.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .exact_arith import (
    ExactRational, Nat, binomial, double_factorial, double_factorials, exact_int, factorial
)

# Per-k rows over their least common denominator, as (numerators, denominator):
# _GAMMA_ROWS[k] holds gamma_{k-i} / i! for i = 0..k (so gamma_k itself is
# entry 0), _DELTA_ROWS[k] holds delta_i for i = 0..k.  Rows are tuples, so
# no caller can alter a cached one.
IntRow = tuple[tuple[int, ...], int]
_GAMMA_ROWS: list[IntRow] = [((1,), 1)]
_DELTA_ROWS: list[IntRow] = [((1,), 1)]


def gamma(k: int) -> ExactRational:
    """Rational coefficient gamma_k of the double-factorial expansions.

    gamma_0 = 1 and for k >= 1
        gamma_k = -(1 / (3k-3)!!) * sum_{i=1}^{k} gamma_{k-i} / i! * (3k+i-3)!!
    First values: 1, -1, 1/6, 17/48.  The sum is solved in integers, over
    the common denominator of its weights (see _gamma_row).
    """
    if k < 0:
        raise ValueError(f"gamma undefined for {k}")
    nums, den = _gamma_row(k)
    return Fraction(nums[0], den)


def delta(j: int) -> ExactRational:
    """Scaled variant delta_j = j! * gamma_j, the coefficients used by the
    double-factorial expansion of the tree-child counts."""
    return factorial(j) * gamma(j)


def _gamma_row(k: int) -> IntRow:
    """gamma_{k-i} / i! for i = 0..k as integer numerators over their least
    common denominator.

    Row j is built from row j-1: for i >= 1 its entry i is entry i-1 of row
    j-1 divided by i, and those entries fix gamma_j, its entry 0.
    """
    while len(_GAMMA_ROWS) <= k:
        j = len(_GAMMA_ROWS)
        prev, den = _GAMMA_ROWS[-1]
        # entries i >= 1 over den * lcm(1..j), then all over a further (3j-3)!!
        scale = math.lcm(*range(1, j + 1))
        tail = [c * (scale // i) for i, c in enumerate(prev, 1)]
        inv = double_factorial(3 * j - 3)
        head = -sum(c * d for c, d in zip(tail, double_factorials(3 * j - 2, 4 * j - 3)))
        nums = [head, *(c * inv for c in tail)]
        den *= scale * inv
        least = math.gcd(den, *nums)
        _GAMMA_ROWS.append((tuple(c // least for c in nums), den // least))
    return _GAMMA_ROWS[k]


def delta_row(k: int) -> IntRow:
    """delta_0..delta_k as integer numerators N_i over D_k = lcm of their
    denominators, so delta_i = N_i / D_k."""
    while len(_DELTA_ROWS) <= k:
        d = delta(len(_DELTA_ROWS))
        prev, den = _DELTA_ROWS[-1]
        common = math.lcm(den, d.denominator)
        nums = (*(c * (common // den) for c in prev), d.numerator * (common // d.denominator))
        _DELTA_ROWS.append((nums, common))
    return _DELTA_ROWS[k]


def _gamma_dfact_sum(m: int, k: int) -> tuple[int, int]:
    """sum_{i=0}^{k} gamma_{k-i} / i! * (2m+k+i-1)!! as an integer numerator
    and its denominator, that of _gamma_row(k); the quotient need not be
    an integer."""
    nums, den = _gamma_row(k)
    dfact = double_factorials(2 * m + k - 1, 2 * m + 2 * k - 1)
    return sum(c * d for c, d in zip(nums, dfact)), den


def a_closed(n: int, k: int) -> Nat:
    """a(n, k) as a gamma-weighted sum of double factorials:
    sum_{i=0}^{k} gamma_{k-i} / i! * (2n+k+i-1)!!.

    The sum runs in integers over the common denominator of the weights
    gamma_{k-i} / i!, and one exact_int checks that it divides the sum."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    acc, den = _gamma_dfact_sum(n, k)
    return exact_int(acc, den, ("a_closed", n, k))


def a_diag(n: int) -> Nat:
    """Diagonal value a(n, n)."""
    return a_closed(n, n)


def b_closed(n: int, k: int) -> Nat:
    """b(n, k) via the same gamma sum scaled by 2^(n-k) / (n-k+1)!.

    The scaled sum is one integer numerator over the common denominator of
    the weights gamma_{k-i} / i! times (n-k+1)!, checked divisible by one
    exact_int."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    acc, den = _gamma_dfact_sum(n, k)
    return exact_int(acc << (n - k), den * factorial(n - k + 1), ("b_closed", n, k))


def omega_init(m: int, k: int) -> ExactRational:
    """Rational seed row omega(0, m, k) of the omega recurrence:
    sum_{i=0}^{k} gamma_{k-i} / i! * 2^(m-k) / (m-k+1)! * (2m+k+i-1)!!.

    Vanishes identically at k = m + 1 (the gamma recursion is exactly the
    statement that it does).  The sum runs in integers; only the result is
    a Fraction, over the common denominator of the weights gamma_{k-i} / i!
    times 2 (m-k+1)!, which also covers k = m + 1.
    """
    if m < 0 or not 0 <= k <= m + 1:
        raise ValueError(f"need m >= 0 and 0 <= k <= m+1, got ({m}, {k})")
    acc, den = _gamma_dfact_sum(m, k)
    return Fraction(acc << (m - k + 1), 2 * den * factorial(m - k + 1))


def alpha(s: int, p: int, q: int) -> ExactRational:
    """Coefficient alpha_s(p, q) appearing when the omega recurrence is
    unfolded s steps along its vanishing boundary layer:

        (-1)^(q-p+1) (s-1+q-p)! / ((s-q-2p+2)! (q-1)! 2^(q-1) (p-1)!)
    """
    if p < 1 or q < 1:
        raise ValueError(f"need p, q >= 1, got ({p}, {q})")
    if s - q - 2 * p + 2 < 0 or s - 1 + q - p < 0:
        raise ValueError(f"alpha out of domain at ({s}, {p}, {q})")
    # q - p + 1 can go negative, and ** would then produce a float
    sign = -1 if (q - p + 1) % 2 else 1
    return Fraction(
        sign * factorial(s - 1 + q - p),
        factorial(s - q - 2 * p + 2) * factorial(q - 1) * 2 ** (q - 1) * factorial(p - 1),
    )


def lemma28_rhs(
    n: int, k: int, s: int, omega_source: Callable[[int, int, int], int | ExactRational]
) -> ExactRational:
    """Value of the two-block alpha sum that rewrites omega(n, k-1, k) after
    unfolding its recurrence s times (1 <= s <= n).

    The omega_source callable must return 0 outside the omega domain.  The
    whole expression equals omega(n, k-1, k) and therefore vanishes.
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    total = Fraction(0)
    for p in range(1, (s + 1) // 2 + 1):
        for q in range(1, s + 2 - 2 * p + 1):
            total += alpha(s, p, q) * omega_source(n - s - 1, k + s - p, k + 1 - q)
    for p in range(1, (s + 2) // 2 + 1):
        for q in range(1, s + 3 - 2 * p + 1):
            total -= alpha(s + 1, p, q) * omega_source(n - s, k + s - p, k + 1 - q)
    return total


def lemma29_check(n: int, k: int, i: int) -> bool:
    """Truth of the closing double-factorial identity

        sum_{p,q} (-1)^(q-p) 2^(n-p) / ((n+3-2p-q)! (p-1)!)
                  * C(k-i, q-1) * (2n+4k-2p-2q+1-i)!! / (4k-3-i)!!
        = 2^(n-1) * C(n+3k-2, n)

    for n >= 1, k >= 1, 0 <= i <= k.  k = 0 is excluded: the right-hand
    normalisation would need (-3)!!.
    """
    if n < 1 or k < 1 or not 0 <= i <= k:
        raise ValueError(f"out of domain: ({n}, {k}, {i})")
    lhs = Fraction(0)
    for p in range(1, (n + 2) // 2 + 1):
        for q in range(1, min(n + 3 - 2 * p, k + 1 - i) + 1):
            num = (
                (-1 if (q - p) % 2 else 1)
                * 2 ** (n - p)
                * binomial(k - i, q - 1)
                * double_factorial(2 * n + 4 * k - 2 * p - 2 * q + 1 - i)
            )
            den = factorial(n + 3 - 2 * p - q) * factorial(p - 1) * double_factorial(4 * k - 3 - i)
            lhs += Fraction(num, den)
    return lhs == 2 ** (n - 1) * binomial(n + 3 * k - 2, n)
