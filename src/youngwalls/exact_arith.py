"""Integer primitives shared by every counting module.

All counts are arbitrary-precision ints and all arithmetic is exact; floats
never appear here.  No module of the package builds a Fraction: a value
that is rational by nature is held as integer numerators over a common
denominator, and ``exact_int`` checks each division that an identity
makes exact.
"""

from __future__ import annotations

import math


class NotIntegralError(ArithmeticError):
    """An exact value that an identity makes integral came out otherwise."""


# n! for n >= 0; math.factorial raises ValueError on a negative n
factorial = math.factorial

# C(n, k), 0 for k > n; math.comb raises ValueError on a negative n or k
binomial = math.comb


def double_factorial(m: int) -> int:
    """m!! = m (m-2) (m-4) ..., with 0!! = (-1)!! = 1.

    Arguments below -1 are rejected on purpose: identities that would need
    them must restrict their ranges instead of leaning on a silent extension.
    """
    if m < -1:
        raise ValueError(f"double factorial undefined for {m}")
    j = (m + 1) // 2
    if m % 2:
        # (2j-1)!! = (2j)! / (2^j j!)
        return math.perm(2 * j, j) >> j
    # (2j)!! = 2^j j!
    return math.factorial(j) << j


def double_factorials(low: int, high: int) -> list[int]:
    """[low!!, (low+1)!!, ..., high!!] for -1 <= low <= high, each entry
    past the first two taken from the one two places back."""
    run = [double_factorial(v) for v in range(low, min(low + 2, high + 1))]
    for v in range(low + 2, high + 1):
        run.append(run[-2] * v)
    return run


def exact_int(num: int, den: int, where: object = None) -> int:
    """num / den as an int, raising NotIntegralError unless it is one.  The
    quotient is in the ring of ``num``: a ``decimal.Decimal`` num, whose
    divmod is exact, gives a Decimal, as in the tables of a, b and tc that
    ``cli`` walks in Decimal past its bound of ``DECIMAL_DIGITS`` digits.

    Every integrality and divisibility invariant goes through here, so the
    check also runs under ``python -O``.  ``where`` names the cell in the
    error message.
    """
    quot, rem = divmod(num, den)
    if rem:
        raise NotIntegralError(f"value at {where} is not an integer")
    return quot
