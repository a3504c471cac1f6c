"""Semi-closed forms for the wall-tableau sequences.

Everything here is built from one family of rational coefficients gamma_k,
held as integer rows over a common denominator: _gamma_row(k) holds
gamma_{k-i} / i!.  The k-th gamma is fixed by requiring that the
double-factorial expansion of a(n, k) stays consistent when n shrinks to
the degenerate corner, which gives a self-referential sum that we simply
solve for gamma_k.  a_closed sums in integers over the common denominator
of its gamma weights, and one exact_int checks that it divides the sum;
b_closed is its Fuchs-Yu conjugate 2^(n-k) a(n, k) / (n-k+1)!.
lemma28_rhs sums in integers over s! 2^s, the common denominator of its
alpha weights, and returns the sum times s! 2^s; lemma29_check compares
both sides times n! (4k-3-i)!!, where every term is an integer.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterator
from itertools import count

from .exact_arith import double_factorials, exact_int, factorial

# Per-k rows over their least common denominator, as (numerators, denominator):
# _GAMMA_ROWS[k] holds gamma_{k-i} / i! for i = 0..k (so gamma_k itself is
# entry 0).  Rows are tuples, so no caller can alter a cached one.
IntRow = tuple[tuple[int, ...], int]
_GAMMA_ROWS: list[IntRow] = [((1,), 1)]

_AlphaBlock = tuple[tuple[int, int, int], ...]


def _gamma_row(k: int) -> IntRow:
    """gamma_{k-i} / i! for i = 0..k as integer numerators over their least
    common denominator, for k >= 0.  gamma_0 = 1 and for k >= 1

        gamma_k = -(1 / (3k-3)!!) * sum_{i=1}^{k} gamma_{k-i} / i! * (3k+i-3)!!

    so gamma_0..gamma_3 = 1, -1, 1/6, 17/48.  Row j is built from row j-1:
    for i >= 1 its entry i is entry i-1 of row j-1 divided by i, and those
    entries fix gamma_j, its entry 0.
    """
    if k < 0:
        raise ValueError(f"gamma undefined for {k}")
    while len(_GAMMA_ROWS) <= k:
        j = len(_GAMMA_ROWS)
        prev, den = _GAMMA_ROWS[-1]
        # entries i >= 1 over den * lcm(1..j), then all over a further (3j-3)!!
        scale = math.lcm(*range(1, j + 1))
        tail = [c * (scale // i) for i, c in enumerate(prev, 1)]
        inv, *dfact = double_factorials(3 * j - 3, 4 * j - 3)
        head = -sum(c * d for c, d in zip(tail, dfact))
        nums = [head, *(c * inv for c in tail)]
        den *= scale * inv
        least = math.gcd(den, *nums)
        _GAMMA_ROWS.append((tuple(c // least for c in nums), den // least))
    return _GAMMA_ROWS[k]


def gamma_dfact_terms(m: int, k: int) -> tuple[list[int], int]:
    """The terms gamma_{k-i} / i! * (2m+k+i-1)!! for i = 0..k as integer
    numerators over one denominator, that of _gamma_row(k); their sum need
    not be divisible by it.  At m = k - 1 the terms sum to 0 (the gamma
    recursion), and they are the weights of the closed form of D_k."""
    nums, den = _gamma_row(k)
    dfact = double_factorials(2 * m + k - 1, 2 * m + 2 * k - 1)
    return [c * d for c, d in zip(nums, dfact)], den


def a_closed(n: int, k: int) -> int:
    """a(n, k) as a gamma-weighted sum of double factorials:
    sum_{i=0}^{k} gamma_{k-i} / i! * (2n+k+i-1)!!.

    The sum runs in integers over the common denominator of the weights
    gamma_{k-i} / i!, and one exact_int checks that it divides the sum."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    terms, den = gamma_dfact_terms(n, k)
    return exact_int(sum(terms), den, ("a_closed", n, k))


def b_closed(n: int, k: int) -> int:
    """b(n, k) = 2^(n-k) a(n, k) / (n-k+1)!, the Fuchs-Yu conjugate of
    a_closed; one exact_int checks that the factorial divides."""
    return exact_int(a_closed(n, k) << (n - k), factorial(n - k + 1), ("b_closed", n, k))


def omega_init_layers(width: int) -> Iterator[list[int]]:
    """The seed row omega(0, s, k) of the omega recurrence for
    k = 0..min(s + 1, width), one list per layer s = 0, 1, 2, ...  A seed
    is b_closed(s, k) for k <= s and vanishes at k = s + 1 (the gamma
    recursion is exactly the statement that it does).

    Every column of layer s reads a slice of one window, with w = width,

        run[j] = (2s+j-1)!! 2^s / s!   for j = 0..2w+1

    (column k reads run[k:2k+1]).  Each entry is an integer: C(2s, s) times
    odd factors for even j, 2^(2s+t) (s+t)! / s! for j = 2t + 1; so the
    window holds values the size of the seeds, not of (2s+2w)!!.  With
    dot = sum_i gamma_{k-i} / i! run[k+i] over the denominator den of
    _gamma_row(k), the seed is

        omega(0, s, k) = dot s! / ((s-k+1)! 2^k den),

    where s! / (s-k+1)! = s (s-1) ... (s-k+2) is a product of k - 1 small
    factors for k >= 1; at k = 0 the seed is the Catalan number
    run[0] / (s+1) = C(2s, s) / (s+1).  From layer s to s + 1 the
    window drops its two lowest entries, gains run[2w] (2s+2w+1) and
    run[2w+1] (2s+2w+2) on top, and every entry is doubled and divided by
    s + 1.  Every seed and every slid entry is checked by its own exact_int.
    """
    run = double_factorials(-1, 2 * width)
    for s in count():
        seeds = [exact_int(run[0], s + 1, ("omega_init_layers", s, 0))]  # gamma_0 = 1
        fall = 1  # s! / (s-k+1)!
        for k in range(1, min(s + 1, width) + 1):
            nums, den = _gamma_row(k)
            dot = sum(map(operator.mul, nums, run[k:2 * k + 1]))
            seeds.append(exact_int(dot * fall, den << k, ("omega_init_layers", s, k)))
            fall *= s - k + 1
        yield seeds
        top = 2 * s + 2 * width
        where = ("omega_init_layers", s + 1)
        run = [exact_int(v << 1, s + 1, where)
               for v in (*run[2:], run[-2] * (top + 1), run[-1] * (top + 2))]


@functools.cache
def _lemma28_weights(s: int) -> tuple[_AlphaBlock, _AlphaBlock]:
    """The alpha weights of lemma28_rhs at unfolding depth s, as (p, q, w)
    with w = alpha_t(p, q) * s! * 2^s, for t = s and for t = s + 1, where
    alpha_t(p, q) = (-1)^(q-p+1) (t-1+q-p)! / ((t-q-2p+2)! (q-1)! 2^(q-1) (p-1)!):

        w = (-1)^(p+q+1) (t-1+q-p)! s! 2^(s-q+1) / ((t-q-2p+2)! (q-1)! (p-1)!)

    Every w is an integer (checked by its exact_int): the factorials below
    have arguments summing to t - p <= s, and q - 1 <= s.
    """
    fact = factorial(s)
    return tuple(
        tuple((p, q, exact_int(
            (-1) ** (p + q + 1) * factorial(t - 1 + q - p) * fact << (s - q + 1),
            factorial(t - q - 2 * p + 2) * factorial(q - 1) * factorial(p - 1),
            ("lemma28_rhs", t, p, q)))
              for p in range(1, (t + 1) // 2 + 1) for q in range(1, t + 2 - 2 * p + 1))
        for t in (s, s + 1)
    )


def lemma28_rhs(n: int, k: int, s: int, omega_source: Callable[[int, int, int], int]) -> int:
    """The two-block alpha sum that rewrites omega(n, k-1, k) after
    unfolding its recurrence s times (1 <= s <= n), times s! 2^s:

        sum_{p,q} alpha_s(p, q) omega(n-s-1, k+s-p, k+1-q)
          - sum_{p,q} alpha_{s+1}(p, q) omega(n-s, k+s-p, k+1-q)

    The omega_source callable must return 0 outside the omega domain.  The
    whole expression equals omega(n, k-1, k) and therefore vanishes, and so
    does the integer returned (see _lemma28_weights).
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    first, second = _lemma28_weights(s)
    total = 0
    for p, q, w in first:
        total += w * omega_source(n - s - 1, k + s - p, k + 1 - q)
    for p, q, w in second:
        total -= w * omega_source(n - s, k + s - p, k + 1 - q)
    return total


def lemma29_check(n: int, k: int, i: int) -> bool:
    """Truth of the closing double-factorial identity

        sum_{p,q} (-1)^(q-p) 2^(n-p) / ((n+3-2p-q)! (p-1)!)
                  * C(k-i, q-1) * (2n+4k-2p-2q+1-i)!! / (4k-3-i)!!
        = 2^(n-1) * C(n+3k-2, n)

    for n >= 1, k >= 1, 0 <= i <= k.  k = 0 is excluded: the right-hand
    normalisation would need (-3)!!.  Both sides are compared times
    n! (4k-3-i)!!, where every term is an integer: the factorials
    (n+3-2p-q)! and (p-1)! have arguments summing to at most n, so
    n! / ((n+3-2p-q)! (p-1)!) = C(n, n+3-2p-q) perm(2p+q-3, p+q-2).
    """
    if n < 1 or k < 1 or not 0 <= i <= k:
        raise ValueError(f"out of domain: ({n}, {k}, {i})")
    # dfact[v - low] = v!! for low = (4k-3-i) <= v <= 2n+4k-3-i
    low = 4 * k - 3 - i
    dfact = double_factorials(low, low + 2 * n)
    lhs = 0
    for p in range(1, (n + 2) // 2 + 1):
        for q in range(1, min(n + 3 - 2 * p, k + 1 - i) + 1):
            a = n + 3 - 2 * p - q
            term = (
                math.comb(n, a) * math.perm(n - a, p + q - 2)
                * math.comb(k - i, q - 1) * dfact[2 * (n + 2 - p - q)]
            ) << (n - p)
            lhs += -term if (q - p) % 2 else term
    return lhs == (math.comb(n + 3 * k - 2, n) * factorial(n) * dfact[0]) << (n - 1)
