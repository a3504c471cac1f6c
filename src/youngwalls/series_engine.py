"""Truncated exact power series and the three routes to the slice
generating functions D_k(t) = sum_n b(n, k) t^n.

Design notes that the individual docstrings lean on:

* A series in t is a plain tuple of coefficients (Series): s[n] is the
  coefficient of t^n, up to t-order len(s) - 1.  shift_up keeps the
  length, series_mul truncates to the shorter operand, and dividing by t
  drops the constant term, so the quotient is one coefficient shorter.
* B_k and F_k are tuples of such series (Rows): rows[j][n] is the
  coefficient of x^j t^n, and row j is slice j, the coefficient of x^j.
  The kernel equation (x - x^2 - t) B_k = x F_k - t D_k is solved and
  checked slice by slice, entry by entry: slice 0 is t (D - B_0) and
  slice j >= 1 is B_{j-1} - B_{j-2} - F_{j-1} - t B_j.  _bk_solve sets
  each to zero; kernel_residual returns them slice by slice, each as long
  as its shortest term, with t D kept to D's length as shift_up keeps it.
* At working order W, slice j of B_k, and of F_k for k >= 1, holds
  W - j + 1 exact coefficients, t-orders 0..W - j, so dk_kernel(k, N)
  works at order N, and an Nx x Nt rectangle of B_k needs W >= Nx + Nt.
* kernel_levels(W) walks the chain once, one itertools.accumulate of
  _kernel_level from level 0, so levels 0..k cost k + 1 solves and only
  the current one is held.  Every step of a level is O(W^2):
  D_k = (x F_k / t)(X_2) is one Horner pass of _subs_x2, reduced by
  X_2^2 = X_2 - t (no powers of X_2), and F_k and B_k are one pass over
  plain rows.
* (1 - 4t)^(-p/2) has integer coefficients for every integer p, so
  neg_half_pow_series generates them in Z from p, radical-free.
* All three routes run in Z, and no function here imports fractions: the
  table route reads integer cells; every kernel step multiplies by
  integers, subtracts or shifts, and each division by t is checked exact;
  the closed route sums integer terms over one common denominator per
  coefficient.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, count, islice
from operator import add, mul, sub

from . import wall_tables
from .closed_forms import gamma_dfact_terms
from .exact_arith import NotIntegralError, binomial, exact_int

# a series in t: s[n] is the coefficient of t^n
Series = tuple[int, ...]
# a bivariate series in x and t: rows[j][n] is the coefficient of x^j t^n
Rows = tuple[Series, ...]


def shift_up(s: Series) -> Series:
    """Multiply by t, keeping the length (the top term falls off)."""
    return (0, *s[:-1]) if s else ()


def series_mul(a: Series, b: Series) -> Series:
    """The product a b, truncated to the shorter operand."""
    return tuple(sum(map(mul, a[: m + 1], b[m::-1])) for m in range(min(len(a), len(b))))


def _subs_x2(rows: Rows) -> Series:
    """sum_j rows[j](t) X_2(t)^j to the t-order n of slice 0: the small
    kernel root X_2 = t C(t) substituted for x in the bivariate rows.

    Horner's rule from the top row down in Z[[t]]/(t^(n+1)), reduced by
    X_2^2 = X_2 - t: the partial sum is A + B X_2, and each step
    (A + B X_2) X_2 + row = (row - t B) + (A + B) X_2 is two passes over
    n + 1 coefficients.  X_2^j starts at t^j, so only t-orders 0..n - j of
    slice j reach the result: a shorter slice is padded with zeros.
    """
    n = len(rows[0]) - 1
    zero = (0,) * (n + 1)
    a = b = zero
    for row in reversed(rows):
        a, b = tuple(map(sub, (*row, *zero), shift_up(b))), tuple(map(add, a, b))
    return tuple(map(add, a, series_mul(b, x2_series(n))))


# ---------------------------------------------------------------------------
# stock series


def catalan_series(order: int) -> Series:
    """C(t) = sum_n C(2n, n)/(n+1) t^n."""
    return tuple(binomial(2 * n, n) // (n + 1) for n in range(order + 1))


def x2_series(order: int) -> Series:
    """The small kernel root X_2(t) = (1 - sqrt(1 - 4t))/2 = t C(t); the
    power-series solution of x^2 - x + t = 0 with zero constant term."""
    return shift_up(catalan_series(order))


def neg_half_pow_series(p: int, order: int) -> Series:
    """(1 - 4t)^(-p/2) for an integer p.  Its coefficients are integers:
    c_0 = 1, c_{n+1} = c_n * 2 (p + 2n) / (n + 1), each division checked
    exact."""
    cs = [1]
    for n in range(order):
        cs.append(exact_int(cs[-1] * 2 * (p + 2 * n), n + 1, ("neg_half_pow_series", p, n + 1)))
    return tuple(cs)


# ---------------------------------------------------------------------------
# route one: recurrence table


def dk_from_table(k: int, order: int) -> Series:
    """D_k(t) with coefficients b(0..order, k) read off one walk of the b
    rows."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    rows = islice(wall_tables.b_rows(k), order + 1)
    return tuple(row[k] if k < len(row) else 0 for row in rows)


def bk_from_table(kmax: int, order: int) -> tuple[Rows, ...]:
    """B_0..B_kmax(x, t) to order ``order`` in x and in t, entry (j, m) of
    B_k = b3(m + j, m, k), off one walk."""
    if kmax < 0:
        raise ValueError(f"need k >= 0, got {kmax}")
    cells = [[[0] * (order + 1) for _ in range(order + 1)] for _ in range(kmax + 1)]
    for n, layer in zip(range(2 * order + 1), wall_tables.b3_layers(kmax, order)):
        for m in range(max(0, n - order), min(n, order) + 1):
            for k, v in enumerate(layer[m]):
                cells[k][n - m][m] = v
    return tuple(tuple(map(tuple, b_k)) for b_k in cells)


# ---------------------------------------------------------------------------
# route two: gamma closed form


def dk_closed(k: int, order: int) -> Series:
    """D_k(t) from the gamma closed form, for k >= 1:

        D_k(t) = t^(k-1) / 2 * sum_{i=0}^{k} gamma_{k-i} / i! * (3k+i-3)!!
                 * (1 - 4t)^(-(3k+i-1)/2)

    The weights are closed_forms.gamma_dfact_terms(k - 1, k), integers over
    one denominator den, so each coefficient is an integer sum divided once
    by 2 den, checked exact.  At k = 0 the weights would need (-3)!!.
    """
    if k < 1:
        raise ValueError(f"closed D_k needs k >= 1 (its gamma sum degenerates at 0), got {k}")
    terms, den = gamma_dfact_terms(k - 1, k)
    top = order - k + 1  # t-order of the sum before the shift by t^(k-1)
    powers = [neg_half_pow_series(3 * k + i - 1, top) for i in range(k + 1)]
    coeffs = tuple(
        exact_int(sum(map(mul, terms, column)), 2 * den, ("dk_closed", k, n + k - 1))
        for n, column in enumerate(zip(*powers))
    )
    return ((0,) * (k - 1) + coeffs)[: order + 1]


# ---------------------------------------------------------------------------
# route three: kernel chain


def _divide_t(row: Sequence[int], name: str, k: int, j: int) -> Series:
    """Slice j of name at kernel level k, divided by t: one coefficient
    shorter.  Raises NotIntegralError unless the constant term vanishes."""
    if row[0]:
        raise NotIntegralError(f"kernel level {k}: slice {j} of {name} is not divisible by t")
    return tuple(row[1:])


def _fk_next(b_prev: Rows, k: int) -> Rows:
    """Inhomogeneous term F_k = t dB_{k-1}/dt + (1 - k) B_{k-1}, i.e. the
    entrywise map (j, n) -> (n + 1 - k) * entry, for k >= 1."""
    return tuple(tuple((n + 1 - k) * v for n, v in enumerate(row)) for row in b_prev)


def _bk_solve(f_k: Rows, d_k: Series, k: int) -> Rows:
    """Solve the kernel equation (1 - x - t/x) B = F - (t/x) D of level k
    slice by slice: B_0 = D and B_j = (B_{j-1} - B_{j-2} - F_{j-1}) / t for
    j >= 1.

    Each division is checked exact at the constant term and drops it, so
    slice j holds t-orders 0..W - j of B, W the lower t-order of F_0 and D.
    """
    t_order = min(len(f_k[0]), len(d_k)) - 1
    prev2: Series = (0,) * (t_order + 1)
    prev = d_k[: t_order + 1]
    rows = [prev]
    for j in range(1, len(f_k)):
        rhs = [a - b - c for a, b, c in zip(prev, prev2, f_k[j - 1])]
        prev2, prev = prev, _divide_t(rhs, "the kernel equation", k, j)
        rows.append(prev)
    return tuple(rows)


def _kernel_level(prev: tuple[Rows, Series, Rows], level: int) -> tuple[Rows, Series, Rows]:
    """Level k >= 1 from level k - 1: F_k from B_{k-1}, then
    D_k = (x F_k / t)(X_2) and B_k, at the working order of D_{k-1}."""
    f = _fk_next(prev[2], level)
    f_over_t = tuple(_divide_t(row, "F_k", level, j) for j, row in enumerate(f))
    d = _subs_x2(((0,) * len(prev[1]), *f_over_t))  # the zero slice is the factor x
    return f, d, _bk_solve(f, d, level)


def kernel_levels(order: int) -> Iterator[tuple[Rows, Series, Rows]]:
    """Walk the kernel system at square working order, yielding (F_k, D_k,
    B_k) for k = 0, 1, ...  The seed, level 0, is the initial condition
    F_0 = 1, D_0 = C(t); ``_kernel_level`` solves each later level from the
    one before it, which alone is kept."""
    zero = (0,) * (order + 1)
    f = ((1, *zero[1:]), *(zero,) * order)
    d = catalan_series(order)
    return accumulate(count(1), _kernel_level, initial=(f, d, _bk_solve(f, d, 0)))


def dk_kernel(k: int, order: int) -> Series:
    """D_k(t) of level k of kernel_levels(order); exact to the requested
    order.  Level 0 is the chain's initial condition D_0 = C(t)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return next(islice(kernel_levels(order), k, None))[1]


def kernel_residual(b_k: Rows, f_k: Rows, d_k: Series) -> Rows:
    """(x - x^2 - t) B - (x F - t D) on the slices that B and F share,
    slice by slice as _bk_solve solves it: slice 0 is t (D - B_0), with t D
    at D's own order (its top coefficient falls off, as in shift_up), and
    slice j >= 1 is B_{j-1} - B_{j-2} - F_{j-1} - t B_j, each as long as its
    shortest term.  On a level of kernel_levels it vanishes identically."""
    t_order = min(len(b_k[0]), len(f_k[0])) - 1
    zero = (0,) * (t_order + 1)
    t_d = (*shift_up(d_k), *zero)[: t_order + 1]
    b = [zero, *b_k]  # b[j] is B_{j-1}; zip cuts each slice to its shortest term
    slices = [tuple(p - q for p, q in zip(t_d, shift_up(b_k[0])))]
    for j in range(1, min(len(b_k), len(f_k))):
        terms = zip(b[j], b[j - 1], f_k[j - 1], shift_up(b[j + 1]))
        slices.append(tuple(p - q - r - s for p, q, r, s in terms))
    return tuple(slices)
