"""Truncated exact power series and the three routes to the slice
generating functions D_k(t) = sum_n b(n, k) t^n.

Design notes that the individual docstrings lean on:

* Every operation keeps the stored truncation order.  Dividing by t
  shifts coefficients down and pads the top with zeros, so a series is
  trustworthy only up to a caller-tracked margin below its stored order.
* B_k and F_k are plain tuples of coefficient rows (Rows): rows[j][n] is
  the coefficient of x^j t^n, and row j is slice j, the coefficient of x^j.
  The kernel equation (x - x^2 - t) B_k = x F_k - t D_k is solved and
  checked slice by slice in plain TSeries arithmetic: slice 0 is
  t (D - B_0) and slice j >= 1 is B_{j-1} - B_{j-2} - F_{j-1} - t B_j.
  bk_solve sets each to zero; kernel_residual returns them on the common
  rectangle of B and F, with t D cut at D's stored order.
* The margin is sharp: at a square working order W slice j of every B_k
  is exact to t-order W - j, so dk_kernel(k, N) is exact at working order
  N, while a full rectangle of B_k to x-order Nx and t-order Nt needs
  W = Nx + Nt followed by truncation.
* kernel_levels(W) walks the chain once, each level solved from the one
  before, so levels 0..k cost k + 1 solves and only the current one is
  held.  A level's cost sits in D_k = X_2 (F_k / t)(X_2): subs_x runs
  Horner's rule trimmed to the triangle that reaches t-order W (about
  W^3/6 multiply-adds, no powers of X_2); F_k and B_k are one pass over
  plain rows.
* (1 - 4t)^(-p/2) has integer coefficients for every integer p, so
  neg_pow_series generates them in Z, radical-free.
* All three routes run in Z.  The table route reads integer cells; every
  kernel step multiplies by integers, subtracts or shifts, and each
  division by t is checked exact; the closed route sums integer terms over
  one common denominator per coefficient.  Coefficients are stored as
  given, never converted, so Fractions stay Fractions; Fraction(n) == n and
  str(Fraction(n)) == str(n), so comparisons and printed text do not
  depend on the ring.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import count, islice
from operator import mul

from . import wall_tables
from .closed_forms import gamma_dfact_terms
from .exact_arith import NotIntegralError, binomial, exact_int
from .record import Record

Coeff = int | Fraction
# a bivariate series in x and t: rows[j][n] is the coefficient of x^j t^n
Rows = tuple[tuple[Coeff, ...], ...]


class TSeries(Record):
    """Univariate truncated series in t with exact coefficients.

    coeffs[n] is the coefficient of t^n; the truncation order is
    len(coeffs) - 1.  Instances are immutable; arithmetic returns new
    series truncated to the shorter operand.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs: tuple[Coeff, ...]) -> None:
        # the kernel chain builds thousands of series: set the field directly
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def make(values, order: int | None = None) -> "TSeries":
        cs = list(values)
        if order is not None:
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant term")
        return TSeries(tuple(cs))

    @staticmethod
    def zero(order: int) -> "TSeries":
        return TSeries.make([], order)

    @staticmethod
    def one(order: int) -> "TSeries":
        return TSeries.make([1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TSeries") -> "TSeries":
        n = min(self.order, other.order)
        return TSeries(tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])))

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def __neg__(self) -> "TSeries":
        return TSeries(tuple(-c for c in self.coeffs))

    def scale(self, c: Coeff) -> "TSeries":
        return TSeries(tuple(c * x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, TSeries):
            n = min(self.order, other.order)
            out = [0] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return TSeries(tuple(out))
        return self.scale(other)

    __rmul__ = __mul__

    def shift_up(self, j: int = 1) -> "TSeries":
        """Multiply by t^j, keeping the stored order (top terms fall off)."""
        if j < 0:
            raise ValueError("shift_up needs j >= 0")
        n = len(self.coeffs)
        if j >= n:
            return TSeries((0,) * n)
        return TSeries((0,) * j + self.coeffs[: n - j])

    def to_text(self) -> str:
        """Space-separated coefficients c0 c1 ..., fractions as p/q."""
        return " ".join(str(c) for c in self.coeffs)


def subs_x(rows: Rows, inner: TSeries) -> TSeries:
    """Substitute a series with zero constant term for x in the bivariate
    series rows, collapsing to a series in t: sum_j rows[j](t) * inner(t)^j.

    Horner's rule from the top row down, trimmed: inner^j starts at t^j, so
    the partial sum that inner^j multiplies is needed only to t-order n - j,
    and rows past n contribute nothing.
    """
    if inner.coeffs[0]:
        raise ValueError("subs_x needs an inner series with zero constant term")
    n = min(len(rows[0]) - 1, inner.order)
    top = min(len(rows) - 1, n)
    rev = inner.coeffs[::-1]  # rev[-1 - m] is the coefficient of t^m
    acc = rows[top][: n - top + 1]
    for j in range(top - 1, -1, -1):
        # row j + acc * inner to t-order n - j; term m pairs acc[i] with t^(m - i)
        row = rows[j]
        acc = [row[m] + sum(map(mul, acc, rev[-1 - m : -1])) for m in range(n - j + 1)]
    return TSeries(tuple(acc))


# ---------------------------------------------------------------------------
# stock series


def catalan_series(order: int) -> TSeries:
    """C(t) = sum_n C(2n, n)/(n+1) t^n."""
    return TSeries.make([binomial(2 * n, n) // (n + 1) for n in range(order + 1)])


def x2_series(order: int) -> TSeries:
    """The small kernel root X_2(t) = (1 - sqrt(1 - 4t))/2 = t C(t); the
    power-series solution of x^2 - x + t = 0 with zero constant term."""
    return catalan_series(order).shift_up(1)


def neg_pow_series(alpha: Coeff, order: int) -> TSeries:
    """(1 - 4t)^(-alpha) for an integer or half-integer alpha = p/2.  Its
    coefficients are integers: c_0 = 1, c_{n+1} = c_n * 2 (p + 2n) / (n + 1),
    each division checked exact."""
    p = 2 * Fraction(alpha)
    if p.denominator != 1:
        raise ValueError(f"need an integer or half-integer exponent, got {alpha}")
    p = p.numerator
    cs = [1]
    for n in range(order):
        cs.append(exact_int(cs[-1] * 2 * (p + 2 * n), n + 1, ("neg_pow_series", p, n + 1)))
    return TSeries(tuple(cs))


# ---------------------------------------------------------------------------
# route one: recurrence table


def dk_from_table(k: int, order: int) -> TSeries:
    """D_k(t) with coefficients read off the b recurrence table."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return TSeries.make([wall_tables.b(n, k) for n in range(order + 1)])


def bk_from_table(k: int, x_order: int, t_order: int) -> Rows:
    """B_k(x, t) with entry (j, m) = b3(m + j, m, k) from the table."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return tuple(
        tuple(wall_tables.b3(m + j, m, k) for m in range(t_order + 1)) for j in range(x_order + 1)
    )


# ---------------------------------------------------------------------------
# route two: gamma closed form


def dk_closed(k: int, order: int) -> TSeries:
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
    powers = [neg_pow_series(Fraction(3 * k + i - 1, 2), top).coeffs for i in range(k + 1)]
    coeffs = [
        exact_int(sum(map(mul, terms, column)), 2 * den, ("dk_closed", k, n + k - 1))
        for n, column in enumerate(zip(*powers))
    ]
    return TSeries.make([0] * (k - 1) + coeffs, order)


# ---------------------------------------------------------------------------
# route three: kernel chain


def _divide_t(row: Sequence[Coeff], name: str, k: int, j: int) -> tuple[Coeff, ...]:
    """Slice j of name at kernel level k, divided by t; the top is padded
    with a zero.  Raises NotIntegralError unless the constant term vanishes."""
    if row[0]:
        raise NotIntegralError(f"kernel level {k}: slice {j} of {name} is not divisible by t")
    return (*row[1:], 0)


def fk_next(b_prev: Rows, k: int) -> Rows:
    """Inhomogeneous term F_k = t dB_{k-1}/dt + (1 - k) B_{k-1}, i.e. the
    entrywise map (j, n) -> (n + 1 - k) * entry."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return tuple(tuple((n + 1 - k) * v for n, v in enumerate(row)) for row in b_prev)


def bk_solve(f_k: Rows, d_k: TSeries, k: int) -> Rows:
    """Solve the kernel equation (1 - x - t/x) B = F - (t/x) D of level k
    slice by slice: B_0 = D and B_j = (B_{j-1} - B_{j-2} - F_{j-1}) / t for
    j >= 1.

    Each division is checked exact at the constant term.  With square
    working order W, slice j of the result is exact to t-order W - j.
    """
    t_order = min(len(f_k[0]) - 1, d_k.order)
    prev2: tuple[Coeff, ...] = (0,) * (t_order + 1)
    prev = d_k.coeffs[: t_order + 1]
    rows = [prev]
    for j in range(1, len(f_k)):
        rhs = [a - b - c for a, b, c in zip(prev, prev2, f_k[j - 1])]
        prev2, prev = prev, _divide_t(rhs, "the kernel equation", k, j)
        rows.append(prev)
    return tuple(rows)


def kernel_levels(order: int) -> Iterator[tuple[Rows, TSeries, Rows]]:
    """Walk the kernel system at square working order, yielding (F_k, D_k,
    B_k) for k = 0, 1, ...  Level 0 is the initial condition F_0 = 1,
    D_0 = C(t); each later level is solved from the one before it."""
    x2 = x2_series(order)
    zero = (0,) * (order + 1)
    f = ((1, *zero[1:]), *(zero,) * order)
    d = catalan_series(order)
    b = bk_solve(f, d, 0)
    yield f, d, b
    for level in count(1):
        f = fk_next(b, level)
        f_over_t = tuple(_divide_t(row, "F_k", level, j) for j, row in enumerate(f))
        d = x2 * subs_x(f_over_t, x2)  # (x F / t)(X_2) to order W
        b = bk_solve(f, d, level)
        yield f, d, b


def kernel_chain(k: int, order: int) -> tuple[Rows, TSeries, Rows]:
    """Level k of kernel_levels(order): (F_k, D_k, B_k)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return next(islice(kernel_levels(order), k, None))


def dk_kernel(k: int, order: int) -> TSeries:
    """D_k(t) from the kernel chain; exact to the requested order."""
    if k < 1:
        raise ValueError(f"kernel D_k needs k >= 1, got {k}")
    return kernel_chain(k, order)[1]


def kernel_residual(b_k: Rows, f_k: Rows, d_k: TSeries) -> Rows:
    """(x - x^2 - t) B - (x F - t D) on the common rectangle of B and F,
    slice by slice as bk_solve solves it: slice 0 is t (D - B_0), with t D
    at D's own order (its top coefficient falls off, as in shift_up), and
    slice j >= 1 is B_{j-1} - B_{j-2} - F_{j-1} - t B_j.  Entry (j, n) is
    trustworthy whenever the inputs are exact at and one step below (j, n);
    on exact inputs the residual vanishes identically."""
    t_order = min(len(b_k[0]), len(f_k[0])) - 1
    b = [TSeries.zero(t_order), *map(TSeries, b_k)]  # b[j] is B_{j-1}
    slices = [TSeries.make(d_k.shift_up().coeffs, t_order) - b[1].shift_up()]
    for j in range(1, min(len(b_k), len(f_k))):
        slices.append(b[j] - b[j - 1] - TSeries(f_k[j - 1]) - b[j + 1].shift_up())
    return tuple(s.coeffs for s in slices)
