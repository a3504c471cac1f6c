"""Truncated exact power series and the three routes to the slice
generating functions D_k(t) = sum_n b(n, k) t^n.

Design notes that the individual docstrings lean on:

* Every operation keeps the stored truncation order.  Dividing by t
  shifts coefficients down and pads the top with zeros, so a series is
  trustworthy only up to a caller-tracked margin below its stored order.
* The kernel equation (x - x^2 - t) B_k = x F_k - t D_k is solved and
  checked slice by slice (slice j is the coefficient of x^j), in plain
  TSeries arithmetic: slice 0 is t (D - B_0) and slice j >= 1 is
  B_{j-1} - B_{j-2} - F_{j-1} - t B_j.  bk_solve sets each to zero;
  kernel_residual returns them on the common rectangle of B and F, with
  t D cut at D's stored order.  XTSeries only stores and substitutes.
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

from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice
from operator import mul

from . import wall_tables
from .closed_forms import gamma_dfact_terms
from .exact_arith import binomial, exact_int
from .record import Record

Coeff = int | Fraction


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

    def divide_t(self, j: int = 1) -> "TSeries":
        """Divide by t^j.  The j lowest coefficients must vanish; the top of
        the result is padded with zeros (see the module notes on margins)."""
        if j < 0:
            raise ValueError("divide_t needs j >= 0")
        if any(self.coeffs[:j]):
            raise ValueError(f"series not divisible by t^{j}")
        pad = min(j, len(self.coeffs))
        return TSeries(self.coeffs[j:] + (0,) * pad)

    def to_text(self) -> str:
        """Space-separated coefficients c0 c1 ..., fractions as p/q."""
        return " ".join(str(c) for c in self.coeffs)


class XTSeries(Record):
    """Bivariate truncated series in x and t with exact coefficients.

    rows[j][n] is the coefficient of x^j t^n; the rectangle is always full.
    For the wall-tableau generating function B_k the entry at
    (j, n) = (n' - m, m) holds b3(n', m, k).
    """

    __slots__ = ("rows",)
    rows: tuple[tuple[Coeff, ...], ...]

    def __init__(self, rows: tuple[tuple[Coeff, ...], ...]) -> None:
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def make(rows, x_order: int | None = None, t_order: int | None = None) -> "XTSeries":
        rs = [list(row) for row in rows]
        if x_order is None:
            x_order = len(rs) - 1
        if t_order is None:
            t_order = max((len(r) for r in rs), default=1) - 1
        rs = rs[: x_order + 1] + [[] for _ in range(x_order + 1 - len(rs))]
        full = tuple(
            tuple((r[: t_order + 1] + [0] * (t_order + 1 - len(r)))) for r in rs
        )
        return XTSeries(full)

    @property
    def x_order(self) -> int:
        return len(self.rows) - 1

    @property
    def t_order(self) -> int:
        return len(self.rows[0]) - 1

    def entry(self, j: int, n: int) -> Coeff:
        return self.rows[j][n]

    def divide_t(self, n: int = 1) -> "XTSeries":
        return XTSeries(tuple(TSeries(row).divide_t(n).coeffs for row in self.rows))

    def subs_x(self, inner: TSeries) -> TSeries:
        """Substitute a series with zero constant term for x, collapsing to a
        series in t: sum_j rows[j](t) * inner(t)^j.

        Horner's rule from the top row down, trimmed: inner^j starts at t^j,
        so the partial sum that inner^j multiplies is needed only to t-order
        n - j, and rows past n contribute nothing.
        """
        if inner.coeffs[0]:
            raise ValueError("subs_x needs an inner series with zero constant term")
        n = min(self.t_order, inner.order)
        top = min(self.x_order, n)
        rev = inner.coeffs[::-1]  # rev[-1 - m] is the coefficient of t^m
        acc = self.rows[top][: n - top + 1]
        for j in range(top - 1, -1, -1):
            # row j + acc * inner to t-order n - j; term m pairs acc[i] with t^(m - i)
            row = self.rows[j]
            acc = [row[m] + sum(map(mul, acc, rev[-1 - m : -1])) for m in range(n - j + 1)]
        return TSeries(tuple(acc))

    def truncate(self, x_order: int, t_order: int) -> "XTSeries":
        return XTSeries.make(self.rows, x_order, t_order)


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


def bk_from_table(k: int, x_order: int, t_order: int) -> XTSeries:
    """B_k(x, t) with entry (j, m) = b3(m + j, m, k) from the table."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return XTSeries.make(
        [[wall_tables.b3(m + j, m, k) for m in range(t_order + 1)] for j in range(x_order + 1)]
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


def fk_next(b_prev: XTSeries, k: int) -> XTSeries:
    """Inhomogeneous term F_k = t dB_{k-1}/dt + (1 - k) B_{k-1}, i.e. the
    entrywise map (j, n) -> (n + 1 - k) * entry."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return XTSeries(
        tuple(tuple((n + 1 - k) * v for n, v in enumerate(row)) for row in b_prev.rows)
    )


def bk_solve(f_k: XTSeries, d_k: TSeries) -> XTSeries:
    """Solve the kernel equation (1 - x - t/x) B = F - (t/x) D slice by
    slice: B_0 = D and B_j = (B_{j-1} - B_{j-2} - F_{j-1}) / t for j >= 1.

    Each division is checked exact at the constant term.  With square
    working order W, slice j of the result is exact to t-order W - j.
    """
    t_order = min(f_k.t_order, d_k.order)
    prev2: tuple[Coeff, ...] = (0,) * (t_order + 1)
    prev = d_k.coeffs[: t_order + 1]
    rows = [prev]
    for j in range(1, f_k.x_order + 1):
        rhs = [a - b - c for a, b, c in zip(prev, prev2, f_k.rows[j - 1])]
        if rhs[0]:
            raise ValueError(f"kernel slice {j} is not divisible by t")
        prev2, prev = prev, (*rhs[1:], 0)
        rows.append(prev)
    return XTSeries(tuple(rows))


def kernel_levels(order: int) -> Iterator[tuple[XTSeries, TSeries, XTSeries]]:
    """Walk the kernel system at square working order, yielding (F_k, D_k,
    B_k) for k = 0, 1, ...  Level 0 is the initial condition F_0 = 1,
    D_0 = C(t); each later level is solved from the one before it."""
    x2 = x2_series(order)
    f = XTSeries.make([[1]], order, order)
    d = catalan_series(order)
    b = bk_solve(f, d)
    yield f, d, b
    for level in count(1):
        f = fk_next(b, level)
        d = x2 * f.divide_t().subs_x(x2)  # (x F / t)(X_2) to order W
        b = bk_solve(f, d)
        yield f, d, b


def kernel_chain(k: int, order: int) -> tuple[XTSeries, TSeries, XTSeries]:
    """Level k of kernel_levels(order): (F_k, D_k, B_k)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return next(islice(kernel_levels(order), k, None))


def dk_kernel(k: int, order: int) -> TSeries:
    """D_k(t) from the kernel chain; exact to the requested order."""
    if k < 1:
        raise ValueError(f"kernel D_k needs k >= 1, got {k}")
    return kernel_chain(k, order)[1]


def kernel_residual(b_k: XTSeries, f_k: XTSeries, d_k: TSeries) -> XTSeries:
    """(x - x^2 - t) B - (x F - t D) on the common rectangle of B and F,
    slice by slice as bk_solve solves it: slice 0 is t (D - B_0), with t D
    at D's own order (its top coefficient falls off, as in shift_up), and
    slice j >= 1 is B_{j-1} - B_{j-2} - F_{j-1} - t B_j.  Entry (j, n) is
    trustworthy whenever the inputs are exact at and one step below (j, n);
    on exact inputs the residual vanishes identically."""
    t_order = min(b_k.t_order, f_k.t_order)
    b = [TSeries.zero(t_order), *map(TSeries, b_k.rows)]  # b[j] is B_{j-1}
    slices = [TSeries.make(d_k.shift_up().coeffs, t_order) - b[1].shift_up()]
    for j in range(1, min(b_k.x_order, f_k.x_order) + 1):
        slices.append(b[j] - b[j - 1] - TSeries(f_k.rows[j - 1]) - b[j + 1].shift_up())
    return XTSeries(tuple(s.coeffs for s in slices))
