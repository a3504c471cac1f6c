"""Truncated exact power series and the three routes to the slice
generating functions D_k(t) = sum_n b(n, k) t^n.

Design notes that the individual docstrings lean on:

* Every operation preserves the stored truncation order.  Dividing by t
  shifts coefficients down and pads the top with zeros, so a series is in
  general only trustworthy up to some caller-tracked margin below its
  stored order.
* For the kernel route the margin is sharp: running the whole chain at a
  square working order W makes slice j of every B_k exact up to t-order
  W - j.  Hence dk_kernel(k, N) is exact at working order N, while a full
  rectangle of B_k to x-order Nx and t-order Nt needs W = Nx + Nt followed
  by truncation.
* (1 - 4t)^(-alpha) is generated by the coefficient recurrence
  c_0 = 1, c_{n+1} = c_n * 4 (alpha + n) / (n + 1), which keeps half-integer
  exponents exact and radical-free.
* Coefficients are stored as given, ints or Fractions, never converted.
  The kernel chain and the table route therefore run in Z (every kernel
  step multiplies by integers, subtracts or shifts, and each division by t
  is checked exact), while the closed route runs in Q through
  neg_pow_series.  Fraction(n) == n and str(Fraction(n)) == str(n), so
  comparisons and printed text do not depend on the ring.
"""

from __future__ import annotations

from fractions import Fraction

from . import wall_tables
from .closed_forms import gamma
from .exact_arith import ExactRational, binomial, factorial
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

    def t_derivative(self) -> "TSeries":
        """The Euler operator t d/dt, i.e. c_n -> n c_n."""
        return TSeries(tuple(n * c for n, c in enumerate(self.coeffs)))

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

    def truncate(self, order: int) -> "TSeries":
        if order >= self.order:
            return TSeries.make(self.coeffs, order)
        return TSeries(self.coeffs[: order + 1])

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

    @staticmethod
    def zero(x_order: int, t_order: int) -> "XTSeries":
        return XTSeries.make([], x_order, t_order)

    @staticmethod
    def constant(c: Coeff, x_order: int, t_order: int) -> "XTSeries":
        return XTSeries.make([[c]], x_order, t_order)

    @property
    def x_order(self) -> int:
        return len(self.rows) - 1

    @property
    def t_order(self) -> int:
        return len(self.rows[0]) - 1

    def entry(self, j: int, n: int) -> Coeff:
        return self.rows[j][n]

    def __add__(self, other: "XTSeries") -> "XTSeries":
        jn = min(self.x_order, other.x_order)
        nn = min(self.t_order, other.t_order)
        return XTSeries(
            tuple(
                tuple(self.rows[j][n] + other.rows[j][n] for n in range(nn + 1))
                for j in range(jn + 1)
            )
        )

    def __sub__(self, other: "XTSeries") -> "XTSeries":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "XTSeries":
        return XTSeries(tuple(tuple(c * v for v in row) for row in self.rows))

    def t_derivative(self) -> "XTSeries":
        """Entrywise Euler operator t d/dt in the t variable."""
        return XTSeries(tuple(tuple(n * v for n, v in enumerate(row)) for row in self.rows))

    def mul_x(self, j: int = 1) -> "XTSeries":
        """Multiply by x^j, keeping the rectangle (top rows fall off)."""
        pad = tuple((0,) * (self.t_order + 1) for _ in range(j))
        return XTSeries((pad + self.rows)[: self.x_order + 1])

    def mul_t(self, n: int = 1) -> "XTSeries":
        return XTSeries(tuple(TSeries(row).shift_up(n).coeffs for row in self.rows))

    def divide_t(self, n: int = 1) -> "XTSeries":
        return XTSeries(tuple(TSeries(row).divide_t(n).coeffs for row in self.rows))

    def subs_x(self, inner: TSeries) -> TSeries:
        """Substitute a series with zero constant term for x, collapsing to a
        series in t: sum_j rows[j](t) * inner(t)^j."""
        if inner.coeffs[0]:
            raise ValueError("subs_x needs an inner series with zero constant term")
        n = min(self.t_order, inner.order)
        acc = TSeries.zero(n)
        power = TSeries.one(n)
        for j in range(self.x_order + 1):
            acc = acc + TSeries(self.rows[j]).truncate(n) * power
            power = power * inner.truncate(n)
        return acc

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
    """(1 - 4t)^(-alpha) for rational (possibly half-integer) alpha."""
    a = Fraction(alpha)
    cs = [Fraction(1)]
    for n in range(order):
        cs.append(cs[-1] * 4 * (a + n) / (n + 1))
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
    """D_k(t) as a finite gamma-weighted combination of powers of
    (1 - 4t)^(-1/2), all times t^(k-1).  Needs k >= 1: at k = 0 the
    combination would call for the factorial of a negative half-integer.
    """
    if k < 1:
        raise ValueError(f"closed D_k needs k >= 1, got {k}")
    acc = TSeries.zero(order)
    if k % 2 == 1:
        half = (3 * k - 1) // 2
        for j in range((k - 1) // 2 + 1):
            coef = (
                gamma(k - 2 * j - 1)
                / (factorial(2 * j + 1) * Fraction(2) ** (j + (3 * k + 1) // 2))
                * factorial(j + half)
                * binomial(2 * j + 3 * k - 1, j + half)
            )
            acc = acc + neg_pow_series(j + Fraction(3 * k, 2), order).scale(coef)
        for j in range((k - 1) // 2 + 1):
            coef = (
                gamma(k - 2 * j)
                * Fraction(2) ** (j + (3 * k - 5) // 2)
                / factorial(2 * j)
                * factorial(j + (3 * k - 3) // 2)
            )
            acc = acc + neg_pow_series(half + j, order).scale(coef)
    else:
        half = (3 * k - 2) // 2
        for j in range(k // 2 + 1):
            coef = (
                gamma(k - 2 * j)
                / (factorial(2 * j) * Fraction(2) ** (j + 3 * k // 2))
                * factorial(j + half)
                * binomial(2 * j + 3 * k - 2, j + half)
            )
            acc = acc + neg_pow_series(j + Fraction(3 * k - 1, 2), order).scale(coef)
        for j in range(k // 2):
            coef = (
                gamma(k - 2 * j - 1)
                * Fraction(2) ** (j + (3 * k - 4) // 2)
                / factorial(2 * j + 1)
                * factorial(j + half)
            )
            acc = acc + neg_pow_series(3 * k // 2 + j, order).scale(coef)
    return acc.shift_up(k - 1)


# ---------------------------------------------------------------------------
# route three: kernel chain


def fk_next(b_prev: XTSeries, k: int) -> XTSeries:
    """Inhomogeneous term F_k = t dB_{k-1}/dt + (1 - k) B_{k-1}, i.e. the
    entrywise map (j, n) -> (n + 1 - k) * entry."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return b_prev.t_derivative() + b_prev.scale(1 - k)


def bk_solve(f_k: XTSeries, d_k: TSeries) -> XTSeries:
    """Solve the kernel equation (1 - x - t/x) B = F - (t/x) D slice by
    slice: B_0 = D and B_j = (B_{j-1} - B_{j-2} - F_{j-1}) / t for j >= 1.

    Each division is checked exact at the constant term.  With square
    working order W, slice j of the result is exact to t-order W - j.
    """
    t_order = min(f_k.t_order, d_k.order)
    rows: list[tuple[Coeff, ...]] = [d_k.truncate(t_order).coeffs]
    zero = TSeries.zero(t_order)
    for j in range(1, f_k.x_order + 1):
        prev = TSeries(rows[j - 1])
        prev2 = TSeries(rows[j - 2]) if j >= 2 else zero
        rhs = prev - prev2 - TSeries(f_k.rows[j - 1][: t_order + 1])
        rows.append(rhs.divide_t().coeffs)
    return XTSeries(tuple(rows))


def kernel_chain(k: int, order: int) -> tuple[XTSeries, TSeries, XTSeries]:
    """Run the kernel system up to level k at square working order, returning
    (F_k, D_k, B_k).  Level 0 is the initial condition F_0 = 1, D_0 = C(t)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    x2 = x2_series(order)
    f = XTSeries.constant(1, order, order)
    d = catalan_series(order)
    b = bk_solve(f, d)
    for level in range(1, k + 1):
        f = fk_next(b, level)
        d = f.mul_x().divide_t().subs_x(x2)
        b = bk_solve(f, d)
    return f, d, b


def dk_kernel(k: int, order: int) -> TSeries:
    """D_k(t) from the kernel chain; exact to the requested order."""
    if k < 1:
        raise ValueError(f"kernel D_k needs k >= 1, got {k}")
    return kernel_chain(k, order)[1]


def kernel_residual(b_k: XTSeries, f_k: XTSeries, d_k: TSeries) -> XTSeries:
    """(x - x^2 - t) B - (x F - t D) on the common rectangle.  Entry (j, n)
    is trustworthy whenever the inputs are exact at and one step below
    (j, n); on exact inputs the residual vanishes identically."""
    lhs = b_k.mul_x() - b_k.mul_x(2) - b_k.mul_t()
    rhs = f_k.mul_x() - XTSeries.make(
        [d_k.shift_up(1).coeffs], b_k.x_order, b_k.t_order
    )
    return lhs - rhs


def dk_threeway(k: int, order: int) -> tuple[TSeries, TSeries, TSeries]:
    """The three independently computed copies of D_k, in the order
    (table, closed, kernel).  Callers compare them; this function does not
    collapse the routes into one."""
    return dk_from_table(k, order), dk_closed(k, order), dk_kernel(k, order)
