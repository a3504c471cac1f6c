"""Row-by-row recurrence tables for the wall-tableau counting sequences.

Four sequences live here:

* ``a(n, k)`` counts fillings of the three-row shape (n, n, k) whose bottom
  row carries walls between every pair of adjacent cells,
* ``b3(n, m, k)`` counts fillings of the deformed shape (n, m, m) where
  m - k top-row cells are removed and the surviving adjacent top cells are
  separated by walls,
* ``b(n, k) = b3(n, n, k)`` is its diagonal,
* ``omega(n, m, k)`` is a companion table, seeded by a rational closed form,
  whose value at (n, m, k) equals b3(n + m, m, k); integrality of the seed
  is checked, not assumed.

Every table is a list of rows, each a plain list.  Row i is built from row
i - 1 and only as far as the column asked for; asking for a larger column
widens the filled rows in order.  There is no recursion, and a filled cell
is read by list indexing.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from . import closed_forms
from .exact_arith import Nat, binomial, exact_int, factorial


class _RowTable:
    """Rows 0, 1, 2, ... of a one-step recurrence.

    ``step(row, prev, i, width)`` appends to row i the cells it lacks up to
    column ``width``, reading only row i itself and row i - 1 (``prev``,
    None for i = 0).  Row widths never increase with i, so the rows that a
    request (n, k) has to widen form a run ending at row n.
    """

    def __init__(self, step: Callable[[list, list | None, int, int], None]) -> None:
        self._rows: list[list] = []
        self._widths: list[int] = []
        self._step = step

    def row(self, n: int, k: int) -> list:
        """Row n, filled through column k at least."""
        rows, widths = self._rows, self._widths
        if n >= len(rows) or widths[n] < k:
            while len(rows) <= n:
                rows.append([])
                widths.append(-1)
            first = n
            while first and widths[first - 1] < k:
                first -= 1
            for i in range(first, n + 1):
                self._step(rows[i], rows[i - 1] if i else None, i, k)
                widths[i] = k
        return rows[n]


def _a_row(row: list[int], prev: list[int] | None, n: int, width: int) -> None:
    if not row:
        row.append(prev[0] * (2 * n - 1) if n else 1)
    for k in range(len(row), min(n, width) + 1):
        row.append(row[k - 1] + (2 * n + k - 1) * (prev[k] if k < n else 0))


class CountTable2(_RowTable):
    """Triangular table of a(n, k), filled by the one-step recurrence

        a(n, k) = a(n, k-1) + (2n + k - 1) a(n-1, k),   a(n, 0) = (2n-1)!!

    with a(n, k) = 0 outside 0 <= k <= n.  Entries are immutable once
    computed; repeated queries return the identical object.
    """

    def __init__(self) -> None:
        super().__init__(_a_row)

    def value(self, n: int, k: int) -> Nat:
        if not 0 <= k <= n:
            return 0
        return self.row(n, k)[k]


def _b3_layer(layer: list[list[int]], prev: list[list[int]] | None, n: int, width: int) -> None:
    for m in range(n + 1):
        if m == len(layer):
            layer.append([])
        row = layer[m]
        for k in range(len(row), min(m, width) + 1):
            if n == 0:
                row.append(1)
                continue
            drop_k = (m - k + 1) * row[k - 1] if k else 0
            drop_m = layer[m - 1][k] if k < m else 0
            drop_n = prev[m][k] if m < n else 0
            row.append(drop_k + drop_m + drop_n)


class CountTable3(_RowTable):
    """Simplex table of b3(n, m, k) for 0 <= k <= m <= n, filled by

        b3(n, m, k) = (m-k+1) b3(n, m, k-1) + b3(n, m-1, k) + b3(n-1, m, k)

    for n >= 1 with the single seed b3(0, 0, 0) = 1 and zero outside the
    simplex.  Row n is the layer of (m, k) cells at that n.
    """

    def __init__(self) -> None:
        super().__init__(_b3_layer)

    def value(self, n: int, m: int, k: int) -> Nat:
        if k < 0 or m < 0 or n < 0 or k > m or m > n:
            return 0
        return self.row(n, k)[m][k]


def _omega_layer(
    layer: list[list[int]],
    prev: list[list[int]] | None,
    s: int,
    width: int,
    nmax: int | None = None,
) -> None:
    """Layer s = n + m of omega, stored by k: layer[k] lists omega(n, s-n, k)
    for n = 0..min(s, s + 1 - k, nmax), k = 0..min(s + 1, width).  Cell
    (n, m) reads (n-1, m+1) from this layer and (n-2, m+1) from layer s - 1,
    so each column is one pass down n."""
    top_n = s if nmax is None else min(s, nmax)
    for k in range(len(layer), min(s + 1, width) + 1):
        v = exact_int(closed_forms.omega_init(s, k), where=("omega", 0, s, k))
        col = [v]
        left = layer[k - 1] if k else None
        below = prev[k] if prev is not None and k < len(prev) else None
        for n in range(1, min(top_n, s + 1 - k) + 1):
            if left is not None:
                v -= (s - n - k + 2) * left[n - 1]
            if n >= 2:
                v -= below[n - 2]
            col.append(v)
        layer.append(col)


class OmegaTable(_RowTable):
    """Companion table omega(n, m, k) with the downward recurrence

        omega(n, m, k) = omega(n-1, m+1, k)
                         - (m-k+2) omega(n-1, m+1, k-1)
                         - omega(n-2, m+1, k)

    for n >= 1, seed row omega(0, m, k) given by the rational closed form
    ``closed_forms.omega_init`` (checked integral), and omega(-1, m, k) = 0.
    Values above the k = m + 1 layer vanish.  Row s holds the layer
    n + m = s, so every value is reached without recursion.
    """

    def __init__(self) -> None:
        super().__init__(_omega_layer)

    def value(self, n: int, m: int, k: int) -> Nat:
        if n < -1:
            raise ValueError(f"omega needs n >= -1, got {n}")
        if m < 0:
            raise ValueError(f"omega needs m >= 0, got {m}")
        if k < 0 or n == -1 or k > m + 1:
            return 0
        return self.row(n + m, k)[k][n]


def omega_block(nmax: int, mmax: int, kmax: int) -> list[list[list[Nat]]]:
    """omega(n, m, k) for n <= nmax, m <= mmax and k <= min(m + 1, kmax), as
    block[n][m][k].  The sweep over the layers s = n + m keeps only the
    current layer and the one before it, so memory stays linear in nmax."""
    block: list[list[list[Nat]]] = [[[] for _ in range(mmax + 1)] for _ in range(nmax + 1)]
    prev = None
    for s in range(nmax + mmax + 1):
        layer: list[list[int]] = []
        _omega_layer(layer, prev, s, kmax, nmax)
        for n in range(max(0, s - mmax), min(s, nmax) + 1):
            block[n][s - n] = [col[n] for col in layer[: min(s - n + 1, kmax) + 1]]
        prev = layer
    return block


_A = CountTable2()
_B3 = CountTable3()
_OMEGA = OmegaTable()


def a_rec(n: int, k: int) -> Nat:
    """a(n, k) from the one-step recurrence table; 0 outside 0 <= k <= n."""
    return _A.value(n, k)


def a_alt(n: int, k: int) -> Nat:
    """a(n, k) from the independent column-to-column expansion

        a(n, k) = a(n, k-1)
                  + sum_{i=k}^{n-1} (prod_{j=i}^{n-1} (2j + k + 1)) a(i, k-1),

    which rebuilds each column from the previous one without touching the
    one-step recurrence.  Kept deliberately separate from a_rec as a
    cross-check route: its rows are the columns k, each filled down to n.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return _A_ALT.row(k, n)[n]


def _a_alt_column(col: list[int], prev: list[int] | None, k: int, nmax: int) -> None:
    for n in range(len(col), nmax + 1):
        if n < k:
            col.append(0)
        elif k == 0:
            col.append(col[n - 1] * (2 * n - 1) if n else 1)
        else:
            v = prev[n]
            prod = 1
            for i in range(n - 1, k - 1, -1):
                prod *= 2 * i + k + 1
                v += prod * prev[i]
            col.append(v)


_A_ALT = _RowTable(_a_alt_column)


def b3(n: int, m: int, k: int) -> Nat:
    """b3(n, m, k) from the three-index recurrence table; 0 outside the
    simplex 0 <= k <= m <= n."""
    return _B3.value(n, m, k)


def b(n: int, k: int) -> Nat:
    """Two-index b(n, k) = b3(n, n, k); 0 outside 0 <= k <= n."""
    return _B3.value(n, n, k)


def b3_hook(n: int, m: int) -> Nat:
    """Wall-free base layer b3(n, m, 0) in closed form,

        (n + m)! (n - m + 1) / (m! (n + 1)!)

    (the two-row ballot number).  Rejects m > n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got ({n}, {m})")
    num = factorial(n + m) * (n - m + 1)
    return exact_int(num, factorial(m) * factorial(n + 1), ("b3_hook", n, m))


def b_cor_rec(n: int, k: int) -> Nat:
    """b(n, k) from the rational two-term recurrence

        b(n, k) = (n-k+2)/2 * b(n, k-1) + 2 (2n+k-1)/(n-k+1) * b(n-1, k)

    with Catalan base b(n, 0).  Exercises exact rational arithmetic; the
    result is checked integral.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    return exact_int(_B_COR.row(n, k)[k], where=("b_cor_rec", n, k))


def _b_cor_row(row: list[Fraction], prev: list[Fraction] | None, n: int, width: int) -> None:
    if not row:
        row.append(Fraction(binomial(2 * n, n), n + 1))
    for k in range(len(row), min(n, width) + 1):
        row.append(
            Fraction(n - k + 2, 2) * row[k - 1]
            + Fraction(2 * (2 * n + k - 1), n - k + 1) * (prev[k] if k < n else 0)
        )


_B_COR = _RowTable(_b_cor_row)


def omega(n: int, m: int, k: int) -> Nat:
    """omega(n, m, k) as an integer; equals b3(n + m, m, k)."""
    return _OMEGA.value(n, m, k)
