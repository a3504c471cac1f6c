"""Row-by-row recurrence tables for the wall-tableau counting sequences.

Five sequences live here:

* ``a(n, k)`` counts fillings of the three-row shape (n, n, k) whose bottom
  row carries walls between every pair of adjacent cells,
* ``b3(n, m, k)`` counts fillings of the deformed shape (n, m, m) where
  m - k top-row cells are removed and the surviving adjacent top cells are
  separated by walls,
* ``b(n, k) = b3(n, n, k)`` is its diagonal,
* ``omega(n, m, k)`` is a companion table, seeded by the gamma sums of
  ``closed_forms.omega_init_layers`` (integers whose divisibility is
  checked, not assumed), whose value at (n, m, k) equals b3(n + m, m, k),
* ``tc(n, k)``, the tree-child counts, by their own two-term recurrence;
  ``tree_child`` keeps their formulas.

Every table is a list of rows of ints, row i built from row i - 1, with
no recursion, and is read one way: by a walk up its rows on ``_walk``,
which keeps row i - 1 only until row i is built.  The streams are
``a_rows``, ``b_rows``, ``tc_rec_rows``, ``a_alt_columns``, ``b3_layers``
and ``omega_layers`` (``omega_rows`` reads it).  A reader of a range walks
once; a point read (``a_rec``, ``b``, ``b3``, ``omega``) walks to its cell
and keeps nothing.
The rows of ``b`` come from its own two-term recurrence, O(w) cells per
row like ``a``, not from the b3 layers; the checks compare the two.
Each stream names its seed, row 0, and a step builds rows 1, 2, ... only.
``a_rows`` and ``b_rows`` walk their rows in the ring of their seed
[one]: ``cli`` walks an ``a``, ``b`` or ``tc`` table (tc reads the rows
of a) in ``decimal.Decimal`` when a bound on its values reaches
``cli.DECIMAL_DIGITS`` digits, and in int below it.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from collections.abc import Callable, Iterator
from functools import partial

from . import closed_forms
from .exact_arith import exact_int, factorial


def _walk(step: Callable[..., list], first: list, width: int, start: int = 1) -> Iterator[list]:
    """Row ``start - 1``, the seed ``first``, then rows start, start + 1,
    ... of a one-step recurrence, in order, without end.  The walk keeps
    row i - 1 until row i is built, so it holds two rows at its peak.

    ``step(prev, i, width=width)`` returns row i through column
    min(i, width), reading row i - 1 (``prev``) no further than column
    min(width, i - 1).  A step that builds each cell from the seed's by
    ints, +, * and checked division walks every row in the seed's ring:
    ``decimal.Decimal``, say, for a seed of Decimals."""
    return itertools.accumulate(itertools.count(start), partial(step, width=width),
                                initial=first)


def _a_row(prev: list[int], n: int, width: int) -> list[int]:
    row = [prev[0] * (2 * n - 1)]
    for k in range(1, min(n, width) + 1):
        row.append(row[k - 1] + (2 * n + k - 1) * (prev[k] if k < n else 0))
    return row


def a_rows(width: int, one: object = 1) -> Iterator[list[int]]:
    """Rows a(n, 0..min(n, width)) for n = 0, 1, 2, ..., without end,
    walked once from the seed [one], in its ring (see ``_walk``): only the
    previous row is kept."""
    return _walk(_a_row, [one], width)


def _b_row(prev: list[int], n: int, width: int) -> list[int]:
    """Row n of b from row n - 1: the Catalan seed
    b(n, 0) = 2 (2n-1) b(n-1, 0) / (n+1), then

        2 (n-k+1) b(n, k) = (n-k+2)(n-k+1) b(n, k-1) + 4 (2n+k-1) b(n-1, k)

    with b(n-1, n) = 0.  Each cell is one division, checked exact.

    This step is _a_row's conjugate: put b = a 2^(n-k) / (n-k+1)! into the
    recurrence and multiply by (n-k)! / 2^(n-k+1), or into the seed and
    multiply by (n+1)! / 2^n, and _a_row's recurrence and seed come out
    term for term.  So the identity 2^(n-k) a = (n-k+1)! b, read off these
    two steps, holds for any conjugate pair of steps whose b stays
    integral: it checks the conjugation, not the tableaux.  The
    main-identity check reads b off the b3 diagonal instead."""
    row = [exact_int(2 * (2 * n - 1) * prev[0], n + 1, ("b", n, 0))]
    for k in range(1, min(n, width) + 1):
        below = prev[k] if k < n else 0
        rhs = (n - k + 2) * (n - k + 1) * row[k - 1] + 4 * (2 * n + k - 1) * below
        row.append(exact_int(rhs, 2 * (n - k + 1), ("b", n, k)))
    return row


def _b3_layer(prev: list[list[int]], n: int, width: int,
              mmax: int | None = None) -> list[list[int]]:
    """Layer n of b3, stored by m: layer[m][k] = b3(n, m, k) for
    m <= min(n, mmax) and k <= min(m, width).  Cell (m, k) reads (m, k-1)
    and (m-1, k) from this layer and (m, k) from layer n - 1, so a row
    above mmax never feeds one at or below it."""
    layer: list[list[int]] = []
    for m in range(n + 1 if mmax is None else min(n, mmax) + 1):
        row: list[int] = []
        layer.append(row)
        for k in range(min(m, width) + 1):
            drop_k = (m - k + 1) * row[k - 1] if k else 0
            drop_m = layer[m - 1][k] if k < m else 0
            drop_n = prev[m][k] if m < n else 0
            row.append(drop_k + drop_m + drop_n)
    return layer


def b3_layers(width: int, mmax: int | None = None) -> Iterator[list[list[int]]]:
    """Layers n = 0, 1, 2, ... of b3 from the seed layer [[1]], without end,
    as ``_b3_layer`` stores them.  Only the previous layer is kept, and no
    row above mmax is filled."""
    return _walk(partial(_b3_layer, mmax=mmax), [[1]], width)


def b_rows(width: int, one: object = 1) -> Iterator[list[int]]:
    """Rows b(n, 0..min(n, width)) for n = 0, 1, 2, ..., without end,
    walked once by the two-term recurrence of ``b`` from the seed [one], in
    its ring (see ``_walk``): only the previous row is kept."""
    return _walk(_b_row, [one], width)


def _tc_rec_row(prev: list[int], n: int, width: int) -> list[int]:
    row: list[int] = []
    for k in range(min(n - 1, width) + 1):
        left = row[k - 1] if k else 0
        below = prev[k] if k < n - 1 else 0
        rhs = (n + 1 - k) * (n - k) * left + n * (2 * n + k - 3) * below
        row.append(exact_int(rhs, n - k, ("tc_rec_rows", n, k)))
    return row


def tc_rec_rows(width: int) -> Iterator[list[int]]:
    """Rows tc(n, 0..min(n - 1, width)) for n = 1, 2, 3, ..., without end,
    walked once (one row kept) by the self-contained two-term recurrence

        (n-k) tc(n, k) = (n+1-k)(n-k) tc(n, k-1) + n (2n+k-3) tc(n-1, k)

    from the seed row tc(1, 0) = 1, with tc(i, -1) = tc(i, i) = 0; each
    division checked."""
    return _walk(_tc_rec_row, [1], width, start=2)


def _omega_layer(prev: list[list[int]], s: int, width: int, seeds: Iterator[list[int]],
                 nmax: int | None = None) -> list[list[int]]:
    """Layer s = n + m of omega, stored by k: layer[k] lists omega(n, s-n, k)
    for n = 0..min(s, s + 1 - k, nmax), k = 0..min(s + 1, width).  Cell
    (n, m) reads (n-1, m+1) from this layer and (n-2, m+1) from layer s - 1,
    so each column is one pass down n: column k starts at its seed
    omega(0, s, k), the next of ``seeds``, and cell n subtracts

        (s-n-k+2) left[n-1] + below[n-2]

    from cell n - 1, where left is column k - 1 of this layer (no term for
    k = 0) and below is column k of layer s - 1 (no term for n = 1).  A
    column of depth 0 holds its seed alone."""
    top_n = s if nmax is None else min(s, nmax)
    layer: list[list[int]] = []
    for k, seed in enumerate(next(seeds)):
        depth = min(top_n, s + 1 - k)
        steps = itertools.chain((0,), prev[k][: depth - 1]) if depth else ()
        if k:
            lefts = map(operator.mul, range(s - k + 1, s - k + 1 - depth, -1), layer[k - 1])
            steps = map(operator.add, lefts, steps)
        layer.append(list(itertools.accumulate(steps, operator.sub, initial=seed)))
    return layer


def omega_layers(width: int, nmax: int | None = None) -> Iterator[list[list[int]]]:
    """Layers s = n + m = 0, 1, 2, ... of omega as ``_omega_layer`` stores
    them; the seeds come from ``closed_forms.omega_init_layers``, and layer
    0 is its seed row, one column of depth 0 for each k <= min(1, width)."""
    seeds = closed_forms.omega_init_layers(width)
    first = [[seed] for seed in next(seeds)]
    return _walk(partial(_omega_layer, seeds=seeds, nmax=nmax), first, width)


def omega_rows(nmax: int, mmax: int, kmax: int) -> Iterator[list[list[int]]]:
    """Rows n = 0..nmax of omega, each as row[m][k] = omega(n, m, k) for
    m <= mmax and k <= min(m + 1, kmax), off one walk up ``omega_layers``
    that is no wider than the widest row, mmax + 1.  Row n is yielded once
    layer n + mmax is done, and only the rows not yet finished are held."""
    width = min(kmax, mmax + 1)
    rows: deque[list[list[int]]] = deque()  # rows max(0, s - mmax)..min(s, nmax)
    for s, layer in zip(range(nmax + mmax + 1), omega_layers(width, nmax)):
        if s <= nmax:
            rows.append([])
        first = max(0, s - mmax)
        for n in range(first, min(s, nmax) + 1):
            rows[n - first].append([col[n] for col in layer[: min(s - n + 1, width) + 1]])
        if s >= mmax:
            yield rows.popleft()


def a_rec(n: int, k: int) -> int:
    """a(n, k) from the one-step recurrence table

        a(n, k) = a(n, k-1) + (2n + k - 1) a(n-1, k),   a(n, 0) = (2n-1)!!

    with a(n, k) = 0 outside 0 <= k <= n.  A point read walks ``a_rows`` to
    its cell: O(n k) cells, none kept.
    """
    if not 0 <= k <= n:
        return 0
    return next(itertools.islice(a_rows(k), n, None))[k]


def _a_alt_column(prev: list[int], k: int, width: int) -> list[int]:
    col = [0] * k
    for n in range(k, width + 1):
        v = prev[n]
        prod = 1
        for i in range(n - 1, k - 1, -1):
            prod *= 2 * i + k + 1
            v += prod * prev[i]
        col.append(v)
    return col


def a_alt_columns(depth: int) -> Iterator[list[int]]:
    """Columns a(0..depth, k), zeros above the diagonal, for k = 0..depth by
    the expansion, independent of the one-step recurrence of ``a_rec``,

        a(n, k) = a(n, k-1) + sum_{i=k}^{n-1} (prod_{j=i}^{n-1} (2j+k+1)) a(i, k-1),

    from the seed column a(n, 0) = (2n-1)!!, walked once: only the previous
    column is kept."""
    first = list(itertools.accumulate(range(1, 2 * depth, 2), operator.mul, initial=1))
    return itertools.islice(_walk(_a_alt_column, first, depth), depth + 1)


def b3(n: int, m: int, k: int) -> int:
    """b3(n, m, k) from the three-index recurrence

        b3(n, m, k) = (m-k+1) b3(n, m, k-1) + b3(n, m-1, k) + b3(n-1, m, k)

    for n >= 1 with the single seed b3(0, 0, 0) = 1 and zero outside the
    simplex 0 <= k <= m <= n.  A point read walks to its cell: O(n m k)
    cells, none kept.  A reader of a range walks ``b3_layers`` once itself.
    """
    if not 0 <= k <= m <= n:
        return 0
    return next(itertools.islice(b3_layers(k, m), n, None))[m][k]


def b(n: int, k: int) -> int:
    """Two-index b(n, k) = b3(n, n, k) from the integer two-term recurrence

        2 (n-k+1) b(n, k) = (n-k+2)(n-k+1) b(n, k-1) + 4 (2n+k-1) b(n-1, k)

    with Catalan base b(n, 0), each division checked exact; 0 outside
    0 <= k <= n.  It never reads b3; the check cor-rec compares it with the
    b3 diagonal.  A point read walks ``b_rows`` to its cell: O(n k) cells,
    none kept."""
    if not 0 <= k <= n:
        return 0
    return next(itertools.islice(b_rows(k), n, None))[k]


def b3_hook(n: int, m: int) -> int:
    """Wall-free base layer b3(n, m, 0) in closed form,

        (n + m)! (n - m + 1) / (m! (n + 1)!)

    (the two-row ballot number).  Rejects m > n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got ({n}, {m})")
    num = factorial(n + m) * (n - m + 1)
    return exact_int(num, factorial(m) * factorial(n + 1), ("b3_hook", n, m))


def omega(n: int, m: int, k: int) -> int:
    """omega(n, m, k), which equals b3(n + m, m, k), from the downward
    recurrence

        omega(n, m, k) = omega(n-1, m+1, k)
                         - (m-k+2) omega(n-1, m+1, k-1)
                         - omega(n-2, m+1, k)

    for n >= 1, seed row omega(0, m, k) off closed_forms.omega_init_layers
    (a closed form checked integral), and omega(-1, m, k) = 0.  Values above
    the k = m + 1 layer vanish.  A point read walks to its cell: O((n+m) n k)
    cells, none kept.  A range reader walks ``omega_layers`` once itself.
    """
    if n < -1:
        raise ValueError(f"omega needs n >= -1, got {n}")
    if m < 0:
        raise ValueError(f"omega needs m >= 0, got {m}")
    if k < 0 or n == -1 or k > m + 1:
        return 0
    return next(itertools.islice(omega_layers(k, n), n + m, None))[k][n]
