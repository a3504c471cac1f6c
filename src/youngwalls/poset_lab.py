"""Finite posets, linear-extension counting, and the chain-with-pendants
families whose extension counts reproduce the wall-tableau tables.

A poset is stored as its cover relation on labels 0..p-1 and the down-set
of every element as a bitmask, from the one Kahn-order pass that its
constructor runs; validation, the extension count and the hook product all
read those down-sets.  Counting linear extensions walks the lattice of
order ideals with a bitmask dynamic program, so it is capped at 24
elements; the structured families come with closed product formulas that
act as independent oracles.  ``tableau_poset`` builds the poset of a
three-row diagram from its row lengths, its walls and its removed cells.

The table routes keep no rows: ``u_rows`` streams u off one walk of the b
rows, and the routes that read many rows (``b_from_u``, ``r_sum``,
``b_monster``) take them from a walk that their caller runs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence

from . import wall_tables
from .exact_arith import binomial, exact_int, factorial

CAPACITY = 24


class CapacityError(ValueError):
    """Raised when a poset is too large for exhaustive extension counting."""


class Poset:
    """Poset on labels 0..size-1 given by its covers (s, t) meaning s < t.

    Duplicate covers are merged into one.  The constructor validates in its
    one Kahn pass over the covers, which also fills below[v], the bitmask of
    the elements strictly below v: it rejects out-of-range labels, reflexive
    covers, cycles, and redundant covers (ones implied by a longer path).
    """

    __slots__ = ("size", "covers", "below")
    size: int
    covers: tuple[tuple[int, int], ...]
    below: tuple[int, ...]

    def __init__(self, size: int, covers: Iterable[tuple[int, int]] = ()) -> None:
        self.size = size
        self.covers = tuple(sorted(set(map(tuple, covers))))
        if size < 0:
            raise ValueError("negative size")
        succ: list[list[int]] = [[] for _ in range(size)]
        indeg = [0] * size
        for s, t in self.covers:
            if not (0 <= s < size and 0 <= t < size):
                raise ValueError(f"cover {s}>{t} out of range")
            if s == t:
                raise ValueError(f"reflexive cover at {s}")
            succ[s].append(t)
            indeg[t] += 1
        # Kahn's pass: ready grows while it is read and ends as a topological
        # order, so below[v] is complete when v is read; deep[t] is the union
        # of the down-sets of the elements that t covers
        below, deep = [0] * size, [0] * size
        ready = [v for v in range(size) if not indeg[v]]
        for v in ready:
            for t in succ[v]:
                below[t] |= below[v] | 1 << v
                deep[t] |= below[v]
                indeg[t] -= 1
                if not indeg[t]:
                    ready.append(t)
        if len(ready) < size:
            raise ValueError("cover relation has a cycle")
        # (s, t) is redundant when s lies below another element that t covers
        for s, t in self.covers:
            if deep[t] >> s & 1:
                raise ValueError(f"redundant cover {s}>{t}")
        self.below = tuple(below)


def count_linear_extensions(p: Poset) -> int:
    """Number of linear extensions, by dynamic programming over the lattice
    of order ideals (ideals keyed by bitmask, grouped by popcount level so
    only two levels are alive at a time); an ideal takes v once it holds
    v's down-set."""
    if p.size > CAPACITY:
        raise CapacityError(f"poset has {p.size} elements, capacity is {CAPACITY}")
    below = p.below
    level: dict[int, int] = {0: 1}
    for _ in range(p.size):
        nxt: dict[int, int] = {}
        for mask, ways in level.items():
            for v in range(p.size):
                bit = 1 << v
                if mask & bit or (mask & below[v]) != below[v]:
                    continue
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    # after p.size steps the only ideal left is the whole poset
    return level[(1 << p.size) - 1]


def forest_hook_count(p: Poset) -> int:
    """Extension count p! / prod_v w(v) for posets whose Hasse diagram is a
    forest of up-trees (every element covered by at most one other);
    w(v) = number of elements weakly below v.  Rejects anything else."""
    # covers are distinct, so a repeated lower end is an element covered twice
    if len({s for s, _ in p.covers}) < len(p.covers):
        raise ValueError("hook product needs out-degree <= 1 everywhere")
    weight = math.prod(below.bit_count() + 1 for below in p.below)
    return exact_int(factorial(p.size), weight, ("forest_hook_count", p.size))


# ---------------------------------------------------------------------------
# chain-with-pendants families


def _check_index_set(i_set: Sequence[int], lo: int, hi: int) -> tuple[int, ...]:
    idx = tuple(sorted(i_set))
    if len(set(idx)) != len(idx):
        raise ValueError(f"index set has repeats: {i_set}")
    if idx and not (lo <= idx[0] and idx[-1] <= hi):
        raise ValueError(f"index set {i_set} not within [{lo}, {hi}]")
    return idx


def build_F(n: int, i_set: Sequence[int]) -> Poset:
    """Chain v_1 < ... < v_n with pendant elements w_j < v_{i_j} for each
    index in i_set (1-based, strictly inside [1, n]).  Labels: v_i -> i-1,
    then pendants in index order."""
    idx = _check_index_set(i_set, 1, n)
    covers = [(i, i + 1) for i in range(n - 1)]
    covers += [(n + j, i - 1) for j, i in enumerate(idx)]
    return Poset(n + len(idx), covers)


def build_Ftilde(n: int, i_set: Sequence[int]) -> Poset:
    """build_F(n, i_set) with an extra n-chain u_1 < ... < u_n glued below
    the top by u_n < v_n.  Labels continue after the pendants."""
    if n < 1:
        raise ValueError("need n >= 1")
    f = build_F(n, i_set)
    covers = [*f.covers, *((f.size + i, f.size + i + 1) for i in range(n - 1))]
    return Poset(f.size + n, [*covers, (f.size + n - 1, n - 1)])


def build_D(n: int, i_set: Sequence[int]) -> Poset:
    """Two parallel n-chains m and r with rungs m_i < r_i, plus pendants
    q_j < m_{i_j}.  Labels: m-chain 0..n-1, r-chain n..2n-1, pendants after.
    Extension counts summed over index sets give b(n, k)."""
    idx = _check_index_set(i_set, 1, n)
    k = len(idx)
    covers = [(i, i + 1) for i in range(n - 1)]
    covers += [(n + i, n + i + 1) for i in range(n - 1)]
    covers += [(i, n + i) for i in range(n)]
    covers += [(2 * n + j, i - 1) for j, i in enumerate(idx)]
    return Poset(2 * n + k, covers)


def build_U(n: int, i_set: Sequence[int]) -> Poset:
    """build_D with the pendant arrows reversed: m_{i_j} < q_j."""
    d = build_D(n, i_set)
    return Poset(d.size, [(t, s) if s >= 2 * n else (s, t) for s, t in d.covers])


def build_R(n: int, i_left: Sequence[int], j: int, i_right: Sequence[int]) -> Poset:
    """Hybrid family: build_Ftilde(j, i_left) below, build_D(n-j, i_right - j)
    above, joined by the single cover v_j < m_1 of the upper part.  At j = n
    the upper part is empty and no bridge is added."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    left_idx = _check_index_set(i_left, 1, j)
    right_idx = _check_index_set(i_right, j + 1, n)
    left = build_Ftilde(j, left_idx)
    if j == n:
        if right_idx:
            raise ValueError("no room above j = n")
        return left
    right = build_D(n - j, [i - j for i in right_idx])
    covers = list(left.covers)
    covers += [(s + left.size, t + left.size) for s, t in right.covers]
    covers.append((j - 1, left.size))
    return Poset(left.size + right.size, covers)


# ---------------------------------------------------------------------------
# closed counts for the families and the alternating transforms


def f_closed(n: int, k: int) -> int:
    """f(n, k) = (n-k+1)(n-k+2)...(n+k) / (2^k k!), the extension count of
    build_F summed over all k-subsets; zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got ({n}, {k})")
    return exact_int(math.perm(n + k, 2 * k), 2**k * factorial(k), ("f_closed", n, k))


def f_sum(n: int, k: int) -> int:
    """f(n, k) as the literal sum of prod_j (i_j + j - 1) over all index
    sets 1 <= i_1 < ... < i_k <= n; independent route used as an oracle."""
    total = 0
    for idx in itertools.combinations(range(1, n + 1), k):
        prod = 1
        for pos, i in enumerate(idx, start=1):
            prod *= i + pos - 1
        total += prod
    return total


def ftilde(n: int, k: int) -> int:
    """Chain-extended analogue C(2n+k-1, n) * f(n, k) for n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return binomial(2 * n + k - 1, n) * f_closed(n, k)


def _alternating(top: int, n: int, s: int, col: Sequence[int]) -> int:
    """The alternating binomial transform between the b and u columns,

        sum_{i=0}^{min(s, n)} (-1)^i C(top, s-i) perm(n-i, s-i) col[i],

    for top >= s; perm(n-i, s-i) = C(n-i, s-i) (s-i)! vanishes for s > n."""
    return sum((-1) ** i * math.comb(top, s - i) * math.perm(n - i, s - i) * col[i]
               for i in range(min(s, n) + 1))


def u_rows(width: int) -> Iterator[list[int]]:
    """Rows u(n, 0..min(n, width)) for n = 0, 1, 2, ..., without end: row n
    is the alternating transform of row n of one ``b_rows`` walk."""
    return ([_alternating(2 * n + k, n, k, row) for k in range(len(row))]
            for n, row in enumerate(wall_tables.b_rows(width)))


def b_from_u(n: int, k: int, u: Sequence[int]) -> int:
    """Inverse transform: b(n, k) from u = u(n, 0..k) by the same
    alternating pattern.  Round-trips with u_rows exactly."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    return _alternating(2 * n + k, n, k, u)


def r_sum(n: int, k: int, u: Sequence[Sequence[int]]) -> int:
    """Total extension count of the build_R family,

        r(n, k) = sum_{j=1}^{n} sum_{s} C(2j+k-s-1, j) f(j, k-s)
                  * sum_{i=0}^{s} (-1)^i C(2n+k, s-i) C(n-j-i, s-i) (s-i)! u(n-j, i),

    with s over max(k-j, 0)..min(k, n-j): below it f(j, k-s) vanishes, above
    it every term of the inner sum does.  u[i] is u(i, 0..min(i, k)) for
    i < n.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need n >= 1 and 0 <= k <= n, got ({n}, {k})")
    total = 0
    for j in range(1, n + 1):
        u_row = u[n - j]
        for s in range(max(k - j, 0), min(k, n - j) + 1):
            left = binomial(2 * j + k - s - 1, j) * f_closed(j, k - s)
            total += left * _alternating(2 * n + k, n - j, s, u_row)
    return total


def b_monster(n: int, k: int, rows: Sequence[Sequence[int]]) -> int:
    """b(n, k) from the single grand recurrence

        b(n, k) = C(2n+k, n) f(n, k)
                  - sum_{j,s,m} (j+k-s) (n-j-m)! (k+2j-m-1)!
                    / (2^(k-s) (j-k+s)! (k-s)! j! (s-m)! (n-j-s)!) * b(n-j, m)

    over 1 <= j <= n, max(k-j, 0) <= s <= min(k, n-j), 0 <= m <= s (the
    other terms would need a factorial of a negative argument).

    Each term times 2^(k-s) is a product of integer binomials: for m < k

        (j+k-s) C(j, k-s) C(2j, j) * C(n-j-m, s-m) * perm(k+2j-m-1, k-m-1),

    and C(2j-1, j) for the lone m = s = k term.  So each (j, s) block is
    (j+k-s) C(j, k-s) C(2j, j) times one dot product of the C(n-j-m, s-m)
    with the weights w_m = perm(k+2j-m-1, k-m-1) b(n-j, m), built once per
    j.  The sum runs in integers over the common denominator 2^k, checked
    divisible by one exact_int.  rows[i] is b(i, 0..min(i, k)) for i < n.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need n >= 1 and 0 <= k <= n, got ({n}, {k})")
    acc = binomial(2 * n + k, n) * f_closed(n, k) << k
    for j in range(1, n + 1):
        b_row = rows[n - j]
        w = [math.perm(k + 2 * j - m - 1, k - m - 1) * b_m for m, b_m in enumerate(b_row[:k])]
        central = math.comb(2 * j, j)
        for s in range(max(k - j, 0), min(k, n - j) + 1):
            dot = sum(math.comb(n - j - m, s - m) * w_m for m, w_m in enumerate(w[: s + 1]))
            block = (j + k - s) * math.comb(j, k - s) * central * dot
            if s == k:
                block += math.comb(2 * j - 1, j) * b_row[k]
            acc -= block << s
    return exact_int(acc, 1 << k, ("b_monster", n, k))


# ---------------------------------------------------------------------------
# tableau posets (brute-force oracles)


def tableau_poset(
    rows: tuple[int, int, int],
    walls: frozenset[tuple[int, int]] = frozenset(),
    removed: frozenset[tuple[int, int]] = frozenset(),
) -> Poset:
    """Order constraints of a filled three-row diagram with walls and
    removed cells.

    rows gives the lengths (bottom, middle, top) and must be weakly
    decreasing upward.  Cells increase along rows and up columns; a wall
    (r, i) removes the order constraint between cells i and i+1 of row r,
    and a removed cell (r, i) is deleted outright, breaking adjacency.
    Removed cells must all sit in one row.  Labels run bottom row first,
    left to right.
    """
    bottom, middle, top = rows
    if not bottom >= middle >= top >= 0:
        raise ValueError(f"row lengths must decrease upward: {rows}")
    for r, i in walls:
        if not (0 <= r <= 2 and 0 <= i < rows[r] - 1):
            raise ValueError(f"wall {(r, i)} out of bounds")
    if len({r for r, _ in removed}) > 1:
        raise ValueError("removed cells must all lie in a single row")
    for r, i in removed:
        if not (0 <= r <= 2 and 0 <= i < rows[r]):
            raise ValueError(f"removed cell {(r, i)} out of bounds")
    cells = [(r, i) for r in range(3) for i in range(rows[r]) if (r, i) not in removed]
    label = {cell: i for i, cell in enumerate(cells)}
    covers = []
    for r, i in cells:
        if (r, i + 1) in label and (r, i) not in walls:
            covers.append((label[(r, i)], label[(r, i + 1)]))
        if (r + 1, i) in label:
            covers.append((label[(r, i)], label[(r + 1, i)]))
    return Poset(len(cells), covers)


def _walled_row_count(rows: tuple[int, int, int], r: int, k: int) -> int:
    """Extension counts of the diagram with these row lengths, row r walled
    between every two adjacent cells, summed over the ways to keep k of row
    r's cells (the rest removed)."""
    cells = [(r, i) for i in range(rows[r])]
    walls = frozenset(cells[:-1])  # wall (r, i) separates cells i and i+1
    return sum(count_linear_extensions(tableau_poset(rows, walls, frozenset(gone)))
               for gone in itertools.combinations(cells, len(cells) - k))


def a_brute(n: int, k: int) -> int:
    """a(n, k) by exhaustive extension counting of the (n, n, k) shape with
    a fully walled bottom row."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    return _walled_row_count((n, n, k), 0, n)


def b_brute(n: int, k: int) -> int:
    """b(n, k) by summing extension counts of the (n, n, n) shape over all
    ways to keep k bottom-row cells (the rest removed), surviving adjacent
    bottom cells separated by walls."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    return _walled_row_count((n, n, n), 0, k)


def b3_brute(n: int, m: int, k: int) -> int:
    """b3(n, m, k) likewise for the (n, m, m) shape, removing m - k cells
    from the top row."""
    if not 0 <= k <= m <= n:
        raise ValueError(f"need 0 <= k <= m <= n, got ({n}, {m}, {k})")
    return _walled_row_count((n, m, m), 2, k)
