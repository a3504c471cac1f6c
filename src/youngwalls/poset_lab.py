"""Finite posets, linear-extension counting, and the chain-with-pendants
families whose extension counts reproduce the wall-tableau tables.

A poset is stored as its cover relation on labels 0..p-1.  Counting linear
extensions walks the lattice of order ideals with a bitmask dynamic
program, so it is capped at 24 elements; the structured families come with
closed product formulas that act as independent oracles.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from . import wall_tables
from .exact_arith import Nat, binomial, exact_int, factorial
from .record import Record

CAPACITY = 24


class CapacityError(ValueError):
    """Raised when a poset is too large for exhaustive extension counting."""


class Poset(Record):
    """Poset on labels 0..size-1 given by its covers (s, t) meaning s < t.

    Validation rejects out-of-range labels, duplicate or reflexive covers,
    cycles, and redundant covers (ones implied by a longer path).
    """

    __slots__ = ("size", "covers")
    size: int
    covers: tuple[tuple[int, int], ...]

    def __init__(self, size: int, covers: Iterable[tuple[int, int]] = ()) -> None:
        super().__init__(size, tuple(sorted(set(map(tuple, covers)))))
        self._validate()

    def _validate(self) -> None:
        if self.size < 0:
            raise ValueError("negative size")
        succ: list[list[int]] = [[] for _ in range(self.size)]
        for s, t in self.covers:
            if not (0 <= s < self.size and 0 <= t < self.size):
                raise ValueError(f"cover {s}>{t} out of range")
            if s == t:
                raise ValueError(f"reflexive cover at {s}")
            succ[s].append(t)
        order = self._topo_order(succ)
        if order is None:
            raise ValueError("cover relation has a cycle")
        for s, t in self.covers:
            if self._reachable(succ, s, t, skip_direct=True):
                raise ValueError(f"redundant cover {s}>{t}")

    def _topo_order(self, succ: list[list[int]]) -> list[int] | None:
        indeg = [0] * self.size
        for s in range(self.size):
            for t in succ[s]:
                indeg[t] += 1
        queue = [v for v in range(self.size) if indeg[v] == 0]
        out: list[int] = []
        while queue:
            v = queue.pop()
            out.append(v)
            for t in succ[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        return out if len(out) == self.size else None

    @staticmethod
    def _reachable(succ: list[list[int]], src: int, dst: int, skip_direct: bool) -> bool:
        stack = [t for t in succ[src] if not (skip_direct and t == dst)]
        seen = set(stack)
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for t in succ[v]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return False

    # -- stock shapes -------------------------------------------------------

    @staticmethod
    def chain(m: int) -> "Poset":
        return Poset(m, [(i, i + 1) for i in range(m - 1)])

    @staticmethod
    def antichain(m: int) -> "Poset":
        return Poset(m, [])


def count_linear_extensions(p: Poset, capacity: int = CAPACITY) -> Nat:
    """Number of linear extensions, by dynamic programming over the lattice
    of order ideals (ideals keyed by bitmask, grouped by popcount level so
    only two levels are alive at a time)."""
    if p.size > capacity:
        raise CapacityError(f"poset has {p.size} elements, capacity is {capacity}")
    if p.size == 0:
        return 1
    pred_mask = [0] * p.size
    for s, t in p.covers:
        pred_mask[t] |= 1 << s
    level: dict[int, int] = {0: 1}
    for _ in range(p.size):
        nxt: dict[int, int] = {}
        for mask, ways in level.items():
            for v in range(p.size):
                bit = 1 << v
                if mask & bit or (mask & pred_mask[v]) != pred_mask[v]:
                    continue
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    # after p.size steps the only ideal left is the whole poset
    return level[(1 << p.size) - 1]


def forest_hook_count(p: Poset) -> Nat:
    """Extension count p! / prod_v w(v) for posets whose Hasse diagram is a
    forest of up-trees (every element covered by at most one other);
    w(v) = number of elements weakly below v.  Rejects anything else."""
    out_deg = [0] * p.size
    children: list[list[int]] = [[] for _ in range(p.size)]
    for s, t in p.covers:
        out_deg[s] += 1
        children[t].append(s)
    if any(d > 1 for d in out_deg):
        raise ValueError("hook product needs out-degree <= 1 everywhere")
    weight = [0] * p.size
    # children lists form a forest, so a post-order pass fills weights
    roots = [v for v in range(p.size) if out_deg[v] == 0]
    stack = [(v, False) for v in roots]
    while stack:
        v, done = stack.pop()
        if done:
            weight[v] = 1 + sum(weight[c] for c in children[v])
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in children[v])
    denom = 1
    for w in weight:
        denom *= w
    return exact_int(factorial(p.size), denom, ("forest_hook_count", p.size))


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
    idx = _check_index_set(i_set, 1, n)
    k = len(idx)
    covers = [(i, i + 1) for i in range(n - 1)]
    covers += [(n + j, i - 1) for j, i in enumerate(idx)]
    base = n + k
    covers += [(base + i, base + i + 1) for i in range(n - 1)]
    covers += [(base + n - 1, n - 1)]
    return Poset(2 * n + k, covers)


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
    idx = _check_index_set(i_set, 1, n)
    k = len(idx)
    covers = [(i, i + 1) for i in range(n - 1)]
    covers += [(n + i, n + i + 1) for i in range(n - 1)]
    covers += [(i, n + i) for i in range(n)]
    covers += [(i - 1, 2 * n + j) for j, i in enumerate(idx)]
    return Poset(2 * n + k, covers)


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


def f_closed(n: int, k: int) -> Nat:
    """f(n, k) = (n-k+1)(n-k+2)...(n+k) / (2^k k!), the extension count of
    build_F summed over all k-subsets; zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got ({n}, {k})")
    num = 1
    for t in range(n - k + 1, n + k + 1):
        num *= t
    return exact_int(num, 2**k * factorial(k), ("f_closed", n, k))


def f_sum(n: int, k: int) -> Nat:
    """f(n, k) as the literal sum of prod_j (i_j + j - 1) over all index
    sets 1 <= i_1 < ... < i_k <= n; independent route used as an oracle."""
    total = 0
    for idx in itertools.combinations(range(1, n + 1), k):
        prod = 1
        for pos, i in enumerate(idx, start=1):
            prod *= i + pos - 1
        total += prod
    return total


def ftilde(n: int, k: int) -> Nat:
    """Chain-extended analogue C(2n+k-1, n) * f(n, k) for n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return binomial(2 * n + k - 1, n) * f_closed(n, k)


def u_from_b(n: int, k: int) -> Nat:
    """u(n, k), the total extension count of the build_U family, by the
    alternating binomial transform of the b column."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    total = 0
    for i in range(k + 1):
        total += (
            (-1) ** i
            * binomial(2 * n + k, k - i)
            * binomial(n - i, k - i)
            * factorial(k - i)
            * wall_tables.b(n, i)
        )
    return total


def b_from_u(n: int, k: int) -> Nat:
    """Inverse transform: b(n, k) from the u column by the same alternating
    pattern.  Round-trips with u_from_b exactly."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    total = 0
    for i in range(k + 1):
        total += (
            (-1) ** i
            * binomial(2 * n + k, k - i)
            * binomial(n - i, k - i)
            * factorial(k - i)
            * u_from_b(n, i)
        )
    return total


def r_sum(n: int, k: int) -> Nat:
    """Total extension count of the build_R family,

        r(n, k) = sum_{j=1}^{n} sum_{s=0}^{k} C(2j+k-s-1, j) f(j, k-s)
                  * sum_{i=0}^{s} (-1)^i C(2n+k, s-i) C(n-j-i, s-i) (s-i)! u(n-j, i).

    Terms with i > n - j are skipped: the u factor vanishes there and the
    middle binomial would otherwise see a negative first argument.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need n >= 1 and 0 <= k <= n, got ({n}, {k})")
    total = 0
    for j in range(1, n + 1):
        for s in range(k + 1):
            left = binomial(2 * j + k - s - 1, j) * f_closed(j, k - s)
            if left == 0:
                continue
            inner = 0
            for i in range(s + 1):
                if i > n - j:
                    continue
                inner += (
                    (-1) ** i
                    * binomial(2 * n + k, s - i)
                    * binomial(n - j - i, s - i)
                    * factorial(s - i)
                    * u_from_b(n - j, i)
                )
            total += left * inner
    return total


def b_monster(n: int, k: int) -> Nat:
    """b(n, k) from the single grand recurrence

        b(n, k) = C(2n+k, n) f(n, k)
                  - sum_{j,s,m} (j+k-s) (n-j-m)! (k+2j-m-1)!
                    / (2^(k-s) (j-k+s)! (k-s)! j! (s-m)! (n-j-s)!) * b(n-j, m)

    over 1 <= j <= n, max(k-j, 0) <= s <= min(k, n-j), 0 <= m <= s (the
    other terms would need a factorial of a negative argument).

    Each term times 2^(k-s) is an integer, (j+k-s) C(n-j-m, s-m) times
    (k+2j-m-1)! / ((j-k+s)! (k-s)! j!), which is C(2j-1, j) at m = s = k;
    exact_int checks every term, and the sum runs in integers over the
    common denominator 2^k, checked divisible by one more exact_int.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need n >= 1 and 0 <= k <= n, got ({n}, {k})")
    fact = [1]
    for v in range(1, 2 * n + k):
        fact.append(fact[-1] * v)
    acc = binomial(2 * n + k, n) * f_closed(n, k) << k
    for j in range(1, n + 1):
        b_row = [wall_tables.b(n - j, m) for m in range(min(k, n - j) + 1)]
        for s in range(max(k - j, 0), min(k, n - j) + 1):
            outer = fact[j - k + s] * fact[k - s] * fact[j] * fact[n - j - s]
            for m in range(s + 1):
                num = (j + k - s) * fact[n - j - m] * fact[k + 2 * j - m - 1]
                term = exact_int(num, outer * fact[s - m], ("b_monster", n, k, j, s, m))
                acc -= (term << s) * b_row[m]
    return exact_int(acc, 1 << k, ("b_monster", n, k))


# ---------------------------------------------------------------------------
# tableau posets (brute-force oracles)


class WallShape(Record):
    """Three-row diagram with optional walls and removed cells.

    rows gives the lengths (bottom, middle, top) and must be weakly
    decreasing upward.  A wall (r, i) removes the order constraint between
    cells i and i+1 of row r; a removed cell (r, i) is deleted outright,
    breaking adjacency.  Removed cells must all sit in one row.
    """

    __slots__ = ("rows", "walls", "removed")
    rows: tuple[int, int, int]
    walls: frozenset[tuple[int, int]]
    removed: frozenset[tuple[int, int]]

    def __init__(
        self,
        rows: tuple[int, int, int],
        walls: frozenset[tuple[int, int]] = frozenset(),
        removed: frozenset[tuple[int, int]] = frozenset(),
    ) -> None:
        super().__init__(rows, walls, removed)
        bottom, middle, top = self.rows
        if not bottom >= middle >= top >= 0:
            raise ValueError(f"row lengths must decrease upward: {self.rows}")
        for r, i in self.walls:
            if not (0 <= r <= 2 and 0 <= i < self.rows[r] - 1):
                raise ValueError(f"wall {(r, i)} out of bounds")
        rows_used = {r for r, _ in self.removed}
        if len(rows_used) > 1:
            raise ValueError("removed cells must all lie in a single row")
        for r, i in self.removed:
            if not (0 <= r <= 2 and 0 <= i < self.rows[r]):
                raise ValueError(f"removed cell {(r, i)} out of bounds")

    def present(self) -> list[tuple[int, int]]:
        return [
            (r, i)
            for r in range(3)
            for i in range(self.rows[r])
            if (r, i) not in self.removed
        ]


def tableau_poset(shape: WallShape) -> Poset:
    """Order constraints of a filled diagram: cells increase along rows
    (unless separated by a wall or by a removed cell) and up columns.
    Labels run bottom row first, left to right."""
    cells = shape.present()
    label = {cell: i for i, cell in enumerate(cells)}
    covers = []
    for r, i in cells:
        if (r, i + 1) in label and (r, i) not in shape.walls:
            covers.append((label[(r, i)], label[(r, i + 1)]))
        if (r + 1, i) in label:
            covers.append((label[(r, i)], label[(r + 1, i)]))
    return Poset(len(cells), covers)


def a_brute(n: int, k: int) -> Nat:
    """a(n, k) by exhaustive extension counting of the (n, n, k) shape with
    a fully walled bottom row."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    shape = WallShape((n, n, k), walls=frozenset((0, i) for i in range(n - 1)))
    return count_linear_extensions(tableau_poset(shape))


def b_brute(n: int, k: int) -> Nat:
    """b(n, k) by summing extension counts of the (n, n, n) shape over all
    ways to keep k bottom-row cells (the rest removed), surviving adjacent
    bottom cells separated by walls."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    walls = frozenset((0, i) for i in range(n - 1))
    total = 0
    for kept in itertools.combinations(range(n), k):
        removed = frozenset((0, i) for i in range(n) if i not in kept)
        shape = WallShape((n, n, n), walls=walls, removed=removed)
        total += count_linear_extensions(tableau_poset(shape))
    return total


def b3_brute(n: int, m: int, k: int) -> Nat:
    """b3(n, m, k) likewise for the (n, m, m) shape, removing m - k cells
    from the top row."""
    if not 0 <= k <= m <= n:
        raise ValueError(f"need 0 <= k <= m <= n, got ({n}, {m}, {k})")
    walls = frozenset((2, i) for i in range(m - 1))
    total = 0
    for kept in itertools.combinations(range(m), k):
        removed = frozenset((2, i) for i in range(m) if i not in kept)
        shape = WallShape((n, m, m), walls=walls, removed=removed)
        total += count_linear_extensions(tableau_poset(shape))
    return total
