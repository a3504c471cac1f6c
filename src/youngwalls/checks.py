"""The `verify` registry: each identity the package proves about its own
tables, with the cells it visits.  ``CHECKS`` maps a check's name to its
`Check`, whose ``run`` returns the status word (PASS, FAIL or EMPTY) that
`verify` prints; ``cli.run_verify`` imports it when a `verify` request
runs, so no other request loads this module.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator

from . import closed_forms, poset_lab, series_engine, tree_child, wall_tables
from .exact_arith import NotIntegralError, binomial, double_factorial, factorial


class Check:
    """One identity, checked cell by cell: ``cells(**bounds)`` yields
    (cell, holds) in order, where cell is a tuple of ints that names the
    cell in a failure and holds is whether the identity holds there.

    ``bounds`` are the defaults that ``--nmax``, ``--kmax`` and ``--order``
    override; ``domain`` is formatted with the bounds in effect.  ``run``
    returns the status word that `verify` prints, with its detail.  A table
    that several cells read is a local of the generator, walked once.
    """

    __slots__ = ("bounds", "domain", "cells")

    def __init__(
        self,
        bounds: dict[str, int],
        domain: str,
        cells: Callable[..., Iterable[tuple[tuple[int, ...], bool]]],
    ) -> None:
        self.bounds = bounds
        self.domain = domain
        self.cells = cells

    def run(self, **overrides: int | None) -> tuple[str, str]:
        """Visit the cells in order and stop at the first that fails.

        Returns ("FAIL", "fails at (cell)") at the first failing cell, or
        ("FAIL", message) when a checked division fails on the way, or
        ("FAIL", "raised <type> at <module>.<function>: <message>") when any
        other exception but MemoryError does, naming the innermost frame of
        the package; else ("PASS", domain), or ("EMPTY", domain) when the
        domain holds no cell.
        """
        bounds = dict(self.bounds)
        bounds.update((b, v) for b, v in overrides.items() if b in bounds and v is not None)
        visited = 0
        try:
            for cell, holds in self.cells(**bounds):
                if not holds:
                    return "FAIL", f"fails at ({', '.join(map(str, cell))})"
                visited += 1
        except NotIntegralError as exc:  # a checked division on the way failed
            return "FAIL", str(exc)
        except MemoryError:
            raise
        except Exception as exc:  # a defect on the way: name where it raised
            tb = exc.__traceback__
            while tb is not None:
                module = tb.tb_frame.f_globals.get("__name__", "")
                if module.startswith(f"{__package__}."):
                    where = f"{module.partition('.')[2]}.{tb.tb_frame.f_code.co_name}"
                tb = tb.tb_next
            return "FAIL", f"raised {type(exc).__name__} at {where}: {exc}"
        return ("PASS" if visited else "EMPTY"), self.domain.format(**bounds)


def _b3_walk(nmax: int, width: int) -> Iterator[tuple[int, list[list[int]]]]:
    """(n, layer n of b3, clipped at k <= width) for n <= nmax, off one walk."""
    return zip(range(nmax + 1), wall_tables.b3_layers(width))


def _omega_block(nmax: int, mmax: int, kmax: int) -> Callable[[int, int, int], int]:
    """omega(n, m, k) off one omega_rows block, 0 outside the domain of omega."""
    rows = list(wall_tables.omega_rows(nmax, mmax, kmax))
    return lambda n, m, k: rows[n][m][k] if n >= 0 and 0 <= k <= m + 1 else 0


def _levels(kmax: int, order: int, scale: int = 2) -> Iterator[tuple[int, tuple]]:
    """(k, (F_k, D_k, B_k)) for k <= kmax, along one kernel walk at working
    order scale * order that holds only the current level."""
    # zip stops at range's end, so no level past kmax is solved
    return zip(range(kmax + 1), series_engine.kernel_levels(scale * order))


def _on_walks(nmax: int, walks: Callable[[int], Iterable[tuple]],
              holds: Callable[..., bool], start: int = 0) -> Check:
    """``holds(n, k, *rows)`` for start <= n <= nmax and k <= n, row by row,
    where rows is row n of each walk that ``walks(nmax)`` zips: every table
    the check reads is walked once."""

    def cells(nmax: int) -> Iterator[tuple[tuple[int, int], bool]]:
        for n, rows in zip(range(nmax + 1), walks(nmax)):
            if n >= start:
                yield from (((n, k), holds(n, k, *rows)) for k in range(n + 1))

    return Check({"nmax": nmax}, "n <= {nmax}", cells)


def _kept(rows: Iterable[list[int]]) -> Iterator[list[list[int]]]:
    """Rows 0..n of a walk at step n, in one list that grows by a row a step."""
    kept: list[list[int]] = []
    for row in rows:
        kept.append(row)
        yield kept


def _omega_vanishing(nmax: int, kmax: int) -> Iterator[tuple[tuple[int, int], bool]]:
    omega = _omega_block(nmax, kmax, kmax)
    for k in range(1, kmax + 1):
        yield from (((n, k), omega(n, k - 1, k) == 0) for n in range(nmax + 1))


def _gamma_sum(kmax: int) -> Iterator[tuple[tuple[int], bool]]:
    """sum_i gamma_{k-i} / i! (3k+i-3)!! = 0 for 1 <= k <= kmax, over the
    denominator of the gamma row.  Times k! (delta_j = j! gamma_j) it is the
    delta recursion with its i = 0 term, delta_k (3k-3)!!, moved, and it is
    twice the seed omega(0, k-1, k), which therefore vanishes."""
    for k in range(1, kmax + 1):
        yield (k,), sum(closed_forms.gamma_dfact_terms(k - 1, k)[0]) == 0


def _lemma28(nmax: int, kmax: int) -> Iterator[tuple[tuple[int, int, int], bool]]:
    omega = _omega_block(nmax, nmax + kmax, kmax)  # the sums read n' < n, m' < n + k only
    for n, k in itertools.product(range(1, nmax + 1), range(1, kmax + 1)):
        yield from (((n, k, s), closed_forms.lemma28_rhs(n, k, s, omega) == 0)
                    for s in range(1, n + 1))


def _stock_series(order: int) -> Iterator[tuple[tuple[int], bool]]:
    """Half-power square, central binomials, Catalan equation, kernel root."""
    mul, shift_up = series_engine.series_mul, series_engine.shift_up
    half = series_engine.neg_half_pow_series(1, order)
    c = series_engine.catalan_series(order)
    x2 = series_engine.x2_series(order)
    t = shift_up((1,) + (0,) * order)
    yield (order,), (
        mul(half, half) == series_engine.neg_half_pow_series(2, order)
        and all(c_n == binomial(2 * n, n) for n, c_n in enumerate(half))
        and (1, *shift_up(mul(c, c))[1:]) == c  # C = 1 + t C^2
        and mul(x2, x2) == tuple(x - y for x, y in zip(x2, t))  # X_2^2 = X_2 - t
    )


def _dk_threeway(kmax: int, order: int) -> Iterator[tuple[tuple[int, int], bool]]:
    for k, (_f, kernel, _b) in _levels(kmax, order, scale=1):
        if k:
            yield (k, order), (series_engine.dk_from_table(k, order)
                               == series_engine.dk_closed(k, order) == kernel)


def _kernel_residual(kmax: int, order: int) -> Iterator[tuple[tuple[int, int], bool]]:
    for k, (f, d, b) in _levels(kmax, order):
        res = series_engine.kernel_residual(b, f, d)
        yield (k, order), not any(any(row[: order + 1]) for row in res[: order + 1])


def _bk_rect(kmax: int, order: int) -> Iterator[tuple[tuple[int, int], bool]]:
    bk = series_engine.bk_from_table(kmax, order)
    for k, (_f, _d, b) in _levels(kmax, order):
        yield (k, order), tuple(r[: order + 1] for r in b[: order + 1]) == bk[k]


def _b0_hook(nmax: int) -> Iterator[tuple[tuple[int], bool]]:
    _, _, b0 = next(series_engine.kernel_levels(2 * nmax))
    square = range(nmax + 1)
    yield (nmax,), all(b0[j][m] == wall_tables.b3_hook(m + j, m) for j in square for m in square)


CHECKS: dict[str, Check] = {
    "main-identity": _on_walks(  # b off the b3 diagonal: b_rows is a_rows' conjugate
        30,
        lambda nmax: zip(wall_tables.a_rows(nmax), wall_tables.b3_layers(nmax)),
        lambda n, k, a, layer: 2 ** (n - k) * a[k] == factorial(n - k + 1) * layer[n][k],
    ),
    "a-alt": _on_walks(
        20,
        lambda nmax: zip(wall_tables.a_rows(nmax),
                         itertools.repeat(list(wall_tables.a_alt_columns(nmax)))),
        lambda n, k, a, cols: cols[k][n] == a[k],
    ),
    "catalan-base": Check(
        {"nmax": 30}, "n <= {nmax}",
        lambda nmax: (((n,), layer[n][0] == c_n)
                      for (n, layer), c_n in zip(_b3_walk(nmax, 0),
                                                 series_engine.catalan_series(nmax))),
    ),
    "hook-base": Check(
        {"nmax": 15}, "n <= {nmax}",
        lambda nmax: (((n, m), layer[m][0] == wall_tables.b3_hook(n, m))
                      for n, layer in _b3_walk(nmax, 0) for m in range(n + 1)),
    ),
    "omega-bridge": Check(
        {"nmax": 14}, "n + m <= {nmax}, k <= m + 1",
        lambda nmax: (
            ((s - m, m, k), omega[k][s - m] == (b3[m][k] if k <= m else 0))
            for (s, b3), omega in zip(_b3_walk(nmax, nmax), wall_tables.omega_layers(nmax + 1))
            for m in range(s, -1, -1) for k in range(m + 2)
        ),
    ),
    "omega-vanishing": Check(
        {"nmax": 10, "kmax": 6}, "n <= {nmax}, k <= {kmax}",
        _omega_vanishing,
    ),
    "omega-init-vanishing": Check(
        {"kmax": 8}, "k <= {kmax}", _gamma_sum,
    ),
    "cor-rec": _on_walks(
        20,
        lambda nmax: zip(wall_tables.b_rows(nmax), wall_tables.b3_layers(nmax)),
        lambda n, k, b, layer: b[k] == layer[n][k],
    ),
    "closed-a": _on_walks(
        25, lambda nmax: zip(wall_tables.a_rows(nmax)),
        lambda n, k, a: closed_forms.a_closed(n, k) == a[k],
    ),
    "closed-b": _on_walks(  # b off the b3 diagonal: b_closed is a_closed's conjugate
        25,
        lambda nmax: zip(wall_tables.b3_layers(nmax)),
        lambda n, k, layer: closed_forms.b_closed(n, k) == layer[n][k],
    ),
    "gamma-sum": Check(
        {"kmax": 40}, "k <= {kmax}", _gamma_sum,
    ),
    "delta-rec": Check(
        {"kmax": 20}, "i <= {kmax}", _gamma_sum,
    ),
    "lemma28": Check(
        {"nmax": 8, "kmax": 5},
        "n <= {nmax}, k <= {kmax}, all s", _lemma28,
    ),
    "lemma29": Check(
        {"nmax": 8, "kmax": 6},
        "n <= {nmax}, k <= {kmax}, i <= k",
        lambda nmax, kmax: (((n, k, i), closed_forms.lemma29_check(n, k, i))
                            for n, k in itertools.product(range(1, nmax + 1), range(1, kmax + 1))
                            for i in range(k + 1)),
    ),
    "stock-series": Check(
        {"order": 30}, "order {order}", _stock_series,
    ),
    "dk-threeway": Check(
        {"kmax": 8, "order": 20},
        "k <= {kmax}, order {order}", _dk_threeway,
    ),
    "kernel-residual": Check(
        {"kmax": 5, "order": 12},
        "k <= {kmax}, rectangle {order} x {order}", _kernel_residual,
    ),
    "bk-rect": Check(
        {"kmax": 5, "order": 12},
        "k <= {kmax}, rectangle {order} x {order}", _bk_rect,
    ),
    "b0-hook": Check(
        {"nmax": 12}, "rectangle {nmax} x {nmax}",
        _b0_hook,
    ),
    "f-rec": Check(
        {"nmax": 12}, "n <= {nmax}",
        lambda nmax: (((n, k), poset_lab.f_closed(n, k) == poset_lab.f_closed(n - 1, k)
                       + (n + k - 1) * poset_lab.f_closed(n - 1, k - 1))
                      for n in range(1, nmax + 1) for k in range(1, n + 1)),
    ),
    "f-gf": Check(
        {"kmax": 6, "order": 12},
        "k <= {kmax}, n <= {order}",
        lambda kmax, order: (((n, k), poset_lab.f_closed(n, k)
                              == double_factorial(2 * k - 1) * binomial(n + k, 2 * k))
                             for k in range(kmax + 1) for n in range(order + 1)),
    ),
    "bu-roundtrip": _on_walks(
        8,
        lambda nmax: zip(wall_tables.b_rows(nmax), poset_lab.u_rows(nmax)),
        lambda n, k, b, u: poset_lab.b_from_u(n, k, u) == b[k],
    ),
    "b12": _on_walks(
        8,
        lambda nmax: zip(wall_tables.b_rows(nmax), _kept(poset_lab.u_rows(nmax))),
        lambda n, k, b, u: binomial(2 * n + k, n) * poset_lab.f_closed(n, k)
        - poset_lab.r_sum(n, k, u) == b[k],
        start=1,
    ),
    "monster": _on_walks(
        12, lambda nmax: zip(_kept(wall_tables.b_rows(nmax))),
        lambda n, k, b: poset_lab.b_monster(n, k, b) == b[n][k], start=1,
    ),
    "tc-routes": Check(  # a(n-1, .) beside tc(n, .), one row of each walk kept
        {"nmax": 15},
        "n <= {nmax}, two routes, one recurrence",
        lambda nmax: (((n, k), tree_child.tc_from_a(n, k, a[k]) == rec[k])
                      for n, a, rec in zip(range(1, nmax + 1), wall_tables.a_rows(nmax),
                                           wall_tables.tc_rec_rows(nmax))
                      for k in range(n)),
    ),
    "tc-dfact": Check(
        {"nmax": 15}, "n <= {nmax}",
        lambda nmax: (((n,), tree_child.tc_from_a(n, 0, a[0]) == double_factorial(2 * n - 3))
                      for n, a in zip(range(1, nmax + 1), wall_tables.a_rows(0))),
    ),
}
