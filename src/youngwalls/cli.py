"""Command line front end.

Subcommands:

* ``table``      print a counting table (grid for 2-index sequences,
                 long form for 3-index ones)
* ``verify``     run named identity checks from a registry (``--check all``)
* ``series``     print D_k coefficients by one of the three routes
* ``oracle``     compare a recurrence value against brute-force enumeration
* ``crosscheck`` compare a 1-D slice against an OEIS b-file (the bundled
                 fixtures; nothing is fetched)
* ``asym``       asymptotic estimate vs exact value, log-space error

Exit codes: 0 success, 1 a verification or comparison failed (or a value
that an identity makes integral came out otherwise), 2 usage error (also a
``verify`` check whose bounds select no cell), 3 capacity exceeded.
Integers in JSON are decimal strings so no consumer ever rounds them.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import partial
from itertools import groupby

from . import closed_forms, poset_lab, series_engine, tree_child, wall_tables
from .exact_arith import NotIntegralError, binomial, double_factorial, factorial
from .record import Record

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

Cell = tuple[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# table command


def _table_cells(args: argparse.Namespace) -> list[Cell]:
    seq, nmax = args.seq, args.nmax
    sliced = args.k is not None or args.diag
    if args.k is not None and args.diag:
        raise _Usage("--k and --diag are mutually exclusive")

    two_index: dict[str, Callable[[int, int], int]] = {
        "a": wall_tables.a_rec,
        "b": wall_tables.b,
        "f": poset_lab.f_closed,
        "ftilde": poset_lab.ftilde,
        "u": poset_lab.u_from_b,
        "tc": tree_child.tc,
    }

    if seq in two_index:
        if seq == "tc" and args.diag:
            raise _Usage("tc has no diagonal: its domain is k <= n-1")
        fn = two_index[seq]
        cells: list[Cell] = []
        for n in range(1 if seq in ("ftilde", "tc") else 0, nmax + 1):
            top = n - 1 if seq == "tc" else n
            if sliced:
                k = n if args.diag else args.k
                if k <= top:
                    cells.append(((n,), fn(n, k)))
                continue
            if args.kmax is not None:
                top = min(top, args.kmax)
            for k in range(top + 1):
                cells.append(((n, k), fn(n, k)))
        if sliced and not cells:
            raise _Usage(f"no row of {seq} with n <= {nmax} reaches the slice")
        return cells

    if sliced:
        raise _Usage("slices are only available for 2-index sequences")
    if seq == "b3":
        cells = []
        for n in range(nmax + 1):
            m_top = n if args.mmax is None else min(n, args.mmax)
            for m in range(m_top + 1):
                top = m if args.kmax is None else min(m, args.kmax)
                for k in range(top + 1):
                    cells.append(((n, m, k), wall_tables.b3(n, m, k)))
        return cells

    # omega
    mmax = args.mmax if args.mmax is not None else nmax
    kmax = args.kmax if args.kmax is not None else mmax + 1
    block = wall_tables.omega_block(nmax, mmax, kmax)
    return [
        ((n, m, k), v)
        for n, row in enumerate(block)
        for m, cell in enumerate(row)
        for k, v in enumerate(cell)
    ]


def _render_cells(args: argparse.Namespace, cells: list[Cell], out: "TextIO") -> None:
    fmt = args.format
    if fmt == "json":
        import json  # only JSON output pays for the encoder

        doc = {
            "seq": args.seq,
            "cells": [[*idx, str(v)] for idx, v in cells],
        }
        print(json.dumps(doc, indent=None, separators=(",", ":")), file=out)
        return
    if fmt == "bfile":
        if args.k is None and not args.diag:
            raise _Usage("bfile output needs a 1-D slice (--k or --diag)")
        for (n,), v in cells:
            print(f"{n} {v}", file=out)
        return
    sep = "," if fmt == "csv" else " "
    if cells and len(cells[0][0]) == 2:
        # grid: one output row per n, cells in k order
        for _, row in groupby(cells, key=lambda cell: cell[0][0]):
            print(sep.join(str(v) for _, v in row), file=out)
        return
    for idx, v in cells:
        print(sep.join(str(i) for i in idx) + sep + str(v), file=out)


def run_table(args: argparse.Namespace, out: "TextIO") -> int:
    _render_cells(args, _table_cells(args), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# series command


def run_series(args: argparse.Namespace, out: "TextIO") -> int:
    k, order = args.dk, args.order
    if args.method == "recurrence":
        s = series_engine.dk_from_table(k, order)
    elif args.method == "closed":
        if k == 0:
            raise _Usage("the closed route needs --dk >= 1 (its gamma sum degenerates at 0)")
        s = series_engine.dk_closed(k, order)
    else:  # kernel; level 0 is the chain's initial condition, served directly
        s = series_engine.catalan_series(order) if k == 0 else series_engine.dk_kernel(k, order)
    print(s.to_text(), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle command


def run_oracle(args: argparse.Namespace, out: "TextIO") -> int:
    seq, n, k, m = args.seq, args.n, args.k, args.m
    if seq == "a":
        brute, fast = poset_lab.a_brute(n, k), wall_tables.a_rec(n, k)
    elif seq == "b":
        brute, fast = poset_lab.b_brute(n, k), wall_tables.b(n, k)
    else:  # b3
        if m is None:
            raise _Usage("oracle --seq b3 needs --m")
        brute, fast = poset_lab.b3_brute(n, m, k), wall_tables.b3(n, m, k)
    verdict = "agree" if brute == fast else "disagree"
    print(f"brute={brute} table={fast} {verdict}", file=out)
    return EXIT_OK if brute == fast else EXIT_FAIL


# ---------------------------------------------------------------------------
# crosscheck command

OEIS_MAPS: dict[str, tuple[str, int, Callable[[int], int]]] = {
    "b-k0": ("A000108", 0, lambda n: wall_tables.b(n, 0)),
    "a-diag": ("A213863", 0, lambda n: wall_tables.a_rec(n, n)),
    "a-k1": ("A122649", 1, lambda n: wall_tables.a_rec(n, 1)),
    "b-k1": ("A000531", 1, lambda n: wall_tables.b(n, 1)),
}


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse OEIS b-file lines "index value", skipping comments and blanks."""
    terms = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, val = line.split()
        terms.append((int(idx), int(val)))
    return terms


def _fixture_bfile(oeis_id: str) -> str:
    from importlib import resources  # only crosscheck reads package data

    name = f"b{oeis_id[1:]}.txt"
    return (resources.files("youngwalls") / "oeis_fixtures" / name).read_text()


def run_crosscheck(args: argparse.Namespace, out: "TextIO") -> int:
    if args.map not in OEIS_MAPS:
        raise _Usage(f"unknown map {args.map!r}; choose from {sorted(OEIS_MAPS)}")
    oeis_id, offset, fn = OEIS_MAPS[args.map]
    if args.oeis is not None and args.oeis != oeis_id:
        raise _Usage(f"map {args.map} is tied to {oeis_id}, not {args.oeis}")
    text = _fixture_bfile(oeis_id)
    cap = args.nmax if args.nmax is not None else 60
    checked = []
    for idx, val in parse_bfile(text):
        if idx < offset or idx > cap:
            continue
        ours = fn(idx)
        if ours != val:
            print(
                f"{oeis_id} <-> {args.map}: mismatch at n={idx}: ours={ours} oeis={val}",
                file=out,
            )
            return EXIT_FAIL
        checked.append(idx)
    if not checked:
        print(f"{oeis_id} <-> {args.map}: no overlapping terms", file=out)
        return EXIT_FAIL
    print(
        f"{oeis_id} <-> {args.map}: n={checked[0]}..{checked[-1]} agree "
        f"({len(checked)} terms, offset {offset})",
        file=out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# asym command


def _sci_from_log(log_value: float) -> str:
    """exp(log_value) in the %.6e shape, for values past the float range."""
    exponent, frac = divmod(log_value / math.log(10), 1)
    mantissa = f"{10**frac:.6f}"
    if mantissa == "10.000000":
        mantissa, exponent = "1.000000", exponent + 1
    return f"{mantissa}e{int(exponent):+03d}"


def run_asym(args: argparse.Namespace, out: "TextIO") -> int:
    est = tree_child.tc_asym(args.n, args.k)
    if math.isfinite(est):
        shown = f"{est:.6e}"
    else:  # the estimate overflows a double long before its log does
        shown = _sci_from_log(tree_child.tc_asym_log(args.n, args.k))
    exact = tree_child.tc(args.n, args.k)
    rel = tree_child.tc_asym_rel_error(args.n, args.k)
    print(f"estimate={shown} exact={exact} rel_error={rel:.3e}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command: the identity registry


class Check(Record):
    """One identity: ``holds(*cell)`` for every cell of ``cells(**bounds)``.

    ``bounds`` are the defaults that ``--nmax``, ``--kmax`` and ``--order``
    override; ``domain`` is formatted with the bounds in effect.
    """

    __slots__ = ("summary", "bounds", "domain", "cells", "holds")
    summary: str
    bounds: dict[str, int]
    domain: str
    cells: Callable[..., Iterable[tuple[int, ...]]]
    holds: Callable[..., bool]

    def run(self, **overrides: int | None) -> tuple[bool | None, str]:
        """Visit the cells in order and stop at the first that fails.

        Returns (False, "fails at (cell)") at the first failing cell, else
        (True, domain), or (None, domain) when the domain holds no cell.
        """
        bounds = dict(self.bounds)
        bounds.update((b, v) for b, v in overrides.items() if b in bounds and v is not None)
        visited = 0
        for cell in self.cells(**bounds):
            if not self.holds(*cell):
                return False, f"fails at ({', '.join(map(str, cell))})"
            visited += 1
        return (True if visited else None), self.domain.format(**bounds)


def _upto(top: int, start: int = 0) -> Iterator[tuple[int]]:
    """One-index cells (i,) for start <= i <= top."""
    return ((i,) for i in range(start, top + 1))


def _triangle(nmax: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """(n, k) for start <= n <= nmax and k <= n, row by row."""
    return ((n, k) for n in range(start, nmax + 1) for k in range(n + 1))


def _rect(nmax: int, kmax: int) -> Iterator[tuple[int, int]]:
    """(n, k) for 1 <= n <= nmax and 1 <= k <= kmax, row by row."""
    return ((n, k) for n in range(1, nmax + 1) for k in range(1, kmax + 1))


def _levels(kmax: int, order: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """(k, order) for start <= k <= kmax."""
    return ((k, order) for k in range(start, kmax + 1))


def _on_triangle(summary: str, nmax: int, holds: Callable[..., bool], start: int = 0) -> Check:
    return Check(summary, {"nmax": nmax}, "n <= {nmax}", partial(_triangle, start=start), holds)


def _dk_threeway(k: int, order: int) -> bool:
    table, closed, kernel = series_engine.dk_threeway(k, order)
    return table == closed == kernel


def _gamma_sum(k: int) -> bool:
    return 0 == sum(
        closed_forms.gamma(k - i) * Fraction(double_factorial(3 * k + i - 3), factorial(i))
        for i in range(k + 1)
    )


def _delta_rec(i: int) -> bool:
    rhs = -sum(
        Fraction(binomial(i, j) * double_factorial(3 * i + j - 3), double_factorial(3 * i - 3))
        * closed_forms.delta(i - j)
        for j in range(1, i + 1)
    )
    return closed_forms.delta(i) == rhs


def _stock_series(order: int) -> bool:
    """Half-power square, central binomials, Catalan equation, kernel root."""
    one = series_engine.TSeries.one(order)
    half = series_engine.neg_pow_series(Fraction(1, 2), order)
    c = series_engine.catalan_series(order)
    x2 = series_engine.x2_series(order)
    return (
        half * half == series_engine.neg_pow_series(1, order)
        and all(c_n == binomial(2 * n, n) for n, c_n in enumerate(half.coeffs))
        and one + (c * c).shift_up(1) == c
        and x2 * x2 - x2 + one.shift_up(1) == series_engine.TSeries.zero(order)
    )


def _kernel_residual(k: int, order: int) -> bool:
    f, d, b = series_engine.kernel_chain(k, 2 * order)
    res = series_engine.kernel_residual(b, f, d)
    return all(res.entry(j, n) == 0 for j in range(order + 1) for n in range(order + 1))


def _bk_rect(k: int, order: int) -> bool:
    _, _, b = series_engine.kernel_chain(k, 2 * order)
    return b.truncate(order, order) == series_engine.bk_from_table(k, order, order)


def _b0_hook(nmax: int) -> bool:
    _, _, b0 = series_engine.kernel_chain(0, 2 * nmax)
    square = range(nmax + 1)
    return all(b0.entry(j, m) == wall_tables.b3_hook(m + j, m) for j in square for m in square)


def _tc_routes(n: int, k: int) -> bool:
    tc = tree_child
    values = [tc.tc(n, k), tc.tc_via_b(n, k), tc.tc_rec(n, k), tc.tc_sum(n, k), tc.tc_closed(n, k)]
    return len(set(values)) == 1 and (k == 0 or tc.tc_chain(k, n - k - 1) == values[0])


CHECKS: dict[str, Check] = {
    "main-identity": _on_triangle(
        "2^(n-k) a(n,k) = (n-k+1)! b(n,k)", 30,
        lambda n, k: 2 ** (n - k) * wall_tables.a_rec(n, k)
        == factorial(n - k + 1) * wall_tables.b(n, k),
    ),
    "a-alt": _on_triangle(
        "column expansion matches the one-step recurrence", 20,
        lambda n, k: wall_tables.a_alt(n, k) == wall_tables.a_rec(n, k),
    ),
    "catalan-base": Check(
        "b(n,0) is Catalan", {"nmax": 30}, "n <= {nmax}", lambda nmax: _upto(nmax),
        lambda n: wall_tables.b(n, 0) == binomial(2 * n, n) // (n + 1),
    ),
    "hook-base": _on_triangle(
        "b3(n,m,0) matches the ballot closed form", 15,
        lambda n, m: wall_tables.b3(n, m, 0) == wall_tables.b3_hook(n, m),
    ),
    "omega-bridge": Check(
        "omega(n,m,k) = b3(n+m,m,k)", {"nmax": 14}, "n + m <= {nmax}, k <= m + 1",
        lambda nmax: (
            (n, m, k) for n in range(nmax + 1) for m in range(nmax - n + 1) for k in range(m + 2)
        ),
        lambda n, m, k: wall_tables.omega(n, m, k) == wall_tables.b3(n + m, m, k),
    ),
    "omega-vanishing": Check(
        "omega(n,k-1,k) = 0", {"nmax": 10, "kmax": 6}, "n <= {nmax}, k <= {kmax}",
        lambda nmax, kmax: ((n, k) for k in range(1, kmax + 1) for n in range(nmax + 1)),
        lambda n, k: wall_tables.omega(n, k - 1, k) == 0,
    ),
    "omega-init-vanishing": Check(
        "seed row vanishes at k = m+1", {"kmax": 8}, "k <= {kmax}", lambda kmax: _upto(kmax, 1),
        lambda k: closed_forms.omega_init(k - 1, k) == 0,
    ),
    "cor-rec": _on_triangle(
        "rational two-term recurrence matches b", 20,
        lambda n, k: wall_tables.b_cor_rec(n, k) == wall_tables.b(n, k),
    ),
    "closed-a": _on_triangle(
        "gamma closed form matches a", 25,
        lambda n, k: closed_forms.a_closed(n, k) == wall_tables.a_rec(n, k),
    ),
    "closed-b": _on_triangle(
        "gamma closed form matches b", 25,
        lambda n, k: closed_forms.b_closed(n, k) == wall_tables.b(n, k),
    ),
    "gamma-sum": Check(
        "defining gamma sum telescopes to zero", {"kmax": 40}, "k <= {kmax}",
        lambda kmax: _upto(kmax, 1), _gamma_sum,
    ),
    "delta-rec": Check(
        "delta recursion consistent with k! gamma_k", {"kmax": 20}, "i <= {kmax}",
        lambda kmax: _upto(kmax, 1), _delta_rec,
    ),
    "lemma28": Check(
        "unfolded boundary sum vanishes", {"nmax": 8, "kmax": 5},
        "n <= {nmax}, k <= {kmax}, all s",
        lambda nmax, kmax: ((n, k, s) for n, k in _rect(nmax, kmax) for s in range(1, n + 1)),
        lambda n, k, s: closed_forms.lemma28_rhs(n, k, s, wall_tables.omega) == 0,
    ),
    "lemma29": Check(
        "closing double-factorial identity", {"nmax": 8, "kmax": 6},
        "n <= {nmax}, k <= {kmax}, i <= k",
        lambda nmax, kmax: ((n, k, i) for n, k in _rect(nmax, kmax) for i in range(k + 1)),
        lambda n, k, i: closed_forms.lemma29_check(n, k, i),
    ),
    "stock-series": Check(
        "Catalan / kernel-root / power sanity", {"order": 30}, "order {order}",
        lambda order: [(order,)], _stock_series,
    ),
    "dk-threeway": Check(
        "table, closed and kernel D_k agree", {"kmax": 8, "order": 20},
        "k <= {kmax}, order {order}", lambda kmax, order: _levels(kmax, order, 1), _dk_threeway,
    ),
    "kernel-residual": Check(
        "(x - x^2 - t) B = x F - t D exactly", {"kmax": 5, "order": 12},
        "k <= {kmax}, rectangle {order} x {order}", _levels, _kernel_residual,
    ),
    "bk-rect": Check(
        "kernel B_k rectangle matches the table", {"kmax": 5, "order": 12},
        "k <= {kmax}, rectangle {order} x {order}", _levels, _bk_rect,
    ),
    "b0-hook": Check(
        "wall-free B_0 entries are ballot numbers", {"nmax": 12}, "rectangle {nmax} x {nmax}",
        lambda nmax: [(nmax,)], _b0_hook,
    ),
    "f-rec": Check(
        "pendant-family recurrence", {"nmax": 12}, "n <= {nmax}",
        lambda nmax: ((n, k) for n in range(1, nmax + 1) for k in range(1, n + 1)),
        lambda n, k: poset_lab.f_closed(n, k)
        == poset_lab.f_closed(n - 1, k) + (n + k - 1) * poset_lab.f_closed(n - 1, k - 1),
    ),
    "f-gf": Check(
        "pendant-family generating function", {"kmax": 6, "order": 12},
        "k <= {kmax}, n <= {order}",
        lambda kmax, order: ((n, k) for k in range(kmax + 1) for n in range(order + 1)),
        lambda n, k: poset_lab.f_closed(n, k)
        == double_factorial(2 * k - 1) * binomial(n + k, 2 * k),
    ),
    "bu-roundtrip": _on_triangle(
        "alternating transforms invert", 8,
        lambda n, k: poset_lab.b_from_u(n, k) == wall_tables.b(n, k),
    ),
    "b12": _on_triangle(
        "binomial f minus r reproduces b", 8,
        lambda n, k: binomial(2 * n + k, n) * poset_lab.f_closed(n, k) - poset_lab.r_sum(n, k)
        == wall_tables.b(n, k),
        start=1,
    ),
    "monster": _on_triangle(
        "grand recurrence reproduces b", 12,
        lambda n, k: poset_lab.b_monster(n, k) == wall_tables.b(n, k), start=1,
    ),
    "tc-routes": Check(
        "six exact tree-child routes agree", {"nmax": 15}, "n <= {nmax}, six routes",
        lambda nmax: ((n, k) for n in range(1, nmax + 1) for k in range(n)), _tc_routes,
    ),
    "tc-dfact": Check(
        "tc(n,0) = (2n-3)!!", {"nmax": 15}, "n <= {nmax}", lambda nmax: _upto(nmax, 1),
        lambda n: tree_child.tc(n, 0) == double_factorial(2 * n - 3),
    ),
}


def run_verify(args: argparse.Namespace, out: "TextIO") -> int:
    names = sorted(CHECKS) if args.check == "all" else [args.check]
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise _Usage(f"unknown check {unknown[0]!r}; choose from {sorted(CHECKS)} or 'all'")
    statuses = set()
    for name in names:
        ok, detail = CHECKS[name].run(nmax=args.nmax, kmax=args.kmax, order=args.order)
        status = {True: "PASS", False: "FAIL", None: "EMPTY"}[ok]
        print(f"{name}: {status} ({detail})", file=out)
        statuses.add(status)
    if "FAIL" in statuses:
        return EXIT_FAIL
    # a check whose bounds select no cell proved nothing
    return EXIT_USAGE if "EMPTY" in statuses else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Usage(ValueError):
    """Command line misuse detected after argparse."""


def _count(text: str) -> int:
    """argparse type of every count and bound flag: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="walls", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print a counting table")
    p.add_argument("--seq", required=True, choices=["a", "b", "b3", "omega", "tc", "f", "ftilde", "u"])
    p.add_argument("--nmax", type=_count, required=True)
    p.add_argument("--kmax", type=_count)
    p.add_argument("--mmax", type=_count)
    p.add_argument("--k", type=_count, help="emit the 1-D slice at this k")
    p.add_argument("--diag", action="store_true", help="emit the diagonal slice")
    p.add_argument("--format", default="csv", choices=["csv", "text", "json", "bfile"])

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--check", required=True, help="registry name, or 'all'")
    p.add_argument("--nmax", type=_count)
    p.add_argument("--kmax", type=_count)
    p.add_argument("--order", type=_count)

    p = sub.add_parser("series", help="print D_k coefficients")
    p.add_argument("--dk", type=_count, required=True)
    p.add_argument("--order", type=_count, required=True)
    p.add_argument("--method", default="recurrence", choices=["recurrence", "closed", "kernel"])

    p = sub.add_parser("oracle", help="brute-force comparison")
    p.add_argument("--seq", required=True, choices=["a", "b", "b3"])
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--m", type=_count)

    p = sub.add_parser("crosscheck", help="compare a slice against an OEIS b-file")
    p.add_argument("--map", required=True, help=f"one of {sorted(OEIS_MAPS)}")
    p.add_argument("--oeis", help="expected OEIS id (sanity check)")
    p.add_argument("--nmax", type=_count)
    p.add_argument("--offline", action="store_true", help="accepted for compatibility; "
                   "every crosscheck reads the bundled fixtures")

    p = sub.add_parser("asym", help="asymptotic estimate vs exact count")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--k", type=_count, required=True)

    return top


_RUNNERS = {
    "table": run_table,
    "verify": run_verify,
    "series": run_series,
    "oracle": run_oracle,
    "crosscheck": run_crosscheck,
    "asym": run_asym,
}


def main(argv: list[str] | None = None, out: "TextIO | None" = None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # counts run to thousands of digits; lift the decimal conversion limit
    # (absent before 3.10.7) for this call only
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _RUNNERS[args.command](args, out)
    except poset_lab.CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotIntegralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
