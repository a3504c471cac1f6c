"""Command line front end.

Subcommands:

* ``table``      print a counting table (grid for 2-index sequences,
                 long form for 3-index ones)
* ``verify``     run named identity checks from a registry (``--check all``)
* ``series``     print D_k coefficients by one of the three routes
* ``oracle``     compare a recurrence value against brute-force enumeration
* ``crosscheck`` compare a 1-D slice against an OEIS b-file (offline
                 fixtures bundled; live fetch optional)
* ``asym``       asymptotic estimate vs exact value, log-space error

Exit codes: 0 success, 1 a verification or comparison failed (or a value
that an identity makes integral came out otherwise), 2 usage error, 3
capacity exceeded.  Integers in JSON are decimal strings so no consumer
ever rounds them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, TextIO

from . import closed_forms, poset_lab, series_engine, tree_child, wall_tables
from .exact_arith import NotIntegralError, binomial, double_factorial, factorial

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

Cell = tuple[tuple[int, ...], int]


@dataclass
class RunConfig:
    """Parsed invocation, normalized."""

    command: str
    seq: str | None = None
    nmax: int | None = None
    kmax: int | None = None
    mmax: int | None = None
    n: int | None = None
    k: int | None = None
    m: int | None = None
    dk: int | None = None
    order: int | None = None
    method: str = "recurrence"
    fmt: str = "csv"
    oeis: str | None = None
    map_name: str | None = None
    offline: bool = False
    check: str | None = None
    diag: bool = False

    @staticmethod
    def from_args(args: argparse.Namespace) -> "RunConfig":
        cfg = RunConfig(command=args.command)
        for name in (
            "seq", "nmax", "kmax", "mmax", "n", "k", "m", "dk", "order",
            "method", "oeis", "offline", "check", "diag",
        ):
            if hasattr(args, name):
                setattr(cfg, name, getattr(args, name))
        if hasattr(args, "format"):
            cfg.fmt = args.format
        if hasattr(args, "map"):
            cfg.map_name = getattr(args, "map")
        return cfg


# ---------------------------------------------------------------------------
# table command


def _table_cells(cfg: RunConfig) -> list[Cell]:
    seq = cfg.seq
    nmax = cfg.nmax
    if nmax is None or nmax < 0:
        raise _Usage("table needs --nmax >= 0")
    if cfg.k is not None and cfg.diag:
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
        fn = two_index[seq]
        n_lo = 1 if seq in ("ftilde", "tc") else 0
        if cfg.k is not None or cfg.diag:
            cells: list[Cell] = []
            for n in range(n_lo, nmax + 1):
                k = n if cfg.diag else cfg.k
                if seq == "tc" and k > n - 1:
                    continue
                if k > n:
                    continue
                cells.append(((n,), fn(n, k)))
            return cells
        cells = []
        for n in range(n_lo, nmax + 1):
            top = n - 1 if seq == "tc" else n
            if cfg.kmax is not None:
                top = min(top, cfg.kmax)
            for k in range(top + 1):
                cells.append(((n, k), fn(n, k)))
        return cells

    if seq == "b3":
        if cfg.k is not None or cfg.diag:
            raise _Usage("slices are only available for 2-index sequences")
        cells = []
        for n in range(nmax + 1):
            m_top = n if cfg.mmax is None else min(n, cfg.mmax)
            for m in range(m_top + 1):
                top = m if cfg.kmax is None else min(m, cfg.kmax)
                for k in range(top + 1):
                    cells.append(((n, m, k), wall_tables.b3(n, m, k)))
        return cells

    if seq == "omega":
        if cfg.k is not None or cfg.diag:
            raise _Usage("slices are only available for 2-index sequences")
        mmax = cfg.mmax if cfg.mmax is not None else nmax
        kmax = cfg.kmax if cfg.kmax is not None else mmax + 1
        block = wall_tables.omega_block(nmax, mmax, kmax)
        return [
            ((n, m, k), v)
            for n, row in enumerate(block)
            for m, cell in enumerate(row)
            for k, v in enumerate(cell)
        ]

    raise _Usage(f"unknown sequence {seq!r}")


def _render_cells(cfg: RunConfig, cells: list[Cell], out: TextIO) -> None:
    fmt = cfg.fmt
    if fmt == "json":
        doc = {
            "seq": cfg.seq,
            "cells": [[*idx, str(v)] for idx, v in cells],
        }
        print(json.dumps(doc, indent=None, separators=(",", ":")), file=out)
        return
    if fmt == "bfile":
        if cfg.k is None and not cfg.diag:
            raise _Usage("bfile output needs a 1-D slice (--k or --diag)")
        for (n,), v in cells:
            print(f"{n} {v}", file=out)
        return
    sep = "," if fmt == "csv" else " "
    if cells and len(cells[0][0]) == 2:
        # grid: one output row per n, cells in k order
        rows: dict[int, list[int]] = {}
        for (n, _), v in cells:
            rows.setdefault(n, []).append(v)
        for n in sorted(rows):
            print(sep.join(str(v) for v in rows[n]), file=out)
        return
    for idx, v in cells:
        print(sep.join(str(i) for i in idx) + sep + str(v), file=out)


def run_table(cfg: RunConfig, out: TextIO) -> int:
    _render_cells(cfg, _table_cells(cfg), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# series command


def run_series(cfg: RunConfig, out: TextIO) -> int:
    k, order = cfg.dk, cfg.order
    if k is None or k < 0 or order is None or order < 0:
        raise _Usage("series needs --dk >= 0 and --order >= 0")
    if cfg.method == "recurrence":
        s = series_engine.dk_from_table(k, order)
    elif cfg.method == "closed":
        if k == 0:
            raise _Usage("the closed route needs --dk >= 1 (its gamma sum degenerates at 0)")
        s = series_engine.dk_closed(k, order)
    elif cfg.method == "kernel":
        # level 0 is the chain's initial condition, served directly
        s = series_engine.catalan_series(order) if k == 0 else series_engine.dk_kernel(k, order)
    else:
        raise _Usage(f"unknown method {cfg.method!r}")
    print(s.to_text(), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle command


def run_oracle(cfg: RunConfig, out: TextIO) -> int:
    seq, n, k, m = cfg.seq, cfg.n, cfg.k, cfg.m
    if n is None or k is None:
        raise _Usage("oracle needs --n and --k")
    if seq == "a":
        brute, fast = poset_lab.a_brute(n, k), wall_tables.a_rec(n, k)
    elif seq == "b":
        brute, fast = poset_lab.b_brute(n, k), wall_tables.b(n, k)
    elif seq == "b3":
        if m is None:
            raise _Usage("oracle --seq b3 needs --m")
        brute, fast = poset_lab.b3_brute(n, m, k), wall_tables.b3(n, m, k)
    else:
        raise _Usage(f"oracle has no sequence {seq!r}")
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
    name = f"b{oeis_id[1:]}.txt"
    return (resources.files("youngwalls") / "oeis_fixtures" / name).read_text()


def _fetch_bfile(oeis_id: str) -> str:
    import urllib.request  # only the online crosscheck pays for http and ssl

    url = f"https://oeis.org/{oeis_id}/b{oeis_id[1:]}.txt"
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode()


def run_crosscheck(cfg: RunConfig, out: TextIO) -> int:
    if cfg.map_name not in OEIS_MAPS:
        raise _Usage(f"unknown map {cfg.map_name!r}; choose from {sorted(OEIS_MAPS)}")
    oeis_id, offset, fn = OEIS_MAPS[cfg.map_name]
    if cfg.oeis is not None and cfg.oeis != oeis_id:
        raise _Usage(f"map {cfg.map_name} is tied to {oeis_id}, not {cfg.oeis}")
    text: str | None = None
    if not cfg.offline:
        try:
            text = _fetch_bfile(oeis_id)
        except Exception as exc:  # offline sandboxes land here
            print(f"note: fetch failed ({exc}); using bundled fixture", file=sys.stderr)
    if text is None:
        text = _fixture_bfile(oeis_id)
    cap = cfg.nmax if cfg.nmax is not None else 60
    checked = []
    for idx, val in parse_bfile(text):
        if idx < offset or idx > cap:
            continue
        ours = fn(idx)
        if ours != val:
            print(
                f"{oeis_id} <-> {cfg.map_name}: mismatch at n={idx}: ours={ours} oeis={val}",
                file=out,
            )
            return EXIT_FAIL
        checked.append(idx)
    if not checked:
        print(f"{oeis_id} <-> {cfg.map_name}: no overlapping terms", file=out)
        return EXIT_FAIL
    print(
        f"{oeis_id} <-> {cfg.map_name}: n={checked[0]}..{checked[-1]} agree "
        f"({len(checked)} terms, offset {offset})",
        file=out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# asym command


def run_asym(cfg: RunConfig, out: TextIO) -> int:
    if cfg.n is None or cfg.k is None:
        raise _Usage("asym needs --n and --k")
    est = tree_child.tc_asym(cfg.n, cfg.k)
    exact = tree_child.tc(cfg.n, cfg.k)
    rel = tree_child.tc_asym_rel_error(cfg.n, cfg.k)
    print(f"estimate={est:.6e} exact={exact} rel_error={rel:.3e}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command: the identity registry


def _check_main_identity(nmax: int) -> tuple[bool, str]:
    for n in range(nmax + 1):
        for k in range(n + 1):
            if 2 ** (n - k) * wall_tables.a_rec(n, k) != factorial(n - k + 1) * wall_tables.b(n, k):
                return False, f"fails at ({n}, {k})"
    return True, f"n <= {nmax}"


def _check_a_alt(nmax: int) -> tuple[bool, str]:
    ok = all(
        wall_tables.a_alt(n, k) == wall_tables.a_rec(n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_catalan_base(nmax: int) -> tuple[bool, str]:
    ok = all(
        wall_tables.b(n, 0) == binomial(2 * n, n) // (n + 1) for n in range(nmax + 1)
    )
    return ok, f"n <= {nmax}"


def _check_hook_base(nmax: int) -> tuple[bool, str]:
    ok = all(
        wall_tables.b3(n, m, 0) == wall_tables.b3_hook(n, m)
        for n in range(nmax + 1)
        for m in range(n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_omega_bridge(nmax: int) -> tuple[bool, str]:
    for n in range(nmax + 1):
        for m in range(nmax - n + 1):
            for k in range(m + 2):
                if wall_tables.omega(n, m, k) != wall_tables.b3(n + m, m, k):
                    return False, f"fails at ({n}, {m}, {k})"
    return True, f"n + m <= {nmax}, k <= m + 1"


def _check_omega_vanishing(nmax: int, kmax: int) -> tuple[bool, str]:
    ok = all(
        wall_tables.omega(n, k - 1, k) == 0
        for k in range(1, kmax + 1)
        for n in range(nmax + 1)
    )
    return ok, f"n <= {nmax}, k <= {kmax}"


def _check_omega_init_vanishing(kmax: int) -> tuple[bool, str]:
    ok = all(closed_forms.omega_init(k - 1, k) == 0 for k in range(1, kmax + 1))
    return ok, f"k <= {kmax}"


def _check_cor_rec(nmax: int) -> tuple[bool, str]:
    ok = all(
        wall_tables.b_cor_rec(n, k) == wall_tables.b(n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_closed_a(nmax: int) -> tuple[bool, str]:
    ok = all(
        closed_forms.a_closed(n, k) == wall_tables.a_rec(n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_closed_b(nmax: int) -> tuple[bool, str]:
    ok = all(
        closed_forms.b_closed(n, k) == wall_tables.b(n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_gamma_sum(kmax: int) -> tuple[bool, str]:
    for k in range(1, kmax + 1):
        acc = Fraction(0)
        for i in range(k + 1):
            acc += closed_forms.gamma(k - i) * Fraction(
                double_factorial(3 * k + i - 3), factorial(i)
            )
        if acc != 0:
            return False, f"fails at k = {k}"
    return True, f"k <= {kmax}"


def _check_delta_rec(kmax: int) -> tuple[bool, str]:
    for i in range(1, kmax + 1):
        rhs = -sum(
            Fraction(binomial(i, j) * double_factorial(3 * i + j - 3), double_factorial(3 * i - 3))
            * closed_forms.delta(i - j)
            for j in range(1, i + 1)
        )
        if closed_forms.delta(i) != rhs:
            return False, f"fails at i = {i}"
    return True, f"i <= {kmax}"


def _check_lemma28(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(1, nmax + 1):
        for k in range(1, kmax + 1):
            for s in range(1, n + 1):
                if closed_forms.lemma28_rhs(n, k, s, wall_tables.omega) != 0:
                    return False, f"fails at (n={n}, k={k}, s={s})"
    return True, f"n <= {nmax}, k <= {kmax}, all s"


def _check_lemma29(nmax: int, kmax: int) -> tuple[bool, str]:
    ok = all(
        closed_forms.lemma29_check(n, k, i)
        for n in range(1, nmax + 1)
        for k in range(1, kmax + 1)
        for i in range(k + 1)
    )
    return ok, f"n <= {nmax}, k <= {kmax}, i <= k"


def _check_stock_series(order: int) -> tuple[bool, str]:
    half = series_engine.neg_pow_series(Fraction(1, 2), order)
    if half * half != series_engine.neg_pow_series(1, order):
        return False, "square of the half power is off"
    if any(
        c != binomial(2 * n, n) for n, c in enumerate(half.coeffs)
    ):
        return False, "central binomials are off"
    c = series_engine.catalan_series(order)
    if series_engine.TSeries.one(order) + (c * c).shift_up(1) != c:
        return False, "Catalan functional equation fails"
    x2 = series_engine.x2_series(order)
    t = series_engine.TSeries.one(order).shift_up(1)
    if x2 * x2 - x2 + t != series_engine.TSeries.zero(order):
        return False, "kernel root equation fails"
    return True, f"order {order}"


def _check_dk_threeway(kmax: int, order: int) -> tuple[bool, str]:
    for k in range(1, kmax + 1):
        table, closed, kernel = series_engine.dk_threeway(k, order)
        if not table == closed == kernel:
            return False, f"routes disagree at k = {k}"
    return True, f"k <= {kmax}, order {order}"


def _check_kernel_residual(kmax: int, order: int) -> tuple[bool, str]:
    for k in range(kmax + 1):
        f, d, b = series_engine.kernel_chain(k, 2 * order)
        res = series_engine.kernel_residual(b, f, d)
        for j in range(order + 1):
            for n in range(order + 1):
                if res.entry(j, n) != 0:
                    return False, f"residual nonzero at k={k}, ({j}, {n})"
    return True, f"k <= {kmax}, rectangle {order} x {order}"


def _check_bk_rect(kmax: int, order: int) -> tuple[bool, str]:
    for k in range(kmax + 1):
        _, _, b = series_engine.kernel_chain(k, 2 * order)
        if b.truncate(order, order) != series_engine.bk_from_table(k, order, order):
            return False, f"rectangle differs at k = {k}"
    return True, f"k <= {kmax}, rectangle {order} x {order}"


def _check_b0_hook(nmax: int) -> tuple[bool, str]:
    _, _, b0 = series_engine.kernel_chain(0, 2 * nmax)
    for j in range(nmax + 1):
        for m in range(nmax + 1):
            if b0.entry(j, m) != wall_tables.b3_hook(m + j, m):
                return False, f"fails at (j={j}, m={m})"
    return True, f"rectangle {nmax} x {nmax}"


def _check_f_rec(nmax: int) -> tuple[bool, str]:
    ok = all(
        poset_lab.f_closed(n, k)
        == poset_lab.f_closed(n - 1, k) + (n + k - 1) * poset_lab.f_closed(n - 1, k - 1)
        for n in range(1, nmax + 1)
        for k in range(1, n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_f_gf(kmax: int, order: int) -> tuple[bool, str]:
    for k in range(kmax + 1):
        for n in range(order + 1):
            expect = double_factorial(2 * k - 1) * binomial(n + k, 2 * k)
            if poset_lab.f_closed(n, k) != expect:
                return False, f"fails at (n={n}, k={k})"
    return True, f"k <= {kmax}, n <= {order}"


def _check_bu_roundtrip(nmax: int) -> tuple[bool, str]:
    ok = all(
        poset_lab.b_from_u(n, k) == wall_tables.b(n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_b12(nmax: int) -> tuple[bool, str]:
    for n in range(1, nmax + 1):
        for k in range(n + 1):
            lhs = binomial(2 * n + k, n) * poset_lab.f_closed(n, k) - poset_lab.r_sum(n, k)
            if lhs != wall_tables.b(n, k):
                return False, f"fails at ({n}, {k})"
    return True, f"n <= {nmax}"


def _check_monster(nmax: int) -> tuple[bool, str]:
    ok = all(
        poset_lab.b_monster(n, k) == wall_tables.b(n, k)
        for n in range(1, nmax + 1)
        for k in range(n + 1)
    )
    return ok, f"n <= {nmax}"


def _check_tc_routes(nmax: int) -> tuple[bool, str]:
    for n in range(1, nmax + 1):
        for k in range(n):
            base = tree_child.tc(n, k)
            others = (
                tree_child.tc_via_b(n, k),
                tree_child.tc_rec(n, k),
                tree_child.tc_sum(n, k),
                tree_child.tc_closed(n, k),
            )
            if any(o != base for o in others):
                return False, f"routes disagree at ({n}, {k})"
            if k >= 1 and tree_child.tc_chain(k, n - k - 1) != base:
                return False, f"chain route disagrees at ({n}, {k})"
    return True, f"n <= {nmax}, six routes"


def _check_tc_dfact(nmax: int) -> tuple[bool, str]:
    ok = all(
        tree_child.tc(n, 0) == double_factorial(2 * n - 3) for n in range(1, nmax + 1)
    )
    return ok, f"n <= {nmax}"


@dataclass(frozen=True)
class Check:
    run: Callable[[RunConfig], tuple[bool, str]]
    summary: str


def _mk(fn: Callable[..., tuple[bool, str]], summary: str, **defaults) -> Check:
    def run(cfg: RunConfig) -> tuple[bool, str]:
        kwargs = {}
        for name, default in defaults.items():
            override = getattr(cfg, name, None)
            kwargs[name] = default if override is None else override
        return fn(**kwargs)

    return Check(run, summary)


CHECKS: dict[str, Check] = {
    "main-identity": _mk(_check_main_identity, "2^(n-k) a(n,k) = (n-k+1)! b(n,k)", nmax=30),
    "a-alt": _mk(_check_a_alt, "column expansion matches the one-step recurrence", nmax=20),
    "catalan-base": _mk(_check_catalan_base, "b(n,0) is Catalan", nmax=30),
    "hook-base": _mk(_check_hook_base, "b3(n,m,0) matches the ballot closed form", nmax=15),
    "omega-bridge": _mk(_check_omega_bridge, "omega(n,m,k) = b3(n+m,m,k)", nmax=14),
    "omega-vanishing": _mk(_check_omega_vanishing, "omega(n,k-1,k) = 0", nmax=10, kmax=6),
    "omega-init-vanishing": _mk(
        _check_omega_init_vanishing, "seed row vanishes at k = m+1", kmax=8
    ),
    "cor-rec": _mk(_check_cor_rec, "rational two-term recurrence matches b", nmax=20),
    "closed-a": _mk(_check_closed_a, "gamma closed form matches a", nmax=25),
    "closed-b": _mk(_check_closed_b, "gamma closed form matches b", nmax=25),
    "gamma-sum": _mk(_check_gamma_sum, "defining gamma sum telescopes to zero", kmax=40),
    "delta-rec": _mk(_check_delta_rec, "delta recursion consistent with k! gamma_k", kmax=20),
    "lemma28": _mk(_check_lemma28, "unfolded boundary sum vanishes", nmax=8, kmax=5),
    "lemma29": _mk(_check_lemma29, "closing double-factorial identity", nmax=8, kmax=6),
    "stock-series": _mk(_check_stock_series, "Catalan / kernel-root / power sanity", order=30),
    "dk-threeway": _mk(_check_dk_threeway, "table, closed and kernel D_k agree", kmax=8, order=20),
    "kernel-residual": _mk(
        _check_kernel_residual, "(x - x^2 - t) B = x F - t D exactly", kmax=5, order=12
    ),
    "bk-rect": _mk(_check_bk_rect, "kernel B_k rectangle matches the table", kmax=5, order=12),
    "b0-hook": _mk(_check_b0_hook, "wall-free B_0 entries are ballot numbers", nmax=12),
    "f-rec": _mk(_check_f_rec, "pendant-family recurrence", nmax=12),
    "f-gf": _mk(_check_f_gf, "pendant-family generating function", kmax=6, order=12),
    "bu-roundtrip": _mk(_check_bu_roundtrip, "alternating transforms invert", nmax=8),
    "b12": _mk(_check_b12, "binomial f minus r reproduces b", nmax=8),
    "monster": _mk(_check_monster, "grand recurrence reproduces b", nmax=12),
    "tc-routes": _mk(_check_tc_routes, "six exact tree-child routes agree", nmax=15),
    "tc-dfact": _mk(_check_tc_dfact, "tc(n,0) = (2n-3)!!", nmax=15),
}


def run_verify(cfg: RunConfig, out: TextIO) -> int:
    if not cfg.check:
        raise _Usage("verify needs --check NAME or --check all")
    names = sorted(CHECKS) if cfg.check == "all" else [cfg.check]
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise _Usage(f"unknown check {unknown[0]!r}; choose from {sorted(CHECKS)} or 'all'")
    failed = 0
    for name in names:
        ok, detail = CHECKS[name].run(cfg)
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status} ({detail})", file=out)
        failed += not ok
    return EXIT_OK if failed == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Usage(Exception):
    """Command line misuse detected after argparse."""


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="walls", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print a counting table")
    p.add_argument("--seq", required=True, choices=["a", "b", "b3", "omega", "tc", "f", "ftilde", "u"])
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--kmax", type=int)
    p.add_argument("--mmax", type=int)
    p.add_argument("--k", type=int, help="emit the 1-D slice at this k")
    p.add_argument("--diag", action="store_true", help="emit the diagonal slice")
    p.add_argument("--format", default="csv", choices=["csv", "text", "json", "bfile"])

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--check", required=True, help="registry name, or 'all'")
    p.add_argument("--nmax", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--order", type=int)

    p = sub.add_parser("series", help="print D_k coefficients")
    p.add_argument("--dk", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", default="recurrence", choices=["recurrence", "closed", "kernel"])

    p = sub.add_parser("oracle", help="brute-force comparison")
    p.add_argument("--seq", required=True, choices=["a", "b", "b3"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int)

    p = sub.add_parser("crosscheck", help="compare a slice against an OEIS b-file")
    p.add_argument("--map", required=True, help=f"one of {sorted(OEIS_MAPS)}")
    p.add_argument("--oeis", help="expected OEIS id (sanity check)")
    p.add_argument("--nmax", type=int)
    p.add_argument("--offline", action="store_true", help="never fetch, use bundled fixtures")

    p = sub.add_parser("asym", help="asymptotic estimate vs exact count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    return top


_RUNNERS = {
    "table": run_table,
    "verify": run_verify,
    "series": run_series,
    "oracle": run_oracle,
    "crosscheck": run_crosscheck,
    "asym": run_asym,
}


def main(argv: list[str] | None = None, out: TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig.from_args(args)
    # counts run to thousands of digits; lift the decimal conversion limit
    # (absent before 3.10.7) for this call only
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _RUNNERS[cfg.command](cfg, out)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
