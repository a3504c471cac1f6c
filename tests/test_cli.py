import argparse
import contextlib
import decimal
import functools
import importlib
import io
import itertools
import json
import math
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path

import pytest

import youngwalls
from youngwalls import checks, cli, closed_forms, poset_lab, tree_child, wall_tables
from youngwalls.exact_arith import NotIntegralError, binomial, exact_int

from conftest import TABLE_A, TABLE_B, u_literal

SRC = Path(__file__).parents[1] / "src"


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.main(list(argv), out=buf)
    return code, buf.getvalue()


def grid_csv(table):
    return "".join(",".join(str(v) for v in table[n]) + "\n" for n in sorted(table))


TABLE_SEQS = ("a", "b", "b3", "omega", "tc", "f", "ftilde", "u")


def test_table_a_matches_reference():
    code, text = run_cli("table", "--seq", "a", "--nmax", "6")
    assert code == 0
    assert text == grid_csv(TABLE_A)


def test_table_b_matches_reference():
    code, text = run_cli("table", "--seq", "b", "--nmax", "6")
    assert code == 0
    assert text == grid_csv(TABLE_B)


def test_table_text_format_uses_spaces():
    code, text = run_cli("table", "--seq", "b", "--nmax", "2", "--format", "text")
    assert code == 0
    assert text == "1\n1 1\n2 7 7\n"


def test_table_kmax_truncates_columns():
    code, text = run_cli("table", "--seq", "a", "--nmax", "3", "--kmax", "1")
    assert code == 0
    assert text == "1\n1,1\n3,7\n15,57\n"


def test_table_slice_as_bfile():
    code, text = run_cli("table", "--seq", "a", "--nmax", "4", "--k", "1", "--format", "bfile")
    assert code == 0
    assert text == "1 1\n2 7\n3 57\n4 561\n"


def test_table_diagonal_slice():
    code, text = run_cli("table", "--seq", "b", "--nmax", "4", "--diag", "--format", "bfile")
    assert code == 0
    assert text == "0 1\n1 1\n2 7\n3 106\n4 2575\n"


def test_table_tc_rows_stop_at_k_eq_n_minus_1():
    code, text = run_cli("table", "--seq", "tc", "--nmax", "3")
    assert code == 0
    assert text == "1\n1,2\n3,21,42\n"


@pytest.mark.parametrize("fmt", ["csv", "text", "json", "bfile"])
def test_table_tc_diagonal_is_usage_error(fmt, capsys):
    # the diagonal k = n lies outside tc's domain k <= n-1; it printed nothing
    code, text = run_cli("table", "--seq", "tc", "--nmax", "5", "--diag", "--format", fmt)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: tc has no diagonal: its domain is k <= n-1\n"


@pytest.mark.parametrize(
    "argv",
    [["--seq", "a", "--nmax", "3", "--k", "5", "--format", "bfile"],
     ["--seq", "tc", "--nmax", "3", "--k", "3", "--format", "json"]],
)
def test_table_slice_that_no_row_reaches_is_usage_error(argv, capsys):
    # these printed nothing, or an empty cell list, and exited 0
    code, text = run_cli("table", *argv)
    assert (code, text) == (2, "")
    seq, nmax = argv[1], argv[3]
    assert capsys.readouterr().err == f"error: no row of {seq} with n <= {nmax} reaches the slice\n"


@pytest.mark.parametrize(
    "argv",
    [["--seq", "tc", "--nmax", "0"],
     ["--seq", "ftilde", "--nmax", "0"],
     ["--seq", "tc", "--nmax", "0", "--format", "json"]],
)
def test_full_table_that_selects_no_row_is_usage_error(argv, capsys):
    code, text = run_cli("table", *argv)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: no row of {argv[1]} with n <= 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["table", "--seq", "a", "--nmax", "4", "--k", "2", "--kmax", "1"],
      "--kmax clips a full table; it does not combine with --k or --diag"),
     (["table", "--seq", "b", "--nmax", "3", "--diag", "--kmax", "0"],
      "--kmax clips a full table; it does not combine with --k or --diag"),
     (["table", "--seq", "tc", "--nmax", "3", "--mmax", "0"],
      "--mmax clips the 3-index sequences only, not tc"),
     (["oracle", "--seq", "a", "--n", "3", "--k", "1", "--m", "2"],
      "--m belongs to oracle --seq b3 only, not a")],
    ids=["k-with-kmax", "diag-with-kmax", "mmax-on-tc", "m-on-a"],
)
def test_flag_that_does_not_apply_is_usage_error(argv, message, capsys):
    # each printed its answer with the flag dropped and exited 0
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_table_json_values_are_decimal_strings():
    code, text = run_cli("table", "--seq", "b", "--nmax", "2", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["seq"] == "b"
    assert doc["cells"][0] == [0, 0, "1"]
    assert all(isinstance(entry[-1], str) for entry in doc["cells"])


def test_table_b3_long_form():
    code, text = run_cli("table", "--seq", "b3", "--nmax", "2", "--format", "text")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "0 0 0 1"
    assert "2 1 1 3" in lines
    assert "2 2 1 7" in lines


def test_table_omega_includes_vanishing_column():
    code, text = run_cli("table", "--seq", "omega", "--nmax", "3", "--mmax", "1")
    assert code == 0
    lines = text.splitlines()
    assert "1,0,1,0" in lines  # omega(1, 0, 1) = 0, the k = m+1 layer
    assert "1,1,1,3" in lines


def test_bfile_requires_slice():
    code, _ = run_cli("table", "--seq", "a", "--nmax", "4", "--format", "bfile")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [(["--seq", "tc", "--nmax", "0"], "no row of tc with n <= 0"),
     (["--seq", "b3", "--nmax", "2"], "bfile output needs a 1-D slice (--k or --diag)")],
)
def test_bfile_error_comes_after_the_other_usage_errors(argv, message, capsys):
    code, text = run_cli("table", *argv, "--format", "bfile")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_k_and_diag_conflict():
    code, _ = run_cli("table", "--seq", "a", "--nmax", "4", "--k", "1", "--diag")
    assert code == 2


def test_cache_dir_is_unknown_flag(tmp_path):
    code, _ = run_cli("table", "--seq", "a", "--nmax", "5", "--cache-dir", str(tmp_path))
    assert code == 2


def test_table_prints_integers_past_the_digit_limit():
    before = sys.get_int_max_str_digits()
    code, text = run_cli("table", "--seq", "tc", "--nmax", "1500", "--k", "2", "--format", "bfile")
    assert code == 0
    assert sys.get_int_max_str_digits() == before
    lines = text.splitlines()
    assert len(lines) == 1498
    sys.set_int_max_str_digits(0)
    try:
        for line in (lines[0], lines[1], lines[700], lines[-1]):
            n, value = map(int, line.split())
            assert value == tree_child.tc_closed(n, 2), n
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "seq, flags, module, name, cells",
    [("f", ["--diag"], poset_lab, "f_closed", 301),
     ("f", ["--k", "2"], poset_lab, "f_closed", 299),
     ("ftilde", ["--k", "3"], poset_lab, "ftilde", 298),
     ("tc", ["--k", "2"], tree_child, "tc_from_a", 298)],
    ids=["f-diag", "f-k2", "ftilde-k3", "tc-k2"],
)
def test_slice_computes_one_value_per_printed_cell(seq, flags, module, name, cells, monkeypatch):
    # a reader that computed whole rows would call the route for every cell
    # of each row, not only for the one the slice prints
    route, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return route(*args)

    monkeypatch.setattr(module, name, counted)
    code, text = run_cli("table", "--seq", seq, "--nmax", "300", *flags, "--format", "bfile")
    assert (code, len(text.splitlines()), len(calls)) == (0, cells, cells)


def test_table_omega_deep_column():
    code, text = run_cli("table", "--seq", "omega", "--nmax", "1200", "--mmax", "0", "--kmax", "0")
    assert code == 0
    # omega(n, 0, 0) = b3_hook(n, 0) = 1
    assert text.splitlines() == [f"{n},0,0,1" for n in range(1201)]


@pytest.mark.parametrize("mmax", [[], ["--mmax", "0"], ["--mmax", "4"]], ids=" ".join)
def test_omega_kmax_past_the_widest_row_prints_the_same_off_a_narrow_walk(mmax, monkeypatch):
    # no cell of omega has k > m + 1, so a --kmax past mmax + 1 prints what
    # --kmax mmax + 1 prints, and the walk is no wider than that
    argv = ["table", "--seq", "omega", "--nmax", "2", *mmax, "--kmax"]
    top = int(mmax[1]) + 1 if mmax else 3
    want, layers = run_cli(*argv, str(top)), wall_tables.omega_layers

    def narrow(width, *args):
        assert width <= top, width  # at once, not after a walk 10**6 columns wide
        return layers(width, *args)

    monkeypatch.setattr(wall_tables, "omega_layers", narrow)
    assert run_cli(*argv, str(10**6)) == want


# the ring each table may walk in: any ring for the tables of a, b and tc,
# whose steps take it from their seed, so cli walks them in decimal.Decimal
# (whose str takes linear time) past its bound of cli.DECIMAL_DIGITS digits;
# int for the rest
TABLE_RINGS = {"a": "any", "b": "any", "tc": "any", "u": "int", "f": "int",
               "ftilde": "int", "b3": "int", "omega": "int"}
DECIMAL_TABLES = [seq for seq, ring in TABLE_RINGS.items() if ring == "any"]


def test_decimal_tables_are_the_pinned_ones():
    # dropping a ring flag of cli.TWO_INDEX must fail a test, not drop its cases
    assert sorted(TABLE_RINGS) == sorted(TABLE_SEQS)
    ringed = [seq for seq, (_, _, ringed, _) in cli.TWO_INDEX.items() if ringed]
    assert sorted(ringed) == sorted(DECIMAL_TABLES)


def _first_decimal_nmax(argv):
    """The smallest --nmax at which the request ``table <argv>`` walks in decimal."""
    return next(n for n in itertools.count()
                if cli._walks_in_decimal(cli._parse(["table", *argv, "--nmax", str(n)])))


@pytest.mark.parametrize("option", [[], ["--kmax", "3"], ["--k", "2"], ["--diag"]],
                         ids=lambda o: " ".join(o) or "full")
@pytest.mark.parametrize("seq", DECIMAL_TABLES)
def test_decimal_route_matches_the_int_route(seq, option, monkeypatch, capsys):
    # the same request rendered from rows walked in int and in decimal, each
    # forced by the bound, byte for byte, below the bound and past it, also
    # where it is a usage error (tc has no diagonal, a b-file needs a slice)
    deep = _first_decimal_nmax(["--seq", seq, *option])
    for fmt in ("csv", "text", "json", "bfile"):
        for nmax in (0, 1, 5, 12, deep):
            argv = ["table", "--seq", seq, "--nmax", str(nmax), *option, "--format", fmt]
            by_ring = []
            for digits in (math.inf, 0):
                with monkeypatch.context() as m:
                    m.setattr(cli, "DECIMAL_DIGITS", digits)
                    by_ring.append((*run_cli(*argv), capsys.readouterr().err))
            assert by_ring[0] == by_ring[1], argv
    # the small sizes are below the bound, and the rows past it are Decimals
    assert 12 < deep
    if seq == "tc" and option == ["--diag"]:
        return
    args = cli._parse(["table", "--seq", seq, "--nmax", str(deep), *option])
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        *_, (_, last) = itertools.chain.from_iterable(cli._table_rows(args, decimal.Decimal(1)))
    assert isinstance(last, decimal.Decimal)


@pytest.mark.parametrize("seq", ["a", "tc"])
def test_deep_decimal_column_matches_str_of_int(seq):
    # every line of the k = 2 column to n = 1500 (4328 digits at the end)
    # against str of an int walk
    code, text = run_cli("table", "--seq", seq, "--nmax", "1500", "--k", "2", "--format", "bfile")
    assert code == 0
    rows = zip(range(1501), wall_tables.a_rows(2))
    if seq == "a":
        want = [(n, row[2]) for n, row in rows if n >= 2]
    else:  # tc(n, 2) reads a(n - 1, 2)
        want = [(n + 1, tree_child.tc_from_a(n + 1, 2, row[2])) for n, row in rows if 2 <= n < 1500]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert text.splitlines() == [f"{n} {v}" for n, v in want]
    finally:
        sys.set_int_max_str_digits(before)


TABLE_OPTIONS = ([], ["--k", "1"], ["--k", "4"], ["--diag"], ["--kmax", "2"], ["--mmax", "1"])
CELL_FUNCTIONS = {
    "a": wall_tables.a_rec, "b": wall_tables.b, "tc": tree_child.tc, "f": poset_lab.f_closed,
    "ftilde": poset_lab.ftilde, "u": u_literal,
}


def reference_table(seq, nmax, fmt, k=None, diag=False, kmax=None, mmax=None):
    """(exit code, stdout, stderr) of a `table` request, built cell by cell
    from the public functions and rendered in one piece."""

    def usage(message):
        return 2, "", f"error: {message}\n"

    sliced = k is not None or diag
    if seq in CELL_FUNCTIONS:
        if seq == "tc" and diag:
            return usage("tc has no diagonal: its domain is k <= n-1")
        if mmax is not None:
            return usage(f"--mmax clips the 3-index sequences only, not {seq}")
        if sliced and kmax is not None:
            return usage("--kmax clips a full table; it does not combine with --k or --diag")
        fn, cells = CELL_FUNCTIONS[seq], []
        for n in range(1 if seq in ("ftilde", "tc") else 0, nmax + 1):
            top = n - 1 if seq == "tc" else n
            if sliced:
                j = n if diag else k
                cells += [((n,), fn(n, j))] if j <= top else []
            else:
                top = top if kmax is None else min(top, kmax)
                cells += [((n, j), fn(n, j)) for j in range(top + 1)]
        if not cells:
            return usage(f"no row of {seq} with n <= {nmax}" + " reaches the slice" * sliced)
    elif sliced:
        return usage("slices are only available for 2-index sequences")
    elif seq == "b3":
        cells = [
            ((n, m, j), wall_tables.b3(n, m, j))
            for n in range(nmax + 1) for m in range(min(n, nmax if mmax is None else mmax) + 1)
            for j in range(min(m, m if kmax is None else kmax) + 1)
        ]
    else:
        mmax = nmax if mmax is None else mmax
        kmax = mmax + 1 if kmax is None else kmax
        cells = [
            ((n, m, j), wall_tables.omega(n, m, j))
            for n in range(nmax + 1) for m in range(mmax + 1) for j in range(min(m + 1, kmax) + 1)
        ]
    if fmt == "json":
        doc = {"seq": seq, "cells": [[*idx, str(v)] for idx, v in cells]}
        return 0, json.dumps(doc, separators=(",", ":")) + "\n", ""
    if fmt == "bfile" and not sliced:
        return usage("bfile output needs a 1-D slice (--k or --diag)")
    sep = "," if fmt == "csv" else " "
    if len(cells[0][0]) == 2:
        rows = {}
        for (n, _), v in cells:
            rows.setdefault(n, []).append(str(v))
        return 0, "".join(sep.join(row) + "\n" for row in rows.values()), ""
    return 0, "".join(sep.join(map(str, (*idx, v))) + "\n" for idx, v in cells), ""


@pytest.mark.parametrize("option", TABLE_OPTIONS, ids=lambda o: " ".join(o) or "full")
@pytest.mark.parametrize("seq", TABLE_SEQS)
def test_table_matches_the_cell_functions(seq, option, capsys):
    flags = dict(zip(option[::2], map(int, option[1::2])))
    kwargs = {"diag": option == ["--diag"], **{f[2:]: v for f, v in flags.items()}}
    for fmt in ("csv", "text", "json", "bfile"):
        for nmax in (0, 1, 3, 6):
            argv = ["table", "--seq", seq, "--nmax", str(nmax), *option, "--format", fmt]
            code, text = run_cli(*argv)
            got = (code, text, capsys.readouterr().err)
            assert got == reference_table(seq, nmax, fmt, **kwargs), argv


def _stepped_rows_of_a(monkeypatch):
    # the n of every row of a that a walk steps, in order
    step, stepped = wall_tables._a_row, []

    def counting_row(prev, n, width):
        stepped.append(n)
        return step(prev, n, width)

    monkeypatch.setattr(wall_tables, "_a_row", counting_row)
    return stepped


def test_tc_table_stores_no_row_of_a(monkeypatch):
    # the rows of a that tc reads come off one walk: each row is stepped
    # once, never again for a cell read
    stepped = _stepped_rows_of_a(monkeypatch)
    assert run_cli("table", "--seq", "tc", "--nmax", "50", "--k", "2")[0] == 0
    assert stepped == list(range(1, 50))


class _Sink:
    """An output stream that discards what it is given."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [["table", "--seq", "tc", "--nmax", "1500", "--k", "2", "--format", "bfile"],
     ["table", "--seq", "a", "--nmax", "200", "--format", "json"],
     ["verify", "--check", "tc-routes", "--nmax", "200"]],
)
def test_table_memory_stays_at_one_row(argv):
    # a table that keeps every cell, or its whole JSON document, or a check
    # that keeps every row of a, peaks at several MB on these requests
    tracemalloc.start()
    try:
        code = cli.main(argv, out=_Sink())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20, peak


def test_table_failure_mid_way_keeps_the_complete_rows(monkeypatch, capsys):
    f_closed = poset_lab.f_closed

    def broken(n, k):
        if n == 3:
            raise NotIntegralError(f"value at ('f_closed', {n}, {k}) is not an integer")
        return f_closed(n, k)

    monkeypatch.setattr(poset_lab, "f_closed", broken)
    code, text = run_cli("table", "--seq", "f", "--nmax", "6")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert text == "".join(",".join(str(f_closed(n, k)) for k in range(n + 1)) + "\n"
                           for n in range(3))


@pytest.mark.parametrize(
    "argv, first",
    [(["table", "--seq", "a", "--nmax", "300"], "1\n"),
     (["table", "--seq", "tc", "--nmax", "1500", "--k", "2", "--format", "bfile"], "3 42\n")],
)
def test_reader_that_closes_the_pipe_early(argv, first):
    # like `walls table ... | head -1`: exit 1 with nothing on stderr
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen([sys.executable, "-m", "youngwalls.cli", *argv], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (line, code, err) == (first, 1, "")


def test_series_recurrence_route():
    code, text = run_cli("series", "--dk", "1", "--order", "4")
    assert code == 0
    assert text == "0 1 7 38 187\n"


def test_series_routes_agree():
    _, rec = run_cli("series", "--dk", "2", "--order", "8")
    _, closed = run_cli("series", "--dk", "2", "--order", "8", "--method", "closed")
    _, kernel = run_cli("series", "--dk", "2", "--order", "8", "--method", "kernel")
    assert rec == closed == kernel


def test_series_kernel_level_zero_is_catalan():
    code, text = run_cli("series", "--dk", "0", "--order", "5", "--method", "kernel")
    assert code == 0
    assert text == "1 1 2 5 14 42\n"


def test_series_closed_rejects_level_zero():
    code, _ = run_cli("series", "--dk", "0", "--order", "5", "--method", "closed")
    assert code == 2


def test_verify_single_check():
    code, text = run_cli("verify", "--check", "catalan-base")
    assert code == 0
    assert text == "catalan-base: PASS (n <= 30)\n"


def test_verify_bound_override():
    code, text = run_cli("verify", "--check", "main-identity", "--nmax", "5")
    assert code == 0
    assert text == "main-identity: PASS (n <= 5)\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["gamma-sum", "--nmax", "5"], "check gamma-sum takes no --nmax, only --kmax"),
     (["stock-series", "--nmax", "3"], "check stock-series takes no --nmax, only --order"),
     (["catalan-base", "--kmax", "2"], "check catalan-base takes no --kmax, only --nmax"),
     (["lemma28", "--nmax", "3", "--order", "4"],
      "check lemma28 takes no --order, only --nmax and --kmax")],
    ids=["nmax-on-gamma-sum", "nmax-on-stock-series", "kmax-on-catalan-base", "order-on-lemma28"],
)
def test_verify_bound_the_check_does_not_take_is_usage_error(argv, message, capsys):
    # each printed a PASS line at the check's own defaults and exited 0
    assert run_cli("verify", "--check", *argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_unknown_check():
    code, _ = run_cli("verify", "--check", "no-such-check")
    assert code == 2


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_registry_identity_holds(name):
    status, detail = checks.CHECKS[name].run()
    assert status == "PASS", detail


def test_check_stops_at_first_failing_cell():
    visited = []

    def holds(n, k):
        visited.append((n, k))
        return (n, k) != (2, 1)

    # no table to walk: each row n brings no rows, so the cells are (n, k)
    check = checks._on_walks(4, lambda nmax: itertools.repeat(()), holds)
    assert check.run() == ("FAIL", "fails at (2, 1)")
    assert visited == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert check.run(nmax=1, kmax=7) == ("PASS", "n <= 1")
    assert check.run(nmax=None) == ("FAIL", "fails at (2, 1)")
    # rows start at n = 1, so nmax = 0 selects no cell
    empty = checks._on_walks(4, lambda nmax: itertools.repeat(()), holds, start=1)
    assert empty.run(nmax=0) == ("EMPTY", "n <= 0")
    visited.clear()

    def cells(top):
        for i in range(top + 1):
            visited.append(i)
            yield (i,), i != 5

    one_index = checks.Check({"top": 9}, "i <= {top}", cells)
    assert one_index.run() == ("FAIL", "fails at (5)")
    assert visited == [0, 1, 2, 3, 4, 5]
    assert one_index.run(top=4) == ("PASS", "i <= 4")


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_check_yields_int_cells_and_bool_verdicts(name):
    check = checks.CHECKS[name]
    for item in check.cells(**check.bounds):
        assert type(item) is tuple and len(item) == 2, item
        cell, holds = item
        assert type(cell) is tuple and all(type(c) is int for c in cell), cell
        assert type(holds) is bool, cell


def test_check_keeps_its_fields_in_slots():
    assert checks.Check.__slots__ == ("bounds", "domain", "cells")
    assert not hasattr(checks.CHECKS["catalan-base"], "__dict__")
    with pytest.raises(TypeError):
        checks.Check({}, "too few fields")


def _move_a_alt_cells(monkeypatch, moved):
    # the columns that the a-alt check reads, with a(n, k) moved by 1 where moved(n, k)
    columns = wall_tables.a_alt_columns

    def walk(depth):
        for k, col in enumerate(columns(depth)):
            yield [v + moved(n, k) for n, v in enumerate(col)]

    monkeypatch.setattr(wall_tables, "a_alt_columns", walk)


def test_verify_reports_the_first_failing_cell(monkeypatch):
    _move_a_alt_cells(monkeypatch, lambda n, k: (n, k) == (3, 2))
    code, text = run_cli("verify", "--check", "a-alt")
    assert code == 1
    assert text == "a-alt: FAIL (fails at (3, 2))\n"
    code, text = run_cli("verify", "--check", "all", "--nmax", "6", "--kmax", "3", "--order", "8")
    assert code == 1
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(checks.CHECKS)
    assert [line for line in lines if ": PASS (" not in line] == ["a-alt: FAIL (fails at (3, 2))"]


@pytest.mark.parametrize(
    "argv, levels",
    [(["kernel-residual", "--kmax", "5", "--order", "11"], 6),
     (["bk-rect", "--kmax", "5", "--order", "11"], 6),
     (["dk-threeway", "--kmax", "7", "--order", "18"], 8)],
)
def test_kernel_check_walks_the_chain_once(argv, levels, monkeypatch):
    # one walk solves each level 0..kmax once
    bk_solve, solved = checks.series_engine._bk_solve, []
    monkeypatch.setattr(checks.series_engine, "_bk_solve",
                        lambda *a: solved.append(1) or bk_solve(*a))
    assert run_cli("verify", "--check", *argv)[0] == 0
    assert len(solved) == levels


def test_kernel_check_failure_names_the_level(monkeypatch):
    # the table's level 3 replaced by its level 4
    bk_from_table = checks.series_engine.bk_from_table

    def moved(kmax, order):
        levels = bk_from_table(kmax, order)
        return (*levels[:3], levels[4], *levels[4:])

    monkeypatch.setattr(checks.series_engine, "bk_from_table", moved)
    code, text = run_cli("verify", "--check", "bk-rect", "--kmax", "5", "--order", "6")
    assert (code, text) == (1, "bk-rect: FAIL (fails at (3, 6))\n")


def test_kernel_route_reads_its_root_series(monkeypatch):
    x2_series = checks.series_engine.x2_series

    def moved(order):
        x2 = x2_series(order)
        return (*x2[:3], x2[3] + 1, *x2[4:])

    monkeypatch.setattr(checks.series_engine, "x2_series", moved)
    code, text = run_cli("verify", "--check", "dk-threeway")
    assert code == 1 and text.startswith("dk-threeway: FAIL (")


# every count or bound flag, by command: a valid argv and the flags to make negative
NEGATIVE_BOUNDS = {
    **{
        seq: (["table", "--seq", seq, "--nmax", "3"], ("--nmax", "--kmax", "--mmax", "--k"))
        for seq in TABLE_SEQS
    },
    "verify": (["verify", "--check", "a-alt"], ("--nmax", "--kmax", "--order")),
    "series": (["series", "--dk", "1", "--order", "3"], ("--dk", "--order")),
    "oracle": (
        ["oracle", "--seq", "b3", "--n", "3", "--m", "2", "--k", "1"],
        ("--n", "--m", "--k"),
    ),
    "asym": (["asym", "--n", "5", "--k", "1"], ("--n", "--k")),
    "crosscheck": (["crosscheck", "--map", "b-k0", "--offline"], ("--nmax",)),
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_BOUNDS))
def test_negative_bound_is_usage_error(command, capsys):
    base, flags = NEGATIVE_BOUNDS[command]
    assert run_cli(*base)[0] == 0
    capsys.readouterr()
    for flag in flags:
        assert run_cli(*base, flag, "-1") == (2, ""), flag
        assert f"argument {flag}: expected an integer >= 0, got '-1'" in capsys.readouterr().err


def test_verify_all_lists_every_registered_check():
    code, text = run_cli(
        "verify", "--check", "all", "--nmax", "6", "--kmax", "3", "--order", "8"
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == len(checks.CHECKS)
    assert all(": PASS (" in line for line in lines)
    assert [line.split(":")[0] for line in lines] == sorted(checks.CHECKS)


def test_verify_zero_cell_domain_is_empty_not_pass(monkeypatch):
    code, text = run_cli("verify", "--check", "tc-routes", "--nmax", "0")
    assert (code, text) == (2, "tc-routes: EMPTY (n <= 0, two routes, one recurrence)\n")
    code, text = run_cli("verify", "--check", "all", "--nmax", "0")
    assert code == 2
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(checks.CHECKS)
    empty = [line.split(":")[0] for line in lines if ": EMPTY (" in line]
    assert empty == ["b12", "f-rec", "lemma28", "lemma29", "monster", "tc-dfact", "tc-routes"]
    assert all(": PASS (" in line for line in lines if line.split(":")[0] not in empty)
    # a failure outranks an empty domain
    _move_a_alt_cells(monkeypatch, lambda n, k: 1)
    assert run_cli("verify", "--check", "all", "--nmax", "0")[0] == 1


def test_readme_lists_every_registered_check():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### `verify`", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(names) == sorted(checks.CHECKS)
    assert len(names) == len(set(names))


def test_oracle_agreement():
    code, text = run_cli("oracle", "--seq", "b", "--n", "4", "--k", "2")
    assert code == 0
    assert text == "brute=1010 table=1010 agree\n"


def test_oracle_b3_needs_m():
    code, _ = run_cli("oracle", "--seq", "b3", "--n", "3", "--k", "1")
    assert code == 2
    code, text = run_cli("oracle", "--seq", "b3", "--n", "3", "--k", "1", "--m", "2")
    assert code == 0
    assert "agree" in text


def test_oracle_capacity_exit_code():
    code, _ = run_cli("oracle", "--seq", "a", "--n", "12", "--k", "3")
    assert code == 3


@pytest.mark.parametrize("map_name", sorted(cli.OEIS_MAPS))
def test_crosscheck_offline_fixtures(map_name):
    code, text = run_cli("crosscheck", "--map", map_name, "--offline")
    assert code == 0
    assert "agree" in text


def test_crosscheck_reads_the_fixture_without_offline(capsys):
    # --offline is a no-op: nothing is fetched either way
    plain = run_cli("crosscheck", "--map", "b-k0")
    assert plain == run_cli("crosscheck", "--map", "b-k0", "--offline")
    assert plain == (0, "A000108 <-> b-k0: n=0..15 agree (16 terms, offset 0)\n")
    assert capsys.readouterr().err == ""


def test_crosscheck_reads_one_walk_not_point_reads(monkeypatch):
    # b-k0 reads the b3 diagonal off one walk up the layers, never b3(n, n, 0)
    def refused(n, m, k):
        raise RuntimeError(f"b3({n}, {m}, {k}) called")

    monkeypatch.setattr(wall_tables, "b3", refused)
    assert run_cli("crosscheck", "--map", "b-k0", "--offline") == (
        0, "A000108 <-> b-k0: n=0..15 agree (16 terms, offset 0)\n"
    )


@pytest.mark.parametrize("bound, last", [([], 6), (["--nmax", "5"], 5)], ids=["60", "5"])
def test_crosscheck_walks_no_row_past_the_largest_index_compared(monkeypatch, bound, last):
    # the b-file of A213863 ends at n = 6, inside the default --nmax of 60
    stepped = _stepped_rows_of_a(monkeypatch)
    assert run_cli("crosscheck", "--map", "a-diag", *bound) == (
        0, f"A213863 <-> a-diag: n=0..{last} agree ({last + 1} terms, offset 0)\n"
    )
    assert stepped == list(range(1, last + 1))


def test_crosscheck_walks_no_row_past_the_first_mismatch(monkeypatch):
    # the b-file term at n = 3 moved by 1: a(3, 3) = 106 is the first term to differ
    stepped = _stepped_rows_of_a(monkeypatch)
    fixture = cli._fixture_bfile
    monkeypatch.setattr(cli, "_fixture_bfile", lambda oeis_id: "".join(
        f"{n} {v + (n == 3)}\n" for n, v in cli.parse_bfile(fixture(oeis_id))))
    assert run_cli("crosscheck", "--map", "a-diag") == (
        1, "A213863 <-> a-diag: mismatch at n=3: ours=106 oeis=107\n"
    )
    assert stepped == list(range(1, 4))


@pytest.mark.parametrize("map_name", sorted(cli.OEIS_MAPS))
def test_bundled_bfile_indices_rise_from_the_map_offset(map_name):
    # crosscheck keys the terms by index: a repeated index would hide a term
    oeis_id, offset, _ = cli.OEIS_MAPS[map_name]
    indices = [n for n, _ in cli.parse_bfile(cli._fixture_bfile(oeis_id))]
    assert indices[0] == offset
    assert all(n < later for n, later in zip(indices, indices[1:]))


def test_crosscheck_id_mismatch():
    code, _ = run_cli("crosscheck", "--map", "b-k0", "--oeis", "A000001", "--offline")
    assert code == 2


def test_crosscheck_with_no_term_in_bounds_is_usage_error(capsys):
    # a bound that selects no term compared nothing
    assert run_cli("crosscheck", "--map", "b-k1", "--nmax", "0") == (2, "")
    assert capsys.readouterr().err == "error: no term of A000531 with 1 <= n <= 0\n"


def test_crosscheck_unknown_map():
    code, _ = run_cli("crosscheck", "--map", "nope", "--offline")
    assert code == 2


def test_parse_bfile_skips_comments():
    text = "# header\n\n0 1\n1 3\n  2 9\n"
    assert cli.parse_bfile(text) == [(0, 1), (1, 3), (2, 9)]


def test_asym_output_shape():
    code, text = run_cli("asym", "--n", "20", "--k", "1")
    assert code == 0
    assert text.startswith("estimate=")
    assert " exact=" in text and " rel_error=" in text


def test_asym_estimate_stays_finite_past_double_overflow():
    code, text = run_cli("asym", "--n", "2000", "--k", "3")
    assert code == 0
    fields = dict(field.split("=") for field in text.split())
    assert fields["estimate"] == "9.635629e+6351"
    exact = fields["exact"]
    assert len(exact) == 6352 and exact.startswith("963562")
    assert float(fields["rel_error"]) < 1e-8


def test_asym_finite_estimate_uses_float_format():
    est = math.exp(tree_child.tc_asym_log(20, 1))
    assert run_cli("asym", "--n", "20", "--k", "1")[1].startswith(f"estimate={est:.6e} ")
    assert cli._sci_from_log(math.log(est)) == f"{est:.6e}"
    assert cli._sci_from_log(math.log(9.9999999e20)) == "1.000000e+21"
    assert cli._sci_from_log(math.log(3e-5)) == "3.000000e-05"


def test_asym_evaluates_the_estimate_once(monkeypatch):
    # the relative error reads the log that the estimate line already holds
    calls = []
    log = tree_child.tc_asym_log

    def counting(n, k):
        calls.append((n, k))
        return log(n, k)

    monkeypatch.setattr(tree_child, "tc_asym_log", counting)
    assert run_cli("asym", "--n", "100", "--k", "2")[0] == 0
    assert calls == [(100, 2)]


def test_unknown_command_is_usage_error():
    code, _ = run_cli("frobnicate")
    assert code == 2


def test_missing_required_flag_is_usage_error():
    code, _ = run_cli("table", "--nmax", "3")
    assert code == 2


def _argparse_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line was read with before its flag
    table: the reference that the table's reader is held to (argparse words
    a ValueError of the type as its own message, which is not compared)."""
    count = cli._count
    top = argparse.ArgumentParser(prog="walls", description=cli.__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print a counting table")
    p.add_argument("--seq", required=True, choices=["a", "b", "b3", "omega", "tc", "f", "ftilde", "u"])
    p.add_argument("--nmax", type=count, required=True)
    p.add_argument("--kmax", type=count)
    p.add_argument("--mmax", type=count)
    p.add_argument("--k", type=count, help="emit the 1-D slice at this k")
    p.add_argument("--diag", action="store_true", help="emit the diagonal slice")
    p.add_argument("--format", default="csv", choices=["csv", "text", "json", "bfile"])

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--check", required=True, help="registry name, or 'all'")
    p.add_argument("--nmax", type=count)
    p.add_argument("--kmax", type=count)
    p.add_argument("--order", type=count)

    p = sub.add_parser("series", help="print D_k coefficients")
    p.add_argument("--dk", type=count, required=True)
    p.add_argument("--order", type=count, required=True)
    p.add_argument("--method", default="recurrence", choices=["recurrence", "closed", "kernel"])

    p = sub.add_parser("oracle", help="brute-force comparison")
    p.add_argument("--seq", required=True, choices=["a", "b", "b3"])
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--k", type=count, required=True)
    p.add_argument("--m", type=count)

    p = sub.add_parser("crosscheck", help="compare a slice against an OEIS b-file")
    p.add_argument("--map", required=True, help=f"one of {sorted(cli.OEIS_MAPS)}")
    p.add_argument("--oeis", help="expected OEIS id (sanity check)")
    p.add_argument("--nmax", type=count)
    p.add_argument("--offline", action="store_true", help="accepted for compatibility; "
                   "every crosscheck reads the bundled fixtures")

    p = sub.add_parser("asym", help="asymptotic estimate vs exact count")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--k", type=count, required=True)

    return top


# a valid value of each kind of flag, for the parity corpus
_SAMPLE = {"--check": "a-alt", "--map": "b-k0", "--oeis": "A000108"}

# --o is a prefix of both --oeis and --offline: argparse fails on it before -h
_AMBIGUOUS = [["crosscheck", "--map", "b-k0", "--o"], ["crosscheck", "-h", "--o"],
              ["crosscheck", "--o=x", "-h"]]


def _valid_argv(command):
    """The command with each required flag given a valid value."""
    argv = [command]
    for flag, (value, default, _) in cli.COMMANDS[command][1].items():
        if default is cli.REQUIRED:
            argv += [flag, value[-1] if isinstance(value, tuple) else _SAMPLE.get(flag, "3")]
    return argv


def _parity_corpus():
    """argvs for the flag reader and argparse to agree on: for every command,
    each flag in full, by each unique prefix and in "=" form, repeated, left
    out, given a bad choice or count, a missing value or an unknown flag;
    -h first, in the middle and after an error; no command, an unknown one."""
    yield from ([], ["-h"], ["--help"], ["--he"], ["--help=x"], ["-h", "table"], ["--bogus"],
                ["--bogus", "-h"], ["frobnicate"], ["frobnicate", "-h"], ["-1"], ["-x", "table"],
                ["--bogus", "table", "--seq", "a", "--nmax", "3"])
    for command, (_, flags, _) in cli.COMMANDS.items():
        base = _valid_argv(command)
        yield base
        yield [command]
        names = [*flags, "--help"]
        for flag, (value, default, _) in flags.items():
            samples = (list(value) if isinstance(value, tuple) else [None] if value is bool
                       else [_SAMPLE.get(flag, "4")])
            for sample in samples:
                given = [flag] if sample is None else [flag, sample]
                yield [*base, *given]
                prefixes = [flag[:j] for j in range(3, len(flag))
                            if [n for n in names if n.startswith(flag[:j])] == [flag]]
                for prefix in prefixes:
                    yield [*base, prefix, *given[1:]]
                    if sample is not None:
                        yield [*base, f"{prefix}={sample}"]
                if sample is not None:
                    yield [*base, f"{flag}={sample}"]
                    yield [*base, flag, "zzz", *given]
                    yield [*base, *given, flag, sample]
                    yield [*base, flag]
                    yield [*base, flag, "-x"]
                    yield [*base, flag, "--bogus"]
                    yield [*base, flag, "-h"]
                    yield [*base, flag, "-1"]
                    yield [*base, f"{flag}=-1"]
                    yield [*base, f"{flag}="]
                else:
                    yield [*base, flag, flag]
                    yield [*base, f"{flag}=1"]
                    yield [*base, flag, "5"]
            if default is cli.REQUIRED:
                i = base.index(flag)
                without = base[:i] + base[i + 2:]
                yield without
                yield [*without, "-h"]
            if value is cli._count or isinstance(value, tuple):
                for bad in (["zzz"], ["-1"], ["1.5"], ["-2.5"], [" 1"], ["x", "-h"]):
                    yield [*base, flag, *bad]
        yield [command, "-h", *base[1:]]
        yield [*base[:2], "--help", *base[2:]]
        yield [*base, "--bogus"]
        yield [*base, "--bogus", "5"]
        yield [*base, "--bogus", "-h"]
        yield [*base, "stray"]
        yield [*base, "-"]
        yield [*base, ""]
        yield [*base, "-x"]
        yield [*base, "-h"]
        yield [*base, "--h"]
        yield [*base, "-h=x"]
        yield [*base, "--=x"]
        yield [*base, "--bogus=-h"]
        yield [*base, "-1"]
    yield from _AMBIGUOUS


def _outcome(parse, argv):
    """(exit code, the attribute values) of one parse; None for the values
    where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, vars(parse(argv))
        except SystemExit as exc:
            return exc.code, None


def test_flag_reader_agrees_with_argparse():
    # exit codes and values, not messages: argparse words them differently
    # from one Python version to the next
    reference = _argparse_parser().parse_args
    corpus = list(_parity_corpus())
    assert len(corpus) > 500
    for argv in corpus:
        assert _outcome(cli._parse, argv) == _outcome(reference, argv), argv


def _usage_error(parse, argv):
    """(exit code, stderr lines) of a parse that exits."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, err.getvalue().splitlines()


@pytest.mark.parametrize("argv", _AMBIGUOUS, ids=" ".join)
def test_ambiguous_flag_prints_the_usage_of_its_command(argv):
    # the error is the subparser's: its usage, then argparse's own line
    code, lines = _usage_error(cli._parse, argv)
    ref_code, ref_lines = _usage_error(_argparse_parser().parse_args, argv)
    assert (code, len(lines)) == (ref_code, 2) == (2, 2)
    assert lines[0].startswith("usage: walls crosscheck [-h] ")
    assert lines[1] == ref_lines[-1]
    assert lines[1].startswith("walls crosscheck: error: ambiguous option: --o")


def _move_cached_weight(monkeypatch, rows, row, entry):
    # the gamma cache cut back to its seed row, restored by monkeypatch; one
    # numerator of row 2 of `rows` moves by its denominator.  Every fresh
    # walk up the omega layers reads the moved weights.
    monkeypatch.setattr(closed_forms, rows, getattr(closed_forms, rows)[:1])
    nums, den = row(2)
    wrong = list(nums)
    wrong[entry] += den
    getattr(closed_forms, rows)[2] = (tuple(wrong), den)


@pytest.mark.parametrize(
    "check, rows, row, entry, cell",
    [("closed-a", "_GAMMA_ROWS", closed_forms._gamma_row, 0, "(2, 2)"),
     ("closed-a", "_GAMMA_ROWS", closed_forms._gamma_row, 1, "(2, 2)"),
     ("dk-threeway", "_GAMMA_ROWS", closed_forms._gamma_row, 1, "(2, 20)"),
     ("omega-bridge", "_GAMMA_ROWS", closed_forms._gamma_row, 1, "(0, 1, 2)"),
     ("gamma-sum", "_GAMMA_ROWS", closed_forms._gamma_row, 0, "(2)"),
     ("delta-rec", "_GAMMA_ROWS", closed_forms._gamma_row, 2, "(2)")],
)
def test_wrong_cached_weight_fails_the_check(monkeypatch, check, rows, row, entry, cell):
    # the moved numerator keeps the sum integral but wrong
    _move_cached_weight(monkeypatch, rows, row, entry)
    code, text = run_cli("verify", "--check", check)
    assert (code, text) == (1, f"{check}: FAIL (fails at {cell})\n")


def _move_a_closed(monkeypatch):
    # a_closed(3, 2) moved by (n-k+1)! = 2, which keeps b_closed(3, 2) integral
    a_closed = closed_forms.a_closed

    def moved(n, k):
        return a_closed(n, k) + ((n, k) == (3, 2)) * math.factorial(n - k + 1)

    monkeypatch.setattr(closed_forms, "a_closed", moved)


@pytest.mark.parametrize("check, cell", [("closed-a", "(3, 2)"), ("closed-b", "(3, 2)")])
def test_moved_a_closed_fails_every_route_that_scales_it(monkeypatch, check, cell):
    # b_closed scales a_closed, so a wrong closed a reaches closed-b at (3, 2)
    _move_a_closed(monkeypatch)
    assert run_cli("verify", "--check", check) == (1, f"{check}: FAIL (fails at {cell})\n")


def test_moved_a_closed_moves_tc_closed(monkeypatch):
    # tc_closed scales a_closed(n-1, k) by n!/(n-k)!; no check reads it, as
    # closed-a already compares a_closed with the rows of a
    _move_a_closed(monkeypatch)
    assert tree_child.tc_closed(4, 2) - tree_child.tc(4, 2) == math.perm(4, 2) * 2


def test_moved_omega_cell_fails_lemma28(monkeypatch):
    # omega(2, 3, 1) moved in the rows streamed to the check; it first
    # enters the unfolded sum at depth s = 2
    omega_rows = wall_tables.omega_rows

    def moved(nmax, mmax, kmax):
        for n, row in enumerate(omega_rows(nmax, mmax, kmax)):
            if n == 2:
                row[3][1] += 1
            yield row

    monkeypatch.setattr(wall_tables, "omega_rows", moved)
    assert run_cli("verify", "--check", "lemma28") == (1, "lemma28: FAIL (fails at (4, 2, 2))\n")


def test_moved_double_factorial_fails_lemma29(monkeypatch):
    # 7!! moved in every run that holds it: first the run 5!!..7!! of (1, 2, 0)
    runs = closed_forms.double_factorials

    def moved(low, high):
        run = runs(low, high)
        if low <= 7 <= high:
            run[7 - low] += 1
        return run

    monkeypatch.setattr(closed_forms, "double_factorials", moved)
    assert run_cli("verify", "--check", "lemma29") == (1, "lemma29: FAIL (fails at (1, 2, 0))\n")


def _omega_bridge_corner(monkeypatch, nmax):
    # the last seed of layer nmax is omega(0, nmax, nmax + 1), which vanishes
    layers = closed_forms.omega_init_layers

    def moved(width):
        for s, seeds in enumerate(layers(width)):
            if s == nmax:
                seeds[nmax + 1] += 1
            yield seeds

    monkeypatch.setattr(closed_forms, "omega_init_layers", moved)
    return 0, nmax, nmax + 1


def _lemma29_corner(monkeypatch, nmax, kmax):
    check, corner = closed_forms.lemma29_check, (nmax, kmax, kmax)
    monkeypatch.setattr(closed_forms, "lemma29_check", lambda *cell: cell != corner and check(*cell))
    return corner


def _b0_hook_corner(monkeypatch, nmax):
    # the square's far corner is B_0's coefficient x^nmax t^nmax = b3(2 nmax, nmax, 0)
    hook = wall_tables.b3_hook
    monkeypatch.setattr(wall_tables, "b3_hook",
                        lambda n, m: hook(n, m) + ((n, m) == (2 * nmax, nmax)))
    return (nmax,)


def _kernel_residual_corner(monkeypatch, kmax, order):
    # level kmax, the last of the walk, gains a 1 at x^order t^order
    residual, level = checks.series_engine.kernel_residual, itertools.count()

    def moved(b_k, f_k, d_k):
        res = residual(b_k, f_k, d_k)
        if next(level) != kmax:
            return res
        row = res[order]
        return (*res[:order], (*row[:order], row[order] + 1, *row[order + 1:]), *res[order + 1:])

    monkeypatch.setattr(checks.series_engine, "kernel_residual", moved)
    return kmax, order


@pytest.mark.parametrize(
    "check, corner",
    [("omega-bridge", _omega_bridge_corner), ("lemma29", _lemma29_corner),
     ("b0-hook", _b0_hook_corner), ("kernel-residual", _kernel_residual_corner)],
)
def test_check_reads_the_far_corner_of_its_domain(check, corner, monkeypatch):
    # only the domain's last cell is wrong, so a loop or slice that stops one
    # short of it would PASS
    cell = corner(monkeypatch, **checks.CHECKS[check].bounds)
    assert run_cli("verify", "--check", check) == (
        1, f"{check}: FAIL (fails at ({', '.join(map(str, cell))}))\n")


def _b_rows_below(top):
    return list(itertools.islice(wall_tables.b_rows(top), top + 1))


def _first_monster_failure(rows_for):
    # the first (n, k) of the check monster's domain at which b_monster,
    # given the rows rows_for(k), differs from b
    b = _b_rows_below(12)
    for n in range(1, 13):
        for k in range(n + 1):
            if poset_lab.b_monster(n, k, rows_for(k)) != b[n][k]:
                return n, k
    return None


def test_moved_b_cell_fails_monster():
    # b(3, 2) moved in the rows that b_monster reads; the b it is compared
    # with stays as it is
    rows = _b_rows_below(12)
    assert _first_monster_failure(lambda k: rows) is None
    rows[3][2] += 1
    assert _first_monster_failure(lambda k: rows) == (4, 2)


def test_b_cell_moved_below_width_fails_monster():
    # b(3, 1) moved only in the rows given for k >= 2: there m = 1 < k, so
    # the moved cell enters b_monster only through its dot products over m
    rows, moved = _b_rows_below(12), _b_rows_below(12)
    moved[3][1] += 1
    assert _first_monster_failure(lambda k: moved if k >= 2 else rows) == (4, 2)


@pytest.mark.parametrize(
    "argv, text",
    [(["verify", "--check", "cor-rec"], "cor-rec: FAIL (fails at (3, 0))\n"),
     (["verify", "--check", "main-identity"], "main-identity: FAIL (fails at (3, 0))\n"),
     (["verify", "--check", "closed-b"], "closed-b: FAIL (fails at (3, 0))\n"),
     (["verify", "--check", "catalan-base"], "catalan-base: FAIL (fails at (3))\n"),
     (["crosscheck", "--map", "b-k0"], "A000108 <-> b-k0: mismatch at n=3: ours=6 oeis=5\n"),
     (["verify", "--check", "hook-base"], "hook-base: FAIL (fails at (3, 3))\n"),
     (["verify", "--check", "omega-bridge"], "omega-bridge: FAIL (fails at (0, 3, 0))\n"),
     (["verify", "--check", "bk-rect"], "bk-rect: FAIL (fails at (0, 12))\n"),
     (["oracle", "--seq", "b3", "--n", "3", "--m", "3", "--k", "0"],
      "brute=5 table=6 disagree\n")],
    ids=["cor-rec", "main-identity", "closed-b", "catalan-base", "b-k0", "hook-base",
         "omega-bridge", "bk-rect", "oracle"],
)
def test_moved_b3_cell_fails_the_checks_of_the_b3_diagonal(argv, text, monkeypatch):
    # b3(3, 3, 0) = 5 moved to 6 when it is appended, in every walk up the b3
    # layers, point reads of b3 included; b is seeded by the Catalan numbers,
    # so the checks of the diagonal must read b3, not b
    step = wall_tables._b3_layer

    def moved(prev, n, width, mmax=None):
        layer = step(prev, n, width, mmax)
        if n == 3 and len(layer) > 3:
            layer[3][0] += 1
        return layer

    monkeypatch.setattr(wall_tables, "_b3_layer", moved)
    assert run_cli(*argv) == (1, text)


def _module_values(*modules):
    # each module-level value, by identity and, where it pickles, by content
    state = {}
    for mod in modules:
        for name, v in vars(mod).items():
            if name.startswith("__"):
                continue
            try:
                state[mod.__name__, name] = (id(v), pickle.dumps(v))
            except (TypeError, pickle.PicklingError):
                state[mod.__name__, name] = (id(v), None)
    return state


def test_reads_of_every_table_and_route_leave_no_module_state():
    # every table is walked: point reads and the routes fed from a walk keep
    # no row, so no module-level value changes or grows
    modules = (wall_tables, poset_lab, tree_child)
    before = _module_values(*modules)
    wt, pl, tc = wall_tables, poset_lab, tree_child
    a, b = list(itertools.islice(wt.a_rows(9), 10)), _b_rows_below(9)
    u = list(itertools.islice(pl.u_rows(9), 10))
    assert wt.b3(12, 7, 3) == wt.omega(5, 7, 3)
    assert wt.omega(5, 4, 2) == wt.b3(9, 4, 2)
    assert list(wt.a_alt_columns(9))[4][9] == wt.a_rec(9, 4) == a[9][4]
    assert wt.b(9, 4) == wt.b3(9, 9, 4) == pl.b_from_u(9, 4, u[9]) == b[9][4]
    assert u_literal(9, 4) == u[9][4]
    assert pl.b_monster(9, 4, b) == pl.b_monster(9, 4, b[:9]) == b[9][4]
    assert binomial(22, 9) * pl.f_closed(9, 4) - pl.r_sum(9, 4, u) == b[9][4]
    rec = next(itertools.islice(wt.tc_rec_rows(4), 8, None))
    assert rec[4] == tc.tc(9, 4) == tc.tc_closed(9, 4) == tc.tc_from_a(9, 4, a[8][4])
    assert _module_values(*modules) == before


@pytest.mark.parametrize(
    "module, step, row_n",
    [(wall_tables, "_tc_rec_row", 6), (wall_tables, "_a_row", 5)],
    ids=["_tc_rec_row", "_a_row"],
)
def test_moved_tc_row_cell_fails_tc_routes(module, step, row_n, monkeypatch):
    # tc(6, 3), or the a(5, 3) that tc_from_a scales to it, moved when the
    # step of one route appends it
    original = getattr(module, step)

    def moved(prev, n, width):
        row = original(prev, n, width)
        if n == row_n and len(row) > 3:
            row[3] += 1
        return row

    monkeypatch.setattr(module, step, moved)
    assert run_cli("verify", "--check", "tc-routes") == (1, "tc-routes: FAIL (fails at (6, 3))\n")


def test_moved_tc_from_a_value_fails_tc_routes(monkeypatch):
    formula = tree_child.tc_from_a
    monkeypatch.setattr(tree_child, "tc_from_a",
                        lambda n, k, a: formula(n, k, a) + ((n, k) == (6, 3)))
    assert run_cli("verify", "--check", "tc-routes") == (1, "tc-routes: FAIL (fails at (6, 3))\n")


def test_tc_routes_steps_each_row_of_a_once(monkeypatch):
    # tc(n, .) reads row n - 1 of one walk of a, as the tc table does
    stepped = _stepped_rows_of_a(monkeypatch)
    assert run_cli("verify", "--check", "tc-routes", "--nmax", "30")[0] == 0
    assert stepped == list(range(1, 30))


def test_unintegral_tc_rec_cell_names_its_route(monkeypatch, capsys):
    # tc(5, 2) moved by 1 as the step of tc(6, .) reads it: the sum that
    # 6 - 2 divides moves by 6 (2 * 6 + 2 - 3) = 66, not a multiple of 4
    original = wall_tables._tc_rec_row

    def moved(prev, n, width):
        return original([*prev[:2], prev[2] + 1, *prev[3:]] if n == 6 else prev, n, width)

    monkeypatch.setattr(wall_tables, "_tc_rec_row", moved)
    assert run_cli("verify", "--check", "tc-routes") == (
        1, "tc-routes: FAIL (value at ('tc_rec_rows', 6, 2) is not an integer)\n")
    assert capsys.readouterr().err == ""


def test_omega_walks_take_their_seeds_from_the_seed_layers(monkeypatch):
    # the seed of each layer comes from omega_init_layers, never from a
    # per-cell b_closed call
    table = run_cli("table", "--seq", "omega", "--nmax", "6")

    def refused(m, k):
        raise RuntimeError(f"b_closed({m}, {k}) called")

    monkeypatch.setattr(closed_forms, "b_closed", refused)
    assert wall_tables.omega(6, 3, 2) == wall_tables.b3(9, 3, 2) == 16639
    assert run_cli("table", "--seq", "omega", "--nmax", "6") == table
    assert table[0] == 0
    assert run_cli("verify", "--check", "omega-bridge") == (
        0, "omega-bridge: PASS (n + m <= 14, k <= m + 1)\n"
    )


@pytest.mark.parametrize("entry", [0, 1, 2, 5, 16, 31])
def test_moved_seed_window_entry_fails_omega_bridge(entry, monkeypatch, capsys):
    # one entry of the first seed window, (j-1)!! for j = 0..31, moved by 1:
    # a seed comes out wrong, or a seed or a slid entry fails its checked
    # division; either way the check prints its FAIL line
    dfacts = closed_forms.double_factorials

    def moved(low, high):
        run = dfacts(low, high)
        if low == -1:
            run[entry] += 1
        return run

    monkeypatch.setattr(closed_forms, "double_factorials", moved)
    code, text = run_cli("verify", "--check", "omega-bridge")
    err = capsys.readouterr().err
    failed = re.fullmatch(r"omega-bridge: FAIL \((fails at \(\d+, \d+, \d+\)|value at "
                          r"\('omega_init_layers', \d+(, \d+)?\) is not an integer)\)\n", text)
    assert code == 1 and failed and not err, (text, err)


@pytest.mark.parametrize("check", ["cor-rec", "b12", "monster"])
def test_moved_b_cell_fails_the_checks_of_b(check, monkeypatch):
    # b(3, 3) moved when the two-term step appends it; no later row is read
    step = wall_tables._b_row

    def moved(prev, n, width):
        row = step(prev, n, width)
        if n == 3 and len(row) > 3:
            row[3] += 1
        return row

    monkeypatch.setattr(wall_tables, "_b_row", moved)
    assert run_cli("verify", "--check", check) == (1, f"{check}: FAIL (fails at (3, 3))\n")


def test_conjugate_pair_of_recurrences_fails_main_identity(monkeypatch):
    # a(n,k) = 2 a(n,k-1) + (2n+k-1) a(n-1,k) and the step of b conjugate to
    # it: the identity holds between the two wrong tables, so main-identity
    # must read b off the b3 diagonal to see the change
    def a_row(prev, n, width):
        row = [prev[0] * (2 * n - 1)]
        for k in range(1, min(n, width) + 1):
            row.append(2 * row[k - 1] + (2 * n + k - 1) * (prev[k] if k < n else 0))
        return row

    def b_row(prev, n, width):
        row = [exact_int(2 * (2 * n - 1) * prev[0], n + 1)]
        for k in range(1, min(n, width) + 1):
            below = prev[k] if k < n else 0
            rhs = 2 * (n - k + 2) * (n - k + 1) * row[k - 1] + 4 * (2 * n + k - 1) * below
            row.append(exact_int(rhs, 2 * (n - k + 1)))
        return row

    monkeypatch.setattr(wall_tables, "_a_row", a_row)
    monkeypatch.setattr(wall_tables, "_b_row", b_row)
    rows = zip(range(31), wall_tables.a_rows(30), wall_tables.b_rows(30))
    assert all(2 ** (n - k) * a[k] == math.factorial(n - k + 1) * b[k]
               for n, a, b in rows for k in range(n + 1))
    assert run_cli("verify", "--check", "main-identity") == (
        1, "main-identity: FAIL (fails at (1, 1))\n")


def test_unintegral_closed_dk_weight_exits_1(monkeypatch, capsys):
    # gamma_2 moved by 1: the k = 2 coefficient of t^1 is off by 3/2
    _move_cached_weight(monkeypatch, "_GAMMA_ROWS", closed_forms._gamma_row, 0)
    assert run_cli("verify", "--check", "dk-threeway") == (
        1, "dk-threeway: FAIL (value at ('dk_closed', 2, 1) is not an integer)\n")
    assert capsys.readouterr().err == ""


def test_unintegral_omega_seed_exits_1(monkeypatch, capsys):
    # gamma_2 moved by 1: the seed omega(0, 1, 2) is off by 1/2
    _move_cached_weight(monkeypatch, "_GAMMA_ROWS", closed_forms._gamma_row, 0)
    assert run_cli("verify", "--check", "omega-bridge") == (
        1, "omega-bridge: FAIL (value at ('omega_init_layers', 1, 2) is not an integer)\n")
    assert capsys.readouterr().err == ""


def test_check_that_raises_leaves_the_checks_after_it_running(monkeypatch, capsys):
    # entry 1 of gamma row 3 moved by its denominator (the rows above it are
    # solved from the moved row): four checks meet a checked division that
    # fails, five a wrong value, and every check prints its line
    monkeypatch.setattr(closed_forms, "_GAMMA_ROWS", closed_forms._GAMMA_ROWS[:1])
    nums, den = closed_forms._gamma_row(3)
    closed_forms._GAMMA_ROWS[3] = ((nums[0], nums[1] + den, *nums[2:]), den)
    code, text = run_cli("verify", "--check", "all")
    assert (code, capsys.readouterr().err) == (1, "")
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(checks.CHECKS)
    failed = [line.split(":")[0] for line in lines if ": FAIL (" in line]
    assert failed == ["closed-a", "closed-b", "delta-rec", "dk-threeway", "gamma-sum", "lemma28",
                      "omega-bridge", "omega-init-vanishing", "omega-vanishing"]
    unintegral = [line.split(":")[0] for line in lines if "is not an integer)" in line]
    assert unintegral == ["dk-threeway", "lemma28", "omega-bridge", "omega-vanishing"]
    assert all(": PASS (" in line for line in lines if line.split(":")[0] not in failed)


def _python_env():
    """The environment of a `python` on src/ whose standard streams are
    buffered, as they are by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(SRC)}


def _python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True, env=_python_env(), **kwargs)


def _bare_python(*args):
    """A fresh `python -S` (no site, so no .pth import hides a regression) on src/."""
    return _python("-S", *args, text=True)


# the modules argparse brought: itself, gettext and, at its first message, locale
PARSER_MODULES = ("argparse", "gettext", "locale")


def test_import_loads_no_network_modules():
    # every cold request pays for the eager import; none of these does any work for it
    unused = ["dataclasses", "inspect", "json", "importlib.resources", "typing",
              "urllib.request", "http.client", "ssl", "fractions", "decimal", "numbers",
              *PARSER_MODULES]
    snippet = f"import sys, youngwalls.cli\nprint(sorted(set({unused!r}) & set(sys.modules)))\n"
    proc = _bare_python("-c", snippet)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def _public_functions():
    """Every public function and public method defined in a package module."""
    for info in pkgutil.iter_modules(youngwalls.__path__):
        mod = importlib.import_module(f"youngwalls.{info.name}")
        for name, value in vars(mod).items():
            if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, type):
                yield from (getattr(value, attr) for attr in vars(value)
                            if not attr.startswith("_") and callable(getattr(value, attr)))
            elif callable(value):
                yield value


def test_annotations_of_main_and_the_runners_resolve():
    # every name an annotation uses is bound in its module, so the hints evaluate
    runners = {runner for _, _, runner in cli.COMMANDS.values()}
    assert runners == {fn for name, fn in vars(cli).items() if name.startswith("run_")}
    for fn in [cli.main, *runners]:
        assert typing.get_type_hints(fn)["return"] is int, fn.__name__
    functions = list(_public_functions())
    assert cli.main in functions and poset_lab.count_linear_extensions in functions
    for fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            pytest.fail(f"{fn.__module__}.{fn.__qualname__}: {exc}")


@pytest.mark.parametrize(
    "argv",
    [["table", "--seq", "b", "--nmax", "4", "--format", "json"],
     ["crosscheck", "--map", "a-diag"]],
)
def test_lazy_imports_in_a_fresh_process(argv):
    # JSON output needs no encoder; the fixture reader opens its b-file as a plain file
    proc = _bare_python("-m", "youngwalls.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (*run_cli(*argv), "")


def test_crosscheck_loads_no_resource_machinery():
    # every bundled b-file is read beside cli.py, not through importlib.resources
    # and the archive and temporary-file modules that it brings
    snippet = (
        "import io, sys\n"
        "from youngwalls import cli\n"
        "out = io.StringIO()\n"
        "codes = [cli.main(['crosscheck', '--map', name], out=out) for name in cli.OEIS_MAPS]\n"
        "loaded = {'importlib.resources', 'pathlib', 'zipfile', 'tempfile'} & set(sys.modules)\n"
        "print(codes, sorted(loaded))\n"
        "print(out.getvalue(), end='')\n"
    )
    proc = _bare_python("-c", snippet)
    status, *lines = proc.stdout.splitlines()
    assert (proc.returncode, status) == (0, f"{[0] * len(cli.OEIS_MAPS)} []"), proc.stderr
    assert len(lines) == len(cli.OEIS_MAPS) and all(" agree (" in line for line in lines)


# one request of each kind, none of which builds a rational: each table, each
# series method, each check and all of them in one request, each crosscheck
# map, each oracle sequence and asym
INTEGER_REQUESTS = [
    *(["table", "--seq", seq, "--nmax", "6"] for seq in TABLE_SEQS),
    *(["series", "--dk", "2", "--order", "8", "--method", m]
      for m in ("recurrence", "closed", "kernel")),
    *(["verify", "--check", name] for name in [*checks.CHECKS, "all"]),
    *(["crosscheck", "--map", name] for name in cli.OEIS_MAPS),
    *(["oracle", "--seq", seq, "--n", "3", "--k", "1", *(["--m", "2"] if seq == "b3" else [])]
      for seq in ("a", "b", "b3")),
    ["asym", "--n", "20", "--k", "1"],
]


@functools.cache
def _rational_modules() -> dict[str, frozenset[str]]:
    """For each request of INTEGER_REQUESTS that fails or loads fractions,
    decimal or numbers: the modules of the three it loaded, and "exit" if it
    failed.  The requests run in order in one fresh process, which stops at
    the first such request; a new process takes up the requests after it."""
    snippet = (
        "import io, sys\n"
        "from youngwalls import cli\n"
        "for request in sys.argv[1:]:\n"
        "    code = cli.main(request.split(), out=io.StringIO())\n"
        "    loaded = {'fractions', 'decimal', 'numbers'} & set(sys.modules)\n"
        "    if code or loaded:\n"
        "        print(request, *sorted(loaded), *['exit'] * bool(code), sep='|')\n"
        "        break\n"
    )
    found, rest = {}, [" ".join(argv) for argv in INTEGER_REQUESTS]
    while rest:
        proc = _bare_python("-c", snippet, *rest)
        assert proc.returncode == 0, proc.stderr
        if not proc.stdout.strip():
            break
        first, *loaded = proc.stdout.strip().split("|")
        found[first] = frozenset(loaded)
        rest = rest[rest.index(first) + 1 :]
    return found


@pytest.mark.parametrize("argv", INTEGER_REQUESTS, ids=" ".join)
def test_integer_request_loads_no_rational_module(argv):
    # no route builds a rational: fractions is never imported.  The tables of
    # a, b and tc may walk in decimal (which imports numbers), but only past
    # the bound, which none of these reaches; no request loads either
    if argv[0] == "table" and TABLE_RINGS[argv[2]] == "any":
        assert not cli._walks_in_decimal(cli._parse(argv))
    assert _rational_modules().get(" ".join(argv), frozenset()) == frozenset()


_PASS_RINGS = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from youngwalls import cli
tables = [argv for argv in workloads.build("tables", 1) if argv[:2] == ["table", "--seq"]]
loaded = []
for argv in sorted(tables, key=lambda argv: int(argv[4])):  # the shallow ones first
    sys.modules.pop("decimal", None)  # so that each request imports it anew
    cli.main(argv, io.StringIO())
    loaded.append([argv, sorted({"decimal", "numbers"} & set(sys.modules))])
print(json.dumps(loaded))
"""


def test_only_the_deep_tables_of_a_pass_load_decimal():
    # one bare process runs the table requests of a benchmark pass: the 23
    # shallow tables of a, b and tc walk in int and load neither decimal nor
    # numbers; the 3 deep columns (n = 700 and 1500) walk in decimal
    proc = _bare_python("-B", "-c", _PASS_RINGS, str(SRC.parent / "perfbench"))
    assert proc.returncode == 0, proc.stderr
    ringed = [(argv, loaded) for argv, loaded in json.loads(proc.stdout)
              if TABLE_RINGS[argv[2]] == "any"]
    deep = [argv for argv, loaded in ringed if int(argv[4]) >= 700]
    assert (len(ringed), len(deep)) == (26, 3)
    assert ringed == [(argv, ["decimal", "numbers"] if argv in deep else [])
                      for argv, _ in ringed]


USAGE_ERRORS = [[], ["frobnicate"], ["table", "--seq", "zzz", "--nmax", "3"],
                ["table", "--seq", "a", "--nmax", "-1"], ["series", "--dk", "1"],
                ["crosscheck", "--map", "b-k0", "--o"], ["asym", "--n", "3", "--k", "1", "--bogus"]]


def test_no_request_loads_the_parser_modules():
    # every request of INTEGER_REQUESTS, every --help and usage errors, in
    # one fresh process: none loads what argparse brought
    requests = [*INTEGER_REQUESTS, ["--help"], *([command, "--help"] for command in cli.COMMANDS),
                *USAGE_ERRORS]
    snippet = (
        "import io, sys\n"
        "from youngwalls import cli\n"
        "streams, sys.stdout, sys.stderr = (sys.stdout, sys.stderr), io.StringIO(), io.StringIO()\n"
        "codes = [cli.main(request.split(), out=io.StringIO()) for request in sys.argv[1:]]\n"
        "sys.stdout, sys.stderr = streams\n"
        f"print(codes, sorted(set({PARSER_MODULES!r}) & set(sys.modules)))\n"
    )
    proc = _bare_python("-c", snippet, *(" ".join(argv) for argv in requests))
    codes = [0] * (len(requests) - len(USAGE_ERRORS)) + [2] * len(USAGE_ERRORS)
    assert (proc.returncode, proc.stdout) == (0, f"{codes} []\n"), proc.stderr


def test_only_verify_loads_the_check_registry():
    # in one fresh process, youngwalls.checks is dropped from sys.modules
    # before each request: every verify request loads it again, and none of
    # the other requests, no --help and no usage error loads it
    requests = [*INTEGER_REQUESTS, ["--help"], *([command, "--help"] for command in cli.COMMANDS),
                *USAGE_ERRORS]
    snippet = (
        "import io, sys\n"
        "from youngwalls import cli\n"
        "streams, sys.stdout, sys.stderr = (sys.stdout, sys.stderr), io.StringIO(), io.StringIO()\n"
        "loaded = []\n"
        "for request in sys.argv[1:]:\n"
        "    sys.modules.pop('youngwalls.checks', None)\n"
        "    cli.main(request.split(), out=io.StringIO())\n"
        "    loaded.append('youngwalls.checks' in sys.modules)\n"
        "sys.stdout, sys.stderr = streams\n"
        "print(loaded)\n"
    )
    proc = _bare_python("-c", snippet, *(" ".join(argv) for argv in requests))
    verify = [argv[:1] == ["verify"] and argv[1:2] != ["--help"] for argv in requests]
    assert (proc.returncode, proc.stdout) == (0, f"{verify}\n"), proc.stderr
    assert sum(verify) == len(checks.CHECKS) + 1


def test_help_names_every_command_flag_and_choice(capsys):
    assert cli.main(["--help"]) == 0
    words = capsys.readouterr().out.split()
    assert all(command in words for command in cli.COMMANDS)
    for command, (_, flags, _) in cli.COMMANDS.items():
        assert cli.main([command, "--help"]) == 0
        words = set(re.split(r"[\s\[\]{},]+", capsys.readouterr().out))
        for flag, (value, _, _) in flags.items():
            choices = value if isinstance(value, tuple) else ()
            assert {flag, *choices} <= words, (command, flag)


@pytest.mark.parametrize("argv", [["--help"], ["table", "-h"]])
def test_help_goes_to_the_stream_main_was_given(argv, capsys):
    # the help that `walls` prints lands in the caller's stream, and none of
    # it on the process's stdout; usage errors stay on stderr
    assert cli.main(argv) == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: walls ")
    assert run_cli(*argv) == (0, help_text)
    assert capsys.readouterr() == ("", "")


_B_ROW = wall_tables._b_row


def broken_b_row(prev, n, width):
    """Row 4 of b stepped from a row 3 whose Catalan seed is one too large, so
    the seed 2 (2n-1) b(n-1, 0) / (n+1) = 84 / 5 does not divide."""
    return _B_ROW([prev[0] + 1, *prev[1:]] if n == 4 else prev, n, width)


def test_not_integral_maps_to_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(wall_tables, "_b_row", broken_b_row)
    assert run_cli("verify", "--check", "cor-rec") == (
        1, "cor-rec: FAIL (value at ('b', 4, 0) is not an integer)\n")
    assert capsys.readouterr().err == ""


def test_check_that_raises_prints_its_fail_line_under_optimize():
    # the checked division that fails is the check's FAIL, also with asserts
    # stripped, and nothing goes to stderr
    snippet = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_cli\n"
        "from youngwalls import cli, wall_tables\n"
        "wall_tables._b_row = test_cli.broken_b_row\n"
        "sys.exit(cli.main(['verify', '--check', 'cor-rec']))\n"
    )
    proc = _python("-O", "-c", snippet, text=True)
    want = (1, "cor-rec: FAIL (value at ('b', 4, 0) is not an integer)\n", "")
    assert (proc.returncode, proc.stdout, proc.stderr) == want


_TC_REC_ROW = wall_tables._tc_rec_row


def short_tc_rec_row(prev, n, width):
    """Row 4 of tc's recurrence stepped from a row 3 cut short by its last
    cell, so the step reads past the end of it."""
    return _TC_REC_ROW(prev[:-1] if n == 4 else prev, n, width)


def test_check_that_raises_any_exception_prints_its_fail_line(monkeypatch, capsys):
    # an exception inside a check is that check's FAIL line, naming where in
    # the package it was raised; the other checks run on and pass, and verify
    # exits 1, also with asserts stripped
    _, text = run_cli("verify", "--check", "all")
    assert text.count(": PASS (") == 26
    fail = "tc-routes: FAIL (raised IndexError at wall_tables._tc_rec_row: list index out of range)"
    want = (1, re.sub(r"(?m)^tc-routes: .*$", fail, text), "")
    monkeypatch.setattr(wall_tables, "_tc_rec_row", short_tc_rec_row)
    assert (*run_cli("verify", "--check", "all"), capsys.readouterr().err) == want
    snippet = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_cli\n"
        "from youngwalls import cli, wall_tables\n"
        "wall_tables._tc_rec_row = test_cli.short_tc_rec_row\n"
        "sys.exit(cli.main(['verify', '--check', 'all']))\n"
    )
    proc = _python("-O", "-c", snippet, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_memory_error_in_a_check_propagates(monkeypatch):
    # running out of memory is no verdict on the identity
    def exhausted(prev, n, width):
        raise MemoryError

    monkeypatch.setattr(wall_tables, "_tc_rec_row", exhausted)
    with pytest.raises(MemoryError):
        checks.CHECKS["tc-routes"].run()


def test_not_integral_decimal_table_maps_to_exit_1(monkeypatch, capsys):
    # the decimal route, forced by a bound of 0 digits, checks each division
    # as the int route does, also with asserts stripped; the complete rows
    # before the failure stay
    monkeypatch.setattr(wall_tables, "_b_row", broken_b_row)
    monkeypatch.setattr(cli, "DECIMAL_DIGITS", 0)
    want = (1, grid_csv({n: TABLE_B[n] for n in range(4)}), "error: value at ('b', 4, 0) is not an integer\n")
    assert (*run_cli("table", "--seq", "b", "--nmax", "6"), capsys.readouterr().err) == want
    snippet = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_cli\n"
        "from youngwalls import cli, wall_tables\n"
        "wall_tables._b_row, cli.DECIMAL_DIGITS = test_cli.broken_b_row, 0\n"
        "sys.exit(cli.main(['table', '--seq', 'b', '--nmax', '6']))\n"
    )
    proc = _python("-O", "-c", snippet, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize(
    "broken, signal",
    [(lambda v: exact_int(v, 0), "InvalidOperation"),
     (lambda v: (v / 4).to_integral_exact(), "Inexact")],
    ids=["divided by 0", "rounded"],
)
def test_decimal_signal_maps_to_exit_1(broken, signal, monkeypatch, capsys):
    # in the decimal route, forced by a bound of 0 digits, a cell a(3, 3) =
    # 106 that a step divides by 0, or rounds from 26.5, raises; no digit of
    # it is printed
    step = wall_tables._a_row
    monkeypatch.setattr(cli, "DECIMAL_DIGITS", 0)

    def moved(prev, n, width):
        row = step(prev, n, width)
        if n == 3:
            row[-1] = broken(row[-1])
        return row

    monkeypatch.setattr(wall_tables, "_a_row", moved)
    want = (1, grid_csv({n: TABLE_A[n] for n in range(3)}),
            f"error: decimal arithmetic signalled {signal}\n")
    assert (*run_cli("table", "--seq", "a", "--nmax", "6"), capsys.readouterr().err) == want


def _assert_division_fails(argv, check, message, capsys):
    """A failed checked division exits 1: verify prints it as the check's
    FAIL line, any other command as an error on stderr."""
    code, text = run_cli(*argv)
    want = (f"{check}: FAIL ({message})\n", "") if argv[0] == "verify" else ("", f"error: {message}\n")
    assert (code, text, capsys.readouterr().err) == (1, *want)


@pytest.mark.parametrize(
    "argv",
    [["series", "--dk", "2", "--order", "6", "--method", "kernel"],
     ["verify", "--check", "kernel-residual"]],
)
def test_failed_kernel_division_exits_1(argv, monkeypatch, capsys):
    # a slice that is not divisible by t breaks an identity: exit 1, not 2
    fk_next = checks.series_engine._fk_next

    def broken(b_prev, k):
        f = fk_next(b_prev, k)
        return ((f[0][0] + 1, *f[0][1:]), *f[1:])

    monkeypatch.setattr(checks.series_engine, "_fk_next", broken)
    _assert_division_fails(argv, "kernel-residual",
                           "kernel level 1: slice 0 of F_k is not divisible by t", capsys)


@pytest.mark.parametrize(
    "argv",
    [["series", "--dk", "0", "--order", "5", "--method", "kernel"],
     ["verify", "--check", "catalan-base"]],
)
def test_inexact_catalan_division_exits_1(argv, monkeypatch, capsys):
    # C(6, 3) moved to 21: a floor would give C_3 = 21 // 4 = 5 and pass
    binomial = checks.series_engine.binomial
    monkeypatch.setattr(checks.series_engine, "binomial",
                        lambda n, k: binomial(n, k) + ((n, k) == (6, 3)))
    _assert_division_fails(argv, "catalan-base",
                           "value at ('catalan_series', 3) is not an integer", capsys)


def test_invariants_checked_under_optimize():
    snippet = (
        "from youngwalls.exact_arith import NotIntegralError, exact_int\n"
        "try:\n"
        "    exact_int(1, 2)\n"
        "except NotIntegralError:\n"
        "    print('raised')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", snippet], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0 and proc.stdout == "raised\n"
    # every exact_int route of the registry, with asserts stripped
    argv = ["verify", "--check", "all", "--nmax", "6", "--kmax", "3", "--order", "8"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "youngwalls.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(checks.CHECKS)
    assert all(": PASS (" in line for line in lines)


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2), (["frobnicate"], 2)])
def test_top_level_help_and_usage_under_python_OO(argv, code):
    # -OO strips the docstrings: the help and the usage error read no
    # docstring, so they print as without it
    plain = _python("-m", "youngwalls.cli", *argv, text=True)
    proc = _python("-OO", "-m", "youngwalls.cli", *argv, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, plain.stdout, plain.stderr)
    assert "Traceback" not in proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "youngwalls.cli", "series", "--dk", "1", "--order", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1 7 38\n"


@pytest.mark.parametrize(
    "argv",
    [["table", "--seq", "a", "--nmax", "1500", "--k", "2", "--format", "bfile"],
     ["--help"],
     ["table", "--seq", "a"],
     ["oracle", "--seq", "a", "--n", "12", "--k", "3"],
     ["verify", "--check", "all"]],
    ids=" ".join,
)
def test_fast_exit_loses_no_output(argv, capsys):
    # the process ends without teardown: every byte written must be out first
    proc = _python("-m", "youngwalls.cli", *argv)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out.encode(), captured.err.encode())


@pytest.mark.parametrize("argv", [["table", "--seq", "a", "--nmax", "300"], ["--help"]],
                         ids=" ".join)
def test_closed_stdout_exits_1_in_silence(argv):
    # main meets the closed pipe while it writes the table; the help text is
    # still buffered when main returns, and the exit path's flush meets it
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "youngwalls.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_python_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("redirect", ["> /dev/full", ">&-"], ids=["full", "closed"])
@pytest.mark.parametrize(
    "argv",
    [["table", "--seq", "a", "--nmax", "3"], ["table", "--seq", "a", "--nmax", "300"],
     ["verify", "--check", "closed-a"], ["--help"], ["table", "--help"]],
    ids=" ".join,
)
def test_failed_write_exits_1_with_one_error_line(argv, redirect):
    # `walls ... > /dev/full` fails with ENOSPC, and with standard output
    # closed python starts with sys.stdout None: either way one error line
    # and exit 1, from main's write, its flush or the help
    proc = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
                           "youngwalls.cli", *argv], capture_output=True, text=True,
                          env=_python_env())
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert re.fullmatch(r"error: \[Errno \d+\] [^\n]+\n", proc.stderr), proc.stderr


def test_failed_write_in_process_keeps_the_stream_without_descriptor(capsys):
    # a StringIO has no descriptor to send to os.devnull: main still exits 1
    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    assert cli.main(["table", "--seq", "a", "--nmax", "3"], out=Full()) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_benchmark_checker_selftest_passes():
    # the benchmark's output checker imports routes by name; a deleted or
    # renamed one shows here, not only when the benchmark runs
    root = SRC.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failure(s)" in proc.stdout


def test_traced_launcher_runs_every_check(tmp_path):
    # the benchmark's tracer wraps every public function of each layer and
    # keys the calls into wall_tables by their arguments: a call from another
    # layer that passes a list would fail every traced verify request
    root = SRC.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(tmp_path / "trace.json"),
         str(time.monotonic_ns()), "verify", "--check", "all"],
        capture_output=True, text=True, cwd=root, env=_python_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 26 and "FAIL" not in proc.stdout
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["calls"]["tree_child"] > 0 and trace["calls"]["wall_tables"] > 0


@pytest.mark.parametrize("seq, layers", [("a", ["wall_tables"]), ("u", ["wall_tables", "poset_lab"])])
def test_traced_table_request_books_its_walk(seq, layers, tmp_path):
    # the tracer wraps the functions of each layer after import, so a reader of
    # cli.TWO_INDEX that held a function object from import time would walk
    # its table unseen
    root = SRC.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(tmp_path / "trace.json"),
         str(time.monotonic_ns()), "table", "--seq", seq, "--nmax", "5"],
        capture_output=True, text=True, cwd=root, env=_python_env(),
    )
    assert (proc.returncode, proc.stdout) == run_cli("table", "--seq", seq, "--nmax", "5")
    calls = json.loads((tmp_path / "trace.json").read_text())["calls"]
    assert all(calls[layer] > 0 for layer in layers), calls


_TRACED_PASS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer, workloads
import youngwalls
from youngwalls import cli
corpus = [argv for name in ("tables", "series", "verify") for argv in workloads.build(name, 1)]
def run_all():
    runs = []
    for argv in corpus:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, out)
        runs.append((code, out.getvalue(), err.getvalue()))
    return runs
untraced = run_all()
modules = {layer: sys.modules["youngwalls." + layer] for layer in tracer.LAYERS}
tracer.Tracer().install(youngwalls, modules)
differ = [argv for argv, plain, traced in zip(corpus, untraced, run_all()) if plain != traced]
print(json.dumps({"argvs": len(corpus), "differ": differ}))
"""


def test_traced_pass_of_every_workload_answers_as_untraced():
    # every request of one benchmark pass, run through cli.main and run again
    # with the benchmark's tracer installed: a route that passes another
    # layer an argument the tracer cannot key, or that the wrappers change,
    # breaks a traced request that no untraced test reaches
    root = SRC.parent
    proc = subprocess.run([sys.executable, "-B", "-c", _TRACED_PASS, str(root / "perfbench")],
                          capture_output=True, text=True, env=_python_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["argvs"] > 0 and result["differ"] == []
