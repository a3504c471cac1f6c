import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from youngwalls import cli, closed_forms, tree_child
from youngwalls.exact_arith import NotIntegralError

from conftest import TABLE_A, TABLE_B

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


def test_table_omega_deep_column():
    code, text = run_cli("table", "--seq", "omega", "--nmax", "1200", "--mmax", "0", "--kmax", "0")
    assert code == 0
    # omega(n, 0, 0) = b3_hook(n, 0) = 1
    assert text.splitlines() == [f"{n},0,0,1" for n in range(1201)]


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


def test_verify_unknown_check():
    code, _ = run_cli("verify", "--check", "no-such-check")
    assert code == 2


@pytest.mark.parametrize("name", sorted(cli.CHECKS))
def test_registry_identity_holds(name):
    ok, detail = cli.CHECKS[name].run()
    assert ok, detail


def test_check_stops_at_first_failing_cell():
    visited = []

    def holds(n, k):
        visited.append((n, k))
        return (n, k) != (2, 1)

    check = cli.Check("fails once", {"nmax": 4}, "n <= {nmax}", cli._triangle, holds)
    assert check.run() == (False, "fails at (2, 1)")
    assert visited == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert check.run(nmax=1, kmax=7) == (True, "n <= 1")
    assert check.run(nmax=None) == (False, "fails at (2, 1)")
    one_index = cli.Check("fails at 5", {"top": 9}, "i <= {top}", cli._upto, lambda i: i != 5)
    assert one_index.run() == (False, "fails at (5)")
    assert one_index.run(top=4) == (True, "i <= 4")


def test_verify_reports_the_first_failing_cell(monkeypatch):
    a_alt = cli.wall_tables.a_alt
    monkeypatch.setattr(cli.wall_tables, "a_alt", lambda n, k: a_alt(n, k) + ((n, k) == (3, 2)))
    code, text = run_cli("verify", "--check", "a-alt")
    assert code == 1
    assert text == "a-alt: FAIL (fails at (3, 2))\n"
    code, text = run_cli("verify", "--check", "all", "--nmax", "6", "--kmax", "3", "--order", "8")
    assert code == 1
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(cli.CHECKS)
    assert [line for line in lines if ": PASS (" not in line] == ["a-alt: FAIL (fails at (3, 2))"]


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
    assert len(lines) == len(cli.CHECKS)
    assert all(": PASS (" in line for line in lines)
    assert [line.split(":")[0] for line in lines] == sorted(cli.CHECKS)


def test_verify_zero_cell_domain_is_empty_not_pass(monkeypatch):
    code, text = run_cli("verify", "--check", "tc-routes", "--nmax", "0")
    assert (code, text) == (2, "tc-routes: EMPTY (n <= 0, six routes)\n")
    code, text = run_cli("verify", "--check", "all", "--nmax", "0")
    assert code == 2
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(cli.CHECKS)
    empty = [line.split(":")[0] for line in lines if ": EMPTY (" in line]
    assert empty == ["b12", "f-rec", "lemma28", "lemma29", "monster", "tc-dfact", "tc-routes"]
    assert all(": PASS (" in line for line in lines if line.split(":")[0] not in empty)
    # a failure outranks an empty domain
    a_alt = cli.wall_tables.a_alt
    monkeypatch.setattr(cli.wall_tables, "a_alt", lambda n, k: a_alt(n, k) + 1)
    assert run_cli("verify", "--check", "all", "--nmax", "0")[0] == 1


def test_readme_lists_every_registered_check():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### `verify`", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(names) == sorted(cli.CHECKS)
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


def test_crosscheck_id_mismatch():
    code, _ = run_cli("crosscheck", "--map", "b-k0", "--oeis", "A000001", "--offline")
    assert code == 2


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
    est = tree_child.tc_asym(20, 1)
    assert run_cli("asym", "--n", "20", "--k", "1")[1].startswith(f"estimate={est:.6e} ")
    assert cli._sci_from_log(math.log(est)) == f"{est:.6e}"
    assert cli._sci_from_log(math.log(9.9999999e20)) == "1.000000e+21"
    assert cli._sci_from_log(math.log(3e-5)) == "3.000000e-05"


def test_unknown_command_is_usage_error():
    code, _ = run_cli("frobnicate")
    assert code == 2


def test_missing_required_flag_is_usage_error():
    code, _ = run_cli("table", "--nmax", "3")
    assert code == 2


@pytest.mark.parametrize(
    "check, rows, row, entry, cell",
    [("closed-a", "_GAMMA_ROWS", closed_forms._gamma_row, 0, "(2, 2)"),
     ("tc-routes", "_DELTA_ROWS", closed_forms.delta_row, 1, "(3, 2)")],
)
def test_wrong_cached_weight_fails_the_check(monkeypatch, check, rows, row, entry, cell):
    # a cache cut back to its seed row, restored by monkeypatch; one numerator
    # of one row moves by its denominator, so the sum stays integral but wrong
    monkeypatch.setattr(closed_forms, rows, getattr(closed_forms, rows)[:1])
    nums, den = row(2)
    wrong = list(nums)
    wrong[entry] += den
    getattr(closed_forms, rows)[2] = (tuple(wrong), den)
    code, text = run_cli("verify", "--check", check)
    assert (code, text) == (1, f"{check}: FAIL (fails at {cell})\n")


def _bare_python(*args):
    """A fresh `python -S` (no site, so no .pth import hides a regression) on src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True, env=env)


def test_import_loads_no_network_modules():
    # every cold request pays for the eager import; none of these does any work for it
    unused = ["dataclasses", "inspect", "json", "importlib.resources", "typing",
              "urllib.request", "http.client", "ssl"]
    snippet = f"import sys, youngwalls.cli\nprint(sorted(set({unused!r}) & set(sys.modules)))\n"
    proc = _bare_python("-c", snippet)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["table", "--seq", "b", "--nmax", "4", "--format", "json"],
     ["crosscheck", "--map", "a-diag"]],
)
def test_lazy_imports_in_a_fresh_process(argv):
    # the JSON renderer and the fixture reader import their modules on first use
    proc = _bare_python("-m", "youngwalls.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (*run_cli(*argv), "")


def test_not_integral_maps_to_exit_1(monkeypatch, capsys):
    def broken(n, k):
        raise NotIntegralError("value at ('b_cor_rec', 0, 0) is not an integer")

    monkeypatch.setattr(cli.wall_tables, "b_cor_rec", broken)
    code, _ = run_cli("verify", "--check", "cor-rec")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_invariants_checked_under_optimize():
    snippet = (
        "from fractions import Fraction\n"
        "from youngwalls.exact_arith import NotIntegralError, exact_int\n"
        "try:\n"
        "    exact_int(Fraction(1, 2))\n"
        "except NotIntegralError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", snippet], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "raised\n"
    # every exact_int route of the registry, with asserts stripped
    argv = ["verify", "--check", "all", "--nmax", "6", "--kmax", "3", "--order", "8"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "youngwalls.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(cli.CHECKS)
    assert all(": PASS (" in line for line in lines)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "youngwalls.cli", "series", "--dk", "1", "--order", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1 7 38\n"
