"""Output checker: confirms each `walls` answer by a route other than the
one the request used.

* `a` against the gamma closed form `a_closed`;
* `b` against `b_closed`, `tc` against the delta form `tc_closed`;
* `u` rows are transformed back to `b` and compared with `b_closed`;
* `f` against the generating-function form (2k-1)!! C(n+k, 2k);
* `b3` at k = 0 against `b3_hook`, on the diagonal against `b_closed`, and
  elsewhere against the rational `omega` recurrence (b3(n, m, k) =
  omega(n-m, m, k));
* `omega` against the `b3` bridge: zero on the k = m+1 layer, `b3_hook` at
  k = 0 (so the m = 0 column is all ones), the `b3` recurrence elsewhere;
* `series --method kernel|closed` against the table route, and
  `series --method recurrence` against `b_closed`;
* `verify`, `oracle` and `crosscheck` by their PASS / agree lines.

The index layout of a table is checked in full; values are checked on a
seeded sample of cells (always including the first and the last), since
the closed forms cost more than reading the table.  The checker runs in the
benchmark process, outside the timed region.
"""

from __future__ import annotations

import json
import random
import re
from typing import Callable

import workloads
from youngwalls import (
    a_closed,
    b3,
    b3_hook,
    b_closed,
    binomial,
    double_factorial,
    factorial,
    omega,
    tc_closed,
)
from youngwalls import b as b_table

SAMPLE_CELLS = 6

# Defects of the program that the `tables` workload sends on purpose:
# (label, argv prefix, exit code, text in the last stderr line).
KNOWN_DEFECTS = (
    ("tc-digit-limit", workloads.TC_DIGIT_LIMIT, 2, "Exceeds the limit (4300 digits)"),
    ("omega-recursion", workloads.OMEGA_DEEP, 1, "RecursionError"),
)

TWO_INDEX = ("a", "b", "f", "ftilde", "u", "tc")
Index = tuple[int, ...]


class Mismatch(Exception):
    """An output that disagrees with the independent route."""


def options(argv: list[str]) -> dict[str, str | bool]:
    """Flags of a generated argument vector; the command is under "cmd"."""
    opts: dict[str, str | bool] = {"cmd": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if key in ("diag", "offline"):
            opts[key] = True
            i += 1
        else:
            opts[key] = argv[i + 1]
            i += 2
    return opts


def known_defect(argv: list[str], code: int, last_line: str) -> str | None:
    """Label of the known defect this failure reproduces, else None."""
    for label, prefix, want_code, text in KNOWN_DEFECTS:
        if argv[: len(prefix)] == prefix and code == want_code and text in last_line:
            return label
    return None


def classify(argv: list[str], code: int, stdout: bytes, stderr: str, timed_out: bool,
             rng: random.Random) -> dict | None:
    """None when a request exited 0 with a correct output, else a failure
    record: argv, exit code, last stderr line, reason and the known defect
    it reproduces (None for an unexpected failure)."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    last = lines[-1] if lines else ""
    known = None
    if timed_out:
        reason = "timeout"
    elif code != 0:
        reason = f"exit {code}"
        known = known_defect(argv, code, last)
    elif "Traceback (most recent call last)" in stderr:
        reason = "traceback"
    else:
        try:
            check(argv, stdout.decode(), rng)
            return None
        except Mismatch as exc:
            reason = f"wrong output: {exc}"
    return {"argv": argv, "exit": code, "last_stderr": last, "reason": reason,
            "known_defect": known}


def check(argv: list[str], stdout: str, rng: random.Random) -> None:
    """Raise Mismatch unless the output of a request that exited 0 is right."""
    opts = options(argv)
    checker: Callable[[dict, str, random.Random], None] = {
        "table": _check_table,
        "series": _check_series,
        "verify": _check_verify,
        "oracle": _check_oracle,
        "crosscheck": _check_crosscheck,
    }[opts["cmd"]]
    try:
        checker(opts, stdout, rng)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise Mismatch(f"unparsable output: {exc!r}") from exc


# ---------------------------------------------------------------------------
# tables


def _layout(opts: dict) -> tuple[list[Index], bool]:
    """Every cell index the request asks for, in output order, and whether
    it is a 1-D slice (printed with the n index only)."""
    seq, nmax = opts["seq"], int(opts["nmax"])
    kmax = int(opts["kmax"]) if "kmax" in opts else None
    mmax = int(opts["mmax"]) if "mmax" in opts else None
    if seq in TWO_INDEX:
        n_lo = 1 if seq in ("tc", "ftilde") else 0
        if "k" in opts or "diag" in opts:
            cells = []
            for n in range(n_lo, nmax + 1):
                k = n if "diag" in opts else int(opts["k"])
                if k <= n and not (seq == "tc" and k > n - 1):
                    cells.append((n, k))
            return cells, True
        cells = []
        for n in range(n_lo, nmax + 1):
            top = n - 1 if seq == "tc" else n
            top = top if kmax is None else min(top, kmax)
            cells += [(n, k) for k in range(top + 1)]
        return cells, False
    if seq == "b3":
        return [
            (n, m, k)
            for n in range(nmax + 1)
            for m in range((n if mmax is None else min(n, mmax)) + 1)
            for k in range((m if kmax is None else min(m, kmax)) + 1)
        ], False
    if seq == "omega":
        return [
            (n, m, k)
            for n in range(nmax + 1)
            for m in range((nmax if mmax is None else mmax) + 1)
            for k in range((m + 1 if kmax is None else min(m + 1, kmax)) + 1)
        ], False
    raise Mismatch(f"no checker for sequence {seq!r}")


def _parse_table(opts: dict, stdout: str, cells: list[Index], sliced: bool) -> list[str]:
    """Values (as decimal strings) aligned with `cells`, after checking that
    the printed indices and row shapes match the layout."""
    fmt = opts.get("format", "csv")
    shown = [(c[0],) for c in cells] if sliced else cells
    if fmt == "json":
        doc = json.loads(stdout)
        if doc["seq"] != opts["seq"]:
            raise Mismatch(f"json seq {doc['seq']!r}")
        printed = [tuple(entry[:-1]) for entry in doc["cells"]]
        values = [entry[-1] for entry in doc["cells"]]
    elif fmt == "bfile" or sliced or len(cells[0]) == 3:
        sep = None if fmt in ("bfile", "text") else ","
        rows = [line.split(sep) for line in stdout.splitlines()]
        printed = [tuple(int(i) for i in row[:-1]) for row in rows]
        values = [row[-1] for row in rows]
    else:
        sep = "," if fmt == "csv" else " "
        rows = [line.split(sep) for line in stdout.splitlines()]
        widths: dict[int, int] = {}
        for c in cells:
            widths[c[0]] = widths.get(c[0], 0) + 1
        if [len(r) for r in rows] != list(widths.values()):
            raise Mismatch("grid rows do not match the requested triangle")
        return [v for row in rows for v in row]
    if printed != shown:
        raise Mismatch(f"printed indices differ from the request ({len(printed)} vs {len(shown)} cells)")
    return values


def _sample(count: int, rng: random.Random) -> list[int]:
    picks = {0, count - 1}
    picks.update(rng.randrange(count) for _ in range(min(SAMPLE_CELLS, count)))
    return sorted(picks)


def _check_table(opts: dict, stdout: str, rng: random.Random) -> None:
    cells, sliced = _layout(opts)
    values = _parse_table(opts, stdout, cells, sliced)
    by_index = dict(zip(cells, values))
    expect = _EXPECT[opts["seq"]]
    for pos in _sample(len(cells), rng):
        idx = cells[pos]
        want = expect(idx, by_index)
        if int(values[pos]) != want:
            raise Mismatch(f"{opts['seq']}{idx} = {values[pos][:40]}..., expected {str(want)[:40]}...")


def _b_from_u_row(n: int, k: int, table: dict) -> int:
    """b(n, k) rebuilt from the printed u(n, 0..k) by the alternating
    transform; compared with b_closed so the u route is checked."""
    return sum(
        (-1) ** i * binomial(2 * n + k, k - i) * binomial(n - i, k - i) * factorial(k - i)
        * int(table[(n, i)])
        for i in range(k + 1)
    )


def _expect_b3(idx: Index, _table: dict) -> int:
    n, m, k = idx
    if k == 0:
        return b3_hook(n, m)
    if m == n:
        return b_closed(n, k)
    return omega(n - m, m, k)


def _expect_omega(idx: Index, _table: dict) -> int:
    n, m, k = idx
    if k == m + 1:
        return 0
    if k == 0:
        return b3_hook(n + m, m)
    return b3(n + m, m, k)


def _expect_u(idx: Index, table: dict) -> int:
    n, k = idx
    if _b_from_u_row(n, k, table) != b_closed(n, k):
        raise Mismatch(f"u row {n} does not transform back to b({n}, {k})")
    return int(table[idx])


_EXPECT: dict[str, Callable[[Index, dict], int]] = {
    "a": lambda idx, _: a_closed(*idx),
    "b": lambda idx, _: b_closed(*idx),
    "tc": lambda idx, _: tc_closed(*idx),
    "f": lambda idx, _: double_factorial(2 * idx[1] - 1) * binomial(idx[0] + idx[1], 2 * idx[1]),
    "u": _expect_u,
    "b3": _expect_b3,
    "omega": _expect_omega,
}


# ---------------------------------------------------------------------------
# series and the PASS / agree commands


def _check_series(opts: dict, stdout: str, rng: random.Random) -> None:
    k, order = int(opts["dk"]), int(opts["order"])
    coeffs = stdout.split()
    if len(coeffs) != order + 1:
        raise Mismatch(f"{len(coeffs)} coefficients for order {order}")
    if opts.get("method", "recurrence") == "recurrence":
        # the table route printed these; check a sample by the closed form
        for n in _sample(order + 1, rng):
            want = b_closed(n, k) if n >= k else 0
            if int(coeffs[n]) != want:
                raise Mismatch(f"D_{k} coefficient {n} differs from b_closed")
        return
    for n, c in enumerate(coeffs):
        if int(c) != b_table(n, k):
            raise Mismatch(f"D_{k} coefficient {n} differs from the table route")


def _check_verify(opts: dict, stdout: str, _rng: random.Random) -> None:
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith(f"{opts['check']}: PASS ("):
        raise Mismatch(f"verify output {stdout[:80]!r}")


_ORACLE = re.compile(r"brute=(\d+) table=(\d+) agree")


def _check_oracle(_opts: dict, stdout: str, _rng: random.Random) -> None:
    got = _ORACLE.fullmatch(stdout.strip())
    if got is None or got[1] != got[2]:
        raise Mismatch(f"oracle output {stdout[:80]!r}")


def _check_crosscheck(_opts: dict, stdout: str, _rng: random.Random) -> None:
    if re.search(r": n=\d+\.\.\d+ agree \(\d+ terms", stdout) is None:
        raise Mismatch(f"crosscheck output {stdout[:80]!r}")
