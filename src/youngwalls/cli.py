"""Command line front end.

Subcommands:

* ``table``      print a counting table (grid for 2-index sequences,
                 long form for 3-index ones)
* ``verify``     run named identity checks from the registry of ``checks``
                 (``--check all``)
* ``series``     print D_k coefficients by one of the three routes
* ``oracle``     compare a recurrence value against brute-force enumeration
* ``crosscheck`` compare a 1-D slice against an OEIS b-file (the bundled
                 fixtures; nothing is fetched)
* ``asym``       asymptotic estimate vs exact value, log-space error

Exit codes: 0 success, 1 a verification or comparison failed (or a value
that an identity makes integral came out otherwise, or standard output
could not be written), 2 usage error (also a flag that does not apply, or
bounds that select nothing to check or print), 3 capacity exceeded.
Integers in JSON are decimal strings so no consumer ever rounds them.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable, Iterator
from functools import partial
from io import TextIOBase
from itertools import count, islice
from types import SimpleNamespace

from . import poset_lab, series_engine, tree_child, wall_tables
from .exact_arith import NotIntegralError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

Cell = tuple[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# table command


# the 2-index sequences: seq -> (first row, short, ringed, reader): row n ends
# at k = n - short, and reader(width, one) yields, for each row n from the first
# on, cell(k) = the value at (n, k <= width), walked in the ring of one if ringed.
# A reader looks its functions up when called, so a later wrapper sees each call
TWO_INDEX: dict[str, tuple[int, int, bool, Callable[[int, object], Iterator[Callable]]]] = {
    "a": (0, 0, True, lambda width, one: (r.__getitem__ for r in wall_tables.a_rows(width, one))),
    "b": (0, 0, True, lambda width, one: (r.__getitem__ for r in wall_tables.b_rows(width, one))),
    "u": (0, 0, False, lambda width, one: (r.__getitem__ for r in poset_lab.u_rows(width))),
    "f": (0, 0, False, lambda width, one: (partial(poset_lab.f_closed, n) for n in count())),
    "ftilde": (1, 0, False, lambda width, one: (partial(poset_lab.ftilde, n) for n in count(1))),
    "tc": (1, 1, True, lambda width, one: (lambda k, n=n, row=row: tree_child.tc_from_a(
        n, k, row[k]) for n, row in enumerate(wall_tables.a_rows(width, one), 1))),
}


def _table_rows(args: SimpleNamespace, one: object = 1) -> Iterator[list[Cell]]:
    """The cells of a `table` request, one list per row n, each computed
    when it is read (see ``TWO_INDEX``).  Every usage error is raised here,
    before any row."""
    seq, nmax = args.seq, args.nmax
    sliced = args.k is not None or args.diag
    if args.k is not None and args.diag:
        raise ValueError("--k and --diag are mutually exclusive")

    if seq in TWO_INDEX:
        start, short, _, reader = TWO_INDEX[seq]
        if short and args.diag:
            raise ValueError(f"{seq} has no diagonal: its domain is k <= n-1")
        if args.mmax is not None:
            raise ValueError(f"--mmax clips the 3-index sequences only, not {seq}")
        if sliced and args.kmax is not None:
            raise ValueError("--kmax clips a full table; it does not combine with --k or --diag")
        first = start if args.k is None else max(start, args.k + short)
        if first > nmax:
            reach = " reaches the slice" if sliced else ""
            raise ValueError(f"no row of {seq} with n <= {nmax}{reach}")
        width = args.k if args.k is not None else nmax if args.kmax is None else args.kmax
        readers = zip(range(start, nmax + 1), reader(width, one))
        if sliced:  # the slice cell (n,) of each row from the first the slice reaches
            rows = ([((n,), cell(n if args.diag else args.k))] for n, cell in readers if n >= first)
        else:  # the cells (n, k) up to the end of the row or --kmax
            rows = ([((n, k), cell(k)) for k in range(min(n - short, width) + 1)]
                    for n, cell in readers)
    elif sliced:
        raise ValueError("slices are only available for 2-index sequences")
    else:
        # (n, grid) with grid[m][k] the value at (n, m, k), in long form
        if seq == "b3":
            grids = zip(range(nmax + 1), wall_tables.b3_layers(
                nmax if args.kmax is None else args.kmax, args.mmax))
        else:  # omega
            mmax = args.mmax if args.mmax is not None else nmax
            kmax = args.kmax if args.kmax is not None else mmax + 1
            grids = enumerate(wall_tables.omega_rows(nmax, mmax, kmax))
        rows = ([((n, m, k), v) for m, row in enumerate(grid) for k, v in enumerate(row)]
                for n, grid in grids)
    if args.format == "bfile" and not sliced:
        raise ValueError("bfile output needs a 1-D slice (--k or --diag)")
    return rows


def _render_rows(args: SimpleNamespace, rows: Iterator[list[Cell]], out: TextIOBase) -> None:
    """Write each row as soon as it is computed: a failure part way leaves
    the complete rows before it on ``out``."""
    fmt = args.format
    if fmt == "json":
        # byte for byte the json.dumps(doc, separators=(",", ":")) of
        # {"seq": seq, "cells": [[*idx, str(v)], ...]}
        out.write(f'{{"seq":"{args.seq}","cells":[')
        sep = ""
        for row in rows:
            out.write(sep + ",".join(f'[{",".join(map(str, idx))},"{v}"]' for idx, v in row))
            sep = ","
        out.write("]}\n")
        return
    # a b-file is the text form of a slice: "n value" lines
    sep = "," if fmt == "csv" else " "
    for row in rows:
        if len(row[0][0]) == 2:  # grid: one output row per n, cells in k order
            out.write(sep.join(str(v) for _, v in row) + "\n")
        else:
            out.write("".join(sep.join(map(str, (*idx, v))) + "\n" for idx, v in row))


# a ringed table walks in decimal.Decimal (str in linear time; int's is quadratic
# in CPython <= 3.11) if a bound on its values has this many digits.  Cold CPU,
# int/Decimal, 2-core Xeon: a --nmax 47 13/15 ms, a --nmax 149 27/25, a --nmax 224
# --k 2 12/14 (bound 1000 digits), tc --nmax 1500 --k 2 158/32
DECIMAL_DIGITS = 1000


def _walks_in_decimal(args: SimpleNamespace) -> bool:
    """Whether a `table` request is ringed and may print DECIMAL_DIGITS digits."""
    if not TWO_INDEX.get(args.seq, (0, 0, False))[2]:
        return False
    n = args.nmax
    k = args.k if args.k is not None else n if args.kmax is None else min(n, args.kmax)
    # a(n, k) and b(n, k) count fillings of 2n + k cells, so each is at most
    # (2n+k)!; tc(n, k) = n!/(n-k)! a(n-1, k) <= n^k (2n+k-2)!, with no row 0
    log_bound = math.lgamma(2 * n + k + 1) if args.seq != "tc" else (
        n and k * math.log(n) + math.lgamma(2 * n + k - 1))
    return log_bound >= DECIMAL_DIGITS * math.log(10)


def run_table(args: SimpleNamespace, out: TextIOBase) -> int:
    if not _walks_in_decimal(args):
        _render_rows(args, _table_rows(args), out)
        return EXIT_OK
    import decimal  # only the tables past the bound pay for it
    # the steps add, multiply and exactly divide integers: nothing rounds, and what
    # did would raise; none divides truly, which would ask for MAX_PREC digits
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                            traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                                   decimal.DivisionByZero, decimal.Overflow])
    try:
        with decimal.localcontext(exact):
            _render_rows(args, _table_rows(args, decimal.Decimal(1)), out)
    except decimal.DecimalException as exc:
        print(f"error: decimal arithmetic signalled {type(exc).__name__}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# series command


def run_series(args: SimpleNamespace, out: TextIOBase) -> int:
    k, order = args.dk, args.order
    if args.method == "recurrence":
        s = series_engine.dk_from_table(k, order)
    elif args.method == "closed":
        s = series_engine.dk_closed(k, order)
    else:
        s = series_engine.dk_kernel(k, order)
    print(" ".join(map(str, s)), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle command


def run_oracle(args: SimpleNamespace, out: TextIOBase) -> int:
    seq, n, k, m = args.seq, args.n, args.k, args.m
    if m is not None and seq != "b3":
        raise ValueError(f"--m belongs to oracle --seq b3 only, not {seq}")
    if seq == "a":
        brute, fast = poset_lab.a_brute(n, k), wall_tables.a_rec(n, k)
    elif seq == "b":
        brute, fast = poset_lab.b_brute(n, k), wall_tables.b(n, k)
    else:  # b3
        if m is None:
            raise ValueError("oracle --seq b3 needs --m")
        brute, fast = poset_lab.b3_brute(n, m, k), wall_tables.b3(n, m, k)
    verdict = "agree" if brute == fast else "disagree"
    print(f"brute={brute} table={fast} {verdict}", file=out)
    return EXIT_OK if brute == fast else EXIT_FAIL


# ---------------------------------------------------------------------------
# crosscheck command

OEIS_MAPS: dict[str, tuple[str, int, Callable[[int], Iterator[int]]]] = {
    # values n = 0, 1, 2, ... off one walk, right for n <= top; b is seeded by
    # the Catalan numbers, so their check reads the b3 diagonal
    "b-k0": ("A000108", 0, lambda top: (ly[n][0] for n, ly in enumerate(wall_tables.b3_layers(0)))),
    "a-diag": ("A213863", 0, lambda top: (r[n] for n, r in enumerate(wall_tables.a_rows(top)))),
    "a-k1": ("A122649", 1, lambda top: (n and r[1] for n, r in enumerate(wall_tables.a_rows(1)))),
    "b-k1": ("A000531", 1, lambda top: (n and r[1] for n, r in enumerate(wall_tables.b_rows(1)))),
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
    path = os.path.join(os.path.dirname(__file__), "oeis_fixtures", f"b{oeis_id[1:]}.txt")
    with open(path, encoding="utf-8") as file:
        return file.read()


def run_crosscheck(args: SimpleNamespace, out: TextIOBase) -> int:
    if args.map not in OEIS_MAPS:
        raise ValueError(f"unknown map {args.map!r}; choose from {sorted(OEIS_MAPS)}")
    oeis_id, offset, stream = OEIS_MAPS[args.map]
    if args.oeis is not None and args.oeis != oeis_id:
        raise ValueError(f"map {args.map} is tied to {oeis_id}, not {args.oeis}")
    cap = args.nmax if args.nmax is not None else 60
    terms = {idx: val for idx, val in parse_bfile(_fixture_bfile(oeis_id)) if offset <= idx <= cap}
    if not terms:
        # a bound that selects no term proved nothing
        raise ValueError(f"no term of {oeis_id} with {offset} <= n <= {cap}")
    # the walk ends at the first mismatch, else at the largest index compared
    for idx, ours in enumerate(islice(stream(cap), max(terms) + 1)):
        if idx in terms and ours != terms[idx]:
            print(
                f"{oeis_id} <-> {args.map}: mismatch at n={idx}: ours={ours} oeis={terms[idx]}",
                file=out,
            )
            return EXIT_FAIL
    print(
        f"{oeis_id} <-> {args.map}: n={min(terms)}..{max(terms)} agree "
        f"({len(terms)} terms, offset {offset})",
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


def run_asym(args: SimpleNamespace, out: TextIOBase) -> int:
    log_est = tree_child.tc_asym_log(args.n, args.k)
    try:
        shown = f"{math.exp(log_est):.6e}"
    except OverflowError:  # the estimate overflows a double long before its log does
        shown = _sci_from_log(log_est)
    exact = tree_child.tc(args.n, args.k)
    rel = tree_child.tc_asym_rel_error(log_est, exact)
    print(f"estimate={shown} exact={exact} rel_error={rel:.3e}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command


def run_verify(args: SimpleNamespace, out: TextIOBase) -> int:
    from .checks import CHECKS  # only verify loads the registry

    given = {"nmax": args.nmax, "kmax": args.kmax, "order": args.order}
    if args.check != "all":
        if args.check not in CHECKS:
            raise ValueError(f"unknown check {args.check!r}; choose from {sorted(CHECKS)} or 'all'")
        # a named check must take every bound given; "all" applies each where it can
        bounds = CHECKS[args.check].bounds
        unused = [b for b, v in given.items() if v is not None and b not in bounds]
        if unused:
            takes = " and ".join(f"--{b}" for b in bounds)
            raise ValueError(f"check {args.check} takes no --{unused[0]}, only {takes}")
    statuses = set()
    for name in sorted(CHECKS) if args.check == "all" else [args.check]:
        status, detail = CHECKS[name].run(**given)
        print(f"{name}: {status} ({detail})", file=out)
        statuses.add(status)
    if "FAIL" in statuses:
        return EXIT_FAIL
    # a check whose bounds select no cell proved nothing
    return EXIT_USAGE if "EMPTY" in statuses else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _count(text: str) -> int:
    """The value of every count and bound flag: an integer >= 0."""
    if not text.isdecimal():
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return int(text)


REQUIRED = ...  # the default of a flag that must be given
COUNT, NEEDED = (_count, None, ""), (_count, REQUIRED, "")  # a count or bound flag
_HELP = ("-h", "--help")
# command -> (help, {flag: (value, default, help)}, runner), where the value
# is a type (_count or str), a tuple of choices, or bool for a switch
COMMANDS: dict[str, tuple[str, dict[str, tuple[object, object, str]], Callable[..., int]]] = {
    "table": ("print a counting table", {
        "--seq": (("a", "b", "b3", "omega", "tc", "f", "ftilde", "u"), REQUIRED, ""),
        "--nmax": NEEDED, "--kmax": COUNT, "--mmax": COUNT,
        "--k": (_count, None, "emit the 1-D slice at this k"),
        "--diag": (bool, False, "emit the diagonal slice"),
        "--format": (("csv", "text", "json", "bfile"), "csv", "")}, run_table),
    "verify": ("run identity checks", {"--check": (str, REQUIRED, "registry name, or 'all'"),
               "--nmax": COUNT, "--kmax": COUNT, "--order": COUNT}, run_verify),
    "series": ("print D_k coefficients", {"--dk": NEEDED, "--order": NEEDED, "--method": (
        ("recurrence", "closed", "kernel"), "recurrence", "")}, run_series),
    "oracle": ("brute-force comparison", {"--seq": (("a", "b", "b3"), REQUIRED, ""),
                                          "--n": NEEDED, "--k": NEEDED, "--m": COUNT}, run_oracle),
    "crosscheck": ("compare a slice against an OEIS b-file", {
        "--map": (str, REQUIRED, f"one of {sorted(OEIS_MAPS)}"),
        "--oeis": (str, None, "expected OEIS id (sanity check)"), "--nmax": COUNT,
        "--offline": (bool, False, "accepted; every crosscheck reads the bundled fixtures")},
        run_crosscheck),
    "asym": ("asymptotic estimate vs exact count", {"--n": NEEDED, "--k": NEEDED}, run_asym),
}


def _exit(command: str | None, error: str = "", out: TextIOBase | None = None) -> SystemExit:
    """Print the help to ``out`` (SystemExit(0)), or the usage and an error
    to stderr (SystemExit(2))."""
    if command is None:
        usage = f"usage: walls [-h] {{{','.join(COMMANDS)}}} ..."
        # a literal, not the module docstring, which python -OO strips
        about, rows = "Command line front end.", [(name, h) for name, (h, *_) in COMMANDS.items()]
    else:
        about, flags, _ = COMMANDS[command]
        rows = [(f if v is bool else f"{f} {{{','.join(v)}}}" if isinstance(v, tuple)
                 else f"{f} {f[2:].upper()}", h) for f, (v, _, h) in flags.items()]
        usage = " ".join([f"usage: walls {command} [-h]", *(form if flags[form.split()[0]][1]
                          is REQUIRED else f"[{form}]" for form, _ in rows)])
    if error:
        prog = f"walls {command}" if command else "walls"
        print(usage, f"{prog}: error: {error}", sep="\n", file=sys.stderr)
        return SystemExit(EXIT_USAGE)
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(form) for form, _ in rows) + 2
    print(usage, "", about, "", *(f"  {form:<{width}}{h}".rstrip() for form, h in rows), sep="\n",
          file=out, flush=True)  # a failed write shows in main
    return SystemExit(EXIT_OK)


def _flag(token: str, command: str | None = None) -> tuple[str, str | None] | None:
    """What argparse (allow_abbrev) took a token after ``command`` (None
    before one) for: None for a value, else the flag of -h, --help and the
    command's flags that it names in full or by a unique prefix ("" for
    none, as for "--") and its value after "=" (None without "=")."""
    if token[:1] != "-" or token == "-":
        return None
    names = (*_HELP, *COMMANDS[command][1]) if command else _HELP
    name, eq, value = token.partition("=")
    if token[:2] == "-h" and name != "-h":  # -h with a value glued on
        return "-h", token[2:]
    long = token[:2] == "--" and token != "--"  # a long flag's prefix; "--" alone names none
    hits = [name] if name in names else [f for f in names if long and f.startswith(name)]
    if len(hits) > 1:
        raise _exit(command, f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
    return None if number or " " in token else ("", None)


def _parse(argv: list[str], out: TextIOBase | None = None) -> SimpleNamespace:
    """The command and flag values of argv, read as argparse read them, left
    to right: -h raises _exit(command) with the help on ``out`` (None for
    sys.stdout), a misuse _exit(command, error); a missing flag, then an
    unknown flag or stray value, once all are read."""
    command, flags, values, stray = None, {}, {}, []
    kinds, i = [_flag(token) for token in argv], 0
    while i < len(argv):
        token, kind, i = argv[i], kinds[i], i + 1
        if kind is None and command is None:
            if token not in COMMANDS:
                raise _exit(None, f"argument command: invalid choice: {token!r}")
            command, flags = token, COMMANDS[token][1]
            values = {flag[2:]: default for flag, (_, default, _) in flags.items()}
            kinds[i:] = [_flag(t, command) for t in argv[i:]]  # ambiguity fails first
        elif kind is None or not kind[0]:
            stray.append(token)
        else:
            (flag, value), form = kind, flags.get(kind[0], (bool,))[0]  # -h is a switch
            if flag in _HELP or form is bool and value is not None:  # help, or a switch's value
                error = "" if value is None else f"argument {flag} takes no value"
                raise _exit(command, error, out)
            if form is not bool and value is None:
                if kinds[i:i + 1] != [None]:  # the next token, if any, is no value
                    raise _exit(command, f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            if isinstance(form, tuple) and value not in form:
                raise _exit(command, f"argument {flag}: invalid choice: {value!r}")
            try:  # True for a switch, else the value, converted by its type
                values[flag[2:]] = form is bool or (form(value) if callable(form) else value)
            except ValueError as exc:
                raise _exit(command, f"argument {flag}: {exc}") from None
    missing = [flag for flag in flags if values[flag[2:]] is REQUIRED] if command else ["command"]
    if missing:
        raise _exit(command, f"the following arguments are required: {', '.join(missing)}")
    if stray:
        raise _exit(None, f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None, out: TextIOBase | None = None) -> int:
    if sys.stdout is None:  # fd 1 was closed: a read-only fd fails each write alike (EBADF)
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), "w")
    out = out if out is not None else sys.stdout
    # counts run to thousands of digits; lift the decimal conversion limit
    # (absent before 3.10.7) for this call only
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(sys.argv[1:] if argv is None else argv, out)
        code = COMMANDS[args.command][2](args, out)
        out.flush()  # a failed write shows here, not at exit
        return code
    except SystemExit as exc:  # the help, or a usage error
        return int(exc.code or 0)
    except OSError as exc:  # a failed write: what is left, also at exit, goes to os.devnull
        try:  # a reader that has gone passes in silence
            if not isinstance(exc, BrokenPipeError):
                print(f"error: {exc}", file=sys.stderr)
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        except OSError:  # stderr fails too, or out has no descriptor (StringIO)
            pass
        return EXIT_FAIL
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


def entry() -> None:
    """The `walls` script and ``python -m youngwalls.cli``: run ``main``,
    flush the standard streams and end the process with main's exit code.
    It never returns: ``os._exit`` skips the interpreter's teardown, which
    unloads every module and costs a cold request several milliseconds.
    A flush that fails (the reader has gone) exits 1, as in ``main``."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = EXIT_FAIL
    os._exit(code)


if __name__ == "__main__":
    entry()
