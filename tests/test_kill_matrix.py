"""The kill matrix: which `verify` checks catch a wrong value of each route.

A mutant wraps one function of the package and changes the value that it
returns at one trigger, a pattern over its positional arguments in which
``...`` matches any argument.  A table step doubles one cell of row 4, a
closed route doubles its value at one argument, a series adds 1 at t^3,
and so on (``MUTANTS``).  The wrapper replaces the function in every
module of the package that binds it.

One child process sweeps the mutants.  For each, and for ``none``, the
unmutated code, it cuts ``closed_forms._GAMMA_ROWS`` back to its seed row,
clears the cache of ``_lemma28_weights``, runs every check of
``checks.CHECKS`` at its default bounds and records, in registry order,
the checks whose status is not PASS.  A mutant whose function no check
calls is then called once at its trigger.

``tests/kill_matrix.txt`` holds the matrix, one line per mutant.  The test
fails when a mutant's catches differ from the file, when a mutant is caught
by no check and the file gives no reason for it, or when a mutant never
changed its function's value at its trigger.  After a check or a route is
added or retired, regenerate the file and name the changed catches in
CHANGES.md:

    PYTHONPATH=src python tests/test_kill_matrix.py

rewrites it in place and keeps its comment lines and every reason.
"""

import json
import os
import subprocess
import sys
from operator import add
from pathlib import Path

from youngwalls import closed_forms, poset_lab, series_engine, tree_child, wall_tables

ROOT = Path(__file__).resolve().parents[1]
MATRIX = Path(__file__).with_name("kill_matrix.txt")
_changed: list[object] = []  # each value that a mutant changed


def _moved(value, path, f):
    """value with the entry at path (the value itself for an empty path)
    replaced by f of it; a value without that entry is returned as it is."""
    if not path:
        new = f(value)
        if new != value:
            _changed.append(value)
        return new
    i, *rest = path
    if i >= len(value):
        return value
    return type(value)((*value[:i], _moved(value[i], rest, f), *value[i + 1:]))


def _double(v):
    return 2 * v


def _plus_one(v):
    return v + 1


def _at(*path, f=_double):
    """The change that applies f at path of the value."""
    return lambda value, *args: _moved(value, path, f)


def _plus_den(row):
    """One denominator added to entry 0 of an integer row over its denominator."""
    return _moved(row, (0, 0), lambda c: c + row[1])


def _seed_3_1_doubled(layers, *args):
    """The seed rows with the k = 1 seed of layer 3 doubled."""
    return (_moved(seeds, (1,), _double) if s == 3 else seeds for s, seeds in enumerate(layers))


def _two_minus_k(f, b_prev, k):
    """F_k with (2 - k) B_{k-1} in place of (1 - k) B_{k-1}: B_{k-1} added."""
    return _moved(f, (), lambda f: tuple(tuple(map(add, x, y)) for x, y in zip(f, b_prev)))


# name: (module, trigger, change(value, *args) -> value)
MUTANTS = {
    # a table step doubles one cell of row 4 (column 4 of a_alt)
    "_a_row": (wall_tables, (..., 4), _at(1)),
    "_b_row": (wall_tables, (..., 4), _at(1)),
    "_b3_layer": (wall_tables, (..., 4), _at(4, 1)),
    "_omega_layer": (wall_tables, (..., 4), _at(1, 1)),
    "_a_alt_column": (wall_tables, (..., 4), _at(5)),
    "_tc_rec_row": (wall_tables, (..., 4), _at(1)),
    # a closed route doubles its value at one argument
    "tc_closed": (tree_child, (5, 2), _at()),
    "tc_from_a": (tree_child, (5, 2), _at()),
    "a_closed": (closed_forms, (5, 2), _at()),
    "b_closed": (closed_forms, (5, 2), _at()),
    "f_closed": (poset_lab, (3, 2), _at()),
    "b3_hook": (wall_tables, (5, 2), _at()),
    "b_monster": (poset_lab, (5, 2), _at()),
    "r_sum": (poset_lab, (5, 2), _at()),
    "_alternating": (poset_lab, (..., 4, 2), _at()),
    # a sum that a check compares with 0 gains 1; a truth is negated
    "lemma28_rhs": (closed_forms, (3, 2, 1), _at(f=_plus_one)),
    "lemma29_check": (closed_forms, (3, 2, 1), _at(f=lambda v: not v)),
    # gamma_3 gains 1, in its row and in the terms that it weights
    "_gamma_row": (closed_forms, (3,), _at(f=_plus_den)),
    "gamma_dfact_terms": (closed_forms, (..., 3), _at(f=_plus_den)),
    "omega_init_layers": (closed_forms, (), _seed_3_1_doubled),
    # a series gains 1 at t^3
    "catalan_series": (series_engine, (), _at(3, f=_plus_one)),
    "x2_series": (series_engine, (), _at(3, f=_plus_one)),
    "dk_closed": (series_engine, (), _at(3, f=_plus_one)),
    "neg_half_pow_series": (series_engine, (7,), _at(3, f=_plus_one)),
    # the kernel chain: F_k = t dB/dt + (2 - k) B, and one moved entry of
    # the substituted root and of the solved B_k
    "_fk_next": (series_engine, (), _two_minus_k),
    "_subs_x2": (series_engine, (), _at(3, f=_plus_one)),
    "_bk_solve": (series_engine, (), _at(1, 2, f=_plus_one)),
}


def _rebind(old, new) -> None:
    """Point every binding of old in the modules of the package at new."""
    for module in list(sys.modules.values()):
        if module.__name__.partition(".")[0] == "youngwalls":
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)


def _mutant(func, trigger, change):
    def mutant(*args, **kwargs):
        value = func(*args, **kwargs)
        hit = len(args) >= len(trigger) and all(
            t is ... or a == t for a, t in zip(args, trigger))
        return change(value, *args) if hit else value

    return mutant


def _catches() -> list[str]:
    from youngwalls.checks import CHECKS

    del closed_forms._GAMMA_ROWS[1:]
    closed_forms._lemma28_weights.cache_clear()
    return [name for name, check in CHECKS.items() if check.run()[0] != "PASS"]


def sweep() -> dict[str, list]:
    """{mutant: [catching checks, changed its value]}, ``none`` first."""
    matrix = {"none": [_catches(), False]}
    for name, (module, trigger, change) in MUTANTS.items():
        func = getattr(module, name)
        mutant = _mutant(func, trigger, change)
        _rebind(func, mutant)
        _changed.clear()
        try:
            caught = _catches()
            if not _changed and ... not in trigger:  # no check calls it
                mutant(*trigger)
        finally:
            _rebind(mutant, func)
        matrix[name] = [caught, bool(_changed)]
    return matrix


def _recomputed() -> dict[str, list]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "import test_kill_matrix; print(json.dumps(test_kill_matrix.sweep()))")
    proc = subprocess.run([sys.executable, "-B", "-c", child, str(Path(__file__).parent)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _read() -> dict[str, tuple[list[str], str]]:
    """{mutant: (catching checks, reason)} from the lines of kill_matrix.txt."""
    listed = {}
    for line in MATRIX.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, rest = line.partition(":")
            checks, _, reason = rest.partition("#")
            listed[name.strip()] = ([c.strip() for c in checks.split(",") if c.strip()],
                                    reason.strip())
    return listed


def test_every_mutant_is_caught_by_the_checks_that_the_file_lists():
    got, listed = _recomputed(), _read()
    assert {name: caught for name, (caught, _) in got.items()} == {
        name: caught for name, (caught, _) in listed.items()}
    assert got.pop("none")[0] == [], "the unmutated code passes every check"
    uncaught = {name for name, (caught, _) in got.items() if not caught}
    assert uncaught == {name for name, (_, reason) in listed.items() if reason}, (
        "a mutant that no check catches is listed with its reason, and only such a mutant")
    assert [name for name, (_, changed) in got.items() if not changed] == [], (
        "each mutant changes its function's value at its trigger")


def _write(matrix: dict[str, list]) -> None:
    """Rewrite kill_matrix.txt from matrix, keeping its comment lines and
    the reason of each mutant that stays uncaught."""
    reasons = {name: reason for name, (_, reason) in _read().items()}
    lines = [line for line in MATRIX.read_text().splitlines() if line.startswith("#")]
    for name, (caught, _) in matrix.items():
        reason = "" if caught or not reasons.get(name) else f"  # {reasons[name]}"
        lines.append(f"{name}: {', '.join(caught)}".rstrip() + reason)
    MATRIX.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _write(_recomputed())
