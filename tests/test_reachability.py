"""Every function defined in ``src/`` is reached by some request, or it is
listed in ``tests/unreached.txt`` with its reason.

One child process runs a fixed corpus of requests through ``cli.main``
under ``sys.setprofile`` and reports every code object of the package that
was called.  The profile is set before the package is imported, so the
functions that run at import (``checks.Check.__init__``,
``checks._on_walks``) count as reached.  ``cli.entry`` ends its process by
``os._exit``, so the probe counts it as reached without calling it.

The corpus is every request of one pass of each benchmark workload (seed
1), ``verify --check all``, an ``oracle`` for each sequence, a ``table``
for each ``--seq``, ``asym`` past the float range, a ``crosscheck`` for
each map, ``--help`` and one usage error.  A function
that only tests or ``perfbench`` call looks like a route but is not one;
this test keeps such functions listed, so that none is added unseen.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "youngwalls"
UNREACHED = Path(__file__).with_name("unreached.txt")
AT_ENTRY = {"cli.entry"}

_PROBE = """
import io, json, os, sys
sys.path.insert(0, sys.argv[1])
import workloads
seen = set()
def probe(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(probe)
from youngwalls import cli
corpus = [argv for name in sorted(workloads.WORKLOADS) for argv in workloads.build(name, 1)]
corpus += [
    ["verify", "--check", "all"],
    ["oracle", "--seq", "a", "--n", "4", "--k", "2"],
    ["oracle", "--seq", "b", "--n", "4", "--k", "2"],
    ["oracle", "--seq", "b3", "--n", "3", "--m", "2", "--k", "1"],
    *(["table", "--seq", seq, "--nmax", "4"] for seq in cli.COMMANDS["table"][1]["--seq"][0]),
    ["asym", "--n", "400", "--k", "3"], ["asym", "--n", "3000", "--k", "3"],
    *(["crosscheck", "--map", name] for name in cli.OEIS_MAPS),
    ["--help"], ["table", "--nmax", "3"],
]
stderr, sys.stderr = sys.stderr, io.StringIO()
for argv in corpus:
    cli.main(argv, io.StringIO())
sys.setprofile(None)
sys.stderr = stderr
package = os.path.dirname(cli.__file__) + os.sep
print(json.dumps(sorted({(code.co_filename[len(package):], code.co_firstlineno, code.co_name)
                         for code in seen if code.co_filename.startswith(package)})))
"""


def _reached() -> set[tuple[str, int, str]]:
    """(file name, first line, name) of each package code object the corpus calls."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-B", "-c", _PROBE, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {tuple(key) for key in json.loads(proc.stdout)}


def _unreached(code, prefix: str, file: str, reached: set) -> list[str]:
    """The outermost functions under ``code`` that the corpus does not reach,
    each named ``prefix`` + its qualified name."""
    found = []
    for child in filter(inspect.iscode, code.co_consts):
        name = prefix + child.co_name
        if child.co_name.startswith("<"):  # a lambda or a comprehension: searched, not named
            found += _unreached(child, prefix, file, reached)
        elif not child.co_flags & inspect.CO_NEWLOCALS:  # a class body: its methods
            found += _unreached(child, name + ".", file, reached)
        elif name in AT_ENTRY or (file, child.co_firstlineno, child.co_name) in reached:
            found += _unreached(child, name + ".<locals>.", file, reached)
        else:
            found.append(name)
    return found


def _listed() -> dict[str, str]:
    listed = {}
    for line in UNREACHED.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(":")
            listed[name.strip()] = reason.strip()
    return listed


def test_every_function_is_reached_or_listed():
    listed = _listed()
    assert all(listed.values()), "each line of unreached.txt is 'module.name: reason'"
    reached, unreached = _reached(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        unreached.update(_unreached(module, path.stem + ".", path.name, reached))
    assert not unreached - listed.keys(), "reached by no request; call it or list it with a reason"
    assert not listed.keys() - unreached, "reached or gone: remove the line from unreached.txt"
