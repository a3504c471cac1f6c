"""Outputs unchanged: a committed SHA-256 of stdout, stderr and the exit code
of ``cli.main`` for each of about two thousand small requests.

The requests cover every `table` sequence, slice, clip and format at
``nmax`` 0-6, every check at bounds 0-3 and `all`, `series` at k <= 5 by
every method, `oracle` (up to the capacity exit), every `crosscheck` map,
small `asym` requests, every help text, usage errors and the README's
examples.  A change that alters an output on purpose regenerates the
corpus and names every changed request:

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import hashlib
import io
import re
from pathlib import Path

from youngwalls import checks, cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("output_digests.txt")

TABLE_OPTIONS = ([], ["--k", "0"], ["--k", "3"], ["--diag"], ["--kmax", "2"], ["--mmax", "1"],
                 ["--kmax", "3", "--mmax", "2"], ["--k", "1", "--diag"])
CHECK_BOUNDS = {name: tuple(f"--{b}" for b in check.bounds)
                for name, check in checks.CHECKS.items()}


def _readme_examples() -> list[list[str]]:
    """The `walls ...` lines of README's sh blocks, without their comments."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    lines = (line.split("#")[0].split() for block in blocks for line in block.splitlines())
    return [words[1:] for words in lines if words[:1] == ["walls"]]


def requests() -> list[list[str]]:
    """Every request of the corpus, in its order."""
    argvs = []
    for seq in ("a", "b", "b3", "omega", "tc", "f", "ftilde", "u"):
        for nmax in range(7):
            for option in TABLE_OPTIONS:
                for fmt in ("csv", "text", "json", "bfile"):
                    argvs.append(["table", "--seq", seq, "--nmax", str(nmax), *option,
                                  "--format", fmt])
    for name, flags in CHECK_BOUNDS.items():
        argvs.append(["verify", "--check", name])
        for v in map(str, range(4)):
            argvs += [["verify", "--check", name, flag, v] for flag in flags]
            argvs.append(["verify", "--check", name, *(x for f in flags for x in (f, v))])
        other = next(f for f in ("--nmax", "--kmax", "--order") if f not in flags)
        argvs.append(["verify", "--check", name, other, "2"])  # a bound it does not take
    argvs.append(["verify", "--check", "all"])
    for v in map(str, range(4)):
        argvs.append(["verify", "--check", "all", "--nmax", v, "--kmax", v, "--order", v])
    argvs.append(["verify", "--check", "no-such-check"])
    for method in ("recurrence", "closed", "kernel"):
        for k in range(6):
            argvs += [["series", "--dk", str(k), "--order", str(order), "--method", method]
                      for order in (0, 1, 3, 8)]
    for seq in ("a", "b"):
        argvs += [["oracle", "--seq", seq, "--n", str(n), "--k", str(k)]
                  for n in range(6) for k in range(n + 2)]
    argvs += [["oracle", "--seq", "b3", "--n", str(n), "--m", str(m), "--k", str(k)]
              for n in range(4) for m in range(n + 2) for k in range(m + 3)]
    argvs += [["oracle", "--seq", "a", "--n", "12", "--k", "3"],  # past the capacity: exit 3
              ["oracle", "--seq", "b3", "--n", "2", "--k", "1"],
              ["oracle", "--seq", "a", "--n", "2", "--k", "1", "--m", "1"]]
    for name in (*cli.OEIS_MAPS, "no-such-map"):
        argvs += [["crosscheck", "--map", name], ["crosscheck", "--map", name, "--offline"],
                  ["crosscheck", "--map", name, "--oeis", "A000108"]]
        argvs += [["crosscheck", "--map", name, "--nmax", v] for v in ("0", "1", "5", "40")]
    argvs += [["asym", "--n", str(n), "--k", str(k)] for n in (1, 2, 5, 20, 100) for k in range(4)]
    argvs.append(["asym", "--n", "400", "--k", "60"])  # an estimate past the float range
    argvs += [[], ["--help"], ["-h"], ["-h", "table"], ["-hx"], ["table", "-hx"],
              ["frobnicate"], ["table"],
              *([command, "--help"] for command in cli.COMMANDS),
              ["table", "--seq", "a", "--nmax", "-1"], ["table", "--seq", "zzz", "--nmax", "3"],
              ["table", "--seq", "a", "--nm", "3"], ["table", "--seq=a", "--nmax=3"],
              ["table", "--seq", "a", "--nmax", "3", "--diag=1"], ["series", "--dk", "1"],
              ["crosscheck", "--map", "b-k0", "--o"], ["asym", "--n", "3", "--k", "1", "--bogus"]]
    unique = {" ".join(argv): argv for argv in argvs + _readme_examples()}
    return list(unique.values())


def digest(argv: list[str]) -> str:
    """SHA-256 of the request's stdout, stderr and exit code, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    text = "\0".join((out.getvalue(), err.getvalue(), str(code)))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_request_of_the_corpus_prints_what_it_printed():
    # each line of the corpus is "<digest> <request>"
    corpus = {line[65:]: line[:64] for line in CORPUS.read_text().splitlines()}
    argvs = requests()
    assert list(corpus) == [" ".join(argv) for argv in argvs]  # each once, in order
    changed = [" ".join(argv) for argv in argvs if digest(argv) != corpus[" ".join(argv)]]
    assert changed == []


if __name__ == "__main__":
    CORPUS.write_text("".join(f"{digest(argv)} {' '.join(argv)}\n" for argv in requests()))
