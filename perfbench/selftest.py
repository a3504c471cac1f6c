"""Self-test of the output checker: run from the repository root with

    python3 perfbench/selftest.py

It renders real outputs in-process with `cli.main` and shows that the
checker accepts them, flags each corrupted copy (a changed value, a missing
row, a wrong coefficient, a FAIL line), flags an unexpected exit, a
traceback and a timeout, and labels only the known defects as known.  It
also checks that BENCHMARK.json lists the workloads and metrics that
run.py reports.
Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.set_int_max_str_digits(0)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from youngwalls import cli  # noqa: E402

GOOD = [
    "table --seq a --nmax 9 --format csv",
    "table --seq b --nmax 9 --kmax 4 --format text",
    "table --seq tc --nmax 9 --format json",
    "table --seq u --nmax 8 --format csv",
    "table --seq f --nmax 9 --format json",
    "table --seq a --nmax 12 --diag --format bfile",
    "table --seq tc --nmax 30 --k 2 --format csv",
    "table --seq b --nmax 12 --k 3 --format text",
    "table --seq b3 --nmax 7 --format text",
    "table --seq b3 --nmax 9 --mmax 5 --kmax 3 --format json",
    "table --seq omega --nmax 6 --format csv",
    "table --seq omega --nmax 40 --mmax 0 --kmax 0 --format text",
    "series --dk 3 --order 12 --method kernel",
    "series --dk 4 --order 12 --method closed",
    "series --dk 2 --order 12 --method recurrence",
    "verify --check tc-dfact --nmax 12",
    "oracle --seq b --n 4 --k 2",
    "crosscheck --map b-k0 --offline",
]


def render(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    code = cli.main(argv, out)
    return code, out.getvalue().encode()


def corrupt_last_value(text: str) -> str:
    """Add one to the last integer printed."""
    end = len(text.rstrip().rstrip('"]}'))
    start = end
    while start > 0 and text[start - 1].isdigit():
        start -= 1
    return text[:start] + str(int(text[start:end]) + 1) + text[end:]


def main() -> int:
    rng = random.Random(0)
    failures: list[str] = []

    def expect(label: str, got: dict | None, flagged: bool, known: str | None = None) -> None:
        if (got is not None) != flagged:
            failures.append(f"{label}: expected {'a failure' if flagged else 'a pass'}, got {got}")
        elif got is not None and got["known_defect"] != known:
            failures.append(f"{label}: known defect {got['known_defect']!r}, expected {known!r}")

    for line in GOOD:
        argv = line.split()
        code, out = render(argv)
        expect(line, check.classify(argv, code, out, "", False, rng), flagged=False)
        text = out.decode()
        if argv[0] in ("table", "series"):
            bad = corrupt_last_value(text).encode()
            expect(f"{line} [last value + 1]", check.classify(argv, 0, bad, "", False, rng), True)
            short = "\n".join(text.splitlines()[:-1]).encode()
            if argv[0] == "table" and "json" not in argv:
                expect(f"{line} [last row dropped]", check.classify(argv, 0, short, "", False, rng), True)

    argv = "verify --check monster --nmax 8".split()
    expect("verify FAIL line", check.classify(argv, 0, b"monster: FAIL (n <= 8)\n", "", False, rng), True)
    argv = "oracle --seq b --n 4 --k 2".split()
    expect("oracle disagree", check.classify(argv, 0, b"brute=1010 table=1011 disagree\n", "", False, rng), True)

    argv = "table --seq a --nmax 9".split()
    expect("unexpected exit 2", check.classify(argv, 2, b"", "error: boom\n", False, rng), True)
    expect("traceback with exit 0", check.classify(
        argv, 0, render(argv)[1], "Traceback (most recent call last):\nValueError: x\n", False, rng), True)
    expect("timeout", check.classify(argv, -9, b"", "", True, rng), True)

    limit = "error: Exceeds the limit (4300 digits) for integer string conversion"
    expect("digit-limit defect", check.classify(
        workloads.TC_DIGIT_LIMIT, 2, b"", limit + "\n", False, rng), True, "tc-digit-limit")
    expect("digit-limit defect, other exit", check.classify(
        workloads.TC_DIGIT_LIMIT, 1, b"", limit + "\n", False, rng), True, None)
    deep = workloads.OMEGA_DEEP + ["--format", "csv"]
    recursion = "Traceback (most recent call last):\nRecursionError: maximum recursion depth exceeded\n"
    expect("recursion defect", check.classify(deep, 1, b"", recursion, False, rng), True, "omega-recursion")
    expect("recursion on another request", check.classify(argv, 1, b"", recursion, False, rng), True, None)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            failures.append(f"BENCHMARK.json {key} differs from run.py: {listed} vs {units}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for msg in failures:
        print("FAIL", msg)
    print(f"checker self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
