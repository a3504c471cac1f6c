"""Seeded request streams for the benchmark workloads.

Each generator returns one *pass*: a list of `walls` argument vectors.  A
run sends exactly one pass, in a seeded order, so every run holds the same
mix of request classes.  The seed draws the cheaper sizes inside narrow bands
(the costly requests keep fixed sizes), the output formats and the order.
The bands are narrow on purpose: a run's medians must not depend on which
seed drew the largest sizes.
"""

from __future__ import annotations

import itertools
import random

GRID_FORMATS = ("csv", "text", "json")
SLICE_FORMATS = ("csv", "text", "json", "bfile")

# Known defects, sent in every `tables` pass so that a fix shows as a lower
# failure count (check.KNOWN_DEFECTS holds their expected signatures).
TC_DIGIT_LIMIT = ["table", "--seq", "tc", "--nmax", "1500", "--k", "2", "--format", "bfile"]
OMEGA_DEEP = ["table", "--seq", "omega", "--nmax", "1200", "--mmax", "0", "--kmax", "0"]


def _rotation(rng: random.Random, formats: tuple[str, ...]):
    """Cycle through the formats from a seeded starting point."""
    start = rng.randrange(len(formats))
    return itertools.cycle(formats[start:] + formats[:start]).__next__


def tables(rng: random.Random) -> list[list[str]]:
    """Cold `table` requests: triangles, clipped long forms, slices, the
    recurrence series route, long b-file columns and the two known defects.

    The pass has cost tiers, so that the median and the 11th-largest
    request (the tail) each fall in the middle of a block of like requests,
    never on a gap: 14 cheap requests of 0.1-0.35 s, a centre block of 9
    triangles of about 0.45 s that holds the median, a mid block of 7 `a`
    triangles of about 0.65 s that holds the tail, and 7 heavy requests
    (the largest triangles, the long columns and the defects).  The seed
    moves only cheap sizes; it picks the formats outside the two blocks,
    the slices and the order.
    """
    grid = _rotation(rng, GRID_FORMATS)
    sliced = _rotation(rng, SLICE_FORMATS)
    reqs: list[list[str]] = []

    def table(*args: object, fmt: str) -> None:
        reqs.append(["table", *map(str, args), "--format", fmt])

    def jitter(n: int) -> int:
        return n + rng.randint(-1, 1)

    # cheap tier
    for seq, nmax in (("f", 60), ("f", 66), ("u", 28)):
        table("--seq", seq, "--nmax", jitter(nmax), fmt=grid())
    table("--seq", "b3", "--nmax", jitter(28), fmt=grid())
    table("--seq", "b3", "--nmax", jitter(36), "--mmax", jitter(15), "--kmax", jitter(4), fmt=grid())
    table("--seq", "omega", "--nmax", jitter(12), fmt=grid())
    table("--seq", "omega", "--nmax", jitter(28), "--mmax", jitter(8), "--kmax", 3, fmt=grid())
    for seq in ("a", "b"):
        table("--seq", seq, "--nmax", jitter(44), "--diag", fmt=sliced())
    # a b request fills the whole b3 simplex up to nmax, hence its lower nmax
    for seq, nmax in (("a", 70), ("b", 36), ("tc", 70)):
        table("--seq", seq, "--nmax", jitter(nmax), "--k", rng.randint(1, 4), fmt=sliced())
    # the recurrence route of `series` reads the same tables
    for _ in range(2):
        reqs.append(["series", "--dk", str(rng.randint(1, 8)), "--order", str(jitter(38)),
                     "--method", "recurrence"])
    # centre block and mid block at fixed sizes and fixed formats (each of
    # a, b, tc gets each format once), so the seed cannot shift their cost
    blocks = (("a", 41), ("b", 44), ("tc", 42)) * 3 + (("a", 47),) * 7
    for i, (seq, nmax) in enumerate(blocks):
        table("--seq", seq, "--nmax", nmax, fmt=GRID_FORMATS[(i + i // 3) % 3])
    # heavy tier: the largest triangles, b-file columns past the dense memo
    # limit of 512 (below the digit limit), a deep omega column, the defects
    for seq in ("a", "b"):
        table("--seq", seq, "--nmax", 60, fmt=grid())
    for seq in ("a", "tc"):
        table("--seq", seq, "--nmax", 700, "--k", rng.randint(1, 2), fmt="bfile")
    table("--seq", "omega", "--nmax", 300, "--mmax", 0, "--kmax", 0, fmt=grid())
    reqs.append(list(TC_DIGIT_LIMIT))
    reqs.append(OMEGA_DEEP + ["--format", grid()])
    return reqs


# Kernel slots: every level k = 1..12, each at the order where the kernel
# route costs about 0.45 s on a 2-core Xeon box (orders 27..56), so that
# the kernel requests form one dense cluster around the workload's median.
KERNEL_ORDERS = {1: 56, 2: 45, 3: 41, 4: 35, 5: 33, 6: 31, 7: 30, 8: 29, 9: 28, 10: 27,
                 11: 27, 12: 27}


def series(rng: random.Random) -> list[list[str]]:
    """Cold `series --method kernel|closed` requests and the series checks.

    The kernel requests and the three heavier checks (0.4-0.7 s) hold both
    the median and the tail, so they run at fixed sizes: one more order
    costs a kernel request roughly 10% more, a kernel-residual check
    roughly 40% more.
    The seed draws the sizes of the cheap closed requests and checks."""
    reqs: list[list[str]] = []
    for _ in range(2):
        for k, order in KERNEL_ORDERS.items():
            reqs.append(["series", "--dk", str(k), "--order", str(order), "--method", "kernel"])
    for k in range(1, 13):
        reqs.append(["series", "--dk", str(k), "--order", str(rng.randint(20, 60)),
                     "--method", "closed"])
    for _ in range(3):
        reqs.append(["verify", "--check", "dk-threeway", "--kmax", "7", "--order", "18"])
        for name in ("kernel-residual", "bk-rect"):
            reqs.append(["verify", "--check", name, "--kmax", "5", "--order", "11"])
        reqs.append(["verify", "--check", "stock-series", "--order", str(rng.randint(30, 60))])
        reqs.append(["verify", "--check", "b0-hook", "--nmax", str(rng.randint(12, 20))])
    return reqs


# Registry checks not in `series`, with domain bands above the CLI defaults:
# check name -> ((flag, lo, hi), ...).  The two costliest checks run at fixed
# sizes, and main-identity, catalan-base, closed-a and closed-b are sized to
# cost alike, so that the 11th-largest request falls inside their block.
VERIFY_BANDS = {
    "main-identity": (("nmax", 32, 33),),
    "a-alt": (("nmax", 26, 28),),
    "catalan-base": (("nmax", 37, 38),),
    "hook-base": (("nmax", 18, 25),),
    "omega-bridge": (("nmax", 16, 20),),
    "omega-vanishing": (("nmax", 12, 16), ("kmax", 7, 8)),
    "omega-init-vanishing": (("kmax", 10, 16),),
    "cor-rec": (("nmax", 26, 28),),
    "closed-a": (("nmax", 30, 31),),
    "closed-b": (("nmax", 31, 32),),
    "gamma-sum": (("kmax", 44, 60),),
    "delta-rec": (("kmax", 22, 30),),
    "lemma28": (("nmax", 9, 10), ("kmax", 5, 6)),
    "lemma29": (("nmax", 9, 10), ("kmax", 7, 8)),
    "f-rec": (("nmax", 14, 30),),
    "f-gf": (("kmax", 7, 10), ("order", 14, 20)),
    "bu-roundtrip": (("nmax", 9, 12),),
    "b12": (("nmax", 9, 12),),
    "monster": (("nmax", 22, 22),),
    "tc-routes": (("nmax", 47, 47),),
    "tc-dfact": (("nmax", 20, 60),),
}

OEIS_MAPS = ("b-k0", "a-diag", "a-k1", "b-k1")


def verify(rng: random.Random) -> list[list[str]]:
    """Three rounds of the remaining registry checks, brute-force oracles and
    offline OEIS crosschecks."""
    reqs: list[list[str]] = []
    maps = list(OEIS_MAPS)
    rng.shuffle(maps)
    maps *= 2
    for rnd in range(3):
        for name, bands in VERIFY_BANDS.items():
            argv = ["verify", "--check", name]
            for flag, lo, hi in bands:
                argv += [f"--{flag}", str(rng.randint(lo, hi))]
            reqs.append(argv)
        for seq in ("a", "b"):
            n = rng.randint(5, 7)
            reqs.append(["oracle", "--seq", seq, "--n", str(n), "--k", str(rng.randint(0, n))])
        n = rng.randint(5, 7)
        m = rng.randint(1, n)
        reqs.append(["oracle", "--seq", "b3", "--n", str(n), "--m", str(m),
                     "--k", str(rng.randint(0, m))])
        for name in maps[2 * rnd: 2 * rnd + 2]:
            reqs.append(["crosscheck", "--map", name, "--offline"])
    return reqs


WORKLOADS = {"tables": tables, "series": series, "verify": verify}


def build(name: str, seed: int) -> list[list[str]]:
    """The pass of workload `name` for `seed`, in its seeded send order."""
    rng = random.Random(f"{name}:{seed}")
    reqs = WORKLOADS[name](rng)
    rng.shuffle(reqs)
    return reqs
