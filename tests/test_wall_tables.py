import decimal
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from youngwalls import poset_lab, tree_child, wall_tables as wt
from youngwalls.exact_arith import double_factorial, factorial

from conftest import TABLE_A, TABLE_B, u_literal


def test_a_matches_reference_triangle():
    for n, row in TABLE_A.items():
        assert [wt.a_rec(n, k) for k in range(n + 1)] == row


def test_b_matches_reference_triangle():
    for n, row in TABLE_B.items():
        assert [wt.b(n, k) for k in range(n + 1)] == row


def test_a_outside_domain_is_zero():
    assert wt.a_rec(2, 3) == 0
    assert wt.a_rec(-1, 0) == 0
    assert wt.a_rec(3, -1) == 0


def test_a_base_column_is_odd_double_factorial():
    for n in range(25):
        assert wt.a_rec(n, 0) == double_factorial(2 * n - 1)


def test_a_diagonal_sticks():
    # the recurrence's zero extension makes a(n, n) = a(n, n-1) + 0 twice over
    for n in range(1, 12):
        assert wt.a_rec(n, n) == wt.a_rec(n, n - 1)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_main_identity(n, k):
    if k > n:
        assert wt.a_rec(n, k) == wt.b(n, k) == 0
    else:
        assert 2 ** (n - k) * wt.a_rec(n, k) == factorial(n - k + 1) * wt.b(n, k)


def test_b3_spot_values():
    assert wt.b3(0, 0, 0) == 1
    assert wt.b3(1, 1, 1) == 1
    assert wt.b3(2, 1, 0) == 2
    assert wt.b3(2, 1, 1) == 3
    assert wt.b3(3, 2, 1) == 23
    assert wt.b3(2, 3, 1) == 0
    assert wt.b3(3, 2, 3) == 0


def test_b3_diagonal_is_b():
    for n in range(12):
        for k in range(n + 1):
            assert wt.b3(n, n, k) == wt.b(n, k)


def test_b3_hook_closed_form():
    # the agreement with b3(n, m, 0) is the registry check hook-base
    with pytest.raises(ValueError):
        wt.b3_hook(2, 3)


def test_omega_seed_and_guards():
    assert wt.omega(-1, 5, 2) == 0
    assert wt.omega(0, 2, 1) == 7
    assert wt.omega(1, 0, 0) == 1
    assert wt.omega(1, 1, 1) == 3
    assert wt.omega(4, 0, 1) == 0  # above the k = m + 1 layer
    with pytest.raises(ValueError):
        wt.omega(-2, 0, 0)
    with pytest.raises(ValueError):
        wt.omega(0, -1, 0)


@pytest.mark.parametrize(
    "walk, cell, first",
    [
        (wt.a_rows, wt.a_rec, 0),
        (wt.b_rows, wt.b, 0),
        (poset_lab.u_rows, u_literal, 0),
        (wt.tc_rec_rows, tree_child.tc, 1),
    ],
    ids=["a", "b", "u", "tc_rec"],
)
@pytest.mark.parametrize("width", [0, 1, 2, 5, 14])
def test_walk_matches_the_rows_read_cell_by_cell(walk, cell, first, width):
    # a and b against their point reads, each a walk of its own clipped at
    # its cell, u against its literal sum over those of b, the tc streams
    # against the normative tc;
    # the rows start at n = first and row n ends at column n - first
    for n, row in zip(range(first, 15), walk(width)):
        assert len(row) == min(n - first, width) + 1, n
        assert row == [cell(n, k) for k in range(len(row))], n


@pytest.mark.parametrize("depth", [0, 1, 4, 12])
def test_a_alt_columns_match_a(depth):
    columns = list(wt.a_alt_columns(depth))
    assert columns == [[wt.a_rec(n, k) for n in range(depth + 1)] for k in range(depth + 1)]


# b(n, 0..n) for n <= 40, the diagonal of one walk up the b3 layers
_B_REF = [layer[n] for n, layer in zip(range(41), wt.b3_layers(40))]


@pytest.mark.parametrize("width", [0, 1, 3, 10])
def test_walk_matches_the_b3_layers(width):
    for n, layer in zip(range(11), wt.b3_layers(width)):
        assert [len(row) for row in layer] == [min(m, width) + 1 for m in range(n + 1)]
        assert layer == [[wt.b3(n, m, k) for k in range(len(row))] for m, row in enumerate(layer)]
    assert list(itertools.islice(wt.b_rows(width), 41)) == [row[: width + 1] for row in _B_REF]


@pytest.mark.parametrize(
    "nmax, mmax, kmax", [(12, 5, 3), (10, 0, 0), (9, 4, 9), (8, 8, 2), (6, 11, 4), (7, 3, 20)]
)
def test_b3_walk_clipped_at_mmax_matches_the_full_walk(nmax, mmax, kmax):
    clipped = wt.b3_layers(kmax, mmax)
    for n, short, full in zip(range(nmax + 1), clipped, wt.b3_layers(kmax)):
        assert short == full[: mmax + 1], n


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 40)), max_size=12))
def test_b_reads_the_b3_diagonal_in_any_request_order(requests):
    # narrow-then-wide and deep-then-shallow orders, cell by cell or a whole
    # row off a walk; every answer of the two-term recurrence must still be
    # the b3 diagonal
    for whole_row, n, k in requests:
        k = min(k, n)
        if whole_row:
            assert next(itertools.islice(wt.b_rows(k), n, None)) == _B_REF[n][: k + 1]
        else:
            assert wt.b(n, k) == _B_REF[n][k]


def test_deep_narrow_b_read_after_a_wide_triangle_walks_narrow():
    # the triangle leaves no row behind; b(400, 2) must step rows 1..400 to
    # column 2 only, each once (row 0 is the seed, not a step)
    for n in range(41):
        for k in range(n + 1):
            assert wt.b(n, k) == _B_REF[n][k]
    step, appended = wt._b_row, []

    def counting_row(prev, n, width):
        row = step(prev, n, width)
        appended.append(len(row))
        return row

    with mock.patch.object(wt, "_b_row", counting_row):
        wt.b(400, 2)
    assert sum(appended) == 3 * 400 - 1  # row 1 ends before column 2


def test_b_triangle_never_holds_the_b3_simplex():
    # the b3 layers 0..60 hold C(63, 3) = 39711 ints, about 2.5 MB; the b
    # rows n <= 60 and one layer hold under 6000.  The triangle is read off
    # one walk, as a range reader reads it, then b(60, 60), the deepest and
    # widest point read, walks to its cell
    snippet = (
        "import tracemalloc\n"
        "from youngwalls import wall_tables as wt\n"
        "tracemalloc.start()\n"
        "triangle = [sum(row) for _, row in zip(range(61), wt.b_rows(60))]\n"
        "assert wt.b(60, 60) == wt.b(60, 59) > 0\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", snippet], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1_000_000


@pytest.mark.parametrize("nmax, mmax, kmax", [(6, 4, 5), (8, 2, 1), (3, 3, 9), (5, 0, 0)])
def test_omega_block_matches_omega(nmax, mmax, kmax):
    # the block of rows that omega_rows streams off one walk up the omega
    # layers, against point reads, each a walk of its own clipped at its cell
    block = list(wt.omega_rows(nmax, mmax, kmax))
    assert block == [
        [[wt.omega(n, m, k) for k in range(min(m + 1, kmax) + 1)] for m in range(mmax + 1)]
        for n in range(nmax + 1)
    ]


# stream(7), the module and name of its step, its seed row and the first
# index it steps
_SEEDED_STREAMS = [
    (wt.a_rows, wt, "_a_row", [1], 1),
    (wt.b_rows, wt, "_b_row", [1], 1),
    (wt.b3_layers, wt, "_b3_layer", [[1]], 1),
    (wt.omega_layers, wt, "_omega_layer", [[1], [0]], 1),  # omega(0, 0, k) for k <= 1
    (wt.a_alt_columns, wt, "_a_alt_column", [double_factorial(2 * n - 1) for n in range(8)], 1),
    (wt.tc_rec_rows, wt, "_tc_rec_row", [1], 2),
]


def test_the_seed_is_the_first_row_and_no_step(monkeypatch):
    # row 0 of each stream is its seed, read without a step; N rows step
    # i = start..start + N - 2, each once
    for stream, module, name, seed, start in _SEEDED_STREAMS:
        step, stepped = getattr(module, name), []

        def counting(prev, i, width, step=step, stepped=stepped, **kwargs):
            stepped.append(i)
            return step(prev, i, width, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(module, name, counting)
            assert (next(stream(7)), stepped) == (seed, []), name
            assert len(list(itertools.islice(stream(7), 8))) == 8
            assert stepped == list(range(start, start + 7)), name
    # a seed of Decimals walks every row of a and b in Decimal, row 0 included
    exact = decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(exact):
        for rows, width in itertools.product((wt.a_rows, wt.b_rows), (0, 3, 40)):
            pairs = zip(range(41), rows(width, decimal.Decimal(1)), rows(width))
            for n, row, ints in pairs:
                assert all(type(v) is decimal.Decimal for v in row), (rows, width, n)
                assert row == ints, (rows, width, n)


def test_omega_walk_holds_about_two_layers():
    # like every walk, the omega walk keeps layer s - 1 whole until layer s
    # is built; a walk that kept every layer would peak at hundreds of
    # layers on this column
    last = next(itertools.islice(wt.omega_layers(0, 1200), 1200, None))
    layer_bytes = sum(sys.getsizeof(v) for column in last for v in column)
    tracemalloc.start()
    try:
        for _ in wt.omega_rows(1200, 0, 0):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * layer_bytes, peak / layer_bytes


def test_collected_omega_layers_stay_valid():
    # a layer kept past the next step keeps its values, and column k of
    # layer s stores n = 0..min(s, s + 1 - k, nmax) and nothing past it: a
    # column of depth 0 holds its seed alone
    for width, nmax in itertools.product((0, 1, 2, 5), (None, 0, 1, 3)):
        layers = list(itertools.islice(wt.omega_layers(width, nmax), 7))
        for s, layer in enumerate(layers):
            top_n = s if nmax is None else min(s, nmax)
            assert [len(c) for c in layer] == [
                min(top_n, s + 1 - k) + 1 for k in range(min(s + 1, width) + 1)
            ], (width, nmax, s)
            assert all(
                col[n] == wt.omega(n, s - n, k) for k, col in enumerate(layer) for n in range(len(col))
            ), (width, nmax, s)


def catalan(n):
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=60))
def test_a_alt_at_domain_edges(n):
    columns = list(wt.a_alt_columns(n))
    assert columns[0][n] == double_factorial(2 * n - 1)
    assert columns[n][n] == wt.a_rec(n, n)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=60))
def test_b3_and_b_at_domain_edges(n):
    assert wt.b3(n, n, 0) == wt.b(n, 0) == catalan(n)
    assert wt.b3(n, n, n) == wt.b(n, n)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=60), st.data())
def test_omega_at_domain_edges(n, data):
    # omega(n, m, k) = b3(n + m, m, k): keep n + m <= 60
    m = data.draw(st.integers(min_value=0, max_value=60 - n))
    assert wt.omega(n, m, m + 1) == 0
    k = data.draw(st.integers(min_value=0, max_value=m + 1))
    assert wt.omega(0, m, k) == wt.b(m, k)


def test_b_deep_column():
    # 1500 rows of checked divisions, against the main identity
    assert 2**1498 * wt.a_rec(1500, 2) == factorial(1499) * wt.b(1500, 2)
