"""Shared reference data for the test suite.

The two triangles below are the published reference values the package has
to reproduce; they were transcribed independently of the code under test.
``u_literal`` is the alternating transform of b written out term by term,
the reference for the u rows.
"""

from youngwalls import wall_tables
from youngwalls.exact_arith import binomial, factorial

TABLE_A = {
    0: [1],
    1: [1, 1],
    2: [3, 7, 7],
    3: [15, 57, 106, 106],
    4: [105, 561, 1515, 2575, 2575],
    5: [945, 6555, 23220, 54120, 87595, 87595],
    6: [10395, 89055, 390915, 1148595, 2462520, 3864040, 3864040],
}

TABLE_B = {
    0: [1],
    1: [1, 1],
    2: [2, 7, 7],
    3: [5, 38, 106, 106],
    4: [14, 187, 1010, 2575, 2575],
    5: [42, 874, 7740, 36080, 87595, 87595],
    6: [132, 3958, 52122, 382865, 1641680, 3864040, 3864040],
}

# first tree-child counts by (n, k); the k = 0 column is (2n-3)!!
TC_SPOT = {
    (1, 0): 1,
    (2, 0): 1,
    (2, 1): 2,
    (3, 0): 3,
    (3, 1): 21,
    (4, 2): 1272,
}


def u_literal(n, k):
    """u(n, k) as the literal alternating sum over the point reads of b."""
    return sum(
        (-1) ** i * binomial(2 * n + k, k - i) * binomial(n - i, k - i)
        * factorial(k - i) * wall_tables.b(n, i)
        for i in range(k + 1)
    )
