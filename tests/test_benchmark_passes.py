"""Every request of a benchmark pass passes the benchmark's own checker.

Each workload of ``perfbench/workloads.py`` is built for seeds 1, 2 and 3,
which draw other ``--k`` values, formats and sizes inside the same bands;
every argv is sent through ``cli.main`` in process, and
``perfbench/check.py`` must flag none of them.  So a change that retires a
check or a flag the benchmark sends fails here, not only in a benchmark
run.  The perfbench modules are imported read-only: no bytecode is
written next to them.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from youngwalls import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_path, _no_bytecode = sys.path[:], sys.dont_write_bytecode
sys.path.insert(0, str(PERFBENCH))
sys.dont_write_bytecode = True
try:
    import check
    import workloads
finally:
    sys.path[:], sys.dont_write_bytecode = _path, _no_bytecode


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_request_of_a_pass_passes_the_checker(name, seed):
    rng = random.Random(f"check:{seed}")  # as perfbench/run.py seeds it
    flagged = []
    for argv in workloads.build(name, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, out)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the checker reads values past 4300 digits
        try:
            failure = check.classify(argv, code, out.getvalue().encode(), err.getvalue(), False,
                                     rng)
        finally:
            sys.set_int_max_str_digits(limit)
        if failure is not None:
            flagged.append(failure)
    assert not flagged, flagged
