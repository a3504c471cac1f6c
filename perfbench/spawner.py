"""Thin spawner: starts each child for run.py and measures it.

Linux copies a process's peak RSS into its child's `ru_maxrss` at exec, so
a child started by the benchmark process itself, which holds the checker
and its tables, would report at least that process's size.  This process
imports almost nothing and stays below the size of any `walls` child.

It reads one JSON request per line on stdin, {"cmd", "timeout", "out",
"err"}, runs the command with stdout and stderr sent to the two files, and
answers one JSON line on stdout: wall time from spawn to exit, CPU time
and peak RSS from the child's own rusage, exit code, and whether the
timeout killed it.  An argument equal to SPAWN_NS is replaced by
`time.monotonic_ns()` taken just before the child starts.  It exits when
stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

SPAWN_NS = "{spawn_ns}"


def run(cmd: list[str], timeout: float, out: str, err: str) -> dict:
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        timed_out = threading.Event()
        cmd = [str(time.monotonic_ns()) if arg == SPAWN_NS else arg for arg in cmd]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out_fh, stderr=err_fh)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode,
            "timed_out": timed_out.is_set()}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
