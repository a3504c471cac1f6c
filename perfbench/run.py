"""Cold-CLI benchmark of the `walls` command line.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop client sends the seeded requests of a workload one at a
time, each to a fresh `python -m youngwalls.cli` process, as a user of the
CLI would.  Every output is checked against an independent route
(check.py) outside the timed region.  With `--trace 0` the last stdout line
holds the end-to-end metrics; with `--trace 1` every request is sent twice,
plain and through the traced launcher (tracer.py), and the last line holds
the per-layer metrics.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from spawner import SPAWN_NS
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

REQUEST_TIMEOUT_S = 60.0
# A run sends one pass, whatever the machine's speed, so that req_tail_s is
# the same order statistic of the same mix on every commit.  `--seconds` is
# only a cap: no request starts after CAP_FACTOR * seconds, which leaves a
# program three times slower than the pass was sized for room to finish it,
# nor after RUN_LIMIT_S, so that a run ends well inside 180 s.  A cut run is
# marked in the metadata.
CAP_FACTOR = 3
RUN_LIMIT_S = 110.0
SETUP_SAMPLES = 15
SETUP_CMD = [sys.executable, "-c", "import youngwalls.cli"]
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "req_p50_s": "s", "req_tail_s": "s", "req_per_s": "1/s",
    "cpu_per_req_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "wall_tables.calls": "count", "wall_tables.distinct_keys": "count",
    "wall_tables.reuse_ratio": "ratio", "cli.out_bytes": "B", "cli.max_digits": "count",
    "cli.startup_s": "s", "series_engine.coeffs_out": "count",
    "closed_forms.gamma_max_k": "count", "poset_lab.ext_elements": "count",
    "tree_child.calls": "count", "exact_arith.calls": "count", "trace.overhead": "ratio",
}


def child_env() -> dict[str, str]:
    """The caller's environment without any PYTHON* or WALLS_* setting (no
    cache directory, no digit-limit override, no unbuffered output), with
    the package on the path and bytecode cached outside src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "WALLS_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: bytes
    stderr: str


class Spawner:
    """Client of spawner.py, the small process that starts and measures
    every child (see there why the children are not started from here)."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.out = OUT / f"child-{os.getpid()}.out"
        self.err = OUT / f"child-{os.getpid()}.err"

    def run(self, cmd: list[str]) -> Outcome:
        request = {"cmd": cmd, "timeout": REQUEST_TIMEOUT_S, "out": str(self.out),
                   "err": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        return Outcome(**json.loads(reply), stdout=self.out.read_bytes(),
                       stderr=self.err.read_text(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)


def warm_up(spawner: Spawner) -> None:
    """One untimed cold import: fills the bytecode cache and stops the run
    early, with no result, if the package cannot be imported."""
    warm = spawner.run(SETUP_CMD)
    if warm.code != 0:
        sys.exit(f"perfbench: cannot import youngwalls.cli from {SRC}:\n{warm.stderr}")


def layer_sample(res: Outcome, trace_path: Path) -> dict[str, float] | None:
    """Per-layer figures of one traced request (None if it wrote no trace)."""
    try:
        doc = json.loads(trace_path.read_text())
    except FileNotFoundError:
        return None
    trace_path.unlink()
    sample = {f"{layer}.self_s": doc["self_s"][layer] for layer in LAYERS}
    calls = doc["calls"]
    distinct = doc["table_distinct_keys"]
    sample.update({
        "wall_tables.calls": calls["wall_tables"],
        "wall_tables.distinct_keys": distinct,
        "wall_tables.reuse_ratio": 1 - distinct / calls["wall_tables"] if calls["wall_tables"] else 0.0,
        "cli.out_bytes": len(res.stdout),
        "cli.max_digits": max((len(d) for d in re.findall(rb"\d+", res.stdout)), default=0),
        "cli.startup_s": doc["startup_s"],
        "series_engine.coeffs_out": doc["coeffs_out"],
        "closed_forms.gamma_max_k": doc["gamma_max_k"],
        "poset_lab.ext_elements": doc["ext_elements"],
        "tree_child.calls": calls["tree_child"],
        "exact_arith.calls": calls["exact_arith"],
    })
    return sample


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spawner = Spawner(child_env())
    try:
        return measure(spawner, name, seed, seconds, trace)
    finally:
        spawner.close()


def measure(spawner: Spawner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import check  # needs src/ on the path, which main() has checked

    warm_up(spawner)
    reqs = workloads.build(name, seed)
    # set-up samples are spread over the pass, so that they see the same
    # drift in machine speed as the requests do
    setup_at = {j * len(reqs) // SETUP_SAMPLES for j in range(SETUP_SAMPLES)}
    setup: list[float] = []
    check_rng = random.Random(f"check:{seed}")
    trace_path = OUT / f"trace-{os.getpid()}.json"
    plain, traced, failures, layer_samples, log = [], [], [], [], []
    limit = min(RUN_LIMIT_S, CAP_FACTOR * seconds)
    start = time.perf_counter()
    cut = False

    def send(argv: list[str], with_trace: bool) -> None:
        if with_trace:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), SPAWN_NS, *argv]
        else:
            cmd = [sys.executable, "-m", "youngwalls.cli", *argv]
        res = spawner.run(cmd)
        failure = check.classify(argv, res.code, res.stdout, res.stderr, res.timed_out, check_rng)
        if failure is not None:
            failure["traced"] = with_trace
            failures.append(failure)
            print(f"failed: {' '.join(argv)} -> {failure['reason']}; "
                  f"{failure['last_stderr'][:120]}", file=sys.stderr)
        (traced if with_trace else plain).append((res, failure is None))
        log.append({"argv": " ".join(argv), "traced": with_trace, "wall_s": res.wall_s,
                    "cpu_s": res.cpu_s, "rss_mb": res.rss_mb, "exit": res.code,
                    "ok": failure is None})
        if with_trace:
            sample = layer_sample(res, trace_path)
            if sample is not None:
                layer_samples.append(sample)
                log[-1]["layers"] = sample

    for i, argv in enumerate(reqs):
        if i and time.perf_counter() - start > limit:
            cut = True
            break
        if not trace and i in setup_at:
            setup.append(spawner.run(SETUP_CMD).wall_s)
        # in traced runs alternate which twin goes first
        twins = ((False, True), (True, False))[i % 2] if trace else (False,)
        for with_trace in twins:
            send(argv, with_trace)

    results = plain + traced
    meta = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "requests_per_pass": len(reqs), "cut_at_s": round(limit, 1) if cut else None,
        "requests": len(results), "failed": len(failures),
        "fail_ratio": len(failures) / len(results), "setup_samples": len(setup),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "python": platform.python_version(),
    }
    if trace:
        metrics, units = per_layer(plain, traced, layer_samples, meta), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(plain, setup, meta), END_TO_END_UNITS
    meta.update(failures=failures, log=log)
    return {
        "correct": all(f["known_defect"] for f in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "meta": meta,
    }


def end_to_end(plain: list, setup: list[float], meta: dict) -> dict[str, float]:
    walls = sorted(res.wall_s for res, _ in plain)
    # the highest percentile with TAIL_BEYOND requests beyond it
    tail_at = max(len(walls) - TAIL_BEYOND - 1, 0)
    meta.update(req_tail_pct=round(100 * (tail_at + 1) / len(walls), 2),
                req_tail_samples=len(walls), req_tail_beyond=len(walls) - tail_at - 1)
    return {
        "setup_s": statistics.median(setup),
        "req_p50_s": statistics.median(walls),
        "req_tail_s": walls[tail_at],
        "req_per_s": sum(ok for _, ok in plain) / sum(walls),
        "cpu_per_req_s": statistics.median(res.cpu_s for res, _ in plain),
        "peak_rss_mb": max(res.rss_mb for res, _ in plain),
    }


def per_layer(plain: list, traced: list, samples: list[dict], meta: dict) -> dict[str, float]:
    rps = {label: sum(ok for _, ok in runs) / sum(res.wall_s for res, _ in runs)
           for label, runs in (("traced_req_per_s", traced), ("untraced_req_per_s", plain))}
    meta["trace_overhead_bases"] = rps
    metrics = {key: statistics.median(s[key] for s in samples)
               for key in PER_LAYER_UNITS if key != "trace.overhead"}
    metrics["trace.overhead"] = rps["traced_req_per_s"] / rps["untraced_req_per_s"]
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "youngwalls" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'youngwalls'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)  # the checker reads values past 4300 digits
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        meta = result.pop("meta")
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({**result, "meta": meta}, indent=1) + "\n")
        meta.pop("failures")
        meta.pop("log")
        for key, m in result["metrics"].items():
            print(f"{name:7} {key:28} {m['value']:14.6g} {m['unit']}")
        print(f"{name:7} {'fail_ratio':28} {meta['fail_ratio']:14.6g} "
              f"({result['failed']}/{result['attempted']}, all known defects: {result['correct']})")
        print(json.dumps({"meta": meta}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
