"""Benchmark entry point: one workload of rotorarm, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `--workload all` runs the four
workloads one after another. Set-up time is the median over
SETUP_PROBES fresh processes that only import rotorarm and build what the
workload needs. The workload itself then runs in one more fresh process
(perfbench/worker.py) with BLAS pinned to one thread. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits 1, printing no result, when anything goes wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("flight_sqp", "alloc_chain", "hover_map", "hover_map_fixed")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, probes included, must end before this

UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_us_p50": "us", "item_us_p90": "us",
    "item_ref_p50": "ref", "peak_rss_mb": "MB",
    "host.ref_us": "us", "trace.overhead_pct": "%",
}
STAT_UNITS = {"us": "us", "self_us": "us", "calls": "calls/item", "ms": "ms"}


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    return UNITS.get(name) or STAT_UNITS[name.rsplit(".", 1)[1]]


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one control loop: no BLAS thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(argv, deadline: float) -> dict:
    """Run the worker to its end and return the JSON object it printed last."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=worker_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        raise BenchError(f"worker {argv} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, deadline: float) -> list[float]:
    """Seconds from starting a fresh process until it is ready for the first item."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        ready = call_worker(["--workload", workload, "--setup-only"], deadline)["ready"]
        times.append(ready - started)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rotorarm" / "__init__.py").is_file():
        print(f"error: no rotorarm source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            run_workload(workload, args)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def run_workload(workload: str, args) -> None:
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".perfbench_out" / workload
    setup = None if args.trace else setup_seconds(workload, deadline)
    result = call_worker(["--workload", workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--out", str(out)], deadline)
    metrics = dict(result["metrics"])
    if setup is not None:
        metrics["setup_s"] = statistics.median(setup)
        result["extra"]["setup_runs_s"] = setup
    # figures that are not metrics of this mode go on a line of their own
    print(json.dumps({"workload": workload, "seed": args.seed, **result["extra"]}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())
