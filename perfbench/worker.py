"""One benchmark workload, run in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload NAME --setup-only

`run.py` starts this with BLAS pinned to one thread and `src` on PYTHONPATH.
The last line of standard output is one JSON object: the run's metrics,
operations attempted and failed, and whether every output check held. With
--setup-only it prints the CLOCK_MONOTONIC time at which the program was
ready for its first item, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
from tracing import Tracer

WORKLOADS = ("flight_sqp", "alloc_chain", "hover_map", "hover_map_fixed")

# (layer, stat) pairs printed by a traced run; stat is us, self_us, calls or ms
PER_LAYER = (
    ("allocation.sqp_allocate", "us"), ("allocation.sqp_allocate", "calls"),
    ("allocation.sqp_allocate", "self_us"),
    ("allocation.newton_step", "us"), ("allocation.newton_step", "calls"),
    ("allocation.allocation_objective", "us"),
    ("allocation.pinv_allocate", "us"), ("allocation.pinv_allocate", "calls"),
    ("simulation.run_flight", "self_us"),
    ("simulation.sweep_setpoint", "us"),
    ("simulation.PidController.update", "us"),
    ("simulation.servo_update", "us"), ("simulation.servo_update", "calls"),
    ("simulation.rigid_body_step", "us"),
    ("spatial.orientation_error", "us"),
    ("spatial.Quaternion.rotate", "us"), ("spatial.Quaternion.rotate", "calls"),
    ("efficiency.sweep_orientations", "ms"),
    ("efficiency.solve_hover", "us"), ("efficiency.solve_hover", "calls"),
    ("geometry.force_map", "us"), ("geometry.force_map", "calls"),
    ("geometry.build_catalog", "ms"),
    ("cli.write_table", "ms"),
)
BLOCK_ITEMS = 100  # items between two reference-kernel measurements
# the reference kernel's time on the 2-core box these figures were taken on,
# at its full speed; item times are reported at this host speed (README)
NOMINAL_REF_US = 125.0


# ---------------------------------------------------------------------------
# host speed reference


class HostReference:
    """A small fixed loop with no rotorarm code, timed between blocks of items.

    The host's speed drifts by tens of percent within seconds, so item times
    are divided by this kernel's time measured around their own block. Its
    mix mirrors an allocation tick: an 18x18 solve, small array arithmetic
    and Python scalar work.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20130101)
        self.matrix = rng.normal(size=(18, 18)) + 18.0 * np.eye(18)
        self.rhs = rng.normal(size=18)
        self.arms = rng.normal(size=(6, 3))

    def _once(self) -> float:
        np = self.np
        acc = 0.0
        for i in range(10):
            x = np.linalg.solve(self.matrix, self.rhs)
            y = self.arms * x[:3] + self.arms[::-1]
            acc += float(np.linalg.norm(y)) + math.sqrt(i + 1.0) * 0.5 - i * 1e-3
        return acc

    def measure(self) -> int:
        """Median ns of five kernel passes."""
        times = []
        for _ in range(5):
            t0 = perf_counter_ns()
            self._once()
            times.append(perf_counter_ns() - t0)
        return sorted(times)[2]


class Clock:
    """The timed phase as blocks of items, each bracketed by kernel measurements.

    `start` measures the kernel and opens a block; `item` records one item's
    host time; `mark` closes the block (its wall time and the items it
    completed, kernel excluded), measures the kernel and opens the next
    block with that measurement. A round ends with `mark` and the next one
    begins with `start`, so time spent between rounds is never counted.
    """

    def __init__(self, ref: HostReference, tracer: Tracer | None = None):
        self.ref = ref
        self.tracer = tracer
        self.item_ns = array("q")
        self.item_block = array("q")
        self.block_wall = array("q")
        self.block_items = array("q")
        self.block_ref = array("q")  # kernel ns before and after each block, interleaved
        self.in_block = 0

    def _kernel(self) -> int:
        if self.tracer is None:
            return self.ref.measure()
        return self.tracer.span("host.ref", self.ref.measure)

    def start(self) -> None:
        self._ref_before = self._kernel()
        self.in_block = 0
        self._opened = perf_counter_ns()

    def item(self, ns: int) -> None:
        self.item_ns.append(ns)
        self.item_block.append(len(self.block_wall))
        self.in_block += 1

    def mark(self, untimed_items: int = 0) -> None:
        """Close the block; `untimed_items` completed in it without an own time."""
        self.block_wall.append(perf_counter_ns() - self._opened)
        self.block_items.append(self.in_block + untimed_items)
        self.block_ref.append(self._ref_before)
        self._ref_before = self._kernel()
        self.block_ref.append(self._ref_before)
        self.in_block = 0
        self._opened = perf_counter_ns()

    @property
    def items(self) -> int:
        return sum(self.block_items)

    def write(self, path) -> None:
        import numpy as np

        np.savez(path, item_ns=np.frombuffer(self.item_ns, dtype=np.int64),
                 item_block=np.frombuffer(self.item_block, dtype=np.int64),
                 block_wall_ns=np.frombuffer(self.block_wall, dtype=np.int64),
                 block_items=np.frombuffer(self.block_items, dtype=np.int64),
                 block_ref_ns=np.frombuffer(self.block_ref, dtype=np.int64).reshape(-1, 2))

    def metrics(self) -> dict:
        """Item figures at the nominal host speed, in reference units and raw.

        Each block's times are scaled by NOMINAL_REF_US over the kernel time
        measured around that block, so the figures do not follow the host's
        drift; the unscaled figures are kept as *_raw.
        """
        import numpy as np

        item_us = np.frombuffer(self.item_ns, dtype=np.int64) / 1e3
        block = np.frombuffer(self.item_block, dtype=np.int64)
        wall_s = np.frombuffer(self.block_wall, dtype=np.int64) / 1e9
        done = np.frombuffer(self.block_items, dtype=np.int64)
        ref_us = np.frombuffer(self.block_ref, dtype=np.int64).reshape(-1, 2).mean(axis=1) / 1e3
        scaled = item_us * (NOMINAL_REF_US / ref_us[block])
        return {
            "items_per_s": float(done.sum() / np.sum(wall_s * NOMINAL_REF_US / ref_us)),
            "item_us_p50": float(np.median(scaled)),
            "item_us_p90": float(np.percentile(scaled, 90)),
            "item_ref_p50": float(np.median(item_us / ref_us[block])),
            "items_per_s_raw": float(done.sum() / wall_s.sum()),
            "item_us_p50_raw": float(np.median(item_us)),
            "item_us_p90_raw": float(np.percentile(item_us, 90)),
            "timed_items": int(len(item_us)),
            "ref_us": float(np.median(ref_us)),
        }


def item_per_call(clock: Clock, module, name: str):
    """Patch module.name so that the gap between two calls is timed as one item.

    Every BLOCK_ITEMS items the clock marks a block, inside the call, so the
    kernel's time falls between two timestamps and into no item.
    """
    original = getattr(module, name)
    last = None

    def timed(*args, **kwargs):
        nonlocal last
        now = perf_counter_ns()
        if last is not None:
            clock.item(now - last)
            if clock.in_block == BLOCK_ITEMS:
                clock.mark()
                now = perf_counter_ns()
        last = now
        return original(*args, **kwargs)

    setattr(module, name, timed)
    return original


# ---------------------------------------------------------------------------
# workloads


def quiet_cli(argv) -> str:
    """Run the rotorarm CLI in this process; return what it printed."""
    from rotorarm import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise checks.CheckError(f"rotorarm {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


class CliWorkload:
    """One `rotorarm` command per round, run in this process.

    Items are timed as the gaps between consecutive calls of `hook` (a
    module and a function name); the last item of a round has no following
    call and is counted but not timed one by one, and the round's last block
    also holds the writing of the output files.
    """

    hook: tuple[str, str]
    n_items: int

    def setup(self) -> None:
        from rotorarm import cli  # noqa: F401  (the CLI's imports are the set-up)

    def round(self, clock: Clock) -> None:
        import importlib

        module = importlib.import_module(f"rotorarm.{self.hook[0]}")
        clock.start()
        original = item_per_call(clock, module, self.hook[1])
        try:
            self.printed = quiet_cli(self.argv)
        finally:
            setattr(module, self.hook[1], original)
        clock.mark(untimed_items=1)

    def finish(self) -> None:
        pass


class HoverMap(CliWorkload):
    """`rotorarm efficiency` over 2000 orientations; an item is one sample."""

    hook = ("efficiency", "solve_hover")
    n_items = 2000

    def __init__(self, geometry_id: str):
        self.geometry_id = geometry_id

    def prepare(self, seed: int, out: Path) -> None:
        from rotorarm import build_catalog

        # the Fibonacci lattice is fixed by the method, so the seed is unused
        self.out = out
        self.argv = ["efficiency", "--geometry", self.geometry_id,
                     "--samples", str(self.n_items), "--out", str(out)]
        self.frame = checks.Frame.of(build_catalog(self.geometry_id))

    def check(self) -> tuple[int, int]:
        if "x1 range" not in self.printed:
            raise checks.CheckError(f"unexpected efficiency output: {self.printed!r}")
        return checks.check_hover_outputs(
            self.frame, self.out / "efficiency_samples.csv",
            self.out / "efficiency_summary.json", self.n_items, 2.4 * 9.81)


class FlightSqp(CliWorkload):
    """`rotorarm fly`: SQP on octahedron_rot, +-pi about pitch then roll.

    An item is one 5 ms control tick, timed between consecutive calls into
    simulation.sweep_setpoint.
    """

    hook = ("simulation", "sweep_setpoint")
    model = {"thrust_constant": 15.0, "torque_constant": 0.18, "control_period": 0.005,
             "mass": 2.4, "gravity": 9.81, "inertia": [0.02, 0.02, 0.02]}
    sweep = {"kind": "orientation", "axes": ["pitch", "roll"], "amplitude": math.pi,
             "step_duration": 6.0, "start_delay": 2.0}
    settle = 2.0

    def prepare(self, seed: int, out: Path) -> None:
        from rotorarm import build_catalog

        # noise-free: the seed does not reach the flight (see README)
        self.out = out
        config = {"geometry": "octahedron_rot", "allocator": "sqp", "model": self.model,
                  "sweep": self.sweep, "settle": self.settle, "out": str(out)}
        config_path = out / "flight_config.json"
        config_path.write_text(json.dumps(config))
        self.argv = ["fly", "--config", str(config_path)]
        duration = self.sweep["start_delay"] + 4 * 2 * self.sweep["step_duration"] + 2.0
        self.n_items = round(duration / self.model["control_period"])
        self.frame = checks.Frame.of(build_catalog("octahedron_rot"))

    def check(self) -> tuple[int, int]:
        if f"{self.n_items} ticks" not in self.printed:
            raise checks.CheckError(f"unexpected fly output: {self.printed!r}")
        attempted, failed, self.figures = checks.check_flight_outputs(
            self.frame, self.out / "flight_log.csv", self.out / "flight_stats.json",
            self.model, self.n_items, self.settle)
        return attempted, failed


class AllocChain:
    """sqp_allocate warm-started along a smooth seeded demand path; an item is one solve.

    The path is bounded and stationary: attitude, force offset and torque
    are each a sum of slow sines that start at zero, so the first demand is
    plain hover and the warm chain stays in the tracking regime however long
    a run lasts. Consecutive demands are one 5 ms tick apart.
    """

    geometry_id = "octahedron_rot"
    tol_constraint = 1e-5

    def setup(self) -> None:
        import rotorarm

        self.rotorarm = rotorarm
        self.model = rotorarm.DroneModel(rotorarm.build_catalog(self.geometry_id))
        self.weights = rotorarm.PenaltyWeights()
        self.warm = rotorarm.AllocatorState.cold_start(self.model)

    def prepare(self, seed: int, out: Path) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(seed)
        # per signal and axis: three sines with random amplitude and frequency
        self.freq = rng.uniform(0.1, 1.2, size=(3, 3, 3))  # Hz
        amp = rng.uniform(0.3, 1.0, size=(3, 3, 3))
        # peak rotation vector 0.8 rad, force offset 8 N, torque 0.8 Nm per axis
        self.amp = amp / amp.sum(axis=2, keepdims=True) * np.array([0.8, 8.0, 0.8])[:, None, None]
        self.weight = self.model.mass * self.model.gravity
        self.frame = checks.Frame.of(self.model.geometry)
        # settle the cold start onto the path at its first demand, hover
        self.k = 1
        self._round_inputs(0, 1)
        self.warm = self.rotorarm.sqp_allocate(
            self.inputs[0], self.warm, self.model, self.weights).next_warm()
        self.iterations = []

    def _round_inputs(self, k0: int, count: int) -> None:
        """Demands k0 .. k0+count-1 as arrays (self.demand) and as program inputs."""
        np, rotorarm = self.np, self.rotorarm
        t = (k0 + np.arange(count)) * self.model.control_period
        signal = np.sin(2.0 * np.pi * self.freq[None] * t[:, None, None, None])
        rot_vec, offset, torque = (signal * self.amp[None]).sum(axis=3).transpose(1, 0, 2)
        angle = np.linalg.norm(rot_vec, axis=1)
        axis = rot_vec / np.where(angle > 0.0, angle, 1.0)[:, None]
        wxyz = np.column_stack([np.cos(0.5 * angle), np.sin(0.5 * angle)[:, None] * axis])
        force = offset + np.array([0.0, 0.0, self.weight])
        self.demand = (wxyz, force, torque)
        self.inputs = [rotorarm.AllocatorInput(rotorarm.Quaternion(*q), f, m)
                       for q, f, m in zip(wxyz, force, torque)]

    def round(self, clock: Clock) -> None:
        self._round_inputs(self.k, BLOCK_ITEMS)
        self.k += BLOCK_ITEMS
        sqp_allocate = self.rotorarm.allocation.sqp_allocate  # traced when a tracer is on
        SolverError = self.rotorarm.SolverError
        model, weights = self.model, self.weights
        self.solutions = []
        clock.start()
        for inp in self.inputs:
            t0 = perf_counter_ns()
            try:
                sol = sqp_allocate(inp, self.warm, model, weights)
            except SolverError:
                sol = None
            clock.item(perf_counter_ns() - t0)
            if sol is not None and sol.converged:
                self.warm = sol.next_warm()
            self.solutions.append(sol)
        clock.mark()

    def check(self) -> tuple[int, int]:
        np = self.np
        solved = np.array([sol is not None for sol in self.solutions])
        failed = int(np.sum(~solved))
        sols = [sol for sol in self.solutions if sol is not None]
        if sols:
            residual = checks.allocation_residuals(
                self.frame, np.array([sol.throttles for sol in sols]),
                np.array([sol.angles for sol in sols]), *(x[solved] for x in self.demand),
                self.model.thrust_constant, self.model.torque_constant)
            converged = np.array([sol.converged for sol in sols])
            failed += int(np.sum(~converged | (residual > self.tol_constraint)))
            self.iterations.extend(sol.iterations for sol in sols)
        return len(self.solutions), failed

    def finish(self) -> None:
        median = float(self.np.median(self.iterations))
        if median > 8.0:
            raise checks.CheckError(f"median Newton iterations {median} exceed 8")


def make_workload(name: str):
    return {
        "flight_sqp": FlightSqp,
        "alloc_chain": AllocChain,
        "hover_map": lambda: HoverMap("octahedron_rot"),
        "hover_map_fixed": lambda: HoverMap("hexagon_tilt30_fixed"),
    }[name]()


# ---------------------------------------------------------------------------
# measuring


def measure(workload, clock: Clock, seconds: float) -> tuple[int, int, bool]:
    """Whole rounds until `seconds` have passed; returns (attempted, failed, correct).

    A round whose outputs fail a whole-output check ends the measurement.
    """
    attempted = failed = 0
    deadline = perf_counter() + seconds
    try:
        while True:
            workload.round(clock)
            a, f = workload.check()
            attempted += a
            failed += f
            if perf_counter() >= deadline:
                break
        workload.finish()
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return attempted, failed, False
    return attempted, failed, True


def layer_metrics(tracer: Tracer, items: int) -> dict:
    stats = tracer.layer_stats()
    metrics = {}
    for layer, stat in PER_LAYER:
        calls, inclusive_ns, self_ns, _ = stats[layer]
        per_call = {"us": inclusive_ns / 1e3, "self_us": self_ns / 1e3, "ms": inclusive_ns / 1e6}
        if stat == "calls":
            metrics[f"{layer}.calls"] = calls / items
        else:
            metrics[f"{layer}.{stat}"] = per_call[stat] / calls if calls else 0.0
    return metrics


def run(args) -> dict:
    workload = make_workload(args.workload)
    workload.setup()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.seed, out)
    ref = HostReference()

    if not args.trace:
        clock = Clock(ref)
        attempted, failed, correct = measure(workload, clock, args.seconds)
        found = clock.metrics()
        clock.write(out / "timing.npz")
        metrics = {key: found[key] for key in
                   ("items_per_s", "item_us_p50", "item_us_p90", "item_ref_p50")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra = {"host.ref_us": found["ref_us"]}
        extra.update((key, found[key]) for key in
                     ("items_per_s_raw", "item_us_p50_raw", "item_us_p90_raw", "timed_items"))
    else:
        # untraced and traced halves in one process, so the overhead is
        # compared in reference units on the same host state
        plain = Clock(ref)
        attempted, failed, correct = measure(workload, plain, args.seconds / 2)
        tracer = Tracer()
        with tracer:
            traced = Clock(ref, tracer)
            a, f, traced_correct = measure(workload, traced, args.seconds / 2)
        attempted += a
        failed += f
        correct = correct and traced_correct
        tracer.write(out / "spans.npz")
        metrics = layer_metrics(tracer, traced.items)
        base, with_spans = plain.metrics(), traced.metrics()
        metrics["host.ref_us"] = 0.5 * (base["ref_us"] + with_spans["ref_us"])
        metrics["trace.overhead_pct"] = 100.0 * (
            with_spans["item_ref_p50"] / base["item_ref_p50"] - 1.0)
        extra = {"timed_items": base["timed_items"] + with_spans["timed_items"]}
    if hasattr(workload, "figures"):
        extra.update(workload.figures)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "extra": extra}


def setup_only(name: str) -> None:
    make_workload(name).setup()
    print(json.dumps({"ready": time.monotonic()}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
