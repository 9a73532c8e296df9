"""Time each stage of the 200 Hz flight tick, with wrappers installed from outside the program.

Run from a source checkout:

    PYTHONPATH=src python tests/tick_profile.py
    PYTHONPATH=src python tests/tick_profile.py --sweep hexagon_tilt30_fixed
    PYTHONPATH=src python tests/tick_profile.py --chain octahedron_rot

Without options it flies the ``pitch_roll`` reference flight of
``tests/flight_digests.py`` three times. Each stage of the tick is
replaced, on its module or class, by a wrapper that reads ``perf_counter_ns`` around the
call; a stage called inside another (the solver's own stages inside
``sqp_allocate``) is taken out of the outer stage's time, so every
nanosecond counts once. The solver's stages are ``_evaluate`` (the wrench
pair, residual and objective of one iterate), ``_arm_pass`` (the one loop
over the arms: the penalty slopes, the Lagrangian's gradient for the
stationarity exit or the next assembly, and H's per-arm entries with the
inertia floor taken), ``_assemble`` (the KKT matrix and the rest of K) and
``_newton_delta`` (the Newton solve and its residual check); what they
leave of ``sqp_allocate`` is its own loop: the step scale, the update and
the stopping tests. ``_net_wrench`` is the plant's one pass over the
arms: each arm's wrench at its flown throttle and angle, summed into the
net body force and torque. The tick is the time from the first
``sweep_setpoint`` call to the end of the last ``rigid_body_step``, over
the number of ticks; "loop body" is what the stages leave of it (the
throttle clamp, the noise branch, the log row and the loop itself).
For each stage it prints the median over the flights of µs per tick, its
share of the tick and calls per tick; a stage the flight never calls
prints as 0. The figures are raw wall time on the host that runs it, and
the wrappers add their own cost to every stage and to the loop body. The
program is not changed and no logged value moves.

With ``--sweep LAYOUT`` it times, with the same clock, the efficiency
sweep of a catalog layout instead: ``SWEEP_REPEAT`` 2000-sample
``sweep_orientations`` runs on one geometry, whose stages are
``HoverProblem`` (building and checking one problem), ``solve_hover``,
``upward_fraction`` and ``capacity_fraction``. What they leave of
``sweep_orientations`` is its own loop, with the catch and the record of
each infeasible sample, and its one lattice and two NaN arrays. It prints
the median over the sweeps of µs per sample, its share of the sweep and
calls per sample.

With ``--chain LAYOUT`` it times, with the same clock, the solver alone
along the warm chain of perfbench's ``alloc_chain`` workload on a catalog
layout: ``CHAIN_ROUNDS`` rounds of its seeded demand path at seed
``CHAIN_SEED``, each solve warm-started from the last converged one's
``next_warm``, ``CHAIN_REPEAT`` times. Its stages are the solver's, with
``sqp_allocate`` traced where the workload calls it, plus
``_evaluate_at_rest`` (a first evaluation taken from the record the warm
state was handed, so its calls per solve are the share of solves that
reuse it) and ``DroneModel._wrench_pair`` (one per evaluation made
afresh). It prints the median over the chains of µs per solve, its share
and calls per solve. A flight's ``_evaluate_at_rest`` line is its share
of ticks that reuse a record.

The file name does not match ``test_*.py``, so the test suite does not
collect it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

from flight_digests import fly
from rotorarm import CATALOG_IDS, allocation, build_catalog, efficiency, simulation

FLIGHT = "pitch_roll"
REPEAT = 3
SWEEP_SAMPLES = 2000
SWEEP_REPEAT = 15
CHAIN_SEED = 2801
CHAIN_ROUNDS = 50  # of perfbench's BLOCK_ITEMS = 100 solves each
CHAIN_REPEAT = 3
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (owner, attribute, label) of the solver's stages: sqp_allocate and what it calls
SOLVER_STAGES = (
    (simulation, "sqp_allocate", "sqp_allocate"),
    (allocation, "_evaluate", "_evaluate"),
    (allocation, "_arm_pass", "_arm_pass"),
    (allocation, "_assemble", "_assemble"),
    (allocation, "_newton_delta", "_newton_delta"),
)
# a first evaluation taken from the warm state's record
REUSE_STAGE = (allocation, "_evaluate_at_rest", "_evaluate_at_rest")
# every stage, in the order printed
STAGES = SOLVER_STAGES + (
    REUSE_STAGE,
    (simulation, "pinv_allocate", "pinv_allocate"),
    (simulation._BranchSupervisor, "after_solve", "after_solve"),
    (simulation._BranchSupervisor, "reference", "reference"),
    (simulation._BranchSupervisor, "advance", "advance"),
    (simulation, "_net_wrench", "_net_wrench"),
    (simulation, "rigid_body_step", "rigid_body_step"),
    (simulation.PidController, "update", "PidController.update"),
    (simulation, "orientation_error", "orientation_error"),
    (simulation, "sweep_setpoint", "sweep_setpoint"),
    (simulation, "servo_update", "servo_update"),
    (simulation, "AllocatorInput", "AllocatorInput"),
)
# the stages of an efficiency sweep: sweep_orientations and what it calls per sample
SWEEP_STAGES = (
    (efficiency, "sweep_orientations", "sweep_orientations"),
    (efficiency, "HoverProblem", "HoverProblem"),
    (efficiency, "solve_hover", "solve_hover"),
    (efficiency, "upward_fraction", "upward_fraction"),
    (efficiency, "capacity_fraction", "capacity_fraction"),
)
# the stages of a warm chain: the solver's, the reuse and the wrench pair
CHAIN_STAGES = ((allocation, "sqp_allocate", "sqp_allocate"),) + SOLVER_STAGES[1:] + (
    REUSE_STAGE,
    (allocation.DroneModel, "_wrench_pair", "DroneModel._wrench_pair"),
)


class StageClock:
    """Self time and calls per stage, and the span from the first call to the last."""

    def __init__(self, stages=STAGES):
        self.self_ns = {label: 0 for _, _, label in stages}
        self.calls = {label: 0 for _, _, label in stages}
        self.inner = [0]  # per open stage, the time of the stages called inside it
        self.first = None
        self.last = None

    def wrap(self, fn, label: str):
        def timed(*args, **kwargs):
            self.inner.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                took = t1 - t0
                self.self_ns[label] += took - self.inner.pop()
                self.inner[-1] += took
                self.calls[label] += 1
                if self.first is None:
                    self.first = t0
                self.last = t1
        return timed


def _timed(stages, run) -> tuple[StageClock, object]:
    """Run ``run()`` once with ``stages`` wrapped; (clock, what it returned)."""
    clock = StageClock(stages)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in stages]
    try:
        for (owner, attr, label), (_, _, original) in zip(stages, originals):
            setattr(owner, attr, clock.wrap(original, label))
        result = run()
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return clock, result


def profile(flight=lambda: fly(FLIGHT)) -> tuple[int, int, dict, dict]:
    """Run ``flight()`` once under the wrappers; (ticks, tick ns, self ns, calls)."""
    clock, log = _timed(STAGES, flight)
    return len(log.t), clock.last - clock.first, clock.self_ns, clock.calls


def profile_sweep(geometry, n_samples: int = SWEEP_SAMPLES) -> tuple[int, int, dict, dict]:
    """Sweep ``geometry`` once under the wrappers; (samples, sweep ns, self ns, calls)."""
    clock, _ = _timed(SWEEP_STAGES, lambda: efficiency.sweep_orientations(geometry, n_samples))
    # the outermost stage's whole call: every stage's self time, each nanosecond once
    return n_samples, sum(clock.self_ns.values()), clock.self_ns, clock.calls


class _Untimed:
    """The clock a perfbench workload round reports to, left unread: the stages keep the time."""

    def start(self) -> None:
        pass

    def item(self, ns: int) -> None:
        pass

    def mark(self) -> None:
        pass


def alloc_chain(config_id: str, seed: int = CHAIN_SEED):
    """perfbench's ``alloc_chain`` workload on a catalog layout, set up and settled onto its path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from worker import AllocChain
    finally:
        sys.path.remove(str(PERFBENCH))
    workload = AllocChain()
    workload.geometry_id = config_id
    workload.setup()
    workload.prepare(seed, None)
    return workload


def profile_chain(config_id: str, rounds: int = CHAIN_ROUNDS) -> tuple[int, int, dict, dict]:
    """Solve ``rounds`` rounds of the warm chain under the wrappers; (solves, chain ns, self ns, calls)."""
    workload = alloc_chain(config_id)

    def chain():
        for _ in range(rounds):
            workload.round(_Untimed())
    clock, _ = _timed(CHAIN_STAGES, chain)
    return clock.calls["sqp_allocate"], sum(clock.self_ns.values()), clock.self_ns, clock.calls


def report(runs, stages, title: str, unit: str, rest_label: str | None) -> None:
    """Print the median over ``runs`` of each stage's µs and calls per ``unit``."""
    count = runs[0][0]

    def per_unit(values) -> float:
        return statistics.median(values) / count

    total_us = per_unit([span_ns for _, span_ns, _, _ in runs]) / 1e3
    print(f"{title}: {count} {unit}s, median of {len(runs)}, raw µs per {unit}")
    print(f"{'stage':24s} {f'us/{unit}':>9s} {'share':>7s} {f'calls/{unit}':>13s}")
    staged = 0.0
    for _, _, label in stages:
        us = per_unit([self_ns[label] for _, _, self_ns, _ in runs]) / 1e3
        calls = per_unit([calls[label] for _, _, _, calls in runs])
        staged += us
        print(f"{label:24s} {us:9.2f} {us / total_us:7.1%} {calls:13.3f}")
    if rest_label:
        rest = total_us - staged
        print(f"{rest_label:24s} {rest:9.2f} {rest / total_us:7.1%}")
    print(f"{unit:24s} {total_us:9.2f}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", metavar="LAYOUT", choices=CATALOG_IDS,
                        help="time the efficiency sweep of this catalog layout instead of a flight")
    parser.add_argument("--chain", metavar="LAYOUT", choices=CATALOG_IDS,
                        help="time the solver along alloc_chain's warm chain on this catalog layout")
    args = parser.parse_args(argv)
    if args.chain:
        runs = [profile_chain(args.chain) for _ in range(CHAIN_REPEAT)]
        report(runs, CHAIN_STAGES, f"alloc_chain of {args.chain}, seed {CHAIN_SEED}", "solve", None)
    elif args.sweep:
        geometry = build_catalog(args.sweep)
        runs = [profile_sweep(geometry) for _ in range(SWEEP_REPEAT)]
        report(runs, SWEEP_STAGES, f"sweep of {args.sweep}", "sample", None)
    else:
        runs = [profile() for _ in range(REPEAT)]
        report(runs, STAGES, FLIGHT, "tick", "loop body")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
