"""Time each stage of the 200 Hz flight tick, with wrappers installed from outside the program.

Run from a source checkout:

    PYTHONPATH=src python tests/tick_profile.py

It flies the ``pitch_roll`` reference flight of ``tests/flight_digests.py``
three times. Each stage of the tick is replaced, on its
module or class, by a wrapper that reads ``perf_counter_ns`` around the
call; a stage called inside another (the solver's own stages inside
``sqp_allocate``) is taken out of the outer stage's time, so every
nanosecond counts once. The solver's stages are ``_evaluate`` (the wrench
pair, residual and objective of one iterate), ``_arm_pass`` (the one loop
over the arms: the penalty slopes, the Lagrangian's gradient for the
stationarity exit or the next assembly, and H's per-arm entries with the
inertia floor taken), ``_assemble`` (the KKT matrix and the rest of K) and
``_newton_delta`` (the Newton solve and its residual check); what they
leave of ``sqp_allocate`` is its own loop: the step scale, the update and
the stopping tests. The tick is the time from the first
``sweep_setpoint`` call to the end of the last ``rigid_body_step``, over
the number of ticks; "loop body" is what the stages leave of it (the
per-arm wrenches, the noise branch, the log row and the loop itself).
For each stage it prints the median over the flights of µs per tick, its
share of the tick and calls per tick; a stage the flight never calls
prints as 0. The figures are raw wall time on the host that runs it, and
the wrappers add their own cost to every stage and to the loop body. The
program is not changed and no logged value moves.

The file name does not match ``test_*.py``, so the test suite does not
collect it.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter_ns

from flight_digests import fly
from rotorarm import allocation, simulation

FLIGHT = "pitch_roll"
REPEAT = 3

# (owner, attribute, label) of the solver's stages: sqp_allocate and what it calls
SOLVER_STAGES = (
    (simulation, "sqp_allocate", "sqp_allocate"),
    (allocation, "_evaluate", "_evaluate"),
    (allocation, "_arm_pass", "_arm_pass"),
    (allocation, "_assemble", "_assemble"),
    (allocation, "_newton_delta", "_newton_delta"),
)
# every stage, in the order printed
STAGES = SOLVER_STAGES + (
    (simulation, "pinv_allocate", "pinv_allocate"),
    (simulation._BranchSupervisor, "after_solve", "after_solve"),
    (simulation._BranchSupervisor, "reference", "reference"),
    (simulation._BranchSupervisor, "advance", "advance"),
    (simulation, "rigid_body_step", "rigid_body_step"),
    (simulation.PidController, "update", "PidController.update"),
    (simulation, "orientation_error", "orientation_error"),
    (simulation, "sweep_setpoint", "sweep_setpoint"),
    (simulation, "servo_update", "servo_update"),
    (simulation, "AllocatorInput", "AllocatorInput"),
)


class StageClock:
    """Self time and calls per stage, and the span of the ticks."""

    def __init__(self):
        self.self_ns = {label: 0 for _, _, label in STAGES}
        self.calls = {label: 0 for _, _, label in STAGES}
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


def profile(flight=lambda: fly(FLIGHT)) -> tuple[int, int, dict, dict]:
    """Run ``flight()`` once under the wrappers; (ticks, tick ns, self ns, calls)."""
    clock = StageClock()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in STAGES]
    try:
        for (owner, attr, label), (_, _, original) in zip(STAGES, originals):
            setattr(owner, attr, clock.wrap(original, label))
        log = flight()
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return len(log.t), clock.last - clock.first, clock.self_ns, clock.calls


def main() -> int:
    runs = [profile() for _ in range(REPEAT)]
    ticks = runs[0][0]

    def per_tick(values) -> float:
        return statistics.median(values) / ticks

    tick_us = per_tick([tick_ns for _, tick_ns, _, _ in runs]) / 1e3
    print(f"{FLIGHT}: {ticks} ticks, median of {REPEAT} flights, raw µs per tick")
    print(f"{'stage':24s} {'us/tick':>9s} {'share':>7s} {'calls/tick':>11s}")
    staged = 0.0
    for _, _, label in STAGES:
        us = per_tick([self_ns[label] for _, _, self_ns, _ in runs]) / 1e3
        calls = per_tick([calls[label] for _, _, _, calls in runs])
        staged += us
        print(f"{label:24s} {us:9.1f} {us / tick_us:7.1%} {calls:11.3f}")
    rest = tick_us - staged
    print(f"{'loop body':24s} {rest:9.1f} {rest / tick_us:7.1%}")
    print(f"{'tick':24s} {tick_us:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
