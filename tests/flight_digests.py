"""Fingerprint sixteen reference SQP flights to prove a refactor byte-identical.

Run from a source checkout:

    PYTHONPATH=src python tests/flight_digests.py [NAME ...]

For each flight (all of them, or only the named ones) it prints the number
of non-converged ticks, the maximum position error and the sha256 of the
rows of ``FlightLog.table()``. Running it before and after a change and
diffing the output shows whether any logged value moved. The flights take
a few minutes in total. The file name does not match ``test_*.py``, so the
test suite does not collect it.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from rotorarm import (
    DroneModel,
    Scenario,
    build_catalog,
    continuous_roll,
    orientation_sweep,
    position_sweep,
    run_flight,
)

PITCH_ROLL = ("pitch", "roll")
NOISY = {"noise_std": 0.05, "motor_lag": 0.02}

# name -> (geometry, sweep factory, sweep arguments, scenario arguments)
FLIGHTS = {
    "pitch": ("octahedron_rot", orientation_sweep, {"axes": ("pitch",)}, {}),
    "roll": ("octahedron_rot", orientation_sweep, {"axes": ("roll",)}, {}),
    "continuous_roll": ("octahedron_rot", continuous_roll, {}, {}),
    "position": ("octahedron_rot", position_sweep, {}, {}),
    "pitch_roll": ("octahedron_rot", orientation_sweep, {"axes": PITCH_ROLL}, {}),
    "yaw_pitch_roll": ("octahedron_rot", orientation_sweep, {}, {}),
    "pitch_roll_noisy_seed1": ("octahedron_rot", orientation_sweep, {"axes": PITCH_ROLL},
                               {**NOISY, "seed": 1}),
    "pitch_roll_noisy_seed2": ("octahedron_rot", orientation_sweep, {"axes": PITCH_ROLL},
                               {**NOISY, "seed": 2}),
    "pitch_roll_noisy_seed3": ("octahedron_rot", orientation_sweep, {"axes": PITCH_ROLL},
                               {**NOISY, "seed": 3}),
    "continuous_roll_2rev_noisy": ("octahedron_rot", continuous_roll, {"revolutions": 2.0},
                                   {**NOISY, "seed": 3}),
    "pitch_2s_steps": ("octahedron_rot", orientation_sweep,
                       {"axes": ("pitch",), "step_duration": 2.0}, {}),
    "pitch_roll_3s_steps": ("octahedron_rot", orientation_sweep,
                            {"axes": PITCH_ROLL, "step_duration": 3.0}, {}),
    "continuous_roll_5rev_4s": ("octahedron_rot", continuous_roll,
                                {"revolutions": 5.0, "seconds_per_rev": 4.0}, {}),
    "cube_pitch_roll": ("cube_rot", orientation_sweep, {"axes": PITCH_ROLL}, {}),
    "hexagon_pitch_roll_0.6": ("hexagon_rot", orientation_sweep,
                               {"axes": PITCH_ROLL, "amplitude": 0.6}, {}),
    "tetrahedron_pitch_roll": ("tetrahedron_rot", orientation_sweep, {"axes": PITCH_ROLL}, {}),
}


def fly(name: str):
    geometry, factory, sweep_args, scenario_args = FLIGHTS[name]
    model = DroneModel(build_catalog(geometry))
    return run_flight(Scenario(model=model, sweep=factory(**sweep_args), **scenario_args))


def digest(log) -> str:
    _, rows = log.table()
    return hashlib.sha256(rows.tobytes()).hexdigest()


def main(names) -> int:
    unknown = [name for name in names if name not in FLIGHTS]
    if unknown:
        print(f"unknown flight(s): {', '.join(unknown)}; known: {', '.join(FLIGHTS)}",
              file=sys.stderr)
        return 1
    for name in names or FLIGHTS:
        log = fly(name)
        nonconverged = int(np.sum(~log.converged))
        print(f"{name:28s} {nonconverged:5d}/{len(log.t):<6d} "
              f"max_pos {np.max(log.pos_error):.6g} m  sha256 {digest(log)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
