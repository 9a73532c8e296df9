"""Fingerprint eighteen reference flights to prove a refactor byte-identical.

Run from a source checkout:

    PYTHONPATH=src python tests/flight_digests.py [NAME ...]
    PYTHONPATH=src python tests/flight_digests.py --check tests/flight_digests.expected

For each flight (all of them, or only the named ones) it prints the number
of non-converged ticks, the maximum position error and the sha256 of the
rows of ``FlightLog.table()``. With ``--check FILE`` it also compares each
line with the line for the same flight in FILE, prints every line that
moved next to the expected one, and exits 1 if any did. The flights run in
a pool of one process per CPU and print in the order of ``FLIGHTS``; they
take a few minutes of CPU time in total. The file name does not match
``test_*.py``, so the test suite does not collect it.

Seventeen flights use the SQP allocator; ``pitch_pinv`` flies the pitch sweep
with the pseudoinverse allocator. ``hexagon_fixed_position`` is the one
flight on a layout with fixed arms, so the only one through the fixed-arm
branches of the allocator.

The hashes are specific to one numpy and BLAS build.
``flight_digests.expected`` was recorded with numpy 2.4.6 and OpenBLAS
0.3.31 (DYNAMIC_ARCH, Haswell kernels) on x86-64 Linux under Python 3.11.
Another build, or another CPU, can move last bits of a flight and so every
hash, with the counts and errors unchanged; record a fresh file from the
parent commit there before checking a change.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

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
    "pitch_pinv": ("octahedron_rot", orientation_sweep, {"axes": ("pitch",)}, {"allocator": "pinv"}),
    "hexagon_fixed_position": ("hexagon_tilt30_fixed", position_sweep, {}, {}),
}


def fly(name: str):
    geometry, factory, sweep_args, scenario_args = FLIGHTS[name]
    model = DroneModel(build_catalog(geometry))
    return run_flight(Scenario(model=model, sweep=factory(**sweep_args), **scenario_args))


def digest(log) -> str:
    _, rows = log.table()
    return hashlib.sha256(rows.tobytes()).hexdigest()


def digest_line(name: str) -> str:
    log = fly(name)
    nonconverged = int(np.sum(~log.converged))
    return (f"{name:28s} {nonconverged:5d}/{len(log.t):<6d} "
            f"max_pos {np.max(log.pos_error):.6g} m  sha256 {digest(log)}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Fingerprint the reference flights.")
    parser.add_argument("names", nargs="*", metavar="NAME", help="flights to run (default: all)")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the lines in FILE; exit 1 if any flight moved")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in FLIGHTS]
    if unknown:
        print(f"unknown flight(s): {', '.join(unknown)}; known: {', '.join(FLIGHTS)}",
              file=sys.stderr)
        return 1
    expected = {}
    if args.check:
        lines = Path(args.check).read_text().splitlines()
        expected = {line.split()[0]: line.rstrip() for line in lines if line.strip()}
    names = args.names or list(FLIGHTS)
    moved = []
    # spawned, not forked: the parent has imported numpy, whose BLAS may run threads
    workers = min(os.cpu_count() or 1, len(names))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        lines = pool.map(digest_line, names)  # yields in the order of names
        for name, line in zip(names, lines):
            print(line, flush=True)
            if args.check and line != expected.get(name):
                moved.append(name)
                print(f"MOVED, expected: {expected.get(name, '(no line for this flight)')}",
                      flush=True)
    if args.check:
        print(f"{len(moved)} of {len(names)} flights moved"
              + (f": {', '.join(moved)}" if moved else ""), flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
