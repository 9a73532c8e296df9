"""Fingerprint reference flights, efficiency sweeps and solver chains to prove a refactor byte-identical.

Run from a source checkout:

    PYTHONPATH=src python tests/flight_digests.py [NAME ...]
    PYTHONPATH=src python tests/flight_digests.py --check tests/flight_digests.expected
    PYTHONPATH=src python tests/flight_digests.py --summary after.json
    PYTHONPATH=src python tests/flight_digests.py --compare before.json after.json

For each flight (all of them, or only the named ones) it prints the number
of non-converged ticks, the maximum position error and the sha256 of the
rows of ``FlightLog.table()``. For each catalog layout, named
``efficiency_<id>``, it prints the number of infeasible orientations and
the sha256 of the rows of ``EfficiencyMap.table()`` of a 2000-sample
``sweep_orientations``. For ``octahedron_rot`` and
``hexagon_tilt30_fixed``, named ``chain_<id>``, it prints the number of
non-converged solves and of ``SolverError`` along the warm-started demand
chain of acceptance criterion 05 (``wrench_chain(model, 10_001, seed=11)``,
from a cold start, each solve warm-starting the next; a ``SolverError``
keeps the warm start) and the sha256 of every solve's throttles, angles,
multipliers, iterations, residual, objective and converged flag, with a
marker for each ``SolverError``. A flight cannot prove the solver
byte-identical on its own, since the supervisor moves every warm point;
the chain feeds ``sqp_allocate`` nothing else. With ``--check FILE`` it also compares each line
with the line of the same name in FILE, prints every line that moved next
to the expected one, and exits 1 if any did. With ``--summary FILE`` it
also writes the figures of each flight, sweep and chain it ran to FILE as
JSON (see ``flight_figures``, ``sweep_line`` and ``chain_line``; a sweep's
are its infeasible count and the least and greatest x1 and x2; every
flight's include its ``flip_events``, the ``detect_flip_events`` count on
its own geometry, and an SQP flight's add its ``transit_starts``, counted
by ``fly_counting_transits``; a chain's include the p99 and the largest
stationarity norm of its returned iterates, the norm of the primal rows of
``assemble_kkt``'s K, recomputed at each of them), from the same runs as
the lines.
``--compare A B`` runs nothing: it prints the figures of two such files
side by side with their deltas, B less A, and the number of figures that
moved; it exits 0 whatever moved, so it reports and gates nothing.
The jobs run in a pool of one process per CPU and print flights first, in
the order of ``FLIGHTS``, then sweeps, then chains; they take a few minutes
of CPU time in total. The file name does not match ``test_*.py``, so the
test suite does not collect it.

Twenty-one flights use the SQP allocator; ``pitch_pinv`` flies the pitch sweep
with the pseudoinverse allocator. The four ``*_2s_steps`` flights and
``continuous_roll_5rev_3s`` keep the fast-step regime in every comparison;
``pitch_roll_2s_steps`` still diverges. ``hexagon_fixed_position`` is the one
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
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from helpers import wrench_chain
from rotorarm import simulation
from rotorarm import (
    CATALOG_IDS,
    AllocatorState,
    DroneModel,
    PenaltyWeights,
    Scenario,
    SolverError,
    assemble_kkt,
    build_catalog,
    continuous_roll,
    detect_flip_events,
    max_command_step,
    orientation_sweep,
    position_sweep,
    run_flight,
    sqp_allocate,
    summarize,
    sweep_orientations,
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
    "roll_2s_steps": ("octahedron_rot", orientation_sweep,
                      {"axes": ("roll",), "step_duration": 2.0}, {}),
    "yaw_pitch_roll_2s_steps": ("octahedron_rot", orientation_sweep, {"step_duration": 2.0}, {}),
    "continuous_roll_5rev_3s": ("octahedron_rot", continuous_roll,
                                {"revolutions": 5.0, "seconds_per_rev": 3.0}, {}),
    "pitch_roll_2s_steps": ("octahedron_rot", orientation_sweep,
                            {"axes": PITCH_ROLL, "step_duration": 2.0}, {}),
    "cube_pitch_roll": ("cube_rot", orientation_sweep, {"axes": PITCH_ROLL}, {}),
    "hexagon_pitch_roll_0.6": ("hexagon_rot", orientation_sweep,
                               {"axes": PITCH_ROLL, "amplitude": 0.6}, {}),
    "tetrahedron_pitch_roll": ("tetrahedron_rot", orientation_sweep, {"axes": PITCH_ROLL}, {}),
    "pitch_pinv": ("octahedron_rot", orientation_sweep, {"axes": ("pitch",)}, {"allocator": "pinv"}),
    "hexagon_fixed_position": ("hexagon_tilt30_fixed", position_sweep, {}, {}),
}

# efficiency line name -> catalog layout of its 2000-sample sweep
SWEEPS = {f"efficiency_{config_id}": config_id for config_id in CATALOG_IDS}

# chain line name -> catalog layout of its warm-started solver chain
CHAINS = {f"chain_{config_id}": config_id for config_id in ("octahedron_rot", "hexagon_tilt30_fixed")}

SETTLE_S = 2.0  # the figures' settled window starts here, as `rotorarm fly`'s default settle does
DIVERGED_M = 1.0  # a flight whose position error passes this has left its sweep


def fly(name: str):
    geometry, factory, sweep_args, scenario_args = FLIGHTS[name]
    model = DroneModel(build_catalog(geometry))
    return run_flight(Scenario(model=model, sweep=factory(**sweep_args), **scenario_args))


def fly_counting_transits(name: str):
    """Fly one flight and count its transit starts: the arms whose target goes from NaN to finite.

    ``_BranchSupervisor.after_solve`` is wrapped from outside the program for
    the flight, as ``tick_profile.py`` wraps its stages; no logged value moves.
    """
    supervisor = simulation._BranchSupervisor
    after_solve, starts = supervisor.after_solve, [0]

    def counted(self, *args, **kwargs):
        free = np.isnan(self.target)
        warm = after_solve(self, *args, **kwargs)
        starts[0] += int(np.sum(free & ~np.isnan(self.target)))
        return warm

    supervisor.after_solve = counted
    try:
        return fly(name), starts[0]
    finally:
        supervisor.after_solve = after_solve


def digest(result) -> str:
    """sha256 of the rows of a FlightLog's or an EfficiencyMap's table."""
    _, rows = result.table()
    return hashlib.sha256(rows.tobytes()).hexdigest()


def iteration_figures(iterations) -> dict:
    p50, p99 = np.percentile(iterations, [50, 99]).tolist()
    return {"iterations_p50": p50, "iterations_p99": p99, "iterations_max": int(np.max(iterations))}


def flight_figures(log, geometry) -> dict:
    """What a flight did, beyond its bytes: failures, tracking error, iterations, command steps, flips."""
    settled = summarize(log, settle=SETTLE_S)
    max_pos = float(np.max(log.pos_error))
    return {
        "nonconverged": int(np.sum(~log.converged)),
        "diverged": not max_pos <= DIVERGED_M,
        "pos_max_m": max_pos,
        "pos_settled_mean_m": settled.pos_mean,
        "ori_max_rad": float(np.max(log.ori_error)),
        "ori_settled_mean_rad": settled.ori_mean,
        **iteration_figures(log.iterations),
        "max_command_step_rad": max_command_step(log),
        "flip_events": len(detect_flip_events(log, geometry)),
    }


def chain_line(name: str) -> tuple[str, dict]:
    """Solve criterion 05's demand chain in order, hash every solution and count its figures."""
    model = DroneModel(build_catalog(CHAINS[name]))
    chain = wrench_chain(model, 10_001, seed=11)
    warm = AllocatorState.cold_start(model)
    sha = hashlib.sha256()
    nonconverged = errors = 0
    iterations, stationarity = [], []
    n_primal = 2 * model.geometry.n_arms
    for inp in chain:
        try:
            sol = sqp_allocate(inp, warm, model)
        except SolverError:
            errors += 1
            sha.update(b"SolverError")
            continue
        nonconverged += not sol.converged
        iterations.append(sol.iterations)
        _, grad = assemble_kkt(AllocatorState(sol.throttles, sol.angles, sol.multipliers,
                                              warm.prev_angles), inp, model, PenaltyWeights())
        stationarity.append(np.linalg.norm(grad[:n_primal]))
        for values in (sol.throttles, sol.angles, sol.multipliers,
                       [sol.iterations, sol.residual, sol.objective, sol.converged]):
            sha.update(np.asarray(values, dtype=float).tobytes())
        warm = sol.next_warm()
    line = (f"{name:28s} {nonconverged:5d}/{len(chain):<6d} "
            f"non-converged, {errors} SolverError  sha256 {sha.hexdigest()}")
    p99, peak = np.percentile(stationarity or [0.0], [99, 100]).tolist()
    return line, {"nonconverged": nonconverged, "solver_errors": errors,
                  **iteration_figures(iterations or [0]),
                  "stationarity_p99": p99, "stationarity_max": peak}


def sweep_line(name: str) -> tuple[str, dict]:
    """Sweep one catalog layout over 2000 up directions, hash its table and take its ranges."""
    sweep = sweep_orientations(build_catalog(SWEEPS[name]), 2000)
    summary = sweep.summary()
    line = (f"{name:28s} {len(sweep.failures):5d}/{sweep.n_samples:<6d} "
            f"infeasible  sha256 {digest(sweep)}")
    return line, {key: summary[key] for key in ("n_infeasible", "x1_min", "x1_max", "x2_min", "x2_max")}


def digest_line(name: str) -> tuple[str, dict]:
    """The line of one flight, sweep or chain, and its figures."""
    if name in CHAINS:
        return chain_line(name)
    if name in SWEEPS:
        return sweep_line(name)
    log, transit_starts = fly_counting_transits(name)
    figures = flight_figures(log, build_catalog(FLIGHTS[name][0]))
    if log.allocator == "sqp":
        figures["transit_starts"] = transit_starts
    nonconverged = int(np.sum(~log.converged))
    return (f"{name:28s} {nonconverged:5d}/{len(log.t):<6d} "
            f"max_pos {np.max(log.pos_error):.6g} m  sha256 {digest(log)}"), figures


def compare(path_a: str, path_b: str) -> int:
    """Print the figures of two summaries side by side with B - A; report only."""
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    moved = total = 0
    print(f"{'name':28s} {'figure':22s} {'A':>14s} {'B':>14s} {'B - A':>14s}")
    for name in [*a, *(n for n in b if n not in a)]:
        fa, fb = a.get(name, {}), b.get(name, {})
        for key in [*fa, *(k for k in fb if k not in fa)]:
            va, vb = fa.get(key), fb.get(key)
            total += 1
            if va is None or vb is None or isinstance(va, bool):
                delta = "" if va == vb else "changed"
            else:
                delta = f"{vb - va:+.6g}"
            moved += va != vb
            print(f"{name:28s} {key:22s} {_figure(va):>14s} {_figure(vb):>14s} {delta:>14s}")
    print(f"{moved} of {total} figures moved")
    return 0


def _figure(value) -> str:
    if value is None:
        return "(none)"
    return str(value) if isinstance(value, (bool, int)) else f"{value:.6g}"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Fingerprint the reference flights, sweeps and chains.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="flights, sweeps and chains to run (default: all)")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the lines in FILE; exit 1 if any line moved")
    parser.add_argument("--summary", metavar="FILE",
                        help="also write each flight's, sweep's and chain's figures to FILE as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the figures of two summaries with their deltas, and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    known = [*FLIGHTS, *SWEEPS, *CHAINS]
    unknown = [name for name in args.names if name not in known]
    if unknown:
        print(f"unknown name(s): {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
        return 1
    expected = {}
    if args.check:
        lines = Path(args.check).read_text().splitlines()
        expected = {line.split()[0]: line.rstrip() for line in lines if line.strip()}
    names = args.names or known
    moved, figures = [], {}
    # spawned, not forked: the parent has imported numpy, whose BLAS may run threads
    workers = min(os.cpu_count() or 1, len(names))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = pool.map(digest_line, names)  # yields in the order of names
        for name, (line, figures[name]) in zip(names, results):
            print(line, flush=True)
            if args.check and line != expected.get(name):
                moved.append(name)
                print(f"MOVED, expected: {expected.get(name, '(no line for this name)')}",
                      flush=True)
    if args.summary:
        Path(args.summary).write_text(json.dumps(figures, indent=1) + "\n")
        print(f"wrote the figures of {len(figures)} flights, sweeps and chains to {args.summary}")
    if args.check:
        print(f"{len(moved)} of {len(names)} lines moved"
              + (f": {', '.join(moved)}" if moved else ""), flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
