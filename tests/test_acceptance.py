"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line in the terminal summary (see conftest).
The closed-loop flights are shared through a module fixture, and flown in
parallel, because they dominate the runtime; everything else recomputes from scratch.
"""

import itertools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np
import pytest
from scipy.stats import ttest_rel

from helpers import arm_wrench, fly_octahedron, rel_error, wrench_chain
from rotorarm import (
    AllocatorInput,
    AllocatorState,
    DroneModel,
    HoverProblem,
    PenaltyWeights,
    Quaternion,
    SolverSettings,
    allocation_objective,
    assemble_kkt,
    build_catalog,
    capacity_fraction,
    cli,
    compare_singularity_handling,
    constraint_residual,
    continuous_roll,
    fibonacci_sphere,
    max_command_step,
    orientation_sweep,
    position_sweep,
    solve_hover,
    sqp_allocate,
    summarize,
    sweep_orientations,
    upward_fraction,
    wrap_angle,
)

EZ = np.array([0.0, 0.0, 1.0])
FD_H = 1e-6


# the two long flights (about three times the ticks of the others) first, so
# that they start at once
ACCEPTANCE_FLIGHTS = {
    "croll_sqp": (continuous_roll(), "sqp"),
    "pos_sqp": (position_sweep(), "sqp"),
    "pitch_sqp": (orientation_sweep(axes=("pitch",)), "sqp"),
    "pitch_pinv": (orientation_sweep(axes=("pitch",)), "pinv"),
    "roll_sqp": (orientation_sweep(axes=("roll",)), "sqp"),
    "roll_pinv": (orientation_sweep(axes=("roll",)), "pinv"),
}


@pytest.fixture(scope="module")
def flights():
    """Six closed-loop runs on octahedron_rot reused by the flight-based criteria.

    They fly in a pool of spawned processes, one per CPU (spawned, not
    forked: this process has imported numpy, whose BLAS may run threads).
    """
    workers = min(os.cpu_count() or 1, len(ACCEPTANCE_FLIGHTS))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        logs = pool.map(fly_octahedron, *zip(*ACCEPTANCE_FLIGHTS.values()))
        return dict(zip(ACCEPTANCE_FLIGHTS, logs))


# ---------------------------------------------------------------------------
# 1: hover efficiency envelopes over the full orientation sphere


def test_criterion_01_efficiency_envelopes(note):
    t0 = perf_counter()
    octa = sweep_orientations(build_catalog("octahedron_rot"), n_samples=2000).summary()
    hexa = sweep_orientations(build_catalog("hexagon_rot"), n_samples=2000).summary()
    elapsed = perf_counter() - t0

    expected = {
        "octahedron_rot": (octa, {"x1_min": 0.82, "x1_max": 1.00, "x2_min": 0.67, "x2_max": 0.82}),
        "hexagon_rot": (hexa, {"x1_min": 0.75, "x1_max": 1.00, "x2_min": 0.50, "x2_max": 1.00}),
    }
    for name, (summary, endpoints) in expected.items():
        for key, target in endpoints.items():
            assert abs(summary[key] - target) <= 0.02, (name, key, summary[key], target)
    assert elapsed < 60.0
    note(f"octa x1 [{octa['x1_min']:.3f},{octa['x1_max']:.3f}] "
         f"x2 [{octa['x2_min']:.3f},{octa['x2_max']:.3f}], "
         f"hex x1 [{hexa['x1_min']:.3f},{hexa['x1_max']:.3f}] "
         f"x2 [{hexa['x2_min']:.3f},{hexa['x2_max']:.3f}], {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2: closed-form hover orientations


def test_criterion_02_canonical_orientations(octa_model, note):
    geometry = octa_model.geometry
    vertex_up = solve_hover(HoverProblem(geometry, EZ))
    x2 = capacity_fraction(vertex_up, 2.4, 9.81, geometry.n_arms)
    loaded = int(np.sum(vertex_up.norms > 1e-6 * vertex_up.norms.max()))
    assert abs(x2 - 2.0 / 3.0) <= 1e-6
    assert loaded == 4

    face = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    face_up = solve_hover(HoverProblem(geometry, face))
    x1 = upward_fraction(face_up, face)
    assert abs((1.0 - x1) - 0.18) <= 0.01
    note(f"vertex-up x2={x2:.8f} with {loaded} arms loaded, face-up 1-x1={1.0 - x1:.4f}")


# ---------------------------------------------------------------------------
# 3: efficiency is a pure geometry property


def test_criterion_03_mass_gravity_invariance(octa_model, note):
    geometry = octa_model.geometry
    ups = fibonacci_sphere(128)

    def fractions(mass, gravity):
        rows = []
        for up in ups:
            sol = solve_hover(HoverProblem(geometry, up, mass=mass, gravity=gravity))
            rows.append((upward_fraction(sol, up),
                         capacity_fraction(sol, mass, gravity, geometry.n_arms)))
        return np.array(rows)

    base = fractions(2.4, 9.81)
    worst = 0.0
    for mass, gravity in itertools.product((1.0, 2.4, 5.0), (1.0, 9.81)):
        worst = max(worst, float(np.max(np.abs(fractions(mass, gravity) - base))))
    assert worst <= 1e-9
    note(f"max |delta| over 6 mass/gravity combos on 128 orientations: {worst:.2e}")


# ---------------------------------------------------------------------------
# 4: analytic derivatives against central finite differences


def _arm_partial_error(arm, u, a, mu, tau):
    w0 = arm_wrench(arm, u, a, mu, tau)
    up, um = arm_wrench(arm, u + FD_H, a, mu, tau), arm_wrench(arm, u - FD_H, a, mu, tau)
    ap, am = arm_wrench(arm, u, a + FD_H, mu, tau), arm_wrench(arm, u, a - FD_H, mu, tau)
    pairs = (
        (w0.force_du, (up.force - um.force)),
        (w0.torque_du, (up.torque - um.torque)),
        (w0.force_da, (ap.force - am.force)),
        (w0.torque_da, (ap.torque - am.torque)),
        (w0.force_duu, (up.force_du - um.force_du)),
        (w0.torque_duu, (up.torque_du - um.torque_du)),
        (w0.force_daa, (ap.force_da - am.force_da)),
        (w0.torque_daa, (ap.torque_da - am.torque_da)),
        (w0.force_dua, (ap.force_du - am.force_du)),
        (w0.torque_dua, (ap.torque_du - am.torque_du)),
    )
    return max(rel_error(analytic, diff / (2.0 * FD_H)) for analytic, diff in pairs)


def _random_smooth_state(model, rng):
    """Iterates away from the penalty kinks so the FD stencil stays one-sided-free."""
    n = model.geometry.n_arms
    u = np.where(rng.random(n) < 0.9, rng.uniform(0.05, 0.9, n), rng.uniform(1.05, 1.3, n))
    a = rng.uniform(-7.0, 7.0, n)
    inside = rng.random(n) < 0.7
    rates = np.where(
        inside,
        rng.uniform(-0.8, 0.8, n) * 2.0 * math.pi,
        rng.choice([-1.0, 1.0], n) * rng.uniform(1.2, 3.0, n) * 2.0 * math.pi,
    )
    state = AllocatorState(u, a, rng.normal(0.0, 2.0, 6), a - rates * model.control_period)
    axis_angle = rng.normal(0.0, 1.0, 3)
    q = Quaternion(1.0, *(0.3 * axis_angle))
    inp = AllocatorInput(q, rng.normal(0.0, 15.0, 3), rng.normal(0.0, 2.0, 3))
    return state, inp


def test_criterion_04_derivative_consistency(octa_model, note):
    rng = np.random.default_rng(0xD1FF)
    weights = PenaltyWeights()
    mu, tau = octa_model.thrust_constant, octa_model.torque_constant
    dt = octa_model.control_period
    n = octa_model.geometry.n_arms
    t0 = perf_counter()

    worst_arm = worst_grad = worst_hess = 0.0
    for _ in range(1000):
        state, inp = _random_smooth_state(octa_model, rng)
        for k, arm in enumerate(octa_model.geometry.arms):
            err = _arm_partial_error(arm, state.throttles[k], state.angles[k], mu, tau)
            worst_arm = max(worst_arm, err)

        hess, grad = assemble_kkt(state, inp, octa_model, weights)

        fd_grad = np.empty(2 * n)
        for j in range(2 * n):
            values = []
            for sign in (1.0, -1.0):
                u = state.throttles.copy()
                a = state.angles.copy()
                if j < n:
                    u[j] += sign * FD_H
                else:
                    a[j - n] += sign * FD_H
                obj = allocation_objective(u, a, state.prev_angles, dt, weights)
                res = constraint_residual(u, a, inp, octa_model)
                values.append(obj + float(state.multipliers @ res))
            fd_grad[j] = (values[0] - values[1]) / (2.0 * FD_H)
        worst_grad = max(worst_grad, rel_error(grad[: 2 * n], fd_grad))

        packed = np.concatenate([state.throttles, state.angles, state.multipliers])
        fd_hess = np.empty((3 * n, 3 * n))
        for j in range(3 * n):
            columns = []
            for sign in (1.0, -1.0):
                vec = packed.copy()
                vec[j] += sign * FD_H
                shifted = AllocatorState(vec[:n], vec[n : 2 * n], vec[2 * n :], state.prev_angles)
                columns.append(assemble_kkt(shifted, inp, octa_model, weights)[1])
            fd_hess[:, j] = (columns[0] - columns[1]) / (2.0 * FD_H)
        worst_hess = max(worst_hess, rel_error(hess, fd_hess))

    elapsed = perf_counter() - t0
    worst = max(worst_arm, worst_grad, worst_hess)
    assert worst <= 1e-5, (worst_arm, worst_grad, worst_hess)
    assert elapsed < 30.0
    note(f"1000 states: arm {worst_arm:.1e}, gradient {worst_grad:.1e}, "
         f"hessian {worst_hess:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5: warm-started convergence along smooth demand paths


def test_criterion_05_warm_start_convergence(octa_model, note):
    chain = wrench_chain(octa_model, 10_001, seed=11)
    warm = AllocatorState.cold_start(octa_model)
    warm = sqp_allocate(chain[0], warm, octa_model).next_warm()  # settle onto the path

    iterations = np.empty(10_000)
    for k, inp in enumerate(chain[1:]):
        sol = sqp_allocate(inp, warm, octa_model)
        assert sol.converged and sol.residual < 1e-5, (k, sol.iterations, sol.residual)
        iterations[k] = sol.iterations
        warm = sol.next_warm()

    median = float(np.median(iterations))
    peak = int(np.max(iterations))
    assert median <= 8.0
    assert peak <= 30
    note(f"10000/10000 converged, iterations median {median:.1f}, max {peak}")


# ---------------------------------------------------------------------------
# 6: against a brute-force global optimum on a small instance


def _grid_minimum(matrix, wrench, u_star, a_star, weights, dt):
    """Global minimum over the constraint manifold by nested null-space grids.

    The cost landscape over the two null-space coordinates is smooth except
    for narrow wells along the loci where an arm's angle stays inside the
    per-tick rate budget (width ~ throttle * rate_limit * dt). Those loci are
    linear in the vectored coordinates, so every well is seeded analytically
    and refined by local grids; a coarse scan adds any remaining smooth
    basins. The generating point only seeds the search, the grids decide.
    """
    from scipy.linalg import null_space

    n_arms = len(u_star)
    particular = np.linalg.lstsq(matrix, wrench, rcond=None)[0]
    basis = null_space(matrix)
    assert basis.shape == (2 * n_arms, 2)
    x_star = (u_star[:, None] * np.stack([np.cos(a_star), np.sin(a_star)], axis=1)).reshape(-1)
    z_star = basis.T @ (x_star - particular)

    def per_arm(uu, aa):
        pu = weights.throttle * uu**2 + weights.limit * (
            np.maximum(uu - weights.throttle_high, 0.0) ** 2
            + np.maximum(weights.throttle_low - uu, 0.0) ** 2
        )
        rate = aa / dt
        over = np.maximum(np.abs(rate) - weights.rate_limit, 0.0)
        return pu + weights.arm_rate * rate**2 + weights.limit * over**2

    def scan(grid):
        coords = (particular[None, :] + grid @ basis.T).reshape(len(grid), n_arms, 2)
        u = np.hypot(coords[..., 0], coords[..., 1])
        a = np.arctan2(coords[..., 1], coords[..., 0])
        flip = wrap_angle(a + math.pi)
        cost = np.minimum(per_arm(u, a), per_arm(-u, flip)).sum(axis=1)
        return cost, u, a, flip

    def refine(center):
        for span, n_pts in ((0.02, 201), (4e-4, 161)):
            zs0 = center[0] + np.linspace(-span, span, n_pts)
            zs1 = center[1] + np.linspace(-span, span, n_pts)
            grid = np.stack(np.meshgrid(zs0, zs1, indexing="ij"), axis=-1).reshape(-1, 2)
            cost, u, a, flip = scan(grid)
            best = int(np.argmin(cost))
            center = grid[best]
        take = per_arm(-u[best], flip[best]) < per_arm(u[best], a[best])
        u_best = np.where(take, -u[best], u[best])
        a_best = np.where(take, flip[best], a[best])
        return allocation_objective(u_best, a_best, np.zeros(n_arms), dt, weights)

    candidates = [z_star]
    sin_rows = basis[1::2, :] / u_star[:, None]  # all-angles-near-zero least squares
    candidates.append(np.linalg.lstsq(sin_rows, -particular[1::2] / u_star, rcond=None)[0])
    for k in range(n_arms):  # arm-off points: this arm's coordinates vanish
        block = basis[2 * k : 2 * k + 2, :]
        candidates.append(np.linalg.lstsq(block, -particular[2 * k : 2 * k + 2], rcond=None)[0])
    for j in range(n_arms):  # pairwise exact zero-angle intersections
        for k in range(j + 1, n_arms):
            mat = np.stack([basis[2 * j + 1], basis[2 * k + 1]])
            rhs = -np.array([particular[2 * j + 1], particular[2 * k + 1]])
            if abs(np.linalg.det(mat)) > 1e-8:
                candidates.append(np.linalg.solve(mat, rhs))

    span = 4.0
    zs = np.linspace(-span, span, 321)
    coarse = np.stack(
        np.meshgrid(z_star[0] + zs, z_star[1] + zs, indexing="ij"), axis=-1
    ).reshape(-1, 2)
    cost, _, _, _ = scan(coarse)
    candidates.extend(coarse[np.argsort(cost)[:20]])

    kept = []
    for cand in candidates:
        if all(np.linalg.norm(cand - other) > 5e-3 for other in kept):
            kept.append(np.asarray(cand, dtype=float))
    best = min(refine(cand) for cand in kept)
    # cost >= sum u^2 = ||x||^2 >= (||z|| - ||particular||)^2 certifies the window
    assert np.linalg.norm(particular) + math.sqrt(best) <= span + np.linalg.norm(z_star)
    return best


def test_criterion_06_global_optimality_small_instance(note):
    model = DroneModel(build_catalog("square_rot"))
    from rotorarm.allocation import vectored_thrust_matrix

    matrix = vectored_thrust_matrix(model)
    weights = PenaltyWeights()
    dt = model.control_period
    rng = np.random.default_rng(0x6B1D)

    worst = 0.0
    for _ in range(100):
        u_star = rng.uniform(0.1, 0.7, 4)
        a_star = rng.uniform(-0.03, 0.03, 4)  # within one tick of servo travel
        force = np.zeros(3)
        torque = np.zeros(3)
        for k, arm in enumerate(model.geometry.arms):
            w = arm_wrench(arm, u_star[k], a_star[k], model.thrust_constant, model.torque_constant)
            force += w.force
            torque += w.torque
        inp = AllocatorInput(Quaternion.identity(), force, torque)

        sol = sqp_allocate(inp, AllocatorState.cold_start(model), model,
                           settings=SolverSettings(max_iterations=60))
        assert sol.converged
        f_sqp = allocation_objective(sol.throttles, sol.angles, np.zeros(4), dt, weights)
        f_grid = _grid_minimum(
            matrix, np.concatenate([force, torque]), u_star, a_star, weights, dt
        )
        worst = max(worst, abs(f_sqp - f_grid) / max(f_grid, 1e-12))
    assert worst <= 0.01
    note(f"100 wrenches, worst relative objective gap vs grid optimum {worst:.2e}")


# ---------------------------------------------------------------------------
# 7: arm-vertical transits hurt the baseline more


def test_criterion_07_singularity_comparison(octa_model, flights, note):
    geometry = octa_model.geometry
    cmp_pitch = compare_singularity_handling(flights["pitch_sqp"], flights["pitch_pinv"], geometry)
    cmp_roll = compare_singularity_handling(flights["roll_sqp"], flights["roll_pinv"], geometry)

    instants = cmp_pitch.n_arm_instants + cmp_roll.n_arm_instants
    peaks_sqp = np.concatenate([cmp_pitch.peaks_sqp, cmp_roll.peaks_sqp])
    peaks_pinv = np.concatenate([cmp_pitch.peaks_pinv, cmp_roll.peaks_pinv])
    assert instants >= 12
    assert len(peaks_sqp) >= 2
    p_value = float(ttest_rel(peaks_pinv, peaks_sqp, alternative="greater").pvalue)
    assert float(np.mean(peaks_sqp)) < float(np.mean(peaks_pinv))
    assert p_value < 0.05
    note(f"{instants} arm-vertical instants, {len(peaks_sqp)} paired peaks, "
         f"mean sqp {np.mean(peaks_sqp):.4f} m < pinv {np.mean(peaks_pinv):.4f} m, "
         f"p={p_value:.4f}")


# ---------------------------------------------------------------------------
# 8: sustained rolling without command discontinuities


def test_criterion_08_continuous_roll(flights, note):
    log = flights["croll_sqp"]
    expected_ticks = round((10.0 * 8.0 + 2.0) / log.dt)
    step = max_command_step(log)
    assert len(log.t) == expected_ticks  # the ten revolutions complete
    assert int(np.sum(~log.converged)) == 0
    assert step < math.pi / 4.0
    assert float(np.max(log.pos_error)) < 0.5
    note(f"{len(log.t)} ticks, max arm step {step:.4f} rad, "
         f"max position error {np.max(log.pos_error):.4f} m")


# ---------------------------------------------------------------------------
# 9: translation is easy, reorientation is the hard direction


def test_criterion_09_translation_vs_rotation(flights, note):
    ori_translation = summarize(flights["pos_sqp"], settle=2.0).ori_mean
    ori_rotation = summarize(flights["pitch_sqp"], settle=2.0).ori_mean
    assert ori_translation < ori_rotation
    note(f"mean orientation error {ori_translation:.2e} rad translating "
         f"< {ori_rotation:.2e} rad reorienting")


# ---------------------------------------------------------------------------
# 10: command-line runs are reproducible byte for byte


def test_criterion_10_cli_determinism(tmp_path, note):
    request = tmp_path / "request.json"
    request.write_text(json.dumps(
        {"q": [1.0, 0.0, 0.0, 0.0], "F": [0.0, 0.0, 2.4 * 9.81], "M": [0.0, 0.0, 0.0]}
    ))
    fly_config = tmp_path / "fly.json"

    def command_set(base):
        fly_config.write_text(json.dumps({
            "sweep": {"kind": "hover"}, "duration": 1.0, "settle": 0.2,
            "noise_std": 0.05, "seed": 5, "out": str(base / "flight"),
        }))
        return [
            (["efficiency", "--geometry", "square_rot", "--samples", "200",
              "--out", str(base / "eff")],
             [base / "eff" / "efficiency_samples.csv",
              base / "eff" / "efficiency_summary.json"]),
            (["allocate", str(request), "--out", str(base / "result.json")],
             [base / "result.json"]),
            (["fly", "--config", str(fly_config)],
             [base / "flight" / "flight_log.csv", base / "flight" / "flight_stats.json"]),
        ]

    snapshots = []
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        produced = {}
        for argv, artifacts in command_set(base):
            assert cli.main(argv) == 0
            for path in artifacts:
                produced[path.name] = path.read_bytes()
        snapshots.append(produced)

    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], f"{name} differs between runs"
    note(f"{len(snapshots[0])} artifacts from 3 commands byte-identical across reruns")
