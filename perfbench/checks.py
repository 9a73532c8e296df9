"""Independent checks of rotorarm outputs.

Nothing here imports rotorarm. Every expected value is recomputed from the
geometry arrays (arm endpoints, axes, zero directions, spins, kinds) with
this file's own cross products, rotation matrices, least-squares solves and
statistics, and then compared with what the program wrote or returned.
"""

from __future__ import annotations

import json
import math

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class CheckError(AssertionError):
    """An output disagrees with its independent computation as a whole."""


def cross(a, b):
    """Cross product over the last axis, written out component by component."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.stack([
        a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
        a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
        a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
    ], axis=-1)


def rotation_matrices(wxyz):
    """Body-to-world rotation matrices (..., 3, 3) of unit quaternions (w, x, y, z)."""
    q = np.asarray(wxyz, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], -1),
    ], axis=-2)


class Frame:
    """Arm layout as plain arrays, copied once from a geometry object."""

    def __init__(self, endpoints, axes, zero_dirs, spins, rotating, unidirectional):
        self.endpoints = np.array(endpoints, dtype=float)
        self.axes = np.array(axes, dtype=float)
        self.zero_dirs = np.array(zero_dirs, dtype=float)
        self.spins = np.array(spins, dtype=float)
        self.rotating = np.array(rotating, dtype=bool)
        self.unidirectional = np.array(unidirectional, dtype=bool)
        # thrust plane of a rotating arm: zero direction and axis x zero direction
        self.plane2 = np.where(self.rotating[:, None], cross(self.axes, self.zero_dirs), 0.0)

    @classmethod
    def of(cls, geometry) -> "Frame":
        return cls(geometry.endpoints, geometry.axes, geometry.zero_dirs, geometry.spins,
                   geometry.rotating, geometry.unidirectional)

    @property
    def n_arms(self) -> int:
        return len(self.spins)

    def thrust_dirs(self, angles):
        """Unit thrust directions (..., n_arms, 3) at arm angles (..., n_arms)."""
        angles = np.asarray(angles, dtype=float)[..., None]
        turned = np.cos(angles) * self.zero_dirs + np.sin(angles) * self.plane2
        return np.where(self.rotating[:, None], turned, self.zero_dirs)

    def body_wrench(self, throttles, angles, thrust_constant, torque_constant):
        """Net body force and torque (..., 3) each, produced by the actuators."""
        u = np.asarray(throttles, dtype=float)[..., None]
        n = self.thrust_dirs(angles)
        force = (thrust_constant * u * n).sum(axis=-2)
        torque = (thrust_constant * u * cross(self.endpoints, n)
                  + torque_constant * self.spins[:, None] * u * n).sum(axis=-2)
        return force, torque

    def hover_columns(self):
        """Columns of the hover force map: force direction, owning arm, one-sided flag."""
        dirs, owner, one_sided = [], [], []
        for i in range(self.n_arms):
            if self.rotating[i]:
                dirs += [self.zero_dirs[i], self.plane2[i]]
                owner += [i, i]
                one_sided += [False, False]
            else:
                dirs.append(self.zero_dirs[i])
                owner.append(i)
                one_sided.append(bool(self.unidirectional[i]))
        dirs = np.array(dirs)
        owner = np.array(owner)
        matrix = np.vstack([dirs.T, cross(self.endpoints[owner], dirs).T])
        return matrix, dirs, owner, np.array(one_sided)


# ---------------------------------------------------------------------------
# warm allocation chain


def allocation_residuals(frame, throttles, angles, wxyz, force_world, torque_world,
                         thrust_constant, torque_constant):
    """Scaled residual norm hypot(|dF|, |dM|) of each solution against its demand.

    The demand is given in the world frame; it is taken into the body frame
    with the transpose of this file's own rotation matrix.
    """
    rot_t = np.swapaxes(rotation_matrices(wxyz), -1, -2)
    demand_f = np.einsum("kij,kj->ki", rot_t, np.asarray(force_world, dtype=float))
    demand_m = np.einsum("kij,kj->ki", rot_t, np.asarray(torque_world, dtype=float))
    force, torque = frame.body_wrench(throttles, angles, thrust_constant, torque_constant)
    return np.hypot(np.linalg.norm(force - demand_f, axis=-1),
                    np.linalg.norm(torque - demand_m, axis=-1))


# ---------------------------------------------------------------------------
# hover maps


def fibonacci_ups(n_samples: int) -> np.ndarray:
    k = np.arange(n_samples, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / n_samples
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(GOLDEN_ANGLE * k), r * np.sin(GOLDEN_ANGLE * k), z], axis=1)


def expected_hover_map(frame, ups, weight):
    """(x1, x2) per up direction, NaN where no admissible hover exists.

    With no one-sided column the minimum-norm hover is pinv(M) @ [W up; 0].
    A layout made only of one-sided fixed arms with a square, invertible map
    has exactly one balancing solution, admissible iff no coordinate is
    negative.
    """
    matrix, dirs, owner, one_sided = frame.hover_columns()
    targets = np.concatenate([weight * ups, np.zeros_like(ups)], axis=1).T  # (6, S)
    if not np.any(one_sided):
        coords = (np.linalg.pinv(matrix) @ targets).T
        feasible = np.ones(len(ups), dtype=bool)
    elif np.all(one_sided) and matrix.shape == (6, 6):
        coords = np.linalg.solve(matrix, targets).T
        feasible = ~np.any(coords < 0.0, axis=1)
    else:
        raise CheckError("no independent hover computation for a mixed layout")
    forces = np.zeros((len(ups), frame.n_arms, 3))
    for col in range(len(owner)):
        forces[:, owner[col]] += coords[:, col, None] * dirs[col]
    norms = np.linalg.norm(forces, axis=2)
    x1 = np.einsum("sai,si->s", forces, ups) / norms.sum(axis=1)
    x2 = weight / (norms.max(axis=1) * frame.n_arms)
    return np.where(feasible, x1, np.nan), np.where(feasible, x2, np.nan)


def read_table(path):
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split(",")
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, rows


def check_hover_outputs(frame, samples_path, summary_path, n_samples, weight, tol=1e-12):
    """Compare one `rotorarm efficiency` run with the independent hover map.

    Returns (attempted, failed): a sample fails when its feasibility or its
    x1/x2 disagree. Raises CheckError when the files as a whole are wrong.
    """
    header, rows = read_table(samples_path)
    if header != ["up_x", "up_y", "up_z", "x1", "x2"] or rows.shape != (n_samples, 5):
        raise CheckError(f"efficiency table has header {header} and shape {rows.shape}")
    ups = fibonacci_ups(n_samples)
    if np.max(np.abs(rows[:, :3] - ups)) > 1e-15:
        raise CheckError("efficiency table up directions differ from the Fibonacci lattice")
    x1, x2 = expected_hover_map(frame, ups, weight)
    got_feasible = np.isfinite(rows[:, 3]) & np.isfinite(rows[:, 4])
    want_feasible = np.isfinite(x1)
    with np.errstate(invalid="ignore"):
        value_bad = (np.abs(rows[:, 3] - x1) > tol) | (np.abs(rows[:, 4] - x2) > tol)
    bad = (got_feasible != want_feasible) | (want_feasible & value_bad)

    with open(summary_path) as handle:
        summary = json.load(handle)
    expected = {
        "n_samples": n_samples,
        "n_infeasible": int(np.sum(~want_feasible)),
        "x1_min": np.nanmin(x1), "x1_max": np.nanmax(x1),
        "x2_min": np.nanmin(x2), "x2_max": np.nanmax(x2),
    }
    for key, value in expected.items():
        if key not in summary or abs(summary[key] - value) > tol:
            raise CheckError(f"efficiency summary {key}={summary.get(key)} expected {value}")
    return n_samples, int(np.sum(bad))


# ---------------------------------------------------------------------------
# closed-loop flight


def nearest_rank_p90(values) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def check_flight_outputs(frame, log_path, stats_path, model, n_ticks, settle,
                         law_tol=(1e-12, 1e-10)):
    """Compare one `rotorarm fly` run with the rigid-body law and recomputed statistics.

    `model` holds thrust_constant, torque_constant, control_period, mass,
    gravity and the inertia diagonal, as passed to the program. Returns
    (attempted, failed, figures): a tick fails when it is logged as
    non-converged. Raises CheckError when the log as a whole is wrong.
    """
    header, rows = read_table(log_path)
    col = {name: i for i, name in enumerate(header)}
    n = frame.n_arms

    def cols(*names):
        return rows[:, [col[name] for name in names]]

    def arms(prefix):
        return rows[:, [col[f"{prefix}_{i}"] for i in range(n)]]

    if rows.shape[0] != n_ticks:
        raise CheckError(f"flight log has {rows.shape[0]} ticks, expected {n_ticks}")
    dt = model["control_period"]
    mu, tau = model["thrust_constant"], model["torque_constant"]
    mass, gravity = model["mass"], model["gravity"]
    inertia = np.asarray(model["inertia"], dtype=float)

    t = cols("t")[:, 0]
    if np.max(np.abs(t - dt * np.arange(n_ticks))) > 1e-9:
        raise CheckError("flight log time column is not the tick clock")
    pos, vel = cols("px", "py", "pz"), cols("vx", "vy", "vz")
    quat, omega = cols("qw", "qx", "qy", "qz"), cols("wx", "wy", "wz")
    force_b, torque_b = frame.body_wrench(arms("u_act"), arms("a_act"), mu, tau)

    # semi-implicit Euler: rates first, then position from the new velocity
    accel = np.einsum("kij,kj->ki", rotation_matrices(quat), force_b) / mass
    accel[:, 2] -= gravity
    trans = np.max(np.abs(vel[1:] - vel[:-1] - accel[:-1] * dt))
    trans = max(trans, float(np.max(np.abs(pos[1:] - pos[:-1] - vel[1:] * dt))))
    gyro = cross(omega, omega * inertia)
    rot = np.max(np.abs(omega[1:] - omega[:-1] - (torque_b[:-1] - gyro[:-1]) / inertia * dt))
    if not (trans <= law_tol[0] and rot <= law_tol[1]):
        raise CheckError(f"flight log breaks the rigid-body law: translational {trans:.3e}, "
                         f"rotational {rot:.3e}")

    a_cmd = arms("a_cmd")
    max_step = float(np.max(np.abs(np.diff(a_cmd, axis=0))))
    if not max_step < math.pi / 4:
        raise CheckError(f"arm command jumps by {max_step:.4f} rad in one tick")

    converged = cols("converged")[:, 0] > 0.5
    iterations = cols("iterations")[:, 0]
    settled = t >= settle
    pos_err, ori_err = cols("pos_error")[settled, 0], cols("ori_error")[settled, 0]
    expected = {
        "n_ticks": n_ticks,
        "n_nonconverged": int(np.sum(~converged)),
        "max_arm_step_rad": max_step,
        "arm_continuity_ok": True,
        "iterations_median": float(np.median(iterations)),
        "iterations_max": int(np.max(iterations)),
        "pos_mean_m": math.fsum(pos_err) / len(pos_err),
        "pos_std_m": float(np.sqrt(np.mean((pos_err - pos_err.mean()) ** 2))),
        "pos_p90_m": nearest_rank_p90(pos_err),
        "ori_mean_rad": math.fsum(ori_err) / len(ori_err),
        "ori_std_rad": float(np.sqrt(np.mean((ori_err - ori_err.mean()) ** 2))),
        "ori_p90_rad": nearest_rank_p90(ori_err),
    }
    with open(stats_path) as handle:
        stats = json.load(handle)
    for key, value in expected.items():
        got = stats.get(key)
        if got is None or abs(got - value) > 1e-9 * max(1.0, abs(value)):
            raise CheckError(f"flight_stats.json {key}={got}, recomputed {value}")
    figures = {"translational_mismatch": float(trans), "rotational_mismatch": float(rot),
               "max_arm_step_rad": max_step, "max_pos_error_m": float(np.max(cols("pos_error")))}
    return n_ticks, int(np.sum(~converged)), figures
