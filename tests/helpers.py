"""Shared numeric test utilities: oracles, finite differences, random inputs."""

import math
from dataclasses import dataclass, replace

import numpy as np

from rotorarm import (
    AllocatorInput,
    AllocatorState,
    DroneModel,
    Quaternion,
    Scenario,
    build_catalog,
    integrate_orientation,
    run_flight,
)
from rotorarm import allocation
from rotorarm.efficiency import HoverSolution
from rotorarm.geometry import ROTATING, GeometryError


def rodrigues(axis, angle: float) -> np.ndarray:
    """Rotation matrix about a unit axis, built independently of Quaternion."""
    axis = np.asarray(axis, dtype=float)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def random_unit(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def random_quaternion(rng) -> Quaternion:
    return Quaternion(*rng.normal(size=4))


def quat_distance(p: Quaternion, q: Quaternion) -> float:
    """Distance between unit quaternions ignoring the double-cover sign."""
    d = p.wxyz - q.wxyz
    s = p.wxyz + q.wxyz
    return float(min(np.linalg.norm(d), np.linalg.norm(s)))


def central_diff(f, x: float, h: float = 1e-6):
    """Two-sided difference quotient; works for vector-valued f."""
    return (np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2.0 * h)


def rel_error(analytic, numeric) -> float:
    """Worst absolute deviation scaled by the larger of 1 and the value scale."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(1.0, float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def penalty_throttle_oracle(u, weights):
    """The throttle penalty as first written: separate over and under parts."""
    u = np.asarray(u, dtype=float)
    over = np.maximum(0.0, u - weights.throttle_high)
    under = np.maximum(0.0, weights.throttle_low - u)
    p = weights.throttle * u * u + weights.limit * (over * over + under * under)
    dp = 2.0 * weights.throttle * u + 2.0 * weights.limit * (over - under)
    ddp = 2.0 * weights.throttle + 2.0 * weights.limit * ((over > 0.0) | (under > 0.0))
    return p, dp, ddp


def penalty_arm_rate_oracle(rate, weights):
    """The arm-rate penalty as first written: the overrun of |rate|, signed by rate."""
    rate = np.asarray(rate, dtype=float)
    over = np.maximum(0.0, np.abs(rate) - weights.rate_limit)
    p = weights.arm_rate * rate * rate + weights.limit * over * over
    dp = 2.0 * weights.arm_rate * rate + 2.0 * weights.limit * over * np.sign(rate)
    ddp = 2.0 * weights.arm_rate + 2.0 * weights.limit * (over > 0.0)
    return p, dp, ddp


# ---------------------------------------------------------------------------
# the per-tick formulas as first written, on arrays and numpy scalars; the
# program's Python-float versions must give the same bits


def normalized_oracle(w, x, y, z) -> np.ndarray:
    """Quaternion components as the constructor first normalized them."""
    q = np.array([w, x, y, z], dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("quaternion components must be finite")
    w, x, y, z = q.tolist()
    if not math.isfinite(w * w + x * x + y * y + z * z):
        q /= max(abs(w), abs(x), abs(y), abs(z))
    n = math.sqrt(q @ q)
    if n < 1e-12:
        raise ValueError("quaternion norm too small to normalize")
    return q / n


def product_oracle(p, q) -> np.ndarray:
    """Hamilton product of two component arrays, on numpy scalars."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return normalized_oracle(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def conjugate_oracle(q) -> np.ndarray:
    w, x, y, z = q
    return normalized_oracle(w, -x, -y, -z)


def axis_angle_oracle(q) -> tuple[np.ndarray, float]:
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    angle = 2.0 * math.atan2(s, w)
    if s < 1e-15:
        return np.zeros(3), 0.0
    return np.array([x, y, z]) / s, angle


def rotation_matrix_oracle(q) -> np.ndarray:
    """The rotation matrix of unit quaternion components, built as a nested array."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def orientation_error_oracle(q_set, q) -> np.ndarray:
    axis, angle = axis_angle_oracle(product_oracle(conjugate_oracle(q), q_set))
    return axis * angle


def integrate_orientation_oracle(q, omega_body, dt: float) -> np.ndarray:
    theta = np.asarray(omega_body, dtype=float) * dt
    angle = np.linalg.norm(theta)
    if angle < 1e-12:
        dq = normalized_oracle(1.0, 0.5 * theta[0], 0.5 * theta[1], 0.5 * theta[2])
    else:
        axis = theta / angle
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-9
        half = 0.5 * float(angle)
        s = math.sin(half)
        dq = normalized_oracle(math.cos(half), s * axis[0], s * axis[1], s * axis[2])
    return product_oracle(q, dq)


def rigid_body_step_oracle(state, body_force, body_torque, model, dt: float):
    """(position, velocity, orientation components, angular velocity) after one step."""
    body_force, body_torque = np.asarray(body_force, dtype=float), np.asarray(body_torque, dtype=float)
    world_force = (state.orientation.to_matrix() @ body_force
                   + model.mass * model.gravity * np.array([0.0, 0.0, -1.0]))
    velocity = state.velocity + (world_force / model.mass) * dt
    position = state.position + velocity * dt
    momentum = model.inertia @ state.angular_velocity
    torque_net = body_torque - np.cross(state.angular_velocity, momentum)
    angular_velocity = state.angular_velocity + np.linalg.solve(model.inertia, torque_net) * dt
    orientation = integrate_orientation_oracle(state.orientation.wxyz, angular_velocity, dt)
    return position, velocity, orientation, angular_velocity


def arm_wrenches_oracle(model, throttles, angles) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm forces and torques of the flight loop as first written: an array product."""
    wrenches = np.asarray(throttles, dtype=float)[:, None] * model.wrenches_at(angles)
    return wrenches[:, :3], wrenches[:, 3:]


class PidOracle:
    """PidController.update as first written, on arrays."""

    def __init__(self, gains, mass: float, gravity: float):
        self.gains, self.mass, self.gravity = gains, float(mass), float(gravity)
        self.i_pos, self.i_ori = np.zeros(3), np.zeros(3)

    def update(self, pos_error, ori_error, velocity, angular_velocity, accel_ff, dt: float):
        g = self.gains
        self.i_pos = np.clip(self.i_pos + g.ki_pos * pos_error * dt, -g.i_max_pos, g.i_max_pos)
        self.i_ori = np.clip(self.i_ori + g.ki_ori * ori_error * dt, -g.i_max_ori, g.i_max_ori)
        p_pos, p_ori = g.kp_pos * pos_error, g.kp_ori * ori_error
        weight_ff = self.mass * self.gravity * np.array([0.0, 0.0, 1.0])
        force = p_pos + self.i_pos - g.kd_pos * velocity + self.mass * accel_ff + weight_ff
        torque = p_ori + self.i_ori - g.kd_ori * angular_velocity
        return force, torque


def same_bits(a, b) -> bool:
    """Equal byte for byte as float arrays, so signed zeros and NaN payloads count."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# one Newton iterate of sqp_allocate as first written, on arrays; the
# program's Python-float iterate must give the same bits


def unit_wrenches_oracle(model, angles):
    """W and dW/da with both np.where masks, whatever the layout."""
    rotating = model.geometry.rotating
    c = np.where(rotating, np.cos(angles), 1.0)[:, None]
    s = np.where(rotating, np.sin(angles), 0.0)[:, None]
    return c * model.wrench1 + s * model.wrench2, c * model.wrench2 - s * model.wrench1


def penalty_oracle(x, weight, low, high, limit):
    """The one-sided penalty over arrays, clip form."""
    v = x - np.minimum(high, np.maximum(low, x))
    p = weight * x * x + limit * (v * v)
    dp = 2.0 * weight * x + 2.0 * limit * v
    ddp = 2.0 * weight + 2.0 * limit * (v != 0.0)
    return p, dp, ddp


def allocation_objective_oracle(throttles, angles, prev_angles, period: float, weights) -> float:
    """The objective as first written: numpy sums of the throttle and the arm-rate penalties."""
    rates = (angles - prev_angles) / period
    p_u = penalty_oracle(throttles, weights.throttle, weights.throttle_low, weights.throttle_high,
                         weights.limit)[0]
    p_rate = penalty_oracle(rates, weights.arm_rate, -weights.rate_limit, weights.rate_limit,
                            weights.limit)[0]
    return float(np.sum(p_u) + np.sum(p_rate))


def evaluate_oracle(x, prev_angles, body_wrench, model, weights) -> dict:
    """Every quantity of one iterate x = [throttles; angles; multipliers]."""
    n = model.geometry.n_arms
    throttles, angles = x[:n], x[n: 2 * n]
    wrench, d_wrench = unit_wrenches_oracle(model, angles)
    rates = (angles - prev_angles) / model.control_period
    weight = np.full(2 * n, weights.arm_rate, dtype=float)
    weight[:n] = weights.throttle
    low = np.array([weights.throttle_low] * n + [-weights.rate_limit] * n)
    high = np.array([weights.throttle_high] * n + [weights.rate_limit] * n)
    p, dp, ddp = penalty_oracle(np.concatenate((throttles, rates)), weight, low, high, weights.limit)
    return {"wrench": wrench, "d_wrench": d_wrench, "residual": throttles @ wrench - body_wrench,
            "objective": float(p[:n].sum() + p[n:].sum()), "dp": dp, "ddp": ddp}


def assemble_oracle(x, it: dict, model):
    """KKT matrix and gradient from one scatter of all eight blocks."""
    dt = model.control_period
    n = model.geometry.n_arms
    throttles, multipliers = x[:n], x[2 * n:]
    wrench, d_wrench, dp, ddp = it["wrench"], it["d_wrench"], it["dp"], it["ddp"]
    angle_jacobian = throttles[:, None] * d_wrench
    lam_w = wrench @ multipliers
    h_ua = d_wrench @ multipliers
    h_aa = np.where(model.geometry.rotating, -throttles * lam_w, 0.0)
    dim = 2 * n + 6
    u = np.arange(n)[:, None]
    a = n + u
    lam = 2 * n + np.arange(6)
    index = np.concatenate((u * dim + u, a * dim + a, u * dim + a, a * dim + u,
                            u * dim + lam, lam * dim + u, a * dim + lam, lam * dim + a), axis=None)
    hess = np.zeros((dim, dim))
    hess.put(index, np.concatenate((ddp[:n], ddp[n:] / (dt * dt) + h_aa, h_ua, h_ua,
                                    wrench, wrench, angle_jacobian, angle_jacobian), axis=None))
    grad = np.concatenate((dp[:n] + lam_w, dp[n:] / dt + throttles * h_ua, it["residual"]))
    return hess, grad


INERTIA_FLOOR = 1e-6


def floored_oracle(hess, n_arms: int):
    """The matrix the Newton step solves: every arm's primal block at or above its floor, on arrays.

    Returns a copy of hess; arm i's block [a, b; b, c] sits at rows and
    columns i and n + i, f = 1e-6 max(1, |a|, |c|), and a block whose
    smaller eigenvalue is below f gets f minus it added to both diagonal
    entries, that difference taken on the block less f I.
    """
    n = n_arms
    i = np.arange(n)
    a, c, b = hess[i, i], hess[n + i, n + i], hess[i, n + i]
    f = INERTIA_FLOOR * np.maximum(1.0, np.maximum(np.abs(a), np.abs(c)))
    p, q = a - f, c - f
    mean, half = 0.5 * (p + q), 0.5 * (p - q)
    with np.errstate(all="ignore"):
        low = np.where(mean > 0.0, (p * q - b * b) / (mean + np.sqrt(half * half + b * b)),
                       mean - np.sqrt(half * half + b * b))
    lift = ~((p > 0.0) & (p * q > b * b)) & (low < 0.0)
    matrix = hess.copy()
    matrix[i, i] = np.where(lift, a - low, a)
    matrix[n + i, n + i] = np.where(lift, c - low, c)
    return matrix


def newton_delta_oracle(hess, grad, n_arms: int):
    """The Newton step through np.linalg.solve of the floored matrix; None when it gives none."""
    matrix = floored_oracle(hess, n_arms)
    try:
        delta = np.linalg.solve(matrix, -grad)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(delta)):
        return None
    if np.linalg.norm(matrix @ delta + grad) > 1e-10 * max(1.0, float(np.linalg.norm(grad))):
        return None
    return delta


def step_scale_oracle(d_throttles, d_angles, throttle_step_limit=0.1, angle_step_limit=0.2):
    alpha = 1.0
    abs_da, abs_du = np.abs(d_angles), np.abs(d_throttles)
    max_da = float(abs_da.max()) if abs_da.size else 0.0
    max_du = float(abs_du.max()) if abs_du.size else 0.0
    if max_da > angle_step_limit:
        alpha = min(alpha, angle_step_limit / max_da)
    if max_du > throttle_step_limit:
        alpha = min(alpha, throttle_step_limit / max_du)
    return alpha


def sqp_allocate_oracle(inp, warm, model, weights, max_iterations: int = 30,
                        tol_stationarity: float | None = 1e-4):
    """sqp_allocate's loop over the oracles above, default tolerances and trust bounds.

    An iterate whose residual passes is accepted when the objective test
    passes or the norm of the primal rows of the assembled K is below
    tol_stationarity; None leaves the stationarity exit out. Returns
    (throttles, angles, multipliers, iterations, residual, objective,
    converged), or None where sqp_allocate raises SolverError.
    """
    n = model.geometry.n_arms
    body_wrench = inp.body_wrench()
    x = np.concatenate((warm.throttles, warm.angles, warm.multipliers))
    it = evaluate_oracle(x, warm.prev_angles, body_wrench, model, weights)
    obj_prev, iterations, converged, res_norm = it["objective"], 0, False, math.inf
    for iterations in range(1, max_iterations + 1):
        delta = newton_delta_oracle(*assemble_oracle(x, it, model), n)
        if delta is None:
            return None
        x = x + step_scale_oracle(delta[:n], delta[n: 2 * n]) * delta
        if not np.all(np.isfinite(x)):
            return None
        it = evaluate_oracle(x, warm.prev_angles, body_wrench, model, weights)
        obj = it["objective"]
        res_norm = math.hypot(np.linalg.norm(it["residual"][:3]), np.linalg.norm(it["residual"][3:]))
        stationary = (tol_stationarity is not None
                      and np.linalg.norm(assemble_oracle(x, it, model)[1][:2 * n]) < tol_stationarity)
        if res_norm < 1e-5 and (abs(obj - obj_prev) / max(obj, 1e-9) < 1e-4 or stationary):
            converged = True
            obj_prev = obj
            break
        obj_prev = obj
    return x[:n], x[n: 2 * n], x[2 * n:], iterations, res_norm, obj_prev, converged


def wrench_chain(model, n_steps: int, seed: int) -> list[AllocatorInput]:
    """Smooth random demand path around hover: the warm-start regime.

    The attitude integrates a bounded random-walk body rate while the force
    offset and torque take small reflected steps, so consecutive demands
    differ by the few-millisecond amounts a control loop would produce.
    """
    rng = np.random.default_rng(seed)
    dt = model.control_period
    weight = np.array([0.0, 0.0, model.mass * model.gravity])
    omega = np.zeros(3)
    q = Quaternion.identity()
    offset = np.zeros(3)
    torque = np.zeros(3)
    chain = []
    for _ in range(n_steps):
        omega = np.clip(omega + rng.normal(0.0, 0.05, 3), -1.5, 1.5)
        q = integrate_orientation(q, omega, dt)
        offset = np.clip(offset + rng.normal(0.0, 0.25, 3), -10.0, 10.0)
        torque = np.clip(torque + rng.normal(0.0, 0.03, 3), -1.2, 1.2)
        chain.append(AllocatorInput(q, weight + offset, torque.copy()))
    return chain


# ---------------------------------------------------------------------------
# the scalar oracle of the per-arm wrench map: one arm at a time, plain cross
# products


def thrust_plane_basis(arm):
    """Orthonormal basis (b1, b2) of a rotating arm's thrust plane.

    b1 is the zero-angle direction and b2 = axis x b1, so the thrust direction
    at arm angle a is cos(a) b1 + sin(a) b2.
    """
    if arm.kind != ROTATING:
        raise GeometryError("thrust_plane_basis is only defined for rotating arms")
    return arm.zero_dir.copy(), np.cross(arm.axis, arm.zero_dir)


def thrust_direction(arm, angle: float):
    """Thrust direction of one arm plus its first two angle derivatives.

    For rotating arms n(a) = cos(a) b1 + sin(a) b2, so dn/da = axis x n and
    d2n/da2 = axis x (axis x n) = -n. Fixed arms return zero derivatives.
    """
    if arm.kind != ROTATING:
        return arm.zero_dir.copy(), np.zeros(3), np.zeros(3)
    b1, b2 = thrust_plane_basis(arm)
    n = math.cos(angle) * b1 + math.sin(angle) * b2
    dn = np.cross(arm.axis, n)
    ddn = np.cross(arm.axis, dn)
    return n, dn, ddn


@dataclass
class ArmWrench:
    """Force/torque of one arm and every partial needed by the allocator."""

    force: np.ndarray
    torque: np.ndarray
    force_du: np.ndarray
    force_da: np.ndarray
    torque_du: np.ndarray
    torque_da: np.ndarray
    force_duu: np.ndarray
    force_daa: np.ndarray
    force_dua: np.ndarray
    torque_duu: np.ndarray
    torque_daa: np.ndarray
    torque_dua: np.ndarray


def arm_wrench(arm, throttle: float, angle: float, thrust_constant: float, torque_constant: float) -> ArmWrench:
    """Wrench contribution of one arm about the body origin.

    force = mu u n(a); torque = mu u (r x n) + tau s u n, where the second
    term is the propeller drag torque along the thrust direction.
    """
    n, dn, ddn = thrust_direction(arm, angle)
    mu, tau = thrust_constant, torque_constant
    r, s, u = arm.endpoint, float(arm.spin), float(throttle)
    rxn, rxdn, rxddn = np.cross(r, n), np.cross(r, dn), np.cross(r, ddn)
    return ArmWrench(
        force=mu * u * n,
        torque=mu * u * rxn + tau * s * u * n,
        force_du=mu * n,
        force_da=mu * u * dn,
        torque_du=mu * rxn + tau * s * n,
        torque_da=mu * u * rxdn + tau * s * u * dn,
        force_duu=np.zeros(3),
        force_daa=mu * u * ddn,
        force_dua=mu * dn,
        torque_duu=np.zeros(3),
        torque_daa=mu * u * rxddn + tau * s * u * ddn,
        torque_dua=mu * rxdn + tau * s * dn,
    )


# ---------------------------------------------------------------------------
# the per-arm maps as first built, one array per basis vector; the program's
# thrust-plane and wrench blocks must give the same bits


def plane_rows_oracle(geometry):
    """basis1, basis2, moment1 and moment2 (each n_arms x 3) of a geometry."""
    basis1 = geometry.zero_dirs.copy()
    basis2 = np.where(geometry.rotating[:, None], np.cross(geometry.axes, geometry.zero_dirs), 0.0)
    return basis1, basis2, np.cross(geometry.endpoints, basis1), np.cross(geometry.endpoints, basis2)


def hover_matrix_oracle(geometry):
    """The 6 x K hover map: both basis vectors per rotating arm, basis1 per fixed arm."""
    basis1, basis2, moment1, moment2 = plane_rows_oracle(geometry)
    keep = np.column_stack([np.ones(geometry.n_arms, dtype=bool), geometry.rotating]).ravel()
    directions = np.stack([basis1, basis2], axis=1).reshape(-1, 3)[keep]
    moments = np.stack([moment1, moment2], axis=1).reshape(-1, 3)[keep]
    return np.vstack([directions.T, moments.T])


def wrench_rows_oracle(model):
    """wrench1 and wrench2 (each n_arms x 6): body wrench per unit throttle, drag included."""
    basis1, basis2, moment1, moment2 = plane_rows_oracle(model.geometry)
    mu, drag = model.thrust_constant, model.torque_constant * model.geometry.spins[:, None]
    return (np.hstack([mu * basis1, mu * moment1 + drag * basis1]),
            np.hstack([mu * basis2, mu * moment2 + drag * basis2]))


def vectored_thrust_matrix_oracle(model):
    """The 6 x 2n pinv map, columns interleaved arm-major."""
    return np.stack(wrench_rows_oracle(model), axis=1).reshape(-1, 6).T


# the hover clamp loop as first written


@dataclass
class HoverReference:
    solution: object  # a HoverSolution, or None where the hover is infeasible
    force_residual: float
    torque_residual: float
    free: np.ndarray  # per hover-map column: False where the final clamp set holds it at zero
    # (force, torque) residual of the first clamp set, one clamp or more, whose residual norm
    # exceeds the hypot of the two tolerances; None where no set does
    deciding: tuple | None


def solve_hover_reference(problem) -> HoverReference:
    """solve_hover with one np.linalg.lstsq per clamp set: the greedy active set, re-solved.

    Clamps the most negative one-sided coordinate to zero and solves again
    until none is negative; infeasible when the final set's balance residual
    exceeds solve_hover's tolerances. The loop runs to its end whatever the
    residuals along the way.
    """
    g = problem.geometry
    fm = g.hover_map
    weight = problem.mass * problem.gravity
    target = np.concatenate([weight * problem.up, np.zeros(3)])
    tol_force, tol_torque = 1e-8 * weight, 1e-8 * weight * max(g.max_radius, 1e-9)
    give_up = np.hypot(tol_force, tol_torque)

    n_cols = fm.matrix.shape[1]
    free = np.ones(n_cols, dtype=bool)
    coords = np.zeros(n_cols)
    deciding = None
    for _ in range(g.n_arms + 1):
        coords[:] = 0.0
        sol, *_ = np.linalg.lstsq(fm.matrix[:, free], target, rcond=None)
        coords[free] = sol
        residual = fm.matrix @ coords - target
        if deciding is None and not np.all(free) and np.linalg.norm(residual) > give_up:
            deciding = (float(np.linalg.norm(residual[:3])), float(np.linalg.norm(residual[3:])))
        negative = fm.unidirectional_cols & free & (coords < -1e-12 * weight)
        if not np.any(negative):
            break
        worst = np.argmin(np.where(negative, coords, np.inf))
        free[worst] = False

    force_res = float(np.linalg.norm(residual[:3]))
    torque_res = float(np.linalg.norm(residual[3:]))
    if force_res > tol_force or torque_res > tol_torque:
        return HoverReference(None, force_res, torque_res, free, deciding)

    active = np.ones(g.n_arms, dtype=bool)
    for col in np.nonzero(~free)[0]:
        active[fm.col_arm[col]] = False
    return HoverReference(HoverSolution(_hover_forces(g, coords), active), force_res, torque_res, free,
                          deciding)


def _hover_forces(geometry, coords) -> np.ndarray:
    """Per-arm forces (n_arms, 3) from per-column coordinates, summed with np.add.at."""
    fm = geometry.hover_map
    forces = np.zeros((geometry.n_arms, 3))
    np.add.at(forces, fm.col_arm, coords[:, None] * fm.matrix[:3].T)
    return forces


def pinv_hover_forces_oracle(problem, free) -> np.ndarray:
    """The forces on the clamp set `free` (a column mask) from np.linalg.pinv, not lstsq.

    The pseudo-inverse has lstsq's singular-value cutoff, eps * max(shape);
    clamped columns hold 0.0.
    """
    g = problem.geometry
    matrix = g.hover_map.matrix[:, free]
    weight = problem.mass * problem.gravity
    target = np.concatenate([weight * problem.up, np.zeros(3)])
    coords = np.zeros(len(free))
    coords[free] = np.linalg.pinv(matrix, rcond=np.finfo(float).eps * max(matrix.shape)) @ target
    return _hover_forces(g, coords)


# the sweep's per-sample figures as first written, on arrays; the program's
# Python-float norms and fractions must give the same bits


def hover_norms_oracle(forces) -> np.ndarray:
    return np.linalg.norm(forces, axis=1)


def upward_fraction_oracle(forces, up) -> float:
    up = np.asarray(up, dtype=float)
    total = float(np.sum(hover_norms_oracle(forces)))
    if total < 1e-12:
        raise ValueError("hover solution produces no thrust; fraction undefined")
    return float(np.sum(forces @ up)) / total


def capacity_fraction_oracle(forces, mass: float, gravity: float, n_arms: int) -> float:
    peak = float(np.max(hover_norms_oracle(forces)))
    if peak < 1e-12:
        raise ValueError("hover solution produces no thrust; fraction undefined")
    return mass * gravity / (peak * n_arms)


def plant_nan_pinv(geometry, clamped: int = 0):
    """Put an all-NaN pseudo-inverse in the hover map's cache for `clamped`: a numerical breakdown.

    Every hover coordinate on that clamp set is then NaN. Returns the
    geometry; the cached entry is otherwise the one free_columns builds.
    """
    fm = geometry.hover_map
    free = fm.free_columns(clamped)
    nan = np.full_like(free.pinv, math.nan)
    nan.flags.writeable = False
    fm._free[clamped] = replace(free, pinv=nan)
    return geometry


def least_norm_allocation_oracle(body_wrench, model, prev_angles=None):
    """least_norm_allocation as first written, on arrays: (throttles, angles)."""
    pinv = np.linalg.pinv(allocation.vectored_thrust_matrix(model))
    coords = (pinv @ body_wrench).reshape(-1, 2)
    throttles = np.sqrt(np.add.reduce(coords * coords, axis=1))
    raw = np.arctan2(coords[:, 1], coords[:, 0])
    if prev_angles is None:
        return throttles, np.where(throttles > 1e-9, raw, 0.0)
    prev_angles = np.asarray(prev_angles, dtype=float)
    angles = np.where(throttles > 1e-9, prev_angles + allocation.wrap_angle(raw - prev_angles),
                      prev_angles)
    return throttles, angles


def after_solve_oracle(supervisor, k, sol, ref):
    """_BranchSupervisor.after_solve as first written, on arrays.

    It updates the supervisor's target, cool and share_hist arrays as the
    method does and returns the next warm start.
    """
    if ref is None:
        return sol.next_warm()
    t = k * supervisor.dt
    gap = allocation.wrap_angle(ref.angles - sol.angles)
    share = ref.throttles * np.cos(gap)
    free = np.isnan(supervisor.target)
    row = k % supervisor.hist_len
    slope = (share - supervisor.share_hist[row]) / (supervisor.hist_len * supervisor.dt)
    early = share + 0.18 * slope < -0.04
    for i in np.nonzero(free & (supervisor.cool <= t) & early)[0]:
        direction = gap[i] if abs(gap[i]) > 0.5 * math.pi else math.pi
        supervisor.target[i] = sol.angles[i] + math.copysign(math.pi, direction)
        free[i] = False
        supervisor.cool[i] = t + 0.3
    supervisor.share_hist[row] = share
    angles = sol.angles + np.where(free, np.clip(0.1 * gap, -0.01, 0.01), -0.0)
    return AllocatorState(sol.throttles.copy(), angles, sol.multipliers.copy(), angles.copy())


def fly_octahedron(sweep, allocator: str):
    """One closed-loop flight of the default octahedron_rot model; a pool job for the acceptance flights."""
    model = DroneModel(build_catalog("octahedron_rot"))
    return run_flight(Scenario(model=model, sweep=sweep, allocator=allocator))
