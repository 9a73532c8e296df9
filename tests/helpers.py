"""Shared numeric test utilities: oracles, finite differences, random inputs."""

import math

import numpy as np

from rotorarm import AllocatorInput, Quaternion, integrate_orientation


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
