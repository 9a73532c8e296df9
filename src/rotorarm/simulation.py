"""Closed-loop flight simulation for rotating-arm multirotors.

The loop per control tick: sweep trajectory -> pose PID -> wrench demand ->
allocator (Newton-KKT or pseudoinverse) -> actuator models (delayed,
rate-limited arm servos; clamped throttles) -> rigid-body integration.
Everything is deterministic unless wrench noise is explicitly enabled,
so repeated runs produce bit-identical logs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .allocation import (
    TWO_PI,
    AllocatorInput,
    AllocatorSolution,
    AllocatorState,
    DroneModel,
    LeastNormAllocation,
    PenaltyWeights,
    SolverError,
    SolverSettings,
    least_norm_allocation,
    pinv_allocate,
    solve_vector,
    sqp_allocate,
)
from .spatial import Quaternion, integrate_orientation, orientation_error
from .tables import write_csv

SERVO_RATE_LIMIT = 2.4 * TWO_PI  # rad/s, arm servo slew bound
SERVO_DELAY = 0.036  # s, command-to-motion latency

_GRAVITY_DIR = (0.0, 0.0, -1.0)
_AXIS_VECTORS = {
    "roll": np.array([1.0, 0.0, 0.0]),
    "pitch": np.array([0.0, 1.0, 0.0]),
    "yaw": np.array([0.0, 0.0, 1.0]),
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}
_ORIENTATION_AXES = ("yaw", "pitch", "roll")
_POSITION_AXES = ("x", "y", "z")
_IDENTITY = Quaternion.identity()  # immutable, so every setpoint shares it
_ZERO = np.zeros(3)
_ZERO.flags.writeable = False  # read-only, so every setpoint's zero position or accel shares it


def _clip(x, low, high):
    """np.clip(x, low, high) with the same bits, signed zeros and NaN included, minus its dispatch.

    Of the orders of np.minimum and np.maximum, only this one gives
    np.clip's zero sign when x ties a zero bound.
    """
    return np.minimum(high, np.maximum(low, x))


def _clip_float(x: float, low: float, high: float) -> float:
    """`_clip` of one Python float: x unless it is strictly outside, so NaN and ties stay x."""
    x = low if low > x else x
    return high if high < x else x


# ---------------------------------------------------------------------------
# actuators


@dataclass(frozen=True)
class ServoState:
    """Arm servos with FIFO command latency and a slew-rate bound.

    ``angle`` is a scalar for one servo or an array with one entry per arm;
    ``pending`` holds the commands still inside the latency window, oldest
    first, each shaped like ``angle``.
    """

    angle: float | np.ndarray = 0.0
    pending: tuple = ()
    rate_limit: float = SERVO_RATE_LIMIT
    delay: float = SERVO_DELAY


def servo_update(state: ServoState, setpoint, dt: float) -> ServoState:
    """Advance the servos one tick toward their delayed setpoints, never overshooting.

    Every arm moves independently, so one call on an array of arms gives
    the same angles as one call per arm.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_delay = int(round(state.delay / dt))
    pending = state.pending + (np.array(setpoint, dtype=float),)
    if len(pending) > n_delay:
        # commands issued n_delay ticks ago become visible now
        target = pending[len(pending) - n_delay - 1]
        pending = pending[len(pending) - n_delay:] if n_delay else ()
    else:
        target = state.angle
    max_step = state.rate_limit * dt
    step = _clip(target - state.angle, -max_step, max_step)
    return ServoState(state.angle + step, pending, state.rate_limit, state.delay)


# ---------------------------------------------------------------------------
# rigid body


@dataclass
class RigidBodyState:
    position: np.ndarray
    velocity: np.ndarray
    orientation: Quaternion
    angular_velocity: np.ndarray  # body frame

    @classmethod
    def at_rest(cls) -> "RigidBodyState":
        return cls(np.zeros(3), np.zeros(3), Quaternion.identity(), np.zeros(3))


def rigid_body_step(
    state: RigidBodyState, forces: np.ndarray, torques: np.ndarray, model: DroneModel, dt: float
) -> RigidBodyState:
    """Semi-implicit Euler step under per-arm body-frame forces and torques.

    Velocity and angular rate update first, then position and attitude use
    the updated rates. Gyroscopic coupling w x Iw is included; the attitude
    quaternion is renormalized by construction every step.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    # elementwise arithmetic on 3-vectors in Python floats, as in
    # PidController.update; the matrix products and the solve stay numpy
    fx, fy, fz = _row_sums(forces)
    tx, ty, tz = _row_sums(torques)
    weight, mass = model.mass * model.gravity, model.mass
    dx, dy, dz = _GRAVITY_DIR
    gx, gy, gz = state.orientation.rotate([fx, fy, fz]).tolist()
    vx, vy, vz = state.velocity.tolist()
    vx, vy, vz = (vx + ((gx + weight * dx) / mass) * dt, vy + ((gy + weight * dy) / mass) * dt,
                  vz + ((gz + weight * dz) / mass) * dt)
    px, py, pz = state.position.tolist()

    omega = state.angular_velocity
    wx, wy, wz = omega.tolist()
    hx, hy, hz = (model.inertia @ omega).tolist()
    # minus the gyroscopic term omega x (I omega), by np.cross's formulas
    torque_net = [tx - (wy * hz - wz * hy), ty - (wz * hx - wx * hz), tz - (wx * hy - wy * hx)]
    # never singular: DroneModel accepts only a positive-definite inertia
    ax, ay, az = solve_vector(model.inertia, torque_net).tolist()
    angular_velocity = np.array([wx + ax * dt, wy + ay * dt, wz + az * dt])
    orientation = integrate_orientation(state.orientation, angular_velocity, dt)
    return RigidBodyState(np.array([px + vx * dt, py + vy * dt, pz + vz * dt]),
                          np.array([vx, vy, vz]), orientation, angular_velocity)


def _row_sums(rows) -> list[float]:
    """np.asarray(rows, dtype=float).reshape(-1, 3).sum(axis=0) bit for bit, as Python floats.

    numpy sums over the first axis row by row, starting from +0.0. A list
    of rows, each a tuple or list of three floats, is summed as it is,
    without building an array; anything else goes through the array.
    """
    if not (isinstance(rows, list) and rows and isinstance(rows[0], (tuple, list))):
        rows = np.asarray(rows, dtype=float).reshape(-1, 3).tolist()
    x = y = z = 0.0
    for rx, ry, rz in rows:
        x += rx
        y += ry
        z += rz
    return [x, y, z]


# ---------------------------------------------------------------------------
# pose controller


@dataclass
class PidGains:
    kp_pos: float = 40.0
    ki_pos: float = 6.0
    kd_pos: float = 16.0
    i_max_pos: float = 8.0  # N, integrator clamp in output units
    kp_ori: float = 1.6
    ki_ori: float = 0.4
    kd_ori: float = 0.28
    i_max_ori: float = 0.8  # Nm
    proportional_on_measurement: bool = False

    def __post_init__(self):
        gains = [f.name for f in fields(self) if f.name != "proportional_on_measurement"]
        bad = [name for name in gains if not 0.0 <= getattr(self, name) < math.inf]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite and non-negative")
        if not isinstance(self.proportional_on_measurement, (bool, np.bool_)):
            raise ValueError("proportional_on_measurement must be true or false, got "
                             f"{self.proportional_on_measurement!r}")


class PidController:
    """Pose PID producing a world-frame wrench demand with weight feedforward.

    Derivative terms act on measured rates. With proportional_on_measurement
    the proportional term is accumulated from measured motion instead of the
    error, which removes setpoint kick on steps (best for regulation, not for
    tracking moving setpoints).
    """

    def __init__(self, gains: PidGains, mass: float, gravity: float):
        self.gains = gains
        self.mass = float(mass)
        self.gravity = float(gravity)
        self._weight_ff = (0.0, 0.0, self.mass * self.gravity)
        self.reset()

    def reset(self) -> None:
        # integrator and proportional-on-measurement states, as Python floats
        self._i_pos, self._i_ori = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
        self._pom_pos, self._pom_ori = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)

    def update(self, pos_error, ori_error, velocity, angular_velocity, accel_ff, dt: float):
        """World-frame (force, torque) demand for one control tick.

        pos_error/ori_error are setpoint-minus-state in the world frame
        (ori_error as an axis*angle vector); velocity/angular_velocity are
        measured world-frame rates; accel_ff is a feedforward acceleration.
        All five are 3-vectors.
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        g = self.gains
        # each 3-vector as three Python floats, with the arithmetic written
        # out per component: the same elementwise operations as on arrays,
        # in the same order, without numpy's cost per call
        ex, ey, ez = np.asarray(pos_error, dtype=float).tolist()
        rx, ry, rz = np.asarray(ori_error, dtype=float).tolist()
        vx, vy, vz = np.asarray(velocity, dtype=float).tolist()
        wx, wy, wz = np.asarray(angular_velocity, dtype=float).tolist()
        ax, ay, az = np.asarray(accel_ff, dtype=float).tolist()

        gain, limit = g.ki_pos, g.i_max_pos
        ix, iy, iz = self._i_pos
        ix, iy, iz = self._i_pos = (_clip_float(ix + gain * ex * dt, -limit, limit),
                                    _clip_float(iy + gain * ey * dt, -limit, limit),
                                    _clip_float(iz + gain * ez * dt, -limit, limit))
        gain, limit = g.ki_ori, g.i_max_ori
        jx, jy, jz = self._i_ori
        jx, jy, jz = self._i_ori = (_clip_float(jx + gain * rx * dt, -limit, limit),
                                    _clip_float(jy + gain * ry * dt, -limit, limit),
                                    _clip_float(jz + gain * rz * dt, -limit, limit))

        if g.proportional_on_measurement:
            gain = g.kp_pos
            px, py, pz = self._pom_pos
            px, py, pz = self._pom_pos = (px - gain * vx * dt, py - gain * vy * dt,
                                          pz - gain * vz * dt)
            gain = g.kp_ori
            qx, qy, qz = self._pom_ori
            qx, qy, qz = self._pom_ori = (qx - gain * wx * dt, qy - gain * wy * dt,
                                          qz - gain * wz * dt)
        else:
            gain = g.kp_pos
            px, py, pz = gain * ex, gain * ey, gain * ez
            gain = g.kp_ori
            qx, qy, qz = gain * rx, gain * ry, gain * rz

        gain, mass = g.kd_pos, self.mass
        fx, fy, fz = self._weight_ff
        force = np.array([px + ix - gain * vx + mass * ax + fx, py + iy - gain * vy + mass * ay + fy,
                          pz + iz - gain * vz + mass * az + fz])
        gain = g.kd_ori
        torque = np.array([qx + jx - gain * wx, qy + jy - gain * wy, qz + jz - gain * wz])
        return force, torque


# ---------------------------------------------------------------------------
# sweep trajectories


@dataclass
class PoseSetpoint:
    position: np.ndarray
    orientation: Quaternion
    accel: np.ndarray  # feedforward linear acceleration, world frame


@dataclass(frozen=True)
class SweepSpec:
    """Stepwise sweep through single-axis pose offsets, or a continuous roll; immutable once built.

    Orientation/position sweeps run +A then -A on each axis in turn, always
    returning to the origin pose in between: 4 * len(axes) trapezoidal steps
    of step_duration seconds each. kind "continuous_roll" spins about body x
    at a constant rate instead, and "hover" holds the origin.
    """

    kind: str  # "orientation" | "position" | "continuous_roll" | "hover"
    amplitude: float = math.pi
    step_duration: float = 6.0
    accel_fraction: float = 1.0 / 3.0  # lead-in/lead-out share of each step
    axes: tuple = _ORIENTATION_AXES
    start_delay: float = 2.0
    revolutions: float = 10.0
    seconds_per_rev: float = 8.0

    def __post_init__(self):
        if self.kind not in ("orientation", "position", "continuous_roll", "hover"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        valid = _ORIENTATION_AXES if self.kind == "orientation" else _POSITION_AXES
        if self.kind in ("orientation", "position"):
            for label in self.axes:
                if label not in valid:
                    raise ValueError(f"unknown axis label {label!r} for a {self.kind} sweep")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if not 0.0 < self.step_duration < math.inf:
            raise ValueError(f"step_duration must be positive and finite, got {self.step_duration}")
        if not 0.0 < self.accel_fraction < 0.5:
            raise ValueError(f"accel_fraction must be in (0, 0.5), got {self.accel_fraction}")
        if not self.seconds_per_rev > 0.0:
            raise ValueError(f"seconds_per_rev must be positive, got {self.seconds_per_rev}")
        if not (self.revolutions >= 0.0 and self.start_delay >= 0.0):
            raise ValueError("revolutions and start_delay must be non-negative")
        object.__setattr__(self, "_targets", tuple(  # built once, read by sweep_setpoint every tick
            (label, v) for sign in (1.0, -1.0) for label in self.axes for v in (sign * self.amplitude, 0.0)))

    @property
    def duration(self) -> float:
        if self.kind == "continuous_roll":
            return self.start_delay + self.revolutions * self.seconds_per_rev
        if self.kind == "hover":
            return self.start_delay
        return self.start_delay + 4 * len(self.axes) * self.step_duration

    def step_targets(self) -> list[tuple[str, float]]:
        """Per-step (axis, target value); each step starts from the previous target."""
        return list(self._targets)


def orientation_sweep(amplitude: float = math.pi, **kwargs) -> SweepSpec:
    return SweepSpec("orientation", amplitude=amplitude, axes=kwargs.pop("axes", _ORIENTATION_AXES), **kwargs)


def position_sweep(amplitude: float = 0.5, **kwargs) -> SweepSpec:
    return SweepSpec("position", amplitude=amplitude, axes=kwargs.pop("axes", _POSITION_AXES), **kwargs)


def continuous_roll(revolutions: float = 10.0, seconds_per_rev: float = 8.0, **kwargs) -> SweepSpec:
    # rolling starts at t=0 so the unwrapped angle is t / seconds_per_rev turns
    kwargs.setdefault("start_delay", 0.0)
    return SweepSpec("continuous_roll", revolutions=revolutions, seconds_per_rev=seconds_per_rev, **kwargs)


def trapezoid_profile(t: float, distance: float, duration: float, accel_fraction: float):
    """Scalar trapezoidal motion: returns (value, rate, accel) at time t.

    Acceleration and deceleration phases each take accel_fraction of the
    duration; the profile is symmetric, so half the distance is covered at
    half the duration.
    """
    sign = 1.0 if distance >= 0.0 else -1.0
    d = abs(distance)
    if d < 1e-15:
        return 0.0, 0.0, 0.0
    t_acc = accel_fraction * duration
    v_max = d / (duration - t_acc)
    a_max = v_max / t_acc
    if t <= 0.0:
        return 0.0, 0.0, 0.0
    if t < t_acc:
        return sign * 0.5 * a_max * t * t, sign * a_max * t, sign * a_max
    if t < duration - t_acc:
        return sign * (0.5 * v_max * t_acc + v_max * (t - t_acc)), sign * v_max, 0.0
    if t < duration:
        remain = duration - t
        return sign * (d - 0.5 * a_max * remain * remain), sign * a_max * remain, -sign * a_max
    return sign * d, 0.0, 0.0


def continuous_roll_angle(t: float, spec: SweepSpec) -> float:
    """Unwrapped roll angle of a continuous-roll sweep at time t."""
    if spec.kind != "continuous_roll":
        raise ValueError("continuous_roll_angle needs a continuous_roll sweep")
    tau = min(max(t - spec.start_delay, 0.0), spec.revolutions * spec.seconds_per_rev)
    return TWO_PI * tau / spec.seconds_per_rev


def _origin() -> PoseSetpoint:
    return PoseSetpoint(_ZERO, _IDENTITY, _ZERO)


def sweep_setpoint(t: float, spec: SweepSpec) -> PoseSetpoint:
    """Pose setpoint of the sweep at time t (origin before start and after the end)."""
    if spec.kind == "hover" or t < spec.start_delay:
        return _origin()
    if spec.kind == "continuous_roll":
        angle = continuous_roll_angle(t, spec)
        return PoseSetpoint(_ZERO, Quaternion._about(1.0, 0.0, 0.0, angle), _ZERO)

    tau = t - spec.start_delay
    targets = spec._targets
    step = int(tau // spec.step_duration)
    if step >= len(targets):
        return _origin()
    label, target = targets[step]
    start = targets[step - 1][1] if step > 0 else 0.0
    value, _, accel = trapezoid_profile(
        tau - step * spec.step_duration, target - start, spec.step_duration, spec.accel_fraction
    )
    value += start
    axis = _AXIS_VECTORS[label]
    if spec.kind == "position":
        return PoseSetpoint(value * axis, _IDENTITY, accel * axis)
    if abs(value) < 1e-15:
        return _origin()
    return PoseSetpoint(_ZERO, Quaternion._about(*axis.tolist(), value), _ZERO)


# ---------------------------------------------------------------------------
# flight scenario and loop


@dataclass
class Scenario:
    model: DroneModel
    sweep: SweepSpec
    allocator: str = "sqp"  # "sqp" | "pinv"
    gains: PidGains = field(default_factory=PidGains)
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)
    duration: float | None = None  # defaults to sweep duration plus a 2 s tail
    solver: SolverSettings = field(default_factory=SolverSettings)
    motor_lag: float = 0.0  # s, first-order throttle lag; 0 = instant
    noise_std: float = 0.0  # N / Nm, optional body-wrench disturbance
    seed: int = 0

    def __post_init__(self):
        if self.allocator not in ("sqp", "pinv"):
            raise ValueError(f"unknown allocator {self.allocator!r}, expected 'sqp' or 'pinv'")
        if self.duration is None:
            self.duration = self.sweep.duration + 2.0
        ticks = self.duration / self.model.control_period
        if not (math.isfinite(ticks) and round(ticks) >= 1):
            raise ValueError(f"duration must cover at least one control tick, got {self.duration}")
        if not all(0.0 <= v < math.inf for v in (self.noise_std, self.motor_lag)):
            raise ValueError("noise_std and motor_lag must be finite and non-negative")


def _columns(*names: str, dtype=float):
    """CSV columns of a FlightLog field: one name is 1-D, a name ending in "_" a per-arm prefix."""
    return field(metadata={"columns": names, "dtype": dtype})


@dataclass
class FlightLog:
    """Time-sampled closed-loop record; each array field declares its CSV columns, in order."""

    t: np.ndarray = _columns("t")
    position: np.ndarray = _columns("px", "py", "pz")
    velocity: np.ndarray = _columns("vx", "vy", "vz")
    orientation: np.ndarray = _columns("qw", "qx", "qy", "qz")  # quaternion, scalar first
    angular_velocity: np.ndarray = _columns("wx", "wy", "wz")
    sp_position: np.ndarray = _columns("sp_px", "sp_py", "sp_pz")
    sp_orientation: np.ndarray = _columns("sp_qw", "sp_qx", "sp_qy", "sp_qz")
    throttle_cmd: np.ndarray = _columns("u_cmd_")  # (ticks, n_arms)
    angle_cmd: np.ndarray = _columns("a_cmd_")
    throttle_act: np.ndarray = _columns("u_act_")
    angle_act: np.ndarray = _columns("a_act_")
    iterations: np.ndarray = _columns("iterations", dtype=int)
    residual: np.ndarray = _columns("residual")
    converged: np.ndarray = _columns("converged", dtype=bool)
    pos_error: np.ndarray = _columns("pos_error")
    ori_error: np.ndarray = _columns("ori_error")
    dt: float
    allocator: str

    @property
    def n_arms(self) -> int:
        return self.throttle_cmd.shape[1]

    @classmethod
    def from_table(cls, header, rows, dt: float | None, allocator: str) -> FlightLog:
        """A log from named columns, in any order; dt=None takes the gap of the first two ticks."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or len(rows) == 0:
            raise ValueError("flight log has no ticks")
        if rows.shape[1] != len(header):
            raise ValueError(f"flight log rows have {rows.shape[1]} values for {len(header)} columns")
        n_arms = max(sum(name.startswith(prefix) for name in header) for prefix in _ARM_PREFIXES)
        names, spans = _log_columns(n_arms)
        missing = [name for name in names if name not in header]
        if missing:
            raise ValueError(f"flight log has no column {missing[0]!r}")
        ordered = rows[:, [header.index(name) for name in names]]
        arrays = {name: ordered[:, index].astype(dtype) for name, index, dtype in spans}
        if dt is None:
            t = arrays["t"]
            dt = float(t[1] - t[0]) if len(t) > 1 else 0.0
        return cls(**arrays, dt=dt, allocator=allocator)

    def table(self) -> tuple[list[str], np.ndarray]:
        """Column names and a dense (ticks, columns) float matrix; int and bool fields become floats."""
        rows = np.column_stack([getattr(self, name) for name, _, _ in _LOG_SCHEMA])
        return _log_columns(self.n_arms)[0], rows

    def write_csv(self, path) -> None:
        write_csv(path, *self.table())


# (field, columns, dtype) of every array field of FlightLog, in CSV column order
_LOG_SCHEMA = [(f.name, f.metadata["columns"], f.metadata["dtype"]) for f in fields(FlightLog)
               if f.metadata]
_ARM_PREFIXES = [columns[0] for _, columns, _ in _LOG_SCHEMA if columns[0].endswith("_")]


def _log_columns(n_arms: int) -> tuple[list[str], list]:
    """The header of a log of n_arms arms, and each field's (name, column or slice, dtype)."""
    header, spans = [], []
    for name, columns, dtype in _LOG_SCHEMA:
        start, per_arm = len(header), columns[0] in _ARM_PREFIXES
        header.extend([f"{columns[0]}{i}" for i in range(n_arms)] if per_arm else columns)
        spans.append((name, slice(start, len(header)) if per_arm or len(columns) > 1 else start, dtype))
    return header, spans


def read_flight_csv(path, dt: float | None = None, allocator: str = "") -> FlightLog:
    """Re-ingest a log written by FlightLog.write_csv; ValueError if the file is not one."""
    with open(path, newline="") as handle:
        lines = list(csv.reader(handle))
    return FlightLog.from_table(lines[0] if lines else [], lines[1:], dt, allocator)


class _BranchSupervisor:
    """Keeps the warm-started Newton chain on the branch the demand needs.

    A warm-started solve follows one local valley of the allocation
    landscape. After each converged solve, the single-shot linear
    least-norm solution serves as a reference for two mechanisms:

    * Branch transits. The reference is projected onto each free arm's
      current thrust direction; a component that is clearly negative, now
      or on a short extrapolation of its recent slope, means the demand is
      on or moving to that arm's opposite branch, which no sequence of
      cheap local steps can reach. The arm is walked half a turn at just
      under the servo rate, kept nearly unloaded by a raised throttle
      weight.

    * Warm-angle pull. The chain can settle into a far costlier load split
      than the reference spread, so each tick the warm angles of the arms
      not in transit move a small capped fraction toward the reference; the
      next solve undoes the pull where the current valley is better. The
      warm throttles are the solved ones.

    Supervision only ever moves the solver's warm point and weights, never
    the servo command, so commanded angles stay continuous, and it never
    calls the solver.
    """

    hist_len = 12  # ticks of share history behind the extrapolation

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.dt = scenario.model.control_period
        n_arms = scenario.model.geometry.n_arms
        self.transit_step = 0.9 * SERVO_RATE_LIMIT * self.dt
        self.target = np.full(n_arms, np.nan)  # NaN = no transit active
        self.cool = np.full(n_arms, -np.inf)  # earliest time an arm may re-trigger
        self.share_hist = np.zeros((self.hist_len, n_arms))

    def advance(self, warm: AllocatorState) -> PenaltyWeights:
        """Step every active transit's warm angle; return the weights for this solve."""
        if all(map(math.isnan, self.target.tolist())):
            return self.scenario.weights
        active = ~np.isnan(self.target)
        step = _clip(self.target[active] - warm.angles[active],
                     -self.transit_step, self.transit_step)
        # move the warm point and its motion reference together so the
        # solver treats the advanced angle as where the arm already is
        warm.angles[active] += step
        warm.prev_angles[active] += step
        done = np.abs(self.target[active] - warm.angles[active]) < 1e-9
        self.target[np.nonzero(active)[0][done]] = np.nan
        # keep swinging arms close to unloaded without removing them from
        # the wrench constraint
        return replace(
            self.scenario.weights,
            throttle=self.scenario.weights.throttle * (1.0 + 49.0 * active),
        )

    def reference(self, inp: AllocatorInput, angles) -> LeastNormAllocation | None:
        """The least-norm allocation of inp unwrapped to angles, or None when the linear route fails."""
        try:
            return least_norm_allocation(inp.body_wrench(), self.scenario.model, angles)
        except SolverError:
            return None

    def after_solve(self, k: int, sol: AllocatorSolution,
                    ref: LeastNormAllocation | None) -> AllocatorState:
        """Warm start for the next tick from tick k's converged solve.

        ref is `reference` for the solved angles (anything with throttles and
        angles arrays), or None. It runs on Python floats in numpy's
        operation order, with its bits.
        """
        if ref is None:
            return sol.next_warm()
        t = k * self.dt
        a = sol.angles.tolist()
        # wrap_angle(ref.angles - sol.angles), and the reference's projection
        # on each solved thrust direction
        gap = [(r - s + math.pi) % TWO_PI - math.pi for r, s in zip(ref.angles.tolist(), a)]
        share = [r * math.cos(g) for r, g in zip(ref.throttles.tolist(), gap)]
        free = list(map(math.isnan, self.target.tolist()))
        row = k % self.hist_len
        # an ordinary handoff of load to other arms keeps the projection
        # near zero; one clearly below zero means the demand is on the other
        # branch. The projection is continuous through a crossing, so a short
        # extrapolation starts the half-turn slightly before the demand
        # actually reverses, however loaded the arm still is
        past, span = self.share_hist[row].tolist(), self.hist_len * self.dt
        for i, c in enumerate(self.cool.tolist()):
            slope = (share[i] - past[i]) / span
            if not (free[i] and c <= t and share[i] + 0.18 * slope < -0.04):
                continue
            # past a crossing the reference sits on the far branch and picks
            # the turn direction; before one, either way round reaches the
            # same branch
            direction = gap[i] if abs(gap[i]) > 0.5 * math.pi else math.pi
            self.target[i] = a[i] + math.copysign(math.pi, direction)
            free[i] = False
            # refractory gap so one crossing cannot retrigger on its own
            # settling transient
            self.cool[i] = t + 0.3
        self.share_hist[row] = share
        # a small capped pull of the angles toward the reference lets the
        # solver ratchet over to a better valley, or undo the pull; arms in
        # transit get -0.0, which leaves every float as it is, signed zeros included
        angles = np.array([ai + (_clip_float(0.1 * g, -0.01, 0.01) if f else -0.0)
                           for ai, g, f in zip(a, gap, free)])
        return AllocatorState(sol.throttles.copy(), angles, sol.multipliers.copy(), angles.copy())


def _arm_wrenches(arms: list, throttles: list, angles: list) -> tuple[list, list]:
    """Per-arm body forces and torques as lists of 3-tuples, from throttles and angles as floats.

    ``arms`` holds, per arm, whether it rotates and its rows of the model's
    wrench1 and wrench2 as Python floats. Arm i's wrench is throttles[i] *
    model.wrenches_at(angles)[i], with the bits of that array product:
    u * (cos(a) wrench1 + sin(a) wrench2), where a fixed arm takes cos 1
    and sin 0 whatever its angle.
    """
    forces, torques = [], []
    for u, a, (rotating, (p0, p1, p2, p3, p4, p5), (q0, q1, q2, q3, q4, q5)) in zip(
            throttles, angles, arms):
        c, s = (math.cos(a), math.sin(a)) if rotating else (1.0, 0.0)
        forces.append((u * (c * p0 + s * q0), u * (c * p1 + s * q1), u * (c * p2 + s * q2)))
        torques.append((u * (c * p3 + s * q3), u * (c * p4 + s * q4), u * (c * p5 + s * q5)))
    return forces, torques


def run_flight(scenario: Scenario) -> FlightLog:
    """Simulate one closed-loop flight and return the full log.

    Each tick: sweep setpoint -> pose PID -> wrench demand -> allocator ->
    servos and throttles -> per-arm wrenches (plus optional noise) -> log ->
    rigid-body step. When the allocator fails to converge, the previous
    actuator commands are held for that tick and the event is logged.

    The Newton-KKT allocator is warm-started from the previous tick. Around
    each of its solves `_BranchSupervisor` advances the arms in branch
    transit, which sets that solve's weights, and, after a converged solve,
    starts new transits from the least-norm reference and pulls the next
    warm angles toward it.
    """
    model = scenario.model
    n_arms = model.geometry.n_arms
    dt = model.control_period
    n_ticks = int(round(scenario.duration / dt))

    state = RigidBodyState.at_rest()
    pid = PidController(scenario.gains, model.mass, model.gravity)
    warm = AllocatorState.cold_start(model)
    supervisor = _BranchSupervisor(scenario)
    servos = ServoState(np.zeros(n_arms))
    throttle_cmd = np.zeros(n_arms)
    angle_cmd = np.zeros(n_arms)
    throttle_act = [0.0] * n_arms
    arms = list(zip(model._rotating, model.wrench1.tolist(), model.wrench2.tolist()))
    rng = np.random.default_rng(scenario.seed) if scenario.noise_std > 0.0 else None
    motor_step = 1.0 - math.exp(-dt / scenario.motor_lag) if scenario.motor_lag > 0.0 else None
    sqp = scenario.allocator == "sqp"

    header, _ = _log_columns(n_arms)
    table = np.empty((n_ticks, len(header)))  # one row per tick, filled as it is flown

    for k in range(n_ticks):
        t = k * dt
        # exactly one call of the module's sweep_setpoint per tick: perfbench
        # times a tick as the gap between two such calls
        sp = sweep_setpoint(t, scenario.sweep)
        pos_error = sp.position - state.position
        ori_error_body = orientation_error(sp.orientation, state.orientation)
        # the attitude keeps this matrix, so the allocator's body wrench and
        # the rigid-body step reuse it
        to_world = state.orientation.to_matrix()
        force, torque = pid.update(pos_error, to_world @ ori_error_body, state.velocity,
                                   to_world @ state.angular_velocity, sp.accel, dt)

        inp = AllocatorInput(state.orientation, force, torque)
        if sqp:
            weights = supervisor.advance(warm)
            try:
                sol = sqp_allocate(inp, warm, model, weights, scenario.solver)
            except SolverError:
                # a solver breakdown is handled like any non-converged tick:
                # hold the previous actuator commands and try again next tick
                sol = AllocatorSolution(warm.throttles.copy(), warm.angles.copy(), warm.multipliers.copy(),
                                        scenario.solver.max_iterations, math.inf, math.inf, False)
            if sol.converged:
                throttle_cmd, angle_cmd = sol.throttles, sol.angles
                ref = supervisor.reference(inp, sol.angles)
                warm = supervisor.after_solve(k, sol, ref)
        else:
            sol = pinv_allocate(inp, model, prev_angles=angle_cmd)
            if sol.converged:
                throttle_cmd, angle_cmd = sol.throttles, sol.angles

        servos = servo_update(servos, angle_cmd, dt)
        angle_act = servos.angle.tolist()
        commands = throttle_cmd.tolist()
        clamped = [_clip_float(u, 0.0, 1.0) for u in commands]
        if motor_step is not None:
            throttle_act = [a + (c - a) * motor_step for a, c in zip(throttle_act, clamped)]
        else:
            throttle_act = clamped

        forces, torques = _arm_wrenches(arms, throttle_act, angle_act)
        if rng is not None:
            noise = (rng.normal(0.0, scenario.noise_std, (n_arms, 3)) / max(n_arms, 1)).tolist()
            forces = [[f + e for f, e in zip(row, extra)] for row, extra in zip(forces, noise)]

        # the tick's values in the order of FlightLog's fields (a test pins
        # that order); the norms are what np.linalg.norm computes
        table[k] = [
            t, *state.position.tolist(), *state.velocity.tolist(),
            *state.orientation.components, *state.angular_velocity.tolist(),
            *sp.position.tolist(), *sp.orientation.components,
            *commands, *angle_cmd.tolist(),
            *throttle_act, *angle_act,
            sol.iterations, sol.residual, sol.converged,
            math.sqrt(pos_error.dot(pos_error)), math.sqrt(ori_error_body.dot(ori_error_body))]

        state = rigid_body_step(state, forces, torques, model, dt)

    return FlightLog.from_table(header, table, dt, scenario.allocator)


# ---------------------------------------------------------------------------
# statistics


@dataclass
class ErrorStats:
    pos_mean: float
    pos_std: float
    pos_p90: float
    ori_mean: float
    ori_std: float
    ori_p90: float

    def to_dict(self) -> dict:
        return {
            "pos_mean_m": self.pos_mean,
            "pos_std_m": self.pos_std,
            "pos_p90_m": self.pos_p90,
            "ori_mean_rad": self.ori_mean,
            "ori_std_rad": self.ori_std,
            "ori_p90_rad": self.ori_p90,
        }


def nearest_rank_p90(values) -> float:
    """90th percentile by the nearest-rank rule (ceil(0.9 n)-th smallest)."""
    values = np.sort(np.asarray(values, dtype=float))
    if len(values) == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    rank = math.ceil(0.9 * len(values))
    return float(values[rank - 1])


def summarize(log: FlightLog, settle: float = 2.0) -> ErrorStats:
    """Tracking-error statistics after an initial settle window.

    Population standard deviation and nearest-rank 90th percentile.
    """
    mask = log.t >= settle
    if not np.any(mask):
        raise ValueError(f"settle window of {settle} s leaves no samples to summarize")
    pos = log.pos_error[mask]
    ori = log.ori_error[mask]
    return ErrorStats(
        pos_mean=float(np.mean(pos)),
        pos_std=float(np.std(pos)),
        pos_p90=nearest_rank_p90(pos),
        ori_mean=float(np.mean(ori)),
        ori_std=float(np.std(ori)),
        ori_p90=nearest_rank_p90(ori),
    )


# ---------------------------------------------------------------------------
# singularity analysis


@dataclass
class FlipEvent:
    t: float
    arm: int
    delta: float  # commanded angle jump, rad
    alignment: float  # |<arm axis, body-frame up>| at the event


def detect_flip_events(log: FlightLog, geometry, require_vertical: bool = True) -> list[FlipEvent]:
    """Find per-arm commanded-angle jumps larger than pi/2 rad.

    With require_vertical, an event also needs the arm's rotation axis to be
    within 25 degrees of the world vertical, which is the alignment that
    forces the jump in the linear allocator. An arm is unloaded at the jump
    itself, so a throttle of at least 0.02 is required over the 0.3 s that
    follow: a flip whose arm never reloads produces no wrench disturbance and
    is skipped. Repeated triggers of one arm within 0.5 s collapse into a
    single event.
    """
    threshold, min_separation, min_throttle = math.pi / 2, 0.5, 0.02
    vertical_cos = math.cos(math.radians(25.0))
    deltas = np.abs(np.diff(log.angle_cmd, axis=0))
    ups = np.empty((len(log.t), 3))
    for k in range(len(log.t)):
        q = Quaternion(*log.orientation[k])
        ups[k] = q.inverse().rotate(np.array([0.0, 0.0, 1.0]))
    alignments = np.abs(ups @ geometry.axes.T)  # (ticks, arms)
    reload_ticks = max(1, int(round(0.3 / log.dt))) if log.dt > 0 else 1

    events: list[FlipEvent] = []
    last_time: dict[int, float] = {}
    for k, arm in zip(*np.nonzero(deltas > threshold)):
        t = float(log.t[k + 1])
        align = float(alignments[k + 1, arm])
        if require_vertical and align < vertical_cos:
            continue
        if np.max(log.throttle_cmd[k + 1: k + 2 + reload_ticks, arm]) < min_throttle:
            continue
        if arm in last_time and t - last_time[arm] < min_separation:
            last_time[arm] = t
            continue
        last_time[arm] = t
        events.append(FlipEvent(t, int(arm), float(deltas[k, arm]), align))
    return events


@dataclass
class SingularityComparison:
    """Paired peak-error comparison around the linear allocator's angle flips."""

    n_arm_instants: int
    n_pairs: int
    peaks_sqp: np.ndarray
    peaks_pinv: np.ndarray
    event_times: np.ndarray
    mean_peak_sqp: float
    mean_peak_pinv: float
    p_value: float

    def to_dict(self) -> dict:
        return {
            "n_arm_instants": self.n_arm_instants,
            "n_pairs": self.n_pairs,
            "event_times_s": [float(x) for x in self.event_times],
            "peaks_sqp_m": [float(x) for x in self.peaks_sqp],
            "peaks_pinv_m": [float(x) for x in self.peaks_pinv],
            "mean_peak_sqp_m": self.mean_peak_sqp,
            "mean_peak_pinv_m": self.mean_peak_pinv,
            "p_value_one_sided": self.p_value,
        }


def compare_singularity_handling(log_sqp: FlightLog, log_pinv: FlightLog, geometry) -> SingularityComparison:
    """Pair peak position errors around each flip instant of the linear run.

    Each window runs from 0.05 s before a flip instant to 1.2 s after it.
    Events from arms flipping at the same crossing (within 0.25 s) share one
    window, so each pair is an independent crossing. The p-value is a
    one-sided paired t-test of pinv peaks exceeding the Newton-solver peaks.
    """
    window, cluster_gap = 1.2, 0.25
    events = detect_flip_events(log_pinv, geometry)
    times = sorted(e.t for e in events)
    clusters: list[float] = []
    for t in times:
        if not clusters or t - clusters[-1] > cluster_gap:
            clusters.append(t)

    peaks_s, peaks_p = [], []
    for t0 in clusters:
        lo, hi = t0 - 0.05, t0 + window
        m_s = (log_sqp.t >= lo) & (log_sqp.t <= hi)
        m_p = (log_pinv.t >= lo) & (log_pinv.t <= hi)
        if not (np.any(m_s) and np.any(m_p)):
            continue
        peaks_s.append(float(np.max(log_sqp.pos_error[m_s])))
        peaks_p.append(float(np.max(log_pinv.pos_error[m_p])))
    peaks_s = np.array(peaks_s)
    peaks_p = np.array(peaks_p)

    if len(peaks_s) >= 2 and np.ptp(peaks_p - peaks_s) > 0.0:
        # imported here: scipy adds about 70 MB and a second to every process that loads rotorarm
        from scipy import stats as scipy_stats

        p_value = float(scipy_stats.ttest_rel(peaks_p, peaks_s, alternative="greater").pvalue)
    else:
        p_value = 1.0
    return SingularityComparison(
        n_arm_instants=len(events),
        n_pairs=len(peaks_s),
        peaks_sqp=peaks_s,
        peaks_pinv=peaks_p,
        event_times=np.array(clusters[: len(peaks_s)]),
        mean_peak_sqp=float(np.mean(peaks_s)) if len(peaks_s) else math.nan,
        mean_peak_pinv=float(np.mean(peaks_p)) if len(peaks_p) else math.nan,
        p_value=p_value,
    )


def max_command_step(log: FlightLog) -> float:
    """Largest per-tick commanded arm-angle change anywhere in the log."""
    if len(log.t) < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(log.angle_cmd, axis=0))))
