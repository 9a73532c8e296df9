"""Actuator models, rigid-body stepping, sweep trajectories, and flight analysis."""

import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PidOracle,
    arm_wrenches_oracle,
    quat_distance,
    rigid_body_step_oracle,
    same_bits,
)
from rotorarm import (
    DroneModel,
    FlightLog,
    PidController,
    PidGains,
    Quaternion,
    RigidBodyState,
    Scenario,
    ServoState,
    SolverError,
    SolverSettings,
    SweepSpec,
    build_catalog,
    compare_singularity_handling,
    continuous_roll,
    detect_flip_events,
    max_command_step,
    nearest_rank_p90,
    orientation_sweep,
    position_sweep,
    read_flight_csv,
    rigid_body_step,
    run_flight,
    servo_update,
    summarize,
    sweep_setpoint,
    trapezoid_profile,
)
from rotorarm import simulation
from rotorarm.geometry import CATALOG_IDS
from rotorarm.simulation import (
    SERVO_DELAY,
    SERVO_RATE_LIMIT,
    _arm_wrenches,
    _clip,
    _clip_float,
    _row_sums,
    continuous_roll_angle,
)
from rotorarm.spatial import orientation_error
from rotorarm.tables import write_csv

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
DT = 0.005


# ---------------------------------------------------------------------------
# clamps


_EDGES = [0.0, -0.0, 1.0, -1.0, 0.01, -0.01, 8.0, -8.0, 0.5, -2.0, math.nan, math.inf]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(x=st.lists(st.one_of(st.sampled_from(_EDGES), st.floats()), min_size=1, max_size=12),
       bounds=st.sampled_from([(0.0, 1.0), (-0.01, 0.01), (-8.0, 8.0), (-0.0, 0.0), (0.0, 0.0)]))
def test_clip_helpers_give_the_bits_of_np_clip(x, bounds):
    """Ties, signed zeros and NaN included; other argument orders of minimum/maximum fail this."""
    x = np.array(x)
    expected = np.clip(x, *bounds)
    assert same_bits(_clip(x, *bounds), expected)
    assert same_bits([_clip_float(v, *bounds) for v in x.tolist()], expected)


# ---------------------------------------------------------------------------
# actuators


def test_servo_honors_delay_then_rate_limit():
    servo = ServoState()
    n_delay = round(SERVO_DELAY / DT)
    per_tick = SERVO_RATE_LIMIT * DT
    trajectory = []
    for _ in range(60):
        servo = servo_update(servo, 1.0, DT)
        trajectory.append(servo.angle)
    trajectory = np.array(trajectory)
    np.testing.assert_array_equal(trajectory[:n_delay], 0.0)
    expected = np.minimum(per_tick * np.arange(1, 60 - n_delay + 1), 1.0)
    np.testing.assert_allclose(trajectory[n_delay:], expected, atol=1e-12)
    assert trajectory[-1] == 1.0  # settles exactly, no overshoot
    assert np.max(np.abs(np.diff(trajectory))) <= per_tick + 1e-12


def test_servo_zero_delay_moves_immediately():
    servo = ServoState(delay=0.0)
    servo = servo_update(servo, -1.0, DT)
    assert servo.angle == pytest.approx(-SERVO_RATE_LIMIT * DT)
    assert servo.pending == ()


def test_servo_tracks_changing_setpoints():
    # the delay line must replay commands in order, not just hold the last one
    servo = ServoState(delay=2 * DT, rate_limit=1000.0)
    outputs = []
    for setpoint in (0.1, 0.2, 0.3, 0.3, 0.3):
        servo = servo_update(servo, setpoint, DT)
        outputs.append(servo.angle)
    np.testing.assert_allclose(outputs, [0.0, 0.0, 0.1, 0.2, 0.3], atol=1e-12)


def test_servo_rejects_bad_dt():
    with pytest.raises(ValueError):
        servo_update(ServoState(), 0.0, 0.0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    setpoints=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60),
    rate_limit=st.floats(0.1, 50.0),
    delay=st.floats(0.0, 0.1),
    dt=st.floats(0.001, 0.02),
)
def test_servo_never_exceeds_its_rate_nor_overshoots(setpoints, rate_limit, delay, dt):
    n_delay = int(round(delay / dt))
    max_step = rate_limit * dt
    servo = ServoState(0.0, (), rate_limit, delay)
    for j, setpoint in enumerate(setpoints):
        before = servo.angle
        servo = servo_update(servo, setpoint, dt)
        # the command issued n_delay ticks ago; until one exists the servo holds
        target = setpoints[j - n_delay] if j >= n_delay else before
        slack = 1e-12 * max(1.0, abs(before), abs(target))
        assert abs(servo.angle - before) <= max_step + slack
        assert min(before, target) - slack <= servo.angle <= max(before, target) + slack


@pytest.mark.parametrize("delay", [0.0, 0.0138])  # 0.0138 s is 2.76 ticks of DT
def test_all_arm_servo_update_equals_one_call_per_arm(delay):
    rng = np.random.default_rng(7)
    n_arms, rate_limit = 6, 3.0
    for _ in range(5):
        # mixes small moves inside one tick of travel with rate-limited jumps
        commands = np.cumsum(rng.normal(0.0, 0.05, (40, n_arms)), axis=0)
        commands += np.where(rng.random((40, n_arms)) < 0.1, rng.uniform(-3.0, 3.0, (40, n_arms)), 0.0)
        together = ServoState(np.zeros(n_arms), (), rate_limit, delay)
        apart = [ServoState(0.0, (), rate_limit, delay) for _ in range(n_arms)]
        for command in commands:
            together = servo_update(together, command, DT)
            apart = [servo_update(s, c, DT) for s, c in zip(apart, command)]
            np.testing.assert_array_equal(together.angle, [s.angle for s in apart])
        assert len(together.pending) == len(apart[0].pending) == round(delay / DT)


# ---------------------------------------------------------------------------
# rigid body


def test_free_fall_matches_closed_form(octa_model):
    state = RigidBodyState.at_rest()
    g = octa_model.gravity
    no_forces = np.zeros((6, 3))
    for k in range(1, 101):
        state = rigid_body_step(state, no_forces, no_forces, octa_model, DT)
        assert state.velocity[2] == pytest.approx(-g * k * DT, rel=1e-12)
        # semi-implicit Euler sums the already-updated velocity
        assert state.position[2] == pytest.approx(-g * DT * DT * k * (k + 1) / 2, rel=1e-12)
    assert quat_distance(state.orientation, Quaternion.identity()) == 0.0
    np.testing.assert_array_equal(state.angular_velocity, 0.0)


def test_exact_weight_compensation_holds_still(octa_model):
    state = RigidBodyState.at_rest()
    lift = np.array([[0.0, 0.0, octa_model.mass * octa_model.gravity]])
    for _ in range(50):
        state = rigid_body_step(state, lift, np.zeros((1, 3)), octa_model, DT)
    np.testing.assert_allclose(state.position, 0.0, atol=1e-12)
    np.testing.assert_allclose(state.velocity, 0.0, atol=1e-12)


def test_torque_free_isotropic_body_keeps_its_rate(octa_model):
    # isotropic inertia cancels the gyroscopic term exactly
    state = RigidBodyState(np.zeros(3), np.zeros(3), Quaternion.identity(), np.array([0.3, -0.2, 0.5]))
    zero = np.zeros((1, 3))
    lift = np.array([[0.0, 0.0, octa_model.mass * octa_model.gravity]])
    omega0 = state.angular_velocity.copy()
    for _ in range(100):
        lift_body = state.orientation.inverse().rotate(lift[0])[None, :]
        state = rigid_body_step(state, lift_body, zero, octa_model, DT)
    np.testing.assert_allclose(state.angular_velocity, omega0, atol=1e-12)


def test_gyroscopic_coupling_single_step():
    model = DroneModel(build_catalog("octahedron_rot"), inertia=np.array([1.0, 2.0, 3.0]))
    omega = np.array([1.0, 1.0, 1.0])
    state = RigidBodyState(np.zeros(3), np.zeros(3), Quaternion.identity(), omega.copy())
    state = rigid_body_step(state, np.zeros((1, 3)), np.zeros((1, 3)), model, DT)
    coupling = -np.cross(omega, np.array([1.0, 2.0, 3.0]) * omega)  # (-1, 2, -1)
    expected = omega + coupling / np.array([1.0, 2.0, 3.0]) * DT
    np.testing.assert_allclose(state.angular_velocity, expected, atol=1e-12)


def test_constant_torque_spins_up(octa_model):
    state = RigidBodyState.at_rest()
    torque = np.array([[0.02, 0.0, 0.0]])  # inertia is 0.02 about x
    for k in range(1, 101):
        state = rigid_body_step(state, np.zeros((1, 3)), torque, octa_model, DT)
        assert state.angular_velocity[0] == pytest.approx(k * DT, rel=1e-12)


def test_rigid_body_step_is_bit_identical_to_the_array_formulas(rng):
    """Python-float arithmetic, gyroscopic cross product included, against np.cross and arrays."""
    full = [[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.1]]
    for inertia in ([0.02, 0.02, 0.02], [0.9, 1.7, 2.3], full):
        model = DroneModel(build_catalog("octahedron_rot"), inertia=np.array(inertia))
        for _ in range(30):
            omega = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 1)
            omega[rng.integers(3)] = rng.choice([0.0, -0.0, omega[0]])
            state = RigidBodyState(rng.normal(size=3), rng.normal(size=3),
                                   Quaternion(*rng.normal(size=4)), omega)
            forces, torques = rng.normal(size=(6, 3)) * 10.0, rng.normal(size=(6, 3))
            forces[rng.integers(6)] = -0.0
            position, velocity, orientation, angular_velocity = rigid_body_step_oracle(
                state, forces, torques, model, DT)
            # as arrays, and as the flight loop passes the per-arm rows: lists of 3-tuples
            for rows in ((forces, torques), ([tuple(f) for f in forces.tolist()],
                                             [tuple(t) for t in torques.tolist()])):
                stepped = rigid_body_step(state, *rows, model, DT)
                assert same_bits(stepped.position, position)
                assert same_bits(stepped.velocity, velocity)
                assert same_bits(stepped.orientation.wxyz, orientation)
                assert same_bits(stepped.angular_velocity, angular_velocity)


@pytest.mark.parametrize("n_rows", [0, 1, 4, 6, 8, 9, 17])
def test_body_sums_are_numpy_row_sums_bit_for_bit(n_rows, rng):
    """Rows as lists of 3-tuples, as arrays and as column views of a wider array; signed zeros too."""
    for case in range(200):
        wrenches = rng.normal(size=(n_rows, 6)) * 10.0 ** rng.uniform(-8.0, 3.0)
        if case % 3 == 0:
            wrenches[rng.random((n_rows, 6)) < 0.5] = -0.0
        if case % 7 == 0:
            wrenches[:] = -0.0
        for rows in (wrenches[:, :3], wrenches[:, 3:]):
            expected = np.asarray(rows, dtype=float).reshape(-1, 3).sum(axis=0)
            as_tuples = [tuple(row) for row in rows.tolist()]
            assert same_bits(_row_sums(rows), expected)
            assert same_bits(_row_sums(np.ascontiguousarray(rows)), expected)
            assert same_bits(_row_sums(as_tuples), expected)
    for flat in (np.array([1.0, -0.0, 2.5]), [1.0, -0.0, 2.5], []):  # one flat 3-vector, no rows
        expected = np.asarray(flat, dtype=float).reshape(-1, 3).sum(axis=0)
        assert same_bits(_row_sums(flat), expected)


@pytest.mark.parametrize("config_id", CATALOG_IDS)
def test_arm_wrenches_are_the_array_product_bit_for_bit(config_id, rng):
    """Clamped and lagged throttles, signed zeros, angles many turns out; fixed arms ignore theirs."""
    model = DroneModel(build_catalog(config_id))
    n = model.geometry.n_arms
    arms = list(zip(model._rotating, model.wrench1.tolist(), model.wrench2.tolist()))
    for _ in range(200):
        throttles = np.clip(rng.uniform(-0.2, 1.2, n), 0.0, 1.0)
        throttles[rng.integers(n)] = rng.choice([0.0, -0.0, 1.0, 1e-300])
        angles = rng.uniform(-20.0, 20.0, n) * 10.0 ** rng.integers(0, 4)
        angles[rng.integers(n)] = rng.choice([0.0, -0.0, math.pi, -0.5 * math.pi])
        forces, torques = _arm_wrenches(arms, throttles.tolist(), angles.tolist())
        expected_forces, expected_torques = arm_wrenches_oracle(model, throttles, angles)
        assert same_bits(forces, expected_forces) and same_bits(torques, expected_torques)


def test_rigid_body_rejects_bad_dt(octa_model):
    with pytest.raises(ValueError):
        rigid_body_step(RigidBodyState.at_rest(), np.zeros((1, 3)), np.zeros((1, 3)), octa_model, -DT)


# ---------------------------------------------------------------------------
# pose controller


def test_pid_weight_feedforward_only_at_rest():
    pid = PidController(PidGains(), mass=2.4, gravity=9.81)
    force, torque = pid.update(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), DT)
    np.testing.assert_allclose(force, [0.0, 0.0, 2.4 * 9.81], atol=1e-12)
    np.testing.assert_allclose(torque, 0.0, atol=1e-12)


def test_pid_terms_enter_with_expected_signs():
    gains = PidGains()
    pid = PidController(gains, mass=2.4, gravity=9.81)
    pos_error = np.array([0.1, 0.0, 0.0])
    velocity = np.array([0.0, 0.2, 0.0])
    ori_error = np.array([0.0, 0.0, 0.05])
    omega = np.array([0.0, 0.0, 0.3])
    force, torque = pid.update(pos_error, ori_error, velocity, omega, np.zeros(3), DT)
    assert force[0] == pytest.approx(gains.kp_pos * 0.1 + gains.ki_pos * 0.1 * DT)
    assert force[1] == pytest.approx(-gains.kd_pos * 0.2)
    assert torque[2] == pytest.approx(
        gains.kp_ori * 0.05 + gains.ki_ori * 0.05 * DT - gains.kd_ori * 0.3
    )
    # acceleration feedforward adds mass * accel
    pid.reset()
    force2, _ = pid.update(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0]), DT)
    assert force2[0] == pytest.approx(2.4)


def test_pid_integrators_clamp():
    gains = PidGains()
    pid = PidController(gains, mass=2.4, gravity=9.81)
    error = np.array([1.0, 0.0, 0.0])
    for _ in range(1000):  # 5 s of full error: unclamped integral would hit 30 N
        force, _ = pid.update(error, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), DT)
    assert force[0] == pytest.approx(gains.kp_pos * 1.0 + gains.i_max_pos)
    pid.reset()
    force, _ = pid.update(error, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), DT)
    assert force[0] == pytest.approx(gains.kp_pos * 1.0 + gains.ki_pos * DT)


def test_pid_proportional_on_measurement_removes_setpoint_kick():
    gains = PidGains(proportional_on_measurement=True)
    pid = PidController(gains, mass=2.4, gravity=9.81)
    step_error = np.array([1.0, 0.0, 0.0])
    force, _ = pid.update(step_error, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), DT)
    # no kp * error spike; only the tiny first integrator contribution remains
    assert abs(force[0]) < 1.0
    # measured motion accumulates into the proportional state with a minus sign
    force, _ = pid.update(step_error, np.zeros(3), np.array([2.0, 0.0, 0.0]), np.zeros(3), np.zeros(3), DT)
    assert force[0] < 0.1


@pytest.mark.parametrize("on_measurement", [False, True])
def test_pid_update_is_bit_identical_to_the_array_formulas(rng, on_measurement):
    """Tight integrator bounds, so both clamps act in long runs of ticks."""
    gains = PidGains(i_max_pos=0.05, i_max_ori=0.01, proportional_on_measurement=on_measurement)
    pid, oracle = PidController(gains, 2.4, 9.81), PidOracle(gains, 2.4, 9.81)
    for _ in range(300):
        inputs = [rng.normal(size=3) * 10.0 ** rng.uniform(-2, 1) for _ in range(5)]
        inputs[rng.integers(5)][rng.integers(3)] = rng.choice([0.0, -0.0])
        force, torque = pid.update(*inputs, DT)
        expected_force, expected_torque = oracle.update(*inputs, DT)
        assert same_bits(force, expected_force) and same_bits(torque, expected_torque)


def test_pid_rejects_bad_dt():
    pid = PidController(PidGains(), 2.4, 9.81)
    with pytest.raises(ValueError):
        pid.update(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), 0.0)


@pytest.mark.parametrize("name", [f.name for f in fields(PidGains)
                                  if f.name != "proportional_on_measurement"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_pid_gains_reject_a_negative_or_non_finite_gain(name, value):
    with pytest.raises(ValueError, match=name):
        PidGains(**{name: value})
    PidGains(**{name: 0.0})  # a zero gain switches its term off


# ---------------------------------------------------------------------------
# sweep trajectories


def test_trapezoid_profile_shape():
    d, T, af = 2.0, 6.0, 1.0 / 3.0
    assert trapezoid_profile(0.0, d, T, af) == (0.0, 0.0, 0.0)
    value, rate, accel = trapezoid_profile(T, d, T, af)
    assert (value, rate, accel) == (d, 0.0, 0.0)
    assert trapezoid_profile(T + 5.0, d, T, af)[0] == d
    assert trapezoid_profile(T / 2, d, T, af)[0] == pytest.approx(d / 2)  # symmetric
    v_max = d / (T - af * T)
    assert trapezoid_profile(3.0, d, T, af)[1] == pytest.approx(v_max)
    assert trapezoid_profile(1.0, d, T, af)[2] == pytest.approx(v_max / (af * T))
    assert trapezoid_profile(5.5, d, T, af)[2] == pytest.approx(-v_max / (af * T))
    # mirrored for negative travel, zero stays zero
    assert trapezoid_profile(3.0, -d, T, af)[0] == pytest.approx(-d / 2)
    assert trapezoid_profile(3.0, 0.0, T, af) == (0.0, 0.0, 0.0)
    values = [trapezoid_profile(t, d, T, af)[0] for t in np.linspace(0, T, 200)]
    assert np.all(np.diff(values) >= -1e-12)


@pytest.mark.parametrize("kwargs", [
    {"seconds_per_rev": 0.0}, {"seconds_per_rev": -8.0}, {"seconds_per_rev": math.nan},
    {"revolutions": -1.0}, {"start_delay": -0.5},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_sweep_spec_rejects_invalid_timing(kwargs):
    with pytest.raises(ValueError):
        SweepSpec("continuous_roll", **kwargs)


@pytest.mark.parametrize("field, value", [
    ("amplitude", math.nan), ("amplitude", math.inf), ("amplitude", -math.inf),
    ("step_duration", math.nan), ("step_duration", math.inf),
], ids=lambda v: str(v))
def test_sweep_spec_names_a_non_finite_setting(field, value):
    """Caught when built, not when the sweep starts (NaN quaternion) or sizes its steps."""
    with pytest.raises(ValueError, match=field):
        SweepSpec("orientation", **{field: value})


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("spiral")
    with pytest.raises(ValueError):
        SweepSpec("orientation", axes=("x",))  # position labels on an orientation sweep
    with pytest.raises(ValueError):
        SweepSpec("position", axes=("roll",))
    with pytest.raises(ValueError):
        SweepSpec("orientation", step_duration=0.0)
    with pytest.raises(ValueError):
        SweepSpec("orientation", accel_fraction=0.5)


def test_sweep_durations_and_targets():
    full = orientation_sweep()
    assert full.duration == pytest.approx(2.0 + 4 * 3 * 6.0)
    assert full.step_targets() == [
        ("yaw", math.pi), ("yaw", 0.0), ("pitch", math.pi), ("pitch", 0.0),
        ("roll", math.pi), ("roll", 0.0), ("yaw", -math.pi), ("yaw", 0.0),
        ("pitch", -math.pi), ("pitch", 0.0), ("roll", -math.pi), ("roll", 0.0),
    ]
    single = orientation_sweep(axes=("pitch",))
    assert single.duration == pytest.approx(2.0 + 4 * 6.0)
    spin = continuous_roll(revolutions=3.0, seconds_per_rev=8.0)
    assert spin.start_delay == 0.0 and spin.duration == pytest.approx(24.0)
    assert SweepSpec("hover").duration == pytest.approx(2.0)


def test_a_sweep_builds_its_step_targets_once(monkeypatch):
    """A sweep cannot change once built, so sweep_setpoint reads targets built with it."""
    spec = orientation_sweep(axes=("pitch", "roll"))
    with pytest.raises(FrozenInstanceError):
        spec.amplitude = 1.0
    targets = spec.step_targets()
    targets.clear()  # the caller's list, not the sweep's
    assert len(spec.step_targets()) == 8
    monkeypatch.setattr(SweepSpec, "step_targets", lambda self: pytest.fail("rebuilt per tick"))
    halfway = sweep_setpoint(2.0 + 6.0 * 4.5, spec)  # halfway through the -pitch leg
    assert quat_distance(halfway.orientation, Quaternion.from_axis_angle(np.array([0.0, 1.0, 0.0]),
                                                                         -math.pi / 2)) < 1e-12


def test_setpoints_share_one_read_only_zero_vector():
    """Origin, orientation and roll setpoints share one zero position and acceleration, read-only."""
    spec = orientation_sweep(axes=("pitch",))
    setpoints = [sweep_setpoint(t, spec) for t in (1.0, 5.0, 14.0, spec.duration + 1.0)]
    setpoints.append(sweep_setpoint(3.0, continuous_roll()))
    zero = setpoints[0].position
    assert zero.shape == (3,) and not zero.any()
    for sp in setpoints:
        assert sp.position is zero and sp.accel is zero
    with pytest.raises(ValueError, match="read-only"):
        zero[0] = 1.0


def test_orientation_sweep_setpoints_follow_the_stage_plan():
    spec = orientation_sweep()  # yaw, pitch, roll at amplitude pi
    assert quat_distance(sweep_setpoint(1.0, spec).orientation, Quaternion.identity()) == 0.0

    mid_first = sweep_setpoint(5.0, spec)  # halfway through the +yaw leg
    assert quat_distance(mid_first.orientation, Quaternion.from_axis_angle(EZ, math.pi / 2)) < 1e-12
    np.testing.assert_array_equal(mid_first.position, 0.0)

    at_peak = sweep_setpoint(8.0, spec)
    assert quat_distance(at_peak.orientation, Quaternion.from_axis_angle(EZ, math.pi)) < 1e-12

    back_home = sweep_setpoint(14.0, spec)
    assert quat_distance(back_home.orientation, Quaternion.identity()) == 0.0

    mid_pitch = sweep_setpoint(17.0, spec)
    assert quat_distance(mid_pitch.orientation, Quaternion.from_axis_angle(EY, math.pi / 2)) < 1e-12

    mid_neg_yaw = sweep_setpoint(41.0, spec)
    assert quat_distance(mid_neg_yaw.orientation, Quaternion.from_axis_angle(EZ, -math.pi / 2)) < 1e-12

    mid_neg_roll = sweep_setpoint(65.0, spec)
    assert quat_distance(mid_neg_roll.orientation, Quaternion.from_axis_angle(EX, -math.pi / 2)) < 1e-12

    after = sweep_setpoint(spec.duration + 1.0, spec)
    assert quat_distance(after.orientation, Quaternion.identity()) == 0.0


def test_position_sweep_setpoints():
    spec = position_sweep()  # 0.5 m legs along x, y, z
    mid = sweep_setpoint(5.0, spec)
    np.testing.assert_allclose(mid.position, [0.25, 0.0, 0.0], atol=1e-12)
    assert quat_distance(mid.orientation, Quaternion.identity()) == 0.0
    np.testing.assert_allclose(mid.accel, 0.0, atol=1e-12)  # cruise phase
    accelerating = sweep_setpoint(3.0, spec)
    assert accelerating.accel[0] > 0.0
    mid_y = sweep_setpoint(17.0, spec)
    np.testing.assert_allclose(mid_y.position, [0.0, 0.25, 0.0], atol=1e-12)


def test_continuous_roll_angle_accumulates():
    spec = continuous_roll(revolutions=5.0, seconds_per_rev=8.0)
    assert continuous_roll_angle(0.0, spec) == 0.0
    assert continuous_roll_angle(40.0, spec) == pytest.approx(10.0 * math.pi)
    assert continuous_roll_angle(400.0, spec) == pytest.approx(10.0 * math.pi)  # clamps at the end
    sp = sweep_setpoint(2.0, spec)
    assert quat_distance(sp.orientation, Quaternion.from_axis_angle(EX, math.pi / 2)) < 1e-12
    with pytest.raises(ValueError):
        continuous_roll_angle(1.0, orientation_sweep())


# ---------------------------------------------------------------------------
# closed-loop flights


def _hover_scenario(model, **kwargs) -> Scenario:
    return Scenario(model=model, sweep=SweepSpec("hover"), **kwargs)


def test_scenario_defaults_and_validation(octa_model):
    scenario = Scenario(model=octa_model, sweep=orientation_sweep(axes=("yaw",)))
    assert scenario.duration == pytest.approx(28.0)
    assert Scenario(model=octa_model, sweep=SweepSpec("hover"), duration=1.5).duration == 1.5
    with pytest.raises(ValueError):
        Scenario(model=octa_model, sweep=SweepSpec("hover"), allocator="magic")


@pytest.mark.parametrize("kwargs", [
    {"duration": 0.0}, {"duration": -1.0}, {"duration": 0.002}, {"duration": math.inf},
    {"noise_std": -0.05}, {"motor_lag": -0.02}, {"noise_std": math.nan},
    {"max_iterations": 0}, {"throttle_step_limit": 0.0}, {"throttle_step_limit": math.nan},
    {"angle_step_limit": -0.2}, {"angle_step_limit": math.nan}, {"tol_objective": 0.0},
    {"tol_objective": math.nan}, {"tol_constraint": -1e-5}, {"tol_constraint": math.nan},
    {"noise_std": math.inf}, {"motor_lag": math.inf},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_scenario_rejects_invalid_flight_inputs(octa_model, kwargs):
    # the solver settings go into the scenario's SolverSettings, as the CLI's solver section does
    kwargs = dict(kwargs)
    solver = {f.name: kwargs.pop(f.name) for f in fields(SolverSettings) if f.name in kwargs}
    with pytest.raises(ValueError):
        Scenario(model=octa_model, sweep=SweepSpec("hover"), solver=SolverSettings(**solver), **kwargs)


def test_hover_flight_stays_put(octa_model):
    log = run_flight(_hover_scenario(octa_model, duration=2.0))
    assert len(log.t) == 400 and log.n_arms == 6
    assert np.all(log.converged)
    assert np.max(log.pos_error) < 1e-3
    assert np.max(log.ori_error) < 1e-3
    assert max_command_step(log) < 0.05
    stats = summarize(log, settle=0.5)
    assert stats.pos_mean < 1e-4


def test_hover_flight_under_pinv(octa_model):
    log = run_flight(_hover_scenario(octa_model, duration=2.0, allocator="pinv"))
    assert log.allocator == "pinv"
    assert np.all(log.converged)
    assert np.max(log.pos_error) < 1e-3
    np.testing.assert_array_equal(log.iterations, 1)


def test_a_solver_breakdown_holds_the_commands_for_one_tick(octa_model, monkeypatch):
    """A SolverError on tick k logs a failed tick with tick k-1's commands; tick k+1 solves again."""
    k = 50
    solve, calls = simulation.sqp_allocate, []

    def breaks_once(*args):
        calls.append(args)
        if len(calls) == k + 1:
            raise SolverError("injected breakdown")
        return solve(*args)

    monkeypatch.setattr(simulation, "sqp_allocate", breaks_once)
    log = run_flight(_hover_scenario(octa_model, duration=0.5))
    assert len(calls) == len(log.t)  # one solve per tick, no mirror trial
    assert np.nonzero(~log.converged)[0].tolist() == [k]
    assert log.iterations[k] == SolverSettings().max_iterations and log.residual[k] == math.inf
    for commands in (log.throttle_cmd, log.angle_cmd):
        assert same_bits(commands[k], commands[k - 1])
    # the hover's commands move in their last bits every tick, so the hold shows
    assert not same_bits(log.throttle_cmd[k + 1], log.throttle_cmd[k])


def test_flights_are_deterministic(octa_model):
    first = run_flight(_hover_scenario(octa_model, duration=0.5))
    second = run_flight(_hover_scenario(octa_model, duration=0.5))
    np.testing.assert_array_equal(first.position, second.position)
    np.testing.assert_array_equal(first.angle_cmd, second.angle_cmd)
    np.testing.assert_array_equal(first.residual, second.residual)


def test_noise_is_seeded(octa_model):
    same_a = run_flight(_hover_scenario(octa_model, duration=0.5, noise_std=0.05, seed=3))
    same_b = run_flight(_hover_scenario(octa_model, duration=0.5, noise_std=0.05, seed=3))
    other = run_flight(_hover_scenario(octa_model, duration=0.5, noise_std=0.05, seed=4))
    np.testing.assert_array_equal(same_a.position, same_b.position)
    assert not np.array_equal(same_a.position, other.position)
    assert np.max(same_a.pos_error) > 1e-6  # the disturbance actually perturbs the craft


def test_motor_lag_slows_throttle(octa_model):
    lagging = run_flight(_hover_scenario(octa_model, duration=0.5, motor_lag=0.08))
    crisp = run_flight(_hover_scenario(octa_model, duration=0.5))
    assert lagging.throttle_act[0, 0] < 0.1 * lagging.throttle_cmd[0, 0]
    np.testing.assert_allclose(crisp.throttle_act[0], np.clip(crisp.throttle_cmd[0], 0.0, 1.0), atol=1e-12)
    # the logged actuals follow the first-order recurrence exactly
    alpha = 1.0 - math.exp(-DT / 0.08)
    expected = np.zeros(6)
    for k in range(len(lagging.t)):
        expected = expected + (np.clip(lagging.throttle_cmd[k], 0.0, 1.0) - expected) * alpha
        np.testing.assert_allclose(lagging.throttle_act[k], expected, atol=1e-12)


def test_servo_delay_shows_in_the_log(octa_model):
    sweep = orientation_sweep(axes=("yaw",), amplitude=0.5, step_duration=1.0, start_delay=0.1)
    log = run_flight(Scenario(model=octa_model, sweep=sweep, duration=1.0))
    moved_cmd = np.nonzero(np.abs(log.angle_cmd - log.angle_cmd[0]).max(axis=1) > 1e-4)[0]
    moved_act = np.nonzero(np.abs(log.angle_act - log.angle_act[0]).max(axis=1) > 1e-4)[0]
    assert len(moved_cmd) and len(moved_act)
    lag_ticks = moved_act[0] - moved_cmd[0]
    assert lag_ticks >= round(SERVO_DELAY / DT)


# the columns that the CLI, criterion 10 and the benchmark's checks read by name
OCTAHEDRON_LOG_HEADER = [
    "t", "px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz", "wx", "wy", "wz",
    "sp_px", "sp_py", "sp_pz", "sp_qw", "sp_qx", "sp_qy", "sp_qz",
    "u_cmd_0", "u_cmd_1", "u_cmd_2", "u_cmd_3", "u_cmd_4", "u_cmd_5",
    "a_cmd_0", "a_cmd_1", "a_cmd_2", "a_cmd_3", "a_cmd_4", "a_cmd_5",
    "u_act_0", "u_act_1", "u_act_2", "u_act_3", "u_act_4", "u_act_5",
    "a_act_0", "a_act_1", "a_act_2", "a_act_3", "a_act_4", "a_act_5",
    "iterations", "residual", "converged", "pos_error", "ori_error",
]


def test_flight_log_csv_round_trip(tmp_path, octa_model):
    one_arm = _blank_log(5, n_arms=1)  # a synthetic log of a single arm
    one_arm.throttle_cmd[:, 0] = np.linspace(0.1, 0.5, 5)
    one_arm.angle_act[:, 0] = np.linspace(-1.0, 1.0, 5)
    one_arm.position[:, 2] = 0.25
    flight = run_flight(_hover_scenario(octa_model, duration=0.3))
    assert flight.table()[0] == OCTAHEDRON_LOG_HEADER
    arrays = [f.name for f in fields(FlightLog) if f.name not in ("dt", "allocator")]
    assert len(arrays) == 16
    for log in (flight, one_arm):
        path = tmp_path / f"log_{log.n_arms}.csv"
        log.write_csv(path)
        again = read_flight_csv(path, allocator=log.allocator)
        assert again.dt == pytest.approx(log.dt)
        assert again.allocator == "sqp"
        for name in arrays:
            assert getattr(again, name).shape == getattr(log, name).shape, name
            np.testing.assert_array_equal(getattr(again, name), getattr(log, name), err_msg=name)
        assert again.converged.dtype == bool
        assert np.issubdtype(again.iterations.dtype, np.integer)
        header, rows = log.table()
        assert len(header) == rows.shape[1] == 26 + 4 * log.n_arms
    assert np.issubdtype(flight.iterations.dtype, np.integer)


def test_flight_log_rows_hold_each_tick_in_its_field(octa_model):
    """The flight loop writes each row by position, so check every field against its source."""
    sweep = orientation_sweep(axes=("pitch",), start_delay=0.1, step_duration=1.0)
    log = run_flight(Scenario(model=octa_model, sweep=sweep, duration=0.6))
    np.testing.assert_array_equal(log.t, np.arange(120) * DT)
    for k, t in enumerate(log.t):
        sp = sweep_setpoint(t, sweep)
        assert same_bits(log.sp_position[k], sp.position)
        assert same_bits(log.sp_orientation[k], sp.orientation.wxyz)
        assert log.pos_error[k] == pytest.approx(np.linalg.norm(sp.position - log.position[k]),
                                                 rel=1e-12, abs=1e-300)
        q = Quaternion(*log.orientation[k])
        assert log.ori_error[k] == pytest.approx(np.linalg.norm(orientation_error(sp.orientation, q)),
                                                 rel=1e-12, abs=1e-300)
    # semi-implicit Euler: each position moves by the velocity logged with it
    np.testing.assert_array_equal(log.position[1:], log.position[:-1] + log.velocity[1:] * DT)
    assert np.all(log.ori_error[21:] > 0.0)  # the attitude lags the moving setpoint
    assert np.all(np.abs(np.diff(log.angle_act, axis=0)) <= SERVO_RATE_LIMIT * DT + 1e-12)
    np.testing.assert_array_equal(log.throttle_act, np.clip(log.throttle_cmd, 0.0, 1.0))
    assert np.all(log.converged) and np.all(log.iterations >= 1) and np.all(log.residual < 1e-5)
    assert np.max(np.abs(log.angle_cmd - log.angle_act)) > 0.0


def test_read_flight_csv_names_a_missing_column(tmp_path):
    header, rows = _blank_log(3).table()
    keep = [i for i, name in enumerate(header) if name != "pz"]
    path = tmp_path / "no_pz.csv"
    write_csv(path, [header[i] for i in keep], rows[:, keep])
    with pytest.raises(ValueError, match="no column 'pz'"):
        read_flight_csv(path)


def test_read_flight_csv_rejects_a_file_without_ticks(tmp_path):
    header, _ = _blank_log(3).table()
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(",".join(header) + "\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    for path in (header_only, empty):
        with pytest.raises(ValueError, match="no ticks"):
            read_flight_csv(path)


# ---------------------------------------------------------------------------
# statistics and singularity analysis


def _blank_log(n_ticks: int, n_arms: int = 6, dt: float = DT) -> FlightLog:
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (n_ticks, 1))
    return FlightLog(
        t=np.arange(n_ticks) * dt,
        position=np.zeros((n_ticks, 3)),
        velocity=np.zeros((n_ticks, 3)),
        orientation=identity.copy(),
        angular_velocity=np.zeros((n_ticks, 3)),
        sp_position=np.zeros((n_ticks, 3)),
        sp_orientation=identity.copy(),
        throttle_cmd=np.zeros((n_ticks, n_arms)),
        angle_cmd=np.zeros((n_ticks, n_arms)),
        throttle_act=np.zeros((n_ticks, n_arms)),
        angle_act=np.zeros((n_ticks, n_arms)),
        iterations=np.ones(n_ticks),
        residual=np.zeros(n_ticks),
        converged=np.ones(n_ticks, dtype=bool),
        pos_error=np.zeros(n_ticks),
        ori_error=np.zeros(n_ticks),
        dt=dt,
        allocator="sqp",
    )


def test_nearest_rank_p90():
    assert nearest_rank_p90([5.0]) == 5.0
    assert nearest_rank_p90(np.arange(1.0, 11.0)) == 9.0
    assert nearest_rank_p90(np.arange(1.0, 101.0)) == 90.0
    with pytest.raises(ValueError):
        nearest_rank_p90([])


def test_summarize_on_known_errors():
    log = _blank_log(12, dt=1.0)
    log.pos_error[:] = 99.0  # the settle window must hide these
    log.pos_error[2:] = np.arange(1.0, 11.0)
    log.ori_error[2:] = np.arange(1.0, 11.0) / 10.0
    stats = summarize(log, settle=2.0)
    assert stats.pos_mean == pytest.approx(5.5)
    assert stats.pos_std == pytest.approx(np.std(np.arange(1.0, 11.0)))
    assert stats.pos_p90 == 9.0
    assert stats.ori_mean == pytest.approx(0.55)
    assert stats.ori_p90 == pytest.approx(0.9)
    assert set(stats.to_dict()) == {
        "pos_mean_m", "pos_std_m", "pos_p90_m", "ori_mean_rad", "ori_std_rad", "ori_p90_rad",
    }
    with pytest.raises(ValueError):
        summarize(log, settle=100.0)


def test_detect_flip_events(octa_model):
    geometry = octa_model.geometry
    log = _blank_log(400)
    log.throttle_cmd[:, 4] = 0.1
    log.throttle_cmd[:, 0] = 0.1
    log.angle_cmd[200:, 4] += math.pi  # vertical-axis arm jumps half a turn
    log.angle_cmd[230:, 4] += math.pi  # immediate re-trigger collapses into the first event
    log.angle_cmd[360:, 4] += math.pi  # far enough apart to count again
    log.angle_cmd[100:, 0] += math.pi  # horizontal-axis arm: alignment filter must drop it
    log.angle_cmd[300:, 5] += math.pi  # unloaded arm: reload filter must drop it

    events = detect_flip_events(log, geometry)
    assert [(e.arm, round(e.t, 3)) for e in events] == [(4, 1.0), (4, 1.8)]
    assert all(e.delta > math.pi / 2 for e in events)
    assert all(e.alignment > math.cos(math.radians(25.0)) for e in events)

    lenient = detect_flip_events(log, geometry, require_vertical=False)
    assert [(e.arm, round(e.t, 3)) for e in lenient] == [(0, 0.5), (4, 1.0), (4, 1.8)]


def test_compare_singularity_handling_synthetic(octa_model):
    geometry = octa_model.geometry
    log_pinv = _blank_log(800)
    log_pinv.allocator = "pinv"
    log_pinv.throttle_cmd[:, 4] = 0.1
    log_pinv.angle_cmd[200:, 4] += math.pi
    log_pinv.angle_cmd[500:, 4] += math.pi
    log_pinv.pos_error[:] = 0.005
    log_pinv.pos_error[240] = 0.05
    log_pinv.pos_error[540] = 0.04
    log_sqp = _blank_log(800)
    log_sqp.pos_error[:] = 0.01

    cmp_ = compare_singularity_handling(log_sqp, log_pinv, geometry)
    assert cmp_.n_arm_instants == 2 and cmp_.n_pairs == 2
    np.testing.assert_allclose(cmp_.event_times, [1.0, 2.5], atol=1e-9)
    np.testing.assert_allclose(cmp_.peaks_pinv, [0.05, 0.04], atol=1e-12)
    np.testing.assert_allclose(cmp_.peaks_sqp, [0.01, 0.01], atol=1e-12)
    assert cmp_.mean_peak_pinv == pytest.approx(0.045)
    assert 0.0 < cmp_.p_value < 0.1
    payload = cmp_.to_dict()
    assert payload["n_pairs"] == 2
    assert payload["p_value_one_sided"] == pytest.approx(cmp_.p_value)


def test_compare_without_events_is_inconclusive(octa_model):
    cmp_ = compare_singularity_handling(_blank_log(100), _blank_log(100), octa_model.geometry)
    assert cmp_.n_pairs == 0
    assert cmp_.p_value == 1.0
    assert math.isnan(cmp_.mean_peak_sqp)


def test_max_command_step():
    log = _blank_log(10)
    assert max_command_step(log) == 0.0
    log.angle_cmd[5:, 2] = 0.4
    assert max_command_step(log) == pytest.approx(0.4)
