"""Allocator internals: derivatives, KKT assembly, Newton steps, both solve routes."""

import math
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from numpy._core import umath
from numpy.linalg import _umath_linalg

from helpers import (
    allocation_objective_oracle,
    arm_wrench,
    assemble_oracle,
    evaluate_oracle,
    floored_oracle,
    least_norm_allocation_oracle,
    newton_delta_oracle,
    penalty_arm_rate_oracle,
    penalty_throttle_oracle,
    random_quaternion,
    random_unit,
    rel_error,
    same_bits,
    sqp_allocate_oracle,
    step_scale_oracle,
    thrust_direction,
    wrench_chain,
)
from rotorarm import (
    AllocatorInput,
    AllocatorState,
    Arm,
    DroneGeometry,
    DroneModel,
    PenaltyWeights,
    Quaternion,
    SolverError,
    SolverSettings,
    allocation_objective,
    assemble_kkt,
    build_catalog,
    constraint_residual,
    newton_step,
    pinv_allocate,
    sqp_allocate,
    vectored_thrust_matrix,
    wrap_angle,
)
from rotorarm import allocation
from rotorarm.allocation import step_scale
from rotorarm.geometry import (
    ARM_KINDS,
    CATALOG_IDS,
    FIXED_BIDIRECTIONAL,
    FIXED_UNIDIRECTIONAL,
    ROTATING,
    default_zero_dir,
)

FD_H = 1e-6


def test_model_validation_and_hover_throttle():
    g = build_catalog("octahedron_rot")
    model = DroneModel(g)
    assert model.hover_throttle == pytest.approx(2.4 * 9.81 / (15.0 * 6))
    assert DroneModel(g, inertia=np.array([1.0, 2.0, 3.0])).inertia[1, 1] == 2.0
    with pytest.raises(ValueError):
        DroneModel(g, thrust_constant=0.0)
    with pytest.raises(ValueError):
        DroneModel(g, control_period=-0.005)
    with pytest.raises(ValueError):
        DroneModel(g, inertia=np.ones((2, 2)))


@pytest.mark.parametrize("name", ["thrust_constant", "torque_constant", "control_period", "mass",
                                  "gravity"])
def test_model_rejects_a_nan_constant(name):
    with pytest.raises(ValueError, match=name):
        DroneModel(build_catalog("octahedron_rot"), **{name: math.nan})


@pytest.mark.parametrize("name", ["thrust_constant", "torque_constant", "control_period", "mass",
                                  "gravity"])
def test_model_rejects_an_infinite_constant(name):
    with pytest.raises(ValueError, match=name):
        DroneModel(build_catalog("octahedron_rot"), **{name: math.inf})


@pytest.mark.parametrize("inertia", [
    [0.0, 0.02, 0.02],
    [0.02, -0.02, 0.02],
    [[0.02, 0.001, 0.0], [0.0, 0.02, 0.0], [0.0, 0.0, 0.02]],
    [[0.02, 0.03, 0.0], [0.03, 0.02, 0.0], [0.0, 0.0, 0.02]],
], ids=["zero", "negative", "asymmetric", "indefinite"])
def test_model_rejects_an_inertia_that_is_not_symmetric_positive_definite(inertia):
    with pytest.raises(ValueError, match="symmetric positive definite"):
        DroneModel(build_catalog("octahedron_rot"), inertia=np.array(inertia))


def test_penalty_weights_validation():
    PenaltyWeights(throttle=np.array([1.0, 2.0, 50.0]))  # per-arm costs allowed
    with pytest.raises(ValueError):
        PenaltyWeights(throttle=0.0)
    with pytest.raises(ValueError):
        PenaltyWeights(throttle=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        PenaltyWeights(throttle_low=0.5, throttle_high=0.5)


@pytest.mark.parametrize("name, value", [
    ("throttle", math.nan),
    ("throttle", np.array([1.0, math.nan, 2.0])),
    ("arm_rate", math.nan),
    ("limit", math.nan),
    ("rate_limit", math.nan),
    ("throttle_low", math.nan),
    ("throttle_high", math.nan),
], ids=["throttle", "per_arm_throttle", "arm_rate", "limit", "rate_limit", "throttle_low",
        "throttle_high"])
def test_penalty_weights_reject_nan(name, value):
    """A NaN weight or band edge would switch its penalty off or make the solve fail later."""
    with pytest.raises(ValueError):
        PenaltyWeights(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("throttle", math.inf),
    ("throttle", np.array([1.0, math.inf, 2.0])),
    ("arm_rate", math.inf),
    ("limit", math.inf),
], ids=["throttle", "per_arm_throttle", "arm_rate", "limit"])
def test_penalty_weights_reject_infinity(name, value):
    """An infinite weight turns a zero penalty into NaN (inf * 0)."""
    with pytest.raises(ValueError, match="finite"):
        PenaltyWeights(**{name: value})


def test_an_infinite_rate_limit_is_no_limit():
    # arm rates of 600 and -400 rad/s, far past the default limit, cost only their quadratic
    cost = allocation_objective([0.4, 0.5], [3.0, -2.0], [0.0, 0.0], 0.005,
                                PenaltyWeights(rate_limit=math.inf))
    assert cost == pytest.approx(0.4**2 + 0.5**2 + 0.01 * (600.0**2 + 400.0**2))


def test_allocator_input_validation_and_frames():
    with pytest.raises(ValueError):
        AllocatorInput(Quaternion.identity(), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        AllocatorInput(Quaternion.identity(), np.array([0.0, math.nan, 0.0]), np.zeros(3))
    # a yawed craft sees a world-x force along its own -y axis
    yaw90 = Quaternion.from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi / 2)
    wrench = AllocatorInput(yaw90, np.array([1.0, 0.0, 0.0]), np.zeros(3)).body_wrench()
    np.testing.assert_allclose(wrench, [0.0, -1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_allocator_input_is_read_only():
    force, torque = np.array([1.0, 2.0, 20.0]), np.array([0.1, 0.0, -0.2])
    inp = AllocatorInput(Quaternion.identity(), force, torque)
    force[0] = 99.0  # the caller's arrays stay the caller's
    assert inp.force[0] == 1.0
    for array in (inp.force, inp.torque, inp.body_wrench()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5.0
    with pytest.raises(AttributeError):
        inp.force = np.zeros(3)
    np.testing.assert_array_equal(inp.body_wrench(), [1.0, 2.0, 20.0, 0.1, 0.0, -0.2])


def test_body_wrench_is_computed_once_and_only_when_needed(monkeypatch, octa_model):
    """sqp, pinv and the residual share one lazy body-wrench computation.

    Every Quaternion method is counted: the three callers together must do
    exactly the attitude work of one body_wrench() call, and building the
    input must do none.
    """
    calls = []
    for name in ("rotate", "inverse", "conjugate", "to_matrix"):
        original = getattr(Quaternion, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Quaternion, name, counted)
    q = Quaternion.from_axis_angle(np.array([0.0, 0.6, 0.8]), 0.7)
    demand = (np.array([1.0, -2.0, 24.0]), np.array([0.2, 0.1, -0.1]))

    twin = AllocatorInput(q, *demand)
    twin.body_wrench()
    one_computation = len(calls)
    assert one_computation > 0

    calls.clear()
    inp = AllocatorInput(q, *demand)
    assert calls == []  # lazy: construction rotates nothing
    sol = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model)
    pinv_allocate(inp, octa_model)
    constraint_residual(sol.throttles, sol.angles, inp, octa_model)
    assert len(calls) == one_computation
    assert inp.body_wrench() is inp.body_wrench()
    np.testing.assert_array_equal(inp.body_wrench(), twin.body_wrench())


def test_thrust_direction_derivatives(rng):
    for g_id in ("octahedron_rot", "tetrahedron_rot"):
        for arm in build_catalog(g_id).arms:
            a = rng.uniform(-8.0, 8.0)
            n, dn, ddn = thrust_direction(arm, a)
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
            fd_dn = (thrust_direction(arm, a + FD_H)[0] - thrust_direction(arm, a - FD_H)[0]) / (2 * FD_H)
            fd_ddn = (thrust_direction(arm, a + FD_H)[1] - thrust_direction(arm, a - FD_H)[1]) / (2 * FD_H)
            assert rel_error(dn, fd_dn) < 1e-8
            assert rel_error(ddn, fd_ddn) < 1e-8
            np.testing.assert_allclose(ddn, -n, atol=1e-12)


def test_thrust_direction_fixed_arm_is_constant():
    arm = build_catalog("hexagon_tilt30_fixed").arms[0]
    n, dn, ddn = thrust_direction(arm, 1.3)
    np.testing.assert_allclose(n, arm.zero_dir, atol=1e-15)
    assert not dn.any() and not ddn.any()


def test_arm_wrench_values(rng):
    g = build_catalog("octahedron_rot")
    mu, tau = 15.0, 0.18
    for arm in g.arms:
        u, a = rng.uniform(0.0, 1.0), rng.uniform(-4.0, 4.0)
        w = arm_wrench(arm, u, a, mu, tau)
        n = thrust_direction(arm, a)[0]
        np.testing.assert_allclose(w.force, mu * u * n, atol=1e-12)
        np.testing.assert_allclose(
            w.torque, mu * u * np.cross(arm.endpoint, n) + tau * arm.spin * u * n, atol=1e-12
        )


def test_arm_wrench_partials_match_finite_differences(rng):
    g = build_catalog("cube_rot")
    mu, tau = 15.0, 0.18
    for _ in range(30):
        arm = g.arms[rng.integers(len(g.arms))]
        u, a = rng.uniform(0.05, 1.2), rng.uniform(-7.0, 7.0)
        w = arm_wrench(arm, u, a, mu, tau)

        def at(du=0.0, da=0.0):
            return arm_wrench(arm, u + du, a + da, mu, tau)

        for field_name, fd in (
            ("force_du", (at(du=FD_H).force - at(du=-FD_H).force) / (2 * FD_H)),
            ("force_da", (at(da=FD_H).force - at(da=-FD_H).force) / (2 * FD_H)),
            ("torque_du", (at(du=FD_H).torque - at(du=-FD_H).torque) / (2 * FD_H)),
            ("torque_da", (at(da=FD_H).torque - at(da=-FD_H).torque) / (2 * FD_H)),
            ("force_duu", (at(du=FD_H).force_du - at(du=-FD_H).force_du) / (2 * FD_H)),
            ("force_dua", (at(da=FD_H).force_du - at(da=-FD_H).force_du) / (2 * FD_H)),
            ("force_daa", (at(da=FD_H).force_da - at(da=-FD_H).force_da) / (2 * FD_H)),
            ("torque_duu", (at(du=FD_H).torque_du - at(du=-FD_H).torque_du) / (2 * FD_H)),
            ("torque_dua", (at(da=FD_H).torque_du - at(da=-FD_H).torque_du) / (2 * FD_H)),
            ("torque_daa", (at(da=FD_H).torque_da - at(da=-FD_H).torque_da) / (2 * FD_H)),
        ):
            assert rel_error(getattr(w, field_name), fd) < 1e-7, field_name


_coordinate = st.floats(-1.0, 1.0, allow_nan=False)
_vector = st.tuples(_coordinate, _coordinate, _coordinate).map(np.array)
_angle = st.floats(-math.pi, math.pi)


def _spherical(z: float, azimuth: float) -> np.ndarray:
    r = math.sqrt(1.0 - z * z)
    return np.array([r * math.cos(azimuth), r * math.sin(azimuth), z])


# uniform on the sphere, and every draw is valid, so shrinking never stalls
# on rejected examples
_unit = st.builds(_spherical, _coordinate, _angle)


# Properties over custom layouts skip hypothesis's explain phase: it reruns a
# shrunk failure over a thousand times only to annotate which draws mattered,
# which on these examples took minutes before the failure was reported.
_FAIL_FAST = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink)


@st.composite
def _custom_arm(draw, kinds=ARM_KINDS):
    kind = draw(st.sampled_from(kinds))
    endpoint = 0.5 * draw(_vector)
    direction = draw(_unit)
    spin = draw(st.sampled_from((-1, 1)))
    if kind != ROTATING:
        return Arm(endpoint, direction, direction, spin, kind)
    # any unit zero direction in the thrust plane, not only the default one:
    # the default turned by an angle about the arm axis
    b1 = default_zero_dir(direction)
    turn = draw(_angle)
    zero_dir = math.cos(turn) * b1 + math.sin(turn) * np.cross(direction, b1)
    return Arm(endpoint, direction, zero_dir, spin, kind)


@settings(max_examples=80, derandomize=True, deadline=None, phases=_FAIL_FAST)
@given(
    arms=st.lists(_custom_arm(), min_size=1, max_size=6),
    mu=st.floats(1.0, 30.0),
    tau=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_unit_wrenches_match_the_scalar_oracle(arms, mu, tau, data):
    """W, dW/da and d2W/da2 = -W (rotating) or 0 (fixed) against arm_wrench."""
    model = DroneModel(DroneGeometry(arms), thrust_constant=mu, torque_constant=tau)
    n = len(arms)
    u = np.array(data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    a = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    wrench, d_wrench = model.unit_wrenches(a)
    dd_wrench = np.where(model.geometry.rotating[:, None], -wrench, 0.0)
    for i, arm in enumerate(arms):
        w = arm_wrench(arm, u[i], a[i], mu, tau)
        for name, ours in (
            ("", u[i] * wrench[i]),
            ("_du", wrench[i]),
            ("_da", u[i] * d_wrench[i]),
            ("_daa", u[i] * dd_wrench[i]),
            ("_dua", d_wrench[i]),
        ):
            oracle = np.concatenate([getattr(w, "force" + name), getattr(w, "torque" + name)])
            np.testing.assert_allclose(
                ours, oracle, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(oracle))),
                err_msg=f"arm {i} ({arm.kind}) wrench{name}",
            )


def _slopes(throttles, rates, weights):
    """dp and ddp of the stacked [throttles; rates] as the solver takes them, through assemble_kkt.

    On fixed arms with zero multipliers and a control period of 1 s, with
    each rate as its arm's angle moved from 0, K's primal rows are dp_u +
    (+-0.0) and dp_a / 1.0 + u (+-0.0), and H's primal diagonal is ddp_u
    and ddp_a / 1.0 + 0.0: dp's and ddp's own bits, since dp is never -0.0
    (inside the band its distance is +0.0, and 2 w x + 0.0 is not -0.0).
    """
    n = len(throttles)
    arm = Arm([0.3, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 1, FIXED_BIDIRECTIONAL)
    model = DroneModel(DroneGeometry([arm] * n), control_period=1.0)
    state = AllocatorState(throttles, rates, np.zeros(6), np.zeros(n))
    hess, grad = assemble_kkt(state, AllocatorInput(Quaternion.identity(), np.zeros(3), np.zeros(3)),
                              model, weights)
    return grad[:2 * n].tolist(), hess.diagonal()[:2 * n].tolist()


def _one_penalty(x, weights, rate=False):
    """`allocation._penalty` of one throttle (or one arm rate) and the solver's dp and ddp of it."""
    stacked = [0.5, x] if rate else [x, 0.0]
    p, _ = allocation._penalty(stacked, allocation._penalized(weights, 1))
    dp, ddp = _slopes(stacked[:1], stacked[1:], weights)
    return [r[int(rate)] for r in (p, dp, ddp)]


def test_penalty_throttle_shape_and_derivatives():
    w = PenaltyWeights()

    def penalty(x):
        return _one_penalty(x, w)

    p = [penalty(x)[0] for x in (-0.2, 0.0, 0.3, 1.0, 1.25)]
    assert p[2] == pytest.approx(0.09, abs=1e-12)  # plain quadratic inside the band
    assert p[0] == pytest.approx(0.04 + w.limit * 0.04)
    assert p[4] == pytest.approx(1.25**2 + w.limit * 0.0625)
    for x in (-0.2, 0.3, 1.25):  # away from the kinks the derivatives are smooth
        fd_p = (penalty(x + FD_H)[0] - penalty(x - FD_H)[0]) / (2 * FD_H)
        fd_dp = (penalty(x + FD_H)[1] - penalty(x - FD_H)[1]) / (2 * FD_H)
        assert rel_error(penalty(x)[1], fd_p) < 1e-8
        assert rel_error(penalty(x)[2], fd_dp) < 1e-6
    # first derivative stays continuous across the limit
    left = penalty(1.0 - 1e-9)[1]
    right = penalty(1.0 + 1e-9)[1]
    assert abs(left - right) < 1e-6


def test_penalty_arm_rate_shape_and_derivatives():
    w = PenaltyWeights()
    limit = w.rate_limit

    def penalty(x):
        return _one_penalty(x, w, rate=True)

    assert penalty(0.5 * limit)[0] == pytest.approx(w.arm_rate * 0.25 * limit**2)
    over = penalty(limit + 1.0)[0]
    assert over == pytest.approx(w.arm_rate * (limit + 1.0) ** 2 + w.limit)
    for x in (-9.0, -2.0, 1.5, 8.0):
        fd_p = (penalty(x + FD_H)[0] - penalty(x - FD_H)[0]) / (2 * FD_H)
        fd_dp = (penalty(x + FD_H)[1] - penalty(x - FD_H)[1]) / (2 * FD_H)
        assert rel_error(penalty(x)[1], fd_p) < 1e-8
        assert rel_error(penalty(x)[2], fd_dp) < 1e-6


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_clip_form_penalty_is_bit_identical_to_the_over_under_form(data):
    """One clip-form pass reproduces the separate over/under formulas bit for bit.

    IEEE subtraction is antisymmetric, so x - clip(x, low, high) is exactly
    the overrun above the band or minus the one below it. Signed zeros are
    compared too. The one regrouping is the arm-rate limit term, now
    limit * (v * v) like the throttle's where it was (limit * v) * v: that
    moves the last bits of p at most, never those of dp or ddp.
    """
    n = data.draw(st.integers(1, 8), label="n_arms")
    low = data.draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)), label="throttle_low")
    high = low + data.draw(st.floats(0.01, 2.0), label="band")
    per_arm = st.lists(st.floats(0.1, 60.0), min_size=n, max_size=n).map(np.array)
    weights = PenaltyWeights(
        throttle=data.draw(st.one_of(st.floats(0.1, 60.0), per_arm), label="throttle"),
        arm_rate=data.draw(st.floats(1e-3, 1.0), label="arm_rate"),
        limit=data.draw(st.floats(1.0, 1e3), label="limit"),
        throttle_low=low,
        throttle_high=high,
        rate_limit=data.draw(st.floats(0.1, 20.0), label="rate_limit"),
    )
    rate_limit = weights.rate_limit
    edges_u = (low, high, np.nextafter(low, -np.inf), np.nextafter(high, np.inf), 0.0, -0.0)
    edges_rate = (rate_limit, -rate_limit, np.nextafter(rate_limit, np.inf),
                  np.nextafter(-rate_limit, -np.inf), 0.0, -0.0)

    def values(edges, lo, hi, label):
        one = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
        return np.array(data.draw(st.lists(one, min_size=n, max_size=n), label=label))

    u = values(edges_u, low - 1.0, high + 1.0, "throttles")
    rate = values(edges_rate, -3.0 * rate_limit, 3.0 * rate_limit, "rates")

    old_u = penalty_throttle_oracle(u, weights)
    old_rate = penalty_arm_rate_oracle(rate, weights)
    over = np.maximum(0.0, np.abs(rate) - rate_limit)
    regrouped = weights.arm_rate * rate * rate + weights.limit * (over * over)
    np.testing.assert_allclose(regrouped, old_rate[0], rtol=4 * np.finfo(float).eps, atol=0.0)

    # the stacked pass over [throttles; rates] that every Newton iterate runs
    stacked, tables = np.concatenate((u, rate)).tolist(), allocation._penalized(weights, n)
    p, over = allocation._penalty(stacked, tables)
    dp, ddp = _slopes(u, rate, weights)
    assert _bits(p) == _bits(np.concatenate((old_u[0], regrouped)))
    assert _bits(dp) == _bits(np.concatenate((old_u[1], old_rate[1])))
    assert _bits(ddp) == _bits(np.concatenate((old_u[2], old_rate[2])))


def test_allocation_objective_is_the_penalty_sum(rng):
    w = PenaltyWeights()
    u = rng.uniform(0.0, 1.0, 6)
    a = rng.uniform(-1.0, 1.0, 6)
    prev = a - rng.uniform(-0.01, 0.01, 6)
    dt = 0.005
    expected = (np.sum(penalty_throttle_oracle(u, w)[0])
                + np.sum(penalty_arm_rate_oracle((a - prev) / dt, w)[0]))
    assert allocation_objective(u, a, prev, dt, w) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        allocation_objective(u, a, prev, 0.0, w)


@pytest.mark.parametrize("config_id", ["tetrahedron_rot", "octahedron_rot", "cube_rot"])
def test_allocation_objective_is_the_evaluated_objective_bit_for_bit(rng, config_id):
    """allocation_objective, `_evaluate`'s objective and the array formulas agree byte for byte.

    Random iterates on 4, 6 and 8 arms with per-arm throttle weights,
    throttles on both sides of the band and arm rates on both sides of the
    rate limit.
    """
    model = DroneModel(build_catalog(config_id))
    n, dt = model.geometry.n_arms, model.control_period
    for _ in range(200):
        weights = PenaltyWeights(throttle=rng.uniform(0.5, 50.0, n))
        u = rng.uniform(-0.3, 1.3, n)
        a = rng.uniform(-10.0, 10.0, n)
        prev = a - rng.uniform(-2.0, 2.0, n) * weights.rate_limit * dt
        x = np.concatenate((u, a, rng.normal(0.0, 0.3, 6)))
        it = allocation._evaluate(x, x.tolist(), prev.tolist(), np.zeros(6), model,
                                  allocation._penalized(weights, n))
        objective = allocation_objective(u, a, prev, dt, weights)
        assert same_bits(objective, it.objective)
        assert same_bits(objective, allocation_objective_oracle(u, a, prev, dt, weights))


def _random_state(model, rng, spread=0.15):
    n = model.geometry.n_arms
    angles = rng.uniform(-math.pi, math.pi, n)
    return AllocatorState(
        throttles=rng.uniform(0.05, 0.9, n),
        angles=angles,
        multipliers=rng.normal(0.0, 0.3, 6),
        prev_angles=angles - rng.uniform(-spread, spread, n) * model.control_period,
    )


def _lagrangian(state, inp, model, weights):
    obj = allocation_objective(
        state.throttles, state.angles, state.prev_angles, model.control_period, weights
    )
    g = constraint_residual(state.throttles, state.angles, inp, model)
    return obj + float(state.multipliers @ g)


def test_kkt_gradient_matches_finite_differences(rng, octa_model):
    weights = PenaltyWeights()
    for _ in range(5):
        inp = AllocatorInput(random_quaternion(rng), rng.normal(0, 8, 3), rng.normal(0, 0.8, 3))
        state = _random_state(octa_model, rng)
        _, grad = assemble_kkt(state, inp, octa_model, weights)
        n = octa_model.geometry.n_arms

        fd = np.empty(2 * n)
        for j in range(2 * n):
            for sign, store in ((1.0, "hi"), (-1.0, "lo")):
                u = state.throttles.copy()
                a = state.angles.copy()
                if j < n:
                    u[j] += sign * FD_H
                else:
                    a[j - n] += sign * FD_H
                value = _lagrangian(
                    AllocatorState(u, a, state.multipliers, state.prev_angles),
                    inp, octa_model, weights,
                )
                if store == "hi":
                    hi = value
                else:
                    lo = value
            fd[j] = (hi - lo) / (2 * FD_H)
        assert rel_error(grad[: 2 * n], fd) < 1e-5
        # the multiplier block of the gradient is the constraint residual itself
        np.testing.assert_allclose(
            grad[2 * n:],
            constraint_residual(state.throttles, state.angles, inp, octa_model),
            atol=1e-12,
        )


def test_kkt_hessian_matches_gradient_differences(rng, octa_model):
    weights = PenaltyWeights()
    n = octa_model.geometry.n_arms
    dim = 2 * n + 6
    for _ in range(3):
        inp = AllocatorInput(random_quaternion(rng), rng.normal(0, 8, 3), rng.normal(0, 0.8, 3))
        state = _random_state(octa_model, rng)
        hess, _ = assemble_kkt(state, inp, octa_model, weights)
        np.testing.assert_allclose(hess, hess.T, atol=1e-12)

        fd = np.empty((dim, dim))
        for j in range(dim):
            grads = []
            for sign in (1.0, -1.0):
                u = state.throttles.copy()
                a = state.angles.copy()
                lam = state.multipliers.copy()
                if j < n:
                    u[j] += sign * FD_H
                elif j < 2 * n:
                    a[j - n] += sign * FD_H
                else:
                    lam[j - 2 * n] += sign * FD_H
                _, g_vec = assemble_kkt(
                    AllocatorState(u, a, lam, state.prev_angles), inp, octa_model, weights
                )
                grads.append(g_vec)
            fd[:, j] = (grads[0] - grads[1]) / (2 * FD_H)
        assert rel_error(hess, fd) < 1e-5


def test_kkt_and_sqp_results_share_no_memory(rng, octa_model):
    weights = PenaltyWeights()
    inp = AllocatorInput(random_quaternion(rng), rng.normal(0, 8, 3) + [0.0, 0.0, 20.0],
                         rng.normal(0, 0.8, 3))
    first = _random_state(octa_model, rng)
    hess, grad = assemble_kkt(first, inp, octa_model, weights)
    saved = hess.copy(), grad.copy()
    # the scatter indices are cached per model; the matrix must not be
    hess2, grad2 = assemble_kkt(_random_state(octa_model, rng), inp, octa_model, weights)
    assert not np.array_equal(hess2, saved[0])
    assert not np.shares_memory(hess, hess2) and not np.shares_memory(grad, grad2)
    np.testing.assert_array_equal(hess, saved[0])
    np.testing.assert_array_equal(grad, saved[1])

    warm = _random_state(octa_model, rng)
    warm_arrays = (warm.throttles, warm.angles, warm.multipliers, warm.prev_angles)
    before = [arr.copy() for arr in warm_arrays]
    sol = sqp_allocate(inp, warm, octa_model, weights)
    for arr, old in zip(warm_arrays, before):
        assert _bits(arr) == _bits(old)  # the warm state is only read
    results = (sol.throttles, sol.angles, sol.multipliers)
    assert not np.array_equal(sol.throttles, warm.throttles)  # the solve did move
    for i, result in enumerate(results):
        assert not any(np.shares_memory(result, arr) for arr in warm_arrays)
        assert not any(np.shares_memory(result, other) for other in results[i + 1:])


def test_newton_step_solves_the_kkt_system(rng, octa_model):
    weights = PenaltyWeights()
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 23.0]), np.zeros(3))
    state = _random_state(octa_model, rng)
    hess, grad = assemble_kkt(state, inp, octa_model, weights)
    du, da, dlam = newton_step(hess, grad, octa_model.geometry.n_arms)
    delta = np.concatenate([du, da, dlam])
    residual = hess @ delta + grad
    assert np.linalg.norm(residual) < 1e-9 * max(1.0, np.linalg.norm(grad))


def test_newton_step_raises_on_hopeless_systems():
    grad = np.ones(8)
    with pytest.raises(SolverError):
        newton_step(np.zeros((8, 8)), grad, 1)  # the floor lifts the primal block; the constraint rows stay zero
    with pytest.raises(SolverError):
        newton_step(1e-320 * np.eye(8), grad, 1)  # subnormal constraint pivots: the step overflows


@pytest.mark.filterwarnings("error")
def test_newton_step_breaks_down_and_recovers_without_warnings():
    # the subnormal case reaches the non-finite-step guard
    with pytest.raises(SolverError):
        newton_step(1e-320 * np.eye(8), np.ones(8), 1)
    # four arms, constraints on the first six primal variables only, and a
    # zero primal block: H is exactly singular, and the floor, 1e-6 on every
    # primal diagonal entry, recovers the step; the angles of arms 2 and 3
    # meet no constraint, so they take -K / 1e-6
    n_arms = 4
    hess = np.zeros((14, 14))
    hess[8:, :6] = np.eye(6)
    hess[:6, 8:] = np.eye(6)
    grad = np.linspace(-1.0, 1.0, 14)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hess, -grad)
    expected = newton_delta_oracle(hess, grad, n_arms)
    assert expected is not None
    np.testing.assert_allclose(expected[6:8], -grad[6:8] / 1e-6, rtol=1e-12)
    assert same_bits(np.concatenate(newton_step(hess, grad, n_arms)), expected)


def _kkt_of_blocks(blocks):
    """A KKT matrix with primal blocks [a, b; b, c] per arm and constraints on the first six primal variables.

    Its constraint Jacobian is the identity there, of rank 6 for three arms or more.
    """
    n = len(blocks)
    hess = np.zeros((2 * n + 6, 2 * n + 6))
    for i, (a, b, c) in enumerate(blocks):
        hess[i, i], hess[n + i, n + i] = a, c
        hess[i, n + i] = hess[n + i, i] = b
    hess[:6, 2 * n:] = hess[2 * n:, :6] = np.eye(6)
    return hess


_GRAD = np.linspace(-1.0, 2.0, 12)


def test_the_step_acceptance_test_at_its_edges():
    """One residual test on the floored system, against the oracle that scans the step for non-finite entries first."""
    # a residual above 1e-10 and under 1e-10 |K|: only the |K|-scaled bound takes the step
    k = np.arange(8.0)
    hess = np.cos(np.add.outer(k, 2.0 * k)) + 4.0 * np.eye(8)
    grad = 1e8 * np.sin(k + 1.0)
    # the one block is above its floor
    assert allocation._floored(hess, 1) is hess
    step = np.linalg.solve(hess, -grad)
    assert 1e-10 < np.linalg.norm(hess @ step + grad) <= 1e-10 * np.linalg.norm(grad)
    assert same_bits(newton_delta_oracle(hess, grad, 1), step)
    assert same_bits(np.concatenate(newton_step(hess, grad, 1)), step)

    # the constraint pivots are subnormal, so the step overflows to infinity
    # and H delta + K is NaN: SolverError, with |K| in its message
    hess = 1e-320 * np.eye(8)
    grad = np.full(8, 3.0)
    assert newton_delta_oracle(hess, grad, 1) is None
    with pytest.raises(SolverError, match=r"\|K\|=8\.485e\+00"):
        newton_step(hess, grad, 1)
    # a zero matrix stays singular under the floor: the same error
    assert newton_delta_oracle(np.zeros((8, 8)), grad, 1) is None
    with pytest.raises(SolverError, match=r"\|K\|=8\.485e\+00"):
        newton_step(np.zeros((8, 8)), grad, 1)


def test_a_block_on_its_floor_keeps_its_bits():
    """Smaller eigenvalue exactly f: a diagonal block, a coupled one and one far above it."""
    f2 = 1e-6 * 2.0  # the floor of a block with 2.0 on its diagonal
    hess = _kkt_of_blocks([(1e-6, 0.0, 1.0), (2.0, 2.0 - f2, 2.0), (3.0, 0.5, 4.0)])
    assert allocation._floored(hess, 3) is hess
    assert same_bits(floored_oracle(hess, 3), hess)
    step = np.concatenate(newton_step(hess, _GRAD, 3))
    assert same_bits(step, np.linalg.solve(hess, -_GRAD))
    assert same_bits(step, newton_delta_oracle(hess, _GRAD, 3))


def test_a_block_one_ulp_below_its_floor_is_lifted_to_it():
    f2 = 1e-6 * 2.0
    below = float(np.nextafter(1e-6, 0.0))
    hess = _kkt_of_blocks([(below, 0.0, 1.0), (2.0, float(np.nextafter(2.0 - f2, 3.0)), 2.0),
                           (3.0, 0.5, 4.0)])
    matrix = allocation._floored(hess, 3)
    assert matrix is not hess and same_bits(matrix, floored_oracle(hess, 3))
    moved = np.argwhere(matrix != hess).tolist()
    assert [0, 0] in moved and [1, 1] in moved
    assert all(i == j and i in (0, 1, 3, 4) for i, j in moved)  # diagonal entries of arms 0 and 1
    assert matrix[0, 0] == 1e-6  # the diagonal block sits on its floor now
    assert np.linalg.eigvalsh(matrix[np.ix_([1, 4], [1, 4])]).min() >= f2 * (1.0 - 1e-9)
    step = np.concatenate(newton_step(hess, _GRAD, 3))
    assert same_bits(step, newton_delta_oracle(hess, _GRAD, 3))
    assert same_bits(step, np.linalg.solve(matrix, -_GRAD))
    assert not same_bits(step, np.linalg.solve(hess, -_GRAD))


def test_the_floor_on_fixed_arms():
    """A fixed arm's block is diagonal; the floor lifts it only under a throttle weight below f / 2."""
    model = DroneModel(build_catalog("hexagon_tilt30_fixed"))
    n = model.geometry.n_arms
    warm = AllocatorState.cold_start(model)
    inp = AllocatorInput(Quaternion.identity(), np.array([0.5, -0.3, 23.0]), np.array([0.1, 0.0, -0.05]))
    hess, grad = assemble_kkt(warm, inp, model, PenaltyWeights())
    i = np.arange(n)
    assert not hess[i, n + i].any()  # no throttle-angle coupling on a fixed arm
    assert allocation._floored(hess, n) is hess

    weights = PenaltyWeights(throttle=1e-7)
    hess, grad = assemble_kkt(warm, inp, model, weights)
    saved = hess.copy()
    matrix = allocation._floored(hess, n)
    assert same_bits(matrix, floored_oracle(hess, n))
    h_uu, h_aa = hess[i, i], hess[n + i, n + i]
    f = 1e-6 * h_aa  # the angle curvature 2 arm_rate / dt^2 is the block's largest entry
    np.testing.assert_allclose(matrix[i, i], f, rtol=1e-12)
    np.testing.assert_allclose(matrix[n + i, n + i] - h_aa, f - h_uu, rtol=1e-6)
    step = np.concatenate(newton_step(hess, grad, n))
    assert same_bits(step, newton_delta_oracle(hess, grad, n))
    assert same_bits(hess, saved)  # newton_step only reads H


def test_solve_vector_is_np_linalg_solve_bit_for_bit(rng):
    """The direct gufunc call gives np.linalg.solve's bits, so a numpy release that changes either shows here."""
    for dim in (1, 3, 8, 14, 18, 20):
        for _ in range(300):
            matrix = rng.normal(size=(dim, dim)) * 10.0 ** rng.integers(-3, 4, size=(dim, 1))
            rhs = rng.normal(size=dim)
            rhs[rng.random(dim) < 0.2] = 0.0
            assert same_bits(allocation.solve_vector(matrix, rhs), np.linalg.solve(matrix, rhs))
    # the inertia solve of the rigid-body step passes a list
    inertia = np.array([[0.03, 0.001, 0.0], [0.001, 0.02, 0.0], [0.0, 0.0, 0.04]])
    torque = [0.0, -0.0, 1e-3]
    assert same_bits(allocation.solve_vector(inertia, torque), np.linalg.solve(inertia, torque))
    assert np.isnan(allocation.solve_vector(np.zeros((3, 3)), np.ones(3))).all()


def test_public_solve_gives_solve_vector_its_bits(rng, monkeypatch):
    """Through np.linalg.solve, as on a numpy without the gufunc under that name, every bit stays."""
    gufuncs = SimpleNamespace(**{name: getattr(_umath_linalg, name) for name in dir(_umath_linalg)
                                 if name != "solve1"})
    public = allocation._solve_vector_from(gufuncs)[0]
    solve, calls = np.linalg.solve, []

    def counted_solve(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    for dim in (1, 3, 8, 18):
        for _ in range(100):
            matrix = rng.normal(size=(dim, dim)) * 10.0 ** rng.integers(-3, 4, size=(dim, 1))
            rhs = rng.normal(size=dim)
            rhs[rng.random(dim) < 0.2] = 0.0
            assert same_bits(public(matrix, rhs), allocation.solve_vector(matrix, rhs))
    inertia = np.array([[0.03, 0.001, 0.0], [0.001, 0.02, 0.0], [0.0, 0.0, 0.04]])
    assert same_bits(public(inertia, [0.0, -0.0, 1e-3]), allocation.solve_vector(inertia, [0.0, -0.0, 1e-3]))
    for singular in (np.zeros((3, 3)), np.ones((18, 18))):
        assert same_bits(public(singular, np.ones(len(singular))), np.full(len(singular), math.nan))
    assert len(calls) == 4 * 100 + 3


def _float_errors() -> None:
    """One divide by zero, one overflow, one invalid operation and one underflow."""
    one, zero = np.array([1.0]), np.array([0.0])
    one / zero, np.array([1e308]) * 10.0, zero / zero, np.array([1e-308]) * 1e-300


def _warnings_of(quiet) -> tuple[list, list]:
    """The messages of the warnings `_float_errors` gives inside a ``quiet()`` scope, and after it."""
    with warnings.catch_warnings(record=True) as inside:
        warnings.simplefilter("always")
        with quiet():
            _float_errors()
    with warnings.catch_warnings(record=True) as after:
        warnings.simplefilter("always")
        _float_errors()
    return [str(w.message) for w in inside], [str(w.message) for w in after]


_ALL_IGNORED = {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}


def test_the_quiet_scope_ignores_every_error_and_gives_the_callers_state_back():
    """One prebuilt scope, the same object on every call; the caller's state comes back however it is left."""
    state = umath._extobj_contextvar
    before, bufsize = state.get(), np.getbufsize()
    scope = allocation._quiet()
    assert scope is allocation._quiet()  # nothing is made per call
    with scope:
        assert np.geterr() == _ALL_IGNORED
        assert np.getbufsize() == bufsize
    assert state.get() is before
    with pytest.raises(SolverError):
        with allocation._quiet():
            raise SolverError("left by an exception")
    assert state.get() is before
    with allocation._quiet():
        inner = allocation._quiet()
        assert inner is not scope  # inside a scope the caller's state is no longer the prebuilt one's
        with inner:
            assert np.geterr() == _ALL_IGNORED
        assert np.geterr() == _ALL_IGNORED
    assert state.get() is before and np.getbufsize() == bufsize


def test_a_caller_in_another_errstate_keeps_its_buffer_size():
    """Under a state of the caller's own the scope is np.errstate, which keeps that state's buffer size."""
    state, bufsize = umath._extobj_contextvar, np.getbufsize()
    with np.errstate(divide="raise"):
        np.setbufsize(4096)
        callers = state.get()
        with allocation._quiet():
            assert np.geterr() == _ALL_IGNORED
            assert np.getbufsize() == 4096
        assert state.get() is callers
        with pytest.raises(FloatingPointError):
            np.array([1.0]) / 0.0
    assert np.getbufsize() == bufsize


def test_the_errstate_fallback_warns_and_stays_silent_as_the_prebuilt_scope():
    """Built from a module without numpy's error-state names, `_quiet` is a fresh np.errstate per call."""
    fallback = allocation._quiet_from(SimpleNamespace())
    assert isinstance(fallback(), np.errstate) and fallback() is not fallback()
    silent, warned = _warnings_of(allocation._quiet)
    assert silent == [] and len(warned) == 3  # numpy ignores underflow by default
    assert _warnings_of(fallback) == (silent, warned)
    with np.errstate(all="raise"):
        for quiet in (allocation._quiet, fallback):
            with quiet():
                _float_errors()
            with pytest.raises(FloatingPointError):
                _float_errors()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from((0.0, -0.0, 1e300, -1e300))),
                max_size=300))
def test_add_reduce_is_np_add_reduce_bit_for_bit(values):
    """Every branch of numpy's pairwise sum: under 8 numbers, up to 128, and halves above."""
    assert same_bits(allocation._add_reduce(values), np.add.reduce(np.array(values, dtype=float)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_step_scale_is_bit_identical_to_the_array_formulas(data):
    edges = (0.0, -0.0, 0.1, -0.1, 0.2, -0.2, np.nextafter(0.1, 1.0), np.nextafter(-0.2, -1.0),
             math.nan)
    entry = st.one_of(st.sampled_from(edges), st.floats(-5.0, 5.0))
    n = data.draw(st.integers(0, 8), label="n_arms")
    du = np.array(data.draw(st.lists(entry, min_size=n, max_size=n), label="d_throttles"))
    da = np.array(data.draw(st.lists(entry, min_size=n, max_size=n), label="d_angles"))
    limits = data.draw(st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)), label="limits")
    expected = step_scale_oracle(du, da, *limits)
    for args in ((du, da), (du.tolist(), da.tolist())):  # the arrays of the API, the lists of the solver
        assert same_bits(step_scale(*args, *limits), expected)


_UP, _DOWN = (lambda v: float(np.nextafter(v, math.inf))), (lambda v: float(np.nextafter(v, -math.inf)))


@pytest.mark.parametrize("du, da", [
    (0.1, 0.2), (-0.1, -0.2), (_UP(0.1), 0.0), (_DOWN(0.1), 0.0), (_UP(-0.1), 0.0),
    (_DOWN(-0.1), 0.0), (0.0, _UP(0.2)), (0.0, _DOWN(0.2)), (0.0, _DOWN(-0.2)), (0.0, _UP(-0.2)),
    (-0.0, -0.0), (0.0, -0.0), (0.3, -0.5), (-0.15, 0.8), (_UP(0.1), _UP(0.2)),
])
def test_the_loops_step_scale_on_exact_bound_ties(monkeypatch, octa_model, du, da):
    """sqp_allocate scales its step as step_scale_oracle does: ties on the bounds, their neighbours,
    signed zeros, and steps past both bounds at once."""
    step = np.array([du, 0.0, -0.0, 0.01, -0.02, 0.0] + [-0.0, da, 0.0, 0.05, -0.0, -0.1]
                    + [0.5, -0.25, 0.0, -0.0, 1e-3, 2.0])
    # the step _newton_delta would return, fed to the loop's own step scale and update
    monkeypatch.setattr(allocation, "_newton_delta", lambda matrix, grad: step.copy())
    warm = AllocatorState.cold_start(octa_model)
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 23.0]), np.zeros(3))
    sol = sqp_allocate(inp, warm, octa_model, settings=SolverSettings(max_iterations=1))
    x0 = np.concatenate((warm.throttles, warm.angles, warm.multipliers))
    expected = x0 + step_scale_oracle(step[:6], step[6:12]) * step
    assert same_bits(np.concatenate((sol.throttles, sol.angles, sol.multipliers)), expected)


def test_step_scale_limits():
    assert step_scale(np.array([0.05]), np.array([0.1])) == 1.0
    assert step_scale(np.array([0.05]), np.array([0.8])) == pytest.approx(0.25)
    assert step_scale(np.array([0.4]), np.array([0.1])) == pytest.approx(0.25)
    # both limits binding: the tighter one wins
    assert step_scale(np.array([1.0]), np.array([0.4])) == pytest.approx(0.1)
    # a NaN anywhere in a step leaves that step's bound unused, as np.abs(step).max() does
    for d_throttles in ([math.nan, 1.0], [1.0, math.nan]):
        assert step_scale(d_throttles, [0.0, 0.0]) == 1.0
        assert step_scale(np.array(d_throttles), np.array([0.0, 0.4])) == 0.5


def test_a_tick_that_cycled_without_the_floor_converges():
    """A warm start and demand of cube_pitch_roll's reference flight, taken where the solve cycled.

    Without the per-arm floor this solve met KKT matrices of the wrong
    inertia (10 of its 30 by eigvalsh) and ran its 30 iterations to a
    wrench residual of 7.5e-3; it is the first of that flight's 30
    non-converged ticks. The weights are the
    defaults: no arm was in transit.
    """
    model = DroneModel(build_catalog("cube_rot"))
    inp = AllocatorInput(
        Quaternion(0.9177023379742185, 5.295693131117133e-17, 0.39726869858655267,
                   -1.258767254222249e-17),
        np.array([-0.5089334455671325, 3.2062517408540584e-15, 23.489362607174915]),
        np.array([-2.762747694970214e-16, 0.003911186427393187, 3.555364272004856e-16]))
    angles = np.array([-0.6025178649066837, -1.0689238698306152, 0.602517864906684,
                       1.0689238698306152, -1.0653092725751436, -0.6026010593805229,
                       1.0653092725751439, 0.6026010593805222])
    warm = AllocatorState(
        np.array([0.38285587475020366, 0.009216517346826084, 0.382855874750206,
                  0.009216517346825501, 0.008381658402271312, 0.3836773938312277,
                  0.008381658402271982, 0.38367739383122523]),
        angles,
        np.array([2.0518096096302494, -4.882187408386111e-15, 2.184798511219037,
                  -3.3817873793895808e-15, 0.00020168252569252926, 4.292545061399158e-15]),
        angles.copy())
    sol = sqp_allocate(inp, warm, model)
    assert sol.converged and sol.iterations < 10
    assert np.linalg.norm(constraint_residual(sol.throttles, sol.angles, inp, model)) < 1e-5


def test_sqp_hover_from_cold_start(octa_model):
    weight = octa_model.mass * octa_model.gravity
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, weight]), np.zeros(3))
    sol = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model)
    assert sol.converged and sol.residual < 1e-5
    # lift splits across the four side arms; vertical-axis arms stay idle
    np.testing.assert_allclose(sol.throttles[:4], weight / (4 * 15.0), atol=1e-4)
    np.testing.assert_allclose(sol.throttles[4:], 0.0, atol=1e-4)
    np.testing.assert_allclose(sol.angles, 0.0, atol=1e-3)
    np.testing.assert_allclose(
        constraint_residual(sol.throttles, sol.angles, inp, octa_model), 0.0, atol=1e-5
    )


def test_sqp_zero_wrench_shuts_down(octa_model):
    inp = AllocatorInput(Quaternion.identity(), np.zeros(3), np.zeros(3))
    sol = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model)
    assert sol.converged
    np.testing.assert_allclose(sol.throttles, 0.0, atol=1e-4)


def test_sqp_solution_is_frame_equivariant(rng, octa_model):
    # two world framings of the same body wrench must allocate identically
    for _ in range(5):
        q = random_quaternion(rng)
        frame = random_quaternion(rng)
        force = rng.normal(0, 6, 3) + np.array([0.0, 0.0, 20.0])
        torque = rng.normal(0, 0.5, 3)
        inp1 = AllocatorInput(q, force, torque)
        inp2 = AllocatorInput(frame * q, frame.rotate(force), frame.rotate(torque))
        np.testing.assert_allclose(inp1.body_wrench(), inp2.body_wrench(), atol=1e-9)
        warm = AllocatorState.cold_start(octa_model)
        sol1 = sqp_allocate(inp1, warm, octa_model)
        sol2 = sqp_allocate(inp2, AllocatorState.cold_start(octa_model), octa_model)
        np.testing.assert_allclose(sol1.throttles, sol2.throttles, atol=1e-7)
        np.testing.assert_allclose(sol1.angles, sol2.angles, atol=1e-7)


def test_sqp_warm_chain_stays_converged(octa_model):
    warm = AllocatorState.cold_start(octa_model)
    iterations = []
    for inp in wrench_chain(octa_model, 400, seed=7):
        sol = sqp_allocate(inp, warm, octa_model)
        assert sol.converged and sol.residual < 1e-5
        iterations.append(sol.iterations)
        warm = sol.next_warm()
    assert np.median(iterations) <= 8
    assert max(iterations) <= 30


@pytest.mark.parametrize("max_iterations", [2.5, 30.0, True, "30"])
def test_solver_settings_take_an_integer_iteration_cap(max_iterations):
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        SolverSettings(max_iterations=max_iterations)
    assert SolverSettings(max_iterations=np.int64(5)).max_iterations == 5


def test_sqp_reports_nonconvergence(octa_model):
    inp = AllocatorInput(Quaternion.identity(), np.array([12.0, -9.0, 30.0]), np.array([0.5, 0.4, -0.3]))
    sol = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model,
                       settings=SolverSettings(max_iterations=1))
    assert not sol.converged and sol.iterations == 1


def test_sqp_rejects_mismatched_warm_arrays(octa_model):
    inp = AllocatorInput(Quaternion.identity(), np.zeros(3), np.zeros(3))
    bad = AllocatorState(np.zeros(4), np.zeros(4), np.zeros(6), np.zeros(4))
    with pytest.raises(ValueError):
        sqp_allocate(inp, bad, octa_model)


def test_integer_weights_solve_like_their_float_values(octa_model):
    # an integer arm-rate weight once made the stacked weights an integer
    # array, which truncated the throttle weights to 0
    inp = AllocatorInput(Quaternion.identity(), np.array([3.0, -2.0, 24.0]), np.array([0.1, 0.0, -0.2]))
    warm = AllocatorState.cold_start(octa_model)
    ints = sqp_allocate(inp, warm, octa_model, PenaltyWeights(throttle=0.5, arm_rate=1, limit=100))
    floats = sqp_allocate(inp, warm, octa_model, PenaltyWeights(throttle=0.5, arm_rate=1.0, limit=100.0))
    assert same_bits(ints.throttles, floats.throttles) and same_bits(ints.angles, floats.angles)


def test_sqp_per_arm_throttle_weights_steer_load(octa_model):
    weight = octa_model.mass * octa_model.gravity
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, weight]), np.zeros(3))
    costly_arm0 = PenaltyWeights(throttle=np.array([50.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    plain = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model)
    skewed = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model, costly_arm0)
    assert skewed.converged
    assert skewed.throttles[0] < 0.25 * plain.throttles[0]


def test_penalty_tables_never_serve_another_weights_object(octa_model, rng):
    """200 short-lived per-arm weights, each solve byte for byte the oracle's with those weights.

    Each weights object is freed before the next is built, so a new one
    often takes a freed one's id; tables cached by id would hand a solve
    another object's throttle weights.
    """
    inp = AllocatorInput(Quaternion.identity(), np.array([3.0, -2.0, 24.0]), np.array([0.1, 0.0, -0.2]))
    warm = AllocatorState.cold_start(octa_model)
    base = PenaltyWeights()
    names = ("throttles", "angles", "multipliers", "iterations", "residual", "objective", "converged")
    for _ in range(200):
        weights = replace(base, throttle=rng.uniform(0.5, 50.0, 6))
        expected = sqp_allocate_oracle(inp, warm, octa_model, weights)
        sol = sqp_allocate(inp, warm, octa_model, weights)
        for name, old in zip(names, expected):
            assert same_bits(getattr(sol, name), old), name
        del weights, sol


def test_penalty_weights_are_frozen_and_keep_their_own_throttle_weights(octa_model):
    """No field can be assigned, and the caller's per-arm array can change without moving a solve."""
    throttle = np.array([50.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    weights = PenaltyWeights(throttle=throttle)
    for name, value in (("limit", 1.0), ("throttle", np.ones(6)), ("arm_rate", 0.5)):
        with pytest.raises(FrozenInstanceError):
            setattr(weights, name, value)
    inp = AllocatorInput(Quaternion.identity(), np.array([3.0, -2.0, 24.0]), np.array([0.1, 0.0, -0.2]))
    warm = AllocatorState.cold_start(octa_model)
    before = sqp_allocate(inp, warm, octa_model, weights)
    throttle[:] = 1.0
    assert weights.throttle.tolist() == [50.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        weights.throttle[0] = 1.0  # a read-only copy
    after = sqp_allocate(inp, warm, octa_model, weights)
    for name in ("throttles", "angles", "multipliers", "objective"):
        assert same_bits(getattr(after, name), getattr(before, name)), name


def test_next_warm_copies_arrays(octa_model):
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 20.0]), np.zeros(3))
    sol = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model)
    warm = sol.next_warm()
    np.testing.assert_array_equal(warm.prev_angles, sol.angles)  # rates restart at zero
    # a supervisor may nudge the warm point; the recorded solution must not follow
    saved_angles = sol.angles.copy()
    saved_throttles = sol.throttles.copy()
    warm.angles += 1.0
    warm.throttles += 1.0
    warm.prev_angles += 1.0
    np.testing.assert_array_equal(sol.angles, saved_angles)
    np.testing.assert_array_equal(sol.throttles, saved_throttles)


def _without_record(state: AllocatorState) -> AllocatorState:
    """A copy of ``state`` that carries no handed-on evaluation."""
    return AllocatorState(state.throttles.copy(), state.angles.copy(), state.multipliers.copy(),
                          state.prev_angles.copy())


def _same_solutions(a, b) -> bool:
    return all(same_bits(getattr(a, name), getattr(b, name)) for name in
               ("throttles", "angles", "multipliers", "iterations", "residual", "objective", "converged"))


def _count_reuses(monkeypatch) -> list:
    """Patch `_evaluate_at_rest` to count its calls; returns the one-entry counter."""
    count, at_rest = [0], allocation._evaluate_at_rest

    def counted(*args):
        count[0] += 1
        return at_rest(*args)
    monkeypatch.setattr(allocation, "_evaluate_at_rest", counted)
    return count


REUSE_LAYOUTS = ["octahedron_rot", "cube_rot", "hexagon_tilt30_fixed"]  # 6 arms, 8 (pairwise sums), fixed


@pytest.mark.parametrize("config_id", REUSE_LAYOUTS)
def test_a_handed_on_evaluation_gives_the_bits_of_evaluating_the_warm_start(config_id, monkeypatch):
    """A warm chain through next_warm solves as the same chain with every record dropped, bit for bit.

    Every solve after the first takes its first evaluation from the
    record, so the comparison covers the reuse on each of them.
    """
    model = DroneModel(build_catalog(config_id))
    reuses = _count_reuses(monkeypatch)
    handed = dropped = AllocatorState.cold_start(model)
    chain = wrench_chain(model, 500, seed=23)
    for k, inp in enumerate(chain):
        with_record = sqp_allocate(inp, handed, model)
        assert reuses[0] == k
        without = sqp_allocate(inp, _without_record(dropped), model)
        assert reuses[0] == k
        assert _same_solutions(with_record, without), k
        handed, dropped = with_record.next_warm(), without.next_warm()
    assert reuses[0] == len(chain) - 1


def _handed_at(state: AllocatorState, inp: AllocatorInput, model) -> AllocatorState:
    """The next_warm state of a solve that ended at ``state``'s iterate, its evaluation handed on."""
    x = np.concatenate((state.throttles, state.angles, state.multipliers))
    it = allocation._evaluate(x, x.tolist(), state.prev_angles.tolist(), inp.body_wrench(), model,
                              allocation._penalized(allocation._DEFAULT_WEIGHTS, model.geometry.n_arms))
    solution = allocation.AllocatorSolution(state.throttles, state.angles, state.multipliers, 1, 0.0,
                                            it.objective, True)
    solution._evaluated = (it, model)
    return solution.next_warm()


def _move_one_angle(warm):
    warm.angles[1] += 1e-3  # as the supervisor's advance moves an arm in transit
    warm.prev_angles[1] += 1e-3


def _change_one_throttle(warm):
    warm.throttles[0] += 1e-3


def _change_one_prev_angle(warm):
    warm.prev_angles[2] -= 1e-3


def _negate_a_zero_angle(warm):
    assert same_bits(warm.angles[0], 0.0)
    warm.angles[0] = -0.0


@pytest.mark.parametrize("config_id", REUSE_LAYOUTS)
@pytest.mark.parametrize("change", [_move_one_angle, _change_one_throttle, _change_one_prev_angle,
                                    _negate_a_zero_angle, None],
                         ids=["angle", "throttle", "prev_angle", "negative_zero", "new_weights"])
def test_a_changed_warm_state_is_evaluated_afresh(config_id, change, monkeypatch):
    """A next_warm state changed before its solve gives the bits of the same state with no record.

    Each change, or a new weights object equal to the default, voids the
    record, so the solve must not take its evaluation from it. The record
    is of an iterate with arm 0 at +0.0, whose wrench pair differs from
    -0.0's in signed zeros.
    """
    model = DroneModel(build_catalog(config_id))
    chain = wrench_chain(model, 30, seed=29)
    warm = AllocatorState.cold_start(model)
    for inp in chain[:-1]:
        warm = sqp_allocate(inp, warm, model).next_warm()
    warm.angles[0] = warm.prev_angles[0] = 0.0
    warm = _handed_at(warm, chain[-2], model)
    weights = None
    if change is None:
        weights = PenaltyWeights()
    else:
        change(warm)
    reuses = _count_reuses(monkeypatch)
    expected = sqp_allocate(chain[-1], _without_record(warm), model, weights)
    assert _same_solutions(sqp_allocate(chain[-1], warm, model, weights), expected)
    assert reuses[0] == 0
    # unchanged, the state takes the record
    untouched = _handed_at(_without_record(warm), chain[-2], model)
    assert _same_solutions(sqp_allocate(chain[-1], untouched, model), sqp_allocate(
        chain[-1], _without_record(untouched), model))
    assert reuses[0] == 1


def test_solves_without_weights_build_their_penalty_tables_once(octa_model, monkeypatch):
    built, penalty_tables = [0], allocation._penalty_tables

    def counted(*args):
        built[0] += 1
        return penalty_tables(*args)
    monkeypatch.setattr(allocation, "_penalty_tables", counted)
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 20.0]), np.zeros(3))
    for _ in range(2):
        sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model)
    assert built[0] <= 1


def test_the_warm_start_record_is_no_field():
    assert [f.name for f in fields(AllocatorState)] == ["throttles", "angles", "multipliers",
                                                          "prev_angles"]
    assert [f.name for f in fields(allocation.AllocatorSolution)] == [
        "throttles", "angles", "multipliers", "iterations", "residual", "objective", "converged"]


def test_wrap_angle():
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)  # half-open interval
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    np.testing.assert_allclose(wrap_angle(np.array([3 * math.pi, -3 * math.pi, 2 * math.pi])),
                               [-math.pi, -math.pi, 0.0], atol=1e-12)
    x = np.linspace(-20.0, 20.0, 101)
    w = wrap_angle(x)
    assert np.all((w >= -math.pi) & (w < math.pi))
    np.testing.assert_allclose(np.sin(w), np.sin(x), atol=1e-12)


def test_vectored_thrust_matrix_columns(octa_model):
    matrix = vectored_thrust_matrix(octa_model)
    assert matrix.shape == (6, 12)
    for i, arm in enumerate(octa_model.geometry.arms):
        at_zero = arm_wrench(arm, 1.0, 0.0, 15.0, 0.18)
        at_quarter = arm_wrench(arm, 1.0, math.pi / 2, 15.0, 0.18)
        np.testing.assert_allclose(matrix[:, 2 * i], np.concatenate([at_zero.force, at_zero.torque]), atol=1e-12)
        np.testing.assert_allclose(matrix[:, 2 * i + 1], np.concatenate([at_quarter.force, at_quarter.torque]), atol=1e-12)


def test_vectored_thrust_matrix_needs_rotating_arms():
    model = DroneModel(build_catalog("hexagon_tilt30_fixed"))
    with pytest.raises(SolverError):
        vectored_thrust_matrix(model)
    with pytest.raises(SolverError):
        pinv_allocate(AllocatorInput(Quaternion.identity(), np.zeros(3), np.zeros(3)), model)


def test_pinv_rejects_a_rank_deficient_layout_on_every_call():
    # four rotating arms sharing one endpoint and one axis span a single plane
    axis = np.array([1.0, 0.0, 0.0])
    arms = [Arm(0.2 * axis, axis, np.array([0.0, 0.0, 1.0]), spin, ROTATING) for spin in (1, -1, 1, -1)]
    model = DroneModel(DroneGeometry(arms))  # no rank check at construction
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 10.0]), np.zeros(3))
    for _ in range(2):
        with pytest.raises(SolverError, match="rank deficient"):
            pinv_allocate(inp, model)
    hess, grad = assemble_kkt(AllocatorState.cold_start(model), inp, model, PenaltyWeights())
    assert np.all(np.isfinite(hess)) and np.all(np.isfinite(grad))


@settings(max_examples=80, derandomize=True, deadline=None, phases=_FAIL_FAST)
@given(
    arms=st.lists(_custom_arm(kinds=(ROTATING,)), min_size=3, max_size=8),
    tau=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_pinv_reproduces_every_demand_on_full_rank_custom_layouts(arms, tau, data):
    """The cached pseudoinverse gives lstsq's minimum-norm coordinates and exact wrenches."""
    model = DroneModel(DroneGeometry(arms), torque_constant=tau)
    matrix = vectored_thrust_matrix(model)
    assume(np.linalg.cond(matrix) < 1e3)  # full rank with room to spare
    q = Quaternion(*data.draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda c: np.linalg.norm(c) > 0.1)))
    inp = AllocatorInput(q, 30.0 * data.draw(_vector), 3.0 * data.draw(_vector))
    demand = inp.body_wrench()
    assume(np.linalg.norm(demand) > 1e-3)

    sol = pinv_allocate(inp, model)
    produced = sol.throttles @ model.unit_wrenches(sol.angles)[0]
    assert np.linalg.norm(produced - demand) <= 1e-9 * np.linalg.norm(demand)
    coords = np.column_stack([sol.throttles * np.cos(sol.angles),
                              sol.throttles * np.sin(sol.angles)]).ravel()
    least_norm = np.linalg.lstsq(matrix, demand, rcond=None)[0]
    np.testing.assert_allclose(coords, least_norm, rtol=0.0,
                               atol=1e-12 * max(1.0, np.max(np.abs(least_norm))))


@st.composite
def _mixed_layout(draw):
    """A custom layout with at least one rotating and one fixed arm, in any order."""
    arms = [draw(_custom_arm(kinds=(ROTATING,))),
            draw(_custom_arm(kinds=(FIXED_UNIDIRECTIONAL, FIXED_BIDIRECTIONAL)))]
    arms += draw(st.lists(_custom_arm(), min_size=2, max_size=6))
    return DroneGeometry(draw(st.permutations(arms)))


_layouts = st.one_of(st.sampled_from(CATALOG_IDS).map(build_catalog), _mixed_layout())


@st.composite
def _allocation_problem(draw):
    """A model, weights, demand and warm state with values on the penalty band edges."""
    geometry = draw(_layouts, label="geometry")
    # over a period of 2**-8 s, rates drawn from rest read back exactly
    period = draw(st.sampled_from((0.005, 2.0**-8)), label="control_period")
    model = DroneModel(geometry, control_period=period)
    n = geometry.n_arms
    low = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)), label="throttle_low")
    high = low + draw(st.floats(0.01, 2.0), label="band")
    per_arm = st.lists(st.floats(0.1, 60.0), min_size=n, max_size=n).map(np.array)
    weights = PenaltyWeights(
        throttle=draw(st.one_of(st.just(1.0), st.floats(0.1, 60.0), per_arm), label="throttle"),
        arm_rate=draw(st.floats(1e-3, 1.0), label="arm_rate"),
        limit=draw(st.floats(1.0, 1e3), label="limit"),
        throttle_low=low,
        throttle_high=high,
        rate_limit=draw(st.floats(0.1, 20.0), label="rate_limit"),
    )

    def values(edges, lo, hi, label, size=n):
        one = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
        return np.array(draw(st.lists(one, min_size=size, max_size=size), label=label), dtype=float)

    u = values((low, high, np.nextafter(low, -np.inf), np.nextafter(high, np.inf), 0.0, -0.0),
               low - 1.0, high + 1.0, "throttles")
    rate_limit = weights.rate_limit
    rates = values((rate_limit, -rate_limit, 0.0, -0.0), -3.0 * rate_limit, 3.0 * rate_limit, "rates")
    if draw(st.booleans(), label="from_rest"):
        prev = np.zeros(n)
        a = rates * period
    else:
        a = values((0.0, -0.0, math.pi / 2), -10.0, 10.0, "angles")
        prev = a - rates * period
    lam = values((0.0, -0.0), -5.0, 5.0, "multipliers", size=6)
    hover = model.mass * model.gravity
    half_turn, axis = draw(_angle, label="half_turn"), draw(_unit, label="axis")
    orientation = Quaternion(math.cos(half_turn), *(math.sin(half_turn) * axis))
    force = np.array([0.0, 0.0, hover]) + np.array(draw(
        st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3), label="force"))
    torque = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), label="torque"))
    return model, weights, AllocatorInput(orientation, force, torque), AllocatorState(u, a, lam, prev)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # hopeless draws, as before
@settings(max_examples=150, derandomize=True, deadline=None, phases=_FAIL_FAST)
@given(problem=_allocation_problem())
def test_newton_iterate_is_bit_identical_to_the_array_formulas(problem):
    """Evaluation, KKT assembly, Newton step and step scale against the array oracles, byte for byte.

    Catalog layouts and custom ones mixing fixed and rotating arms, per-arm
    throttle weights, throttles on the band edges and their neighbours,
    rates on +-rate_limit and signed zeros everywhere.
    """
    model, weights, inp, warm = problem
    n = model.geometry.n_arms
    x = np.concatenate((warm.throttles, warm.angles, warm.multipliers))
    body_wrench = inp.body_wrench()
    it = allocation._evaluate(x, x.tolist(), warm.prev_angles.tolist(), body_wrench, model,
                              allocation._penalized(weights, n))
    old = evaluate_oracle(x, warm.prev_angles, body_wrench, model, weights)
    ours = {"wrench": it.pair[:n], "d_wrench": it.pair[n:], "residual": it.residual,
            "objective": it.objective}
    for name in ("wrench", "d_wrench", "residual", "objective"):
        assert same_bits(ours[name], old[name]), name
    assert same_bits(model.wrenches_at(warm.angles), old["wrench"])
    assert same_bits(constraint_residual(warm.throttles, warm.angles, inp, model), old["residual"])

    # the exact Jacobian of assemble_kkt, and the floored one sqp_allocate assembles
    old_hess, old_grad = assemble_oracle(x, old, model)
    hess, grad = assemble_kkt(warm, inp, model, weights)
    assert same_bits(hess, old_hess) and same_bits(grad, old_grad)
    floored, floored_grad = allocation._assemble(it, allocation._arm_pass(x, it, model), model)
    assert same_bits(floored, floored_oracle(old_hess, n)) and same_bits(floored_grad, old_grad)

    expected = newton_delta_oracle(old_hess, old_grad, n)
    if expected is None:
        with pytest.raises(SolverError):
            newton_step(hess, grad, n)
        return
    delta = np.concatenate(newton_step(hess, grad, n))
    assert same_bits(delta, expected)
    step = delta.tolist()
    assert same_bits(step_scale(step[:n], step[n: 2 * n]),
                     step_scale_oracle(expected[:n], expected[n: 2 * n]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None, phases=_FAIL_FAST)
@given(problem=_allocation_problem())
def test_sqp_allocate_is_bit_identical_to_the_array_formulas(problem):
    """Whole solves, iteration counts and stopping tests included, against the oracle loop."""
    model, weights, inp, warm = problem
    expected = sqp_allocate_oracle(inp, warm, model, weights)
    if expected is None:
        with pytest.raises(SolverError):
            sqp_allocate(inp, warm, model, weights)
        return
    sol = sqp_allocate(inp, warm, model, weights)
    ours = (sol.throttles, sol.angles, sol.multipliers, sol.iterations, sol.residual,
            sol.objective, sol.converged)
    for name, value, old in zip(("throttles", "angles", "multipliers", "iterations", "residual",
                                 "objective", "converged"), ours, expected):
        assert same_bits(value, old), name


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None, phases=_FAIL_FAST)
@given(problem=_allocation_problem())
def test_the_stationarity_exit_never_adds_an_iteration(problem):
    """A solve takes no more iterations than the oracle loop without the exit, on the same warm start.

    The two follow the same iterates until the exit fires, so a solve the
    oracle ends has ended by then, and one that raises SolverError raises
    it where the oracle gives none.
    """
    model, weights, inp, warm = problem
    expected = sqp_allocate_oracle(inp, warm, model, weights, tol_stationarity=None)
    try:
        sol = sqp_allocate(inp, warm, model, weights)
    except SolverError:
        assert expected is None
        return
    if expected is not None:
        assert sol.iterations <= expected[3]
        assert sol.converged or not expected[6]
        if sol.iterations == expected[3]:
            assert same_bits(np.concatenate((sol.throttles, sol.angles, sol.multipliers)),
                             np.concatenate(expected[:3]))


def _chain_exits(model, n_steps: int):
    """Each solve of a warm-started demand chain, with its warm start, input and how it stopped.

    A converged solve whose objective test fails ended through the
    stationarity exit. The test is taken as sqp_allocate takes it, on the
    objectives of the last iterate and of the one before it: the same solve
    stopped one iteration earlier, or the warm start for a one-step solve.
    """
    warm = AllocatorState.cold_start(model)
    weights = PenaltyWeights()
    for inp in wrench_chain(model, n_steps, seed=11):
        sol = sqp_allocate(inp, warm, model)
        if sol.iterations > 1:
            before = sqp_allocate(inp, warm, model,
                                  settings=SolverSettings(max_iterations=sol.iterations - 1)).objective
        else:
            before = allocation_objective(warm.throttles, warm.angles, warm.prev_angles,
                                          model.control_period, weights)
        objective_test = abs(sol.objective - before) / max(sol.objective, 1e-9) < 1e-4
        yield warm, inp, sol, sol.converged and not objective_test
        warm = sol.next_warm()


@pytest.mark.parametrize("config_id", ["octahedron_rot", "hexagon_tilt30_fixed"])
def test_a_solve_ends_through_the_stationarity_exit_only_at_a_stationary_point(config_id):
    """Every solve the exit ends has a primal-row norm of assemble_kkt's K under the tolerance.

    On fixed arms the constraints are linear in the throttles, so one
    Newton step lands on the KKT point; the objective test needs a second
    iterate to see it, the exit does not.
    """
    model = DroneModel(build_catalog(config_id))
    n = model.geometry.n_arms
    tol = allocation._TOL_STATIONARITY
    exits = one_step = 0
    for warm, inp, sol, exited in _chain_exits(model, 400):
        assert sol.converged and sol.residual < 1e-5
        one_step += sol.iterations == 1
        if exited:
            exits += 1
            state = AllocatorState(sol.throttles, sol.angles, sol.multipliers, warm.prev_angles)
            _, grad = assemble_kkt(state, inp, model, PenaltyWeights())
            assert np.linalg.norm(grad[:2 * n]) < tol
    assert exits >= 40  # the exit ends a share of the chain's solves, not a stray few
    if config_id == "hexagon_tilt30_fixed":
        assert one_step >= 0.95 * 400


def test_a_handed_on_gradient_belongs_to_the_iterate_it_is_used_at(octa_model, monkeypatch):
    """Tolerances that never stop a solve never move its iterates.

    From a cold start this demand's residual falls to 0.0197 at iteration
    7 and rises to 0.0263 at iteration 8. With tol_constraint at 0.022
    and the other tolerances too tight to pass, the loop takes iterate 7's
    gradient for the exit test and hands it to the next assembly, then
    meets an iterate whose residual fails; each assembly must still read
    its own iterate's gradient, so the iterates are those of the solve
    whose residual never passes.
    """
    inp = AllocatorInput(Quaternion.identity(), np.array([4.816, 0.578, 24.726]),
                         np.array([0.488, 0.937, 0.219]))
    warm = AllocatorState.cold_start(octa_model)
    monkeypatch.setattr(allocation, "_TOL_STATIONARITY", 5e-324)
    tight = dict(tol_objective=5e-324, max_iterations=10)
    residuals = [sqp_allocate(inp, warm, octa_model, settings=SolverSettings(
        tol_constraint=5e-324, **{**tight, "max_iterations": k})).residual for k in (7, 8)]
    assert residuals[0] < 0.022 < residuals[1]
    sols = [sqp_allocate(inp, warm, octa_model, settings=SolverSettings(tol_constraint=tol, **tight))
            for tol in (0.022, 5e-324)]
    assert not any(sol.converged for sol in sols)
    assert same_bits(*(np.concatenate((sol.throttles, sol.angles, sol.multipliers)) for sol in sols))


@settings(max_examples=150, derandomize=True, deadline=None, phases=_FAIL_FAST)
@given(problem=_allocation_problem())
def test_the_floored_matrix_has_the_inertia_of_a_step_to_a_minimum(problem):
    """Where J has rank 6, the matrix the step solves has 2n positive and 6 negative eigenvalues.

    Every arm's block that is already above its floor keeps its bits, and
    nothing off the primal diagonal moves. The one pass over the arms that
    sqp_allocate assembles from gives that matrix and assemble_kkt's K,
    byte for byte, lifted blocks included.
    """
    model, weights, inp, warm = problem
    n = model.geometry.n_arms
    hess, grad = assemble_kkt(warm, inp, model, weights)
    matrix = allocation._floored(hess, n)
    assert same_bits(matrix, floored_oracle(hess, n))
    x = np.concatenate((warm.throttles, warm.angles, warm.multipliers))
    it = allocation._evaluate(x, x.tolist(), warm.prev_angles.tolist(), inp.body_wrench(), model,
                              allocation._penalized(weights, n))
    one_pass, one_pass_grad = allocation._assemble(it, allocation._arm_pass(x, it, model), model)
    assert same_bits(one_pass, matrix) and same_bits(one_pass_grad, grad)
    i = np.arange(n)
    a, c, b = hess[i, i], hess[n + i, n + i], hess[i, n + i]
    f = 1e-6 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(c)))
    above = (a - f > 0.0) & ((a - f) * (c - f) > b * b)
    lifted = np.concatenate((~above, ~above, np.zeros(6, dtype=bool)))
    assert same_bits(np.diag(matrix)[~lifted], np.diag(hess)[~lifted])
    off_diagonal = ~np.eye(2 * n + 6, dtype=bool)
    assert same_bits(matrix[off_diagonal], hess[off_diagonal])
    # the lifted blocks sit on their floor, to rounding
    for arm in np.nonzero(~above)[0]:
        block = matrix[np.ix_([arm, n + arm], [arm, n + arm])]
        assert np.linalg.eigvalsh(block).min() >= f[arm] * (1.0 - 1e-6)

    # the matrix is [[D, J^T], [J, 0]], the form the count below rests on
    jacobian = matrix[2 * n:, :2 * n]
    assert same_bits(matrix[:2 * n, 2 * n:], jacobian.T)
    assert not matrix[2 * n:, 2 * n:].any()
    if np.linalg.matrix_rank(jacobian) == 6:
        # Haynsworth: In(M) = In(D) + In(-J D^-1 J^T) for the primal block D,
        # and J D^-1 J^T is positive definite when D is and J has rank 6, so M
        # has 2n positive and 6 negative eigenvalues exactly when D is
        # positive definite. M's own negative eigenvalues are about
        # -sigma_min(J D^-1/2)^2, below eigvalsh's rounding where J is near
        # rank 5, so their signs are counted through D
        primal = np.linalg.eigvalsh(matrix[:2 * n, :2 * n])
        assert np.sum(primal > 0.0) == 2 * n


def test_pinv_builds_its_matrix_once_per_model(monkeypatch):
    model = DroneModel(build_catalog("tetrahedron_rot"))
    calls = []

    def counted(m):
        calls.append(m)
        return vectored_thrust_matrix(m)

    monkeypatch.setattr(allocation, "vectored_thrust_matrix", counted)
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 23.0]), np.zeros(3))
    first = pinv_allocate(inp, model)
    second = pinv_allocate(inp, model)
    assert len(calls) == 1
    np.testing.assert_array_equal(first.throttles, second.throttles)


def test_pinv_allocates_exactly(rng, octa_model):
    for _ in range(20):
        inp = AllocatorInput(random_quaternion(rng), rng.normal(0, 10, 3), rng.normal(0, 1, 3))
        sol = pinv_allocate(inp, octa_model)
        assert sol.converged and sol.iterations == 1
        np.testing.assert_allclose(
            constraint_residual(sol.throttles, sol.angles, inp, octa_model), 0.0, atol=1e-9
        )
        assert np.all(sol.throttles >= 0.0)
        assert sol.objective == pytest.approx(float(np.sum(sol.throttles**2)))


@pytest.mark.parametrize("config_id", [c for c in CATALOG_IDS if c != "hexagon_tilt30_fixed"])
def test_least_norm_allocation_is_the_array_formulas_bit_for_bit(config_id, rng):
    """Float norms, unwrap and zero-throttle test against the first array formulas.

    Demands run from zero through 1e-11 (every arm under the 1e-9 zero
    throttle, or only some) to full scale; previous angles are absent, one
    angle for every arm, many turns away, signed zeros, or not finite.
    """
    model = DroneModel(build_catalog(config_id))
    n = model.geometry.n_arms
    unloaded = 0
    for case in range(300):
        scale = 0.0 if case % 25 == 0 else 10.0 ** rng.uniform(-11.0, 2.0)
        body_wrench = scale * rng.normal(size=6)
        prev = None
        if case % 3:
            prev = rng.uniform(-20.0, 20.0, n) * 10.0 ** rng.integers(0, 5)
            prev[rng.integers(n)] = rng.choice([0.0, -0.0, math.pi, -math.pi, math.nan, math.inf])
            if case % 10 == 1:
                prev = float(prev[0])  # one angle for every arm, broadcast as numpy does
        throttles, angles = allocation.least_norm_allocation(body_wrench, model, prev)
        with np.errstate(invalid="ignore"):  # numpy's remainder of an infinite angle
            expected_throttles, expected_angles = least_norm_allocation_oracle(body_wrench, model,
                                                                               prev)
        assert same_bits(throttles, expected_throttles) and same_bits(angles, expected_angles), case
        unloaded += int(np.sum(expected_throttles <= 1e-9))
    assert unloaded > 50  # the zero-throttle branch ran


def test_least_norm_allocation_takes_one_previous_angle_per_arm(octa_model):
    body_wrench = np.array([0.0, 0.0, 23.0, 0.0, 0.0, 0.0])
    for prev in (np.zeros(5), np.zeros(7), np.zeros((6, 1))):
        with pytest.raises(ValueError):
            allocation.least_norm_allocation(body_wrench, octa_model, prev)


def test_pinv_unwraps_to_previous_angle(octa_model):
    inp = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 23.0]), np.zeros(3))
    prev = np.full(6, 10.0)  # many turns accumulated
    sol = pinv_allocate(inp, octa_model, prev_angles=prev)
    loaded = sol.throttles > 1e-9
    assert np.all(np.abs(sol.angles[loaded] - 10.0) <= math.pi + 1e-12)
    # unloaded arms have no defined direction and must not move
    np.testing.assert_array_equal(sol.angles[~loaded], prev[~loaded])


def test_pinv_without_history_wraps_near_zero(octa_model):
    inp = AllocatorInput(Quaternion.identity(), np.array([4.0, 0.0, 22.0]), np.zeros(3))
    sol = pinv_allocate(inp, octa_model)
    assert np.all(np.abs(sol.angles) <= math.pi)


def test_pinv_flips_where_sqp_stays_continuous(octa_model):
    """Drive one arm's demand through its singular direction.

    The linear route recovers each angle through atan2, so when the demanded
    plane coordinates change sign the command jumps by about half a turn.
    The Newton route started from the same history moves by a small step.
    """
    prev = None
    warm = AllocatorState.cold_start(octa_model)
    pinv_jump = 0.0
    sqp_jump = 0.0
    weight = octa_model.mass * octa_model.gravity
    for fx in np.linspace(4.0, -4.0, 81):  # sweep lateral force through zero
        inp = AllocatorInput(Quaternion.identity(), np.array([fx, 0.0, weight]), np.zeros(3))
        lin = pinv_allocate(inp, octa_model, prev_angles=prev)
        sol = sqp_allocate(inp, warm, octa_model)
        assert sol.converged
        if prev is not None:
            pinv_jump = max(pinv_jump, float(np.max(np.abs(lin.angles - prev))))
            sqp_jump = max(sqp_jump, float(np.max(np.abs(sol.angles - warm.angles))))
        prev = lin.angles
        warm = sol.next_warm()
    assert pinv_jump > math.pi / 2
    assert sqp_jump < 0.3
