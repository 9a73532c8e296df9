"""Allocator internals: derivatives, KKT assembly, Newton steps, both solve routes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from helpers import (
    arm_wrench,
    assemble_oracle,
    evaluate_oracle,
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
from rotorarm.allocation import penalty_arm_rate, penalty_throttle, step_scale
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


def test_penalty_throttle_shape_and_derivatives():
    w = PenaltyWeights()
    u = np.array([-0.2, 0.0, 0.3, 1.0, 1.25])
    p, dp, ddp = penalty_throttle(u, w)
    np.testing.assert_allclose(p[2], 0.09, atol=1e-12)  # plain quadratic inside the band
    assert p[0] == pytest.approx(0.04 + 100.0 * 0.04)
    assert p[4] == pytest.approx(1.25**2 + 100.0 * 0.0625)
    for x in (-0.2, 0.3, 1.25):  # away from the kinks the derivatives are smooth
        fd_p = (penalty_throttle(x + FD_H, w)[0] - penalty_throttle(x - FD_H, w)[0]) / (2 * FD_H)
        fd_dp = (penalty_throttle(x + FD_H, w)[1] - penalty_throttle(x - FD_H, w)[1]) / (2 * FD_H)
        assert rel_error(penalty_throttle(x, w)[1], fd_p) < 1e-8
        assert rel_error(penalty_throttle(x, w)[2], fd_dp) < 1e-6
    # first derivative stays continuous across the limit
    left = penalty_throttle(1.0 - 1e-9, w)[1]
    right = penalty_throttle(1.0 + 1e-9, w)[1]
    assert abs(left - right) < 1e-6


def test_penalty_arm_rate_shape_and_derivatives():
    w = PenaltyWeights()
    limit = w.rate_limit
    assert penalty_arm_rate(0.5 * limit, w)[0] == pytest.approx(w.arm_rate * 0.25 * limit**2)
    over = penalty_arm_rate(limit + 1.0, w)[0]
    assert over == pytest.approx(w.arm_rate * (limit + 1.0) ** 2 + w.limit)
    for x in (-9.0, -2.0, 1.5, 8.0):
        fd_p = (penalty_arm_rate(x + FD_H, w)[0] - penalty_arm_rate(x - FD_H, w)[0]) / (2 * FD_H)
        fd_dp = (penalty_arm_rate(x + FD_H, w)[1] - penalty_arm_rate(x - FD_H, w)[1]) / (2 * FD_H)
        assert rel_error(penalty_arm_rate(x, w)[1], fd_p) < 1e-8
        assert rel_error(penalty_arm_rate(x, w)[2], fd_dp) < 1e-6


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

    for ours, old in zip(penalty_throttle(u, weights), old_u):
        assert _bits(ours) == _bits(old)
    p, dp, ddp = penalty_arm_rate(rate, weights)
    assert _bits(p) == _bits(regrouped)
    assert _bits(dp) == _bits(old_rate[1]) and _bits(ddp) == _bits(old_rate[2])

    # the stacked pass over [throttles; rates] that every Newton iterate runs
    p, dp, ddp = allocation._penalty(np.concatenate((u, rate)).tolist(),
                                     *allocation._penalized(weights, n))
    assert _bits(p) == _bits(np.concatenate((old_u[0], regrouped)))
    assert _bits(dp) == _bits(np.concatenate((old_u[1], old_rate[1])))
    assert _bits(ddp) == _bits(np.concatenate((old_u[2], old_rate[2])))


def test_allocation_objective_is_the_penalty_sum(rng):
    w = PenaltyWeights()
    u = rng.uniform(0.0, 1.0, 6)
    a = rng.uniform(-1.0, 1.0, 6)
    prev = a - rng.uniform(-0.01, 0.01, 6)
    dt = 0.005
    expected = np.sum(penalty_throttle(u, w)[0]) + np.sum(penalty_arm_rate((a - prev) / dt, w)[0])
    assert allocation_objective(u, a, prev, dt, w) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        allocation_objective(u, a, prev, 0.0, w)


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
        newton_step(np.zeros((8, 8)), grad, 1)  # constraint rows stay singular at every regularization
    with pytest.raises(SolverError):
        newton_step(1e-320 * np.eye(8), grad, 1)  # subnormal constraint pivots: every rung's step overflows


@pytest.mark.filterwarnings("error")
def test_newton_step_breaks_down_and_recovers_without_warnings():
    # the subnormal case reaches the non-finite-step guard on every rung
    with pytest.raises(SolverError):
        newton_step(1e-320 * np.eye(8), np.ones(8), 1)
    # four arms, constraints on the first six primal variables only: the
    # last two rows are zero, so rung 0 is exactly singular and rung 1e-8
    # recovers the step
    n_arms = 4
    hess = np.zeros((14, 14))
    hess[8:, :6] = np.eye(6)
    hess[:6, 8:] = np.eye(6)
    grad = np.linspace(-1.0, 1.0, 14)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hess, -grad)
    expected = newton_delta_oracle(hess, grad, n_arms)
    assert expected is not None and np.linalg.norm(expected[6:8]) > 1e7  # the 1e-8 rung
    assert same_bits(np.concatenate(newton_step(hess, grad, n_arms)), expected)


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
    public = allocation._solve_vector_from(gufuncs)
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


def test_public_lstsq_gives_lstsq_column_its_bits(rng):
    public = allocation._lstsq_column_from(SimpleNamespace())
    for n_cols in (3, 6, 8, 12, 24):
        for _ in range(100):
            matrix = rng.normal(size=(6, n_cols))
            if n_cols > 6 and rng.random() < 0.3:
                matrix[:, -1] = matrix[:, 0]  # a repeated column: rank below full
            column = rng.normal(size=(6, 1))
            cutoff = np.finfo(float).eps * max(matrix.shape)
            assert same_bits(public(matrix, column, cutoff), allocation.lstsq_column(matrix, column, cutoff))


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


def test_sqp_reports_nonconvergence(octa_model):
    inp = AllocatorInput(Quaternion.identity(), np.array([12.0, -9.0, 30.0]), np.array([0.5, 0.4, -0.3]))
    sol = sqp_allocate(inp, AllocatorState.cold_start(octa_model), octa_model, max_iterations=1)
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
    for name in ("wrench", "d_wrench", "residual", "objective", "dp", "ddp"):
        assert same_bits(getattr(it, name), old[name]), name
    assert same_bits(model.wrenches_at(warm.angles), old["wrench"])
    assert same_bits(constraint_residual(warm.throttles, warm.angles, inp, model), old["residual"])

    hess, grad = allocation._assemble(x, it, model)
    old_hess, old_grad = assemble_oracle(x, old, model)
    assert same_bits(hess, old_hess) and same_bits(grad, old_grad)
    public = assemble_kkt(warm, inp, model, weights)
    assert same_bits(public[0], old_hess) and same_bits(public[1], old_grad)

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
