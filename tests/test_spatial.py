"""Quaternion algebra against an independent Rodrigues-matrix oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    axis_angle_oracle,
    central_diff,
    conjugate_oracle,
    integrate_orientation_oracle,
    normalized_oracle,
    orientation_error_oracle,
    product_oracle,
    quat_distance,
    random_quaternion,
    random_unit,
    rodrigues,
    rotation_matrix_oracle,
    same_bits,
)
from rotorarm import Quaternion, integrate_orientation, normalize, orientation_error


def test_normalize(rng):
    for _ in range(20):
        v = rng.normal(size=3) * 10.0
        n = normalize(v)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.cross(n, v), 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        normalize(np.zeros(3))


def test_quaternion_renormalizes_on_construction():
    q = Quaternion(2.0, 0.0, 0.0, 0.0)
    assert np.allclose(q.wxyz, [1.0, 0.0, 0.0, 0.0])
    q = Quaternion(3.0, 4.0, 0.0, 0.0)
    assert np.linalg.norm(q.wxyz) == pytest.approx(1.0, abs=1e-15)
    assert not q.wxyz.flags.writeable
    matrix = q.to_matrix()
    assert not matrix.flags.writeable and not matrix.base.flags.writeable


def test_quaternion_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Quaternion(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Quaternion(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Quaternion.from_axis_angle([2.0, 0.0, 0.0], 0.3)


def test_quaternion_normalizes_huge_components_and_still_rejects_non_finite_ones(rng):
    # each of these has a squared norm beyond the float range
    for components in ((1e200, 0.0, 0.0, 0.0), (1e300, -1e300, 1e300, 1e300),
                       (-1.7e308, 1e308, 3.0, 0.0), (1e155, 1e154, 0.0, -1e155)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning either
            q = Quaternion(*components)
        scaled = np.array(components) / max(map(abs, components))
        np.testing.assert_allclose(q.wxyz, scaled / np.linalg.norm(scaled), rtol=0.0, atol=1e-15)
        assert np.linalg.norm(q.wxyz) == pytest.approx(1.0, abs=1e-15)
    # ordinary components keep the bits of a plain division by the norm
    for _ in range(20):
        components = rng.normal(size=4) * 10.0 ** rng.uniform(-5, 5)
        assert Quaternion(*components).wxyz.tobytes() == (components / np.linalg.norm(components)).tobytes()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Quaternion(1e200, bad, 0.0, 0.0)

# components with signed zeros, units and halves mixed in, so ties and zero
# signs are drawn often
_component = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]), st.floats(-1.0, 1.0))
_components = st.tuples(_component, _component, _component, _component).filter(
    lambda c: sum(v * v for v in c) > 1e-6)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=_components, q=_components)
def test_quaternion_algebra_is_bit_identical_to_the_numpy_scalar_formulas(p, q):
    """The Python-float products, conjugate and axis-angle keep every bit of the first formulas."""
    a, b = Quaternion(*p), Quaternion(*q)
    assert same_bits(a.wxyz, normalized_oracle(*p))
    assert same_bits(a.components, a.wxyz) and all(type(c) is float for c in a.components)
    assert same_bits(a.to_matrix(), rotation_matrix_oracle(a.wxyz))
    assert same_bits((a * b).wxyz, product_oracle(a.wxyz, b.wxyz))
    assert same_bits(a.conjugate().wxyz, conjugate_oracle(a.wxyz))
    axis, angle = a.axis_angle()
    expected_axis, expected_angle = axis_angle_oracle(a.wxyz)
    assert same_bits(axis, expected_axis) and same_bits(angle, expected_angle)
    assert same_bits(orientation_error(a, b), orientation_error_oracle(a.wxyz, b.wxyz))
    # equal attitudes take the zero-axis branch
    assert same_bits(orientation_error(a, a), orientation_error_oracle(a.wxyz, a.wxyz))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(q=_components, omega=st.tuples(_component, _component, _component),
       exponent=st.integers(-14, 2))
def test_integrate_orientation_is_bit_identical_to_the_array_formulas(q, omega, exponent):
    """Both branches: below exponent -9 the rotation is under 1e-12 rad."""
    omega = np.array(omega) * 10.0 ** exponent
    start = Quaternion(*q)
    assert same_bits(integrate_orientation(start, omega, 0.005).wxyz,
                     integrate_orientation_oracle(start.wxyz, omega, 0.005))


def test_quaternion_rejects_a_non_finite_component_in_every_position():
    for position in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            components = [0.5] * 4
            components[position] = bad
            with pytest.raises(ValueError, match="finite"):
                Quaternion(*components)
    assert same_bits(Quaternion(1e200, 0.0, 0.0, 0.0).wxyz, [1.0, 0.0, 0.0, 0.0])


def test_rotate_matches_rodrigues_oracle(rng):
    for _ in range(50):
        axis = random_unit(rng)
        angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        q = Quaternion.from_axis_angle(axis, angle)
        r = rodrigues(axis, angle)
        v = rng.normal(size=3)
        np.testing.assert_allclose(q.rotate(v), r @ v, atol=1e-12)
        np.testing.assert_allclose(q.to_matrix(), r, atol=1e-12)


def test_rotation_matrix_is_special_orthogonal(rng):
    for _ in range(20):
        r = random_quaternion(rng).to_matrix()
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_hamilton_product_composes_rotations(rng):
    for _ in range(30):
        p, q = random_quaternion(rng), random_quaternion(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose((p * q).rotate(v), p.rotate(q.rotate(v)), atol=1e-12)
        np.testing.assert_allclose((p * q).to_matrix(), p.to_matrix() @ q.to_matrix(), atol=1e-12)


def test_conjugate_inverts(rng):
    for _ in range(20):
        q = random_quaternion(rng)
        assert quat_distance(q * q.inverse(), Quaternion.identity()) < 1e-12
        v = rng.normal(size=3)
        np.testing.assert_allclose(q.inverse().rotate(q.rotate(v)), v, atol=1e-12)


def test_axis_angle_round_trip(rng):
    for _ in range(30):
        q = random_quaternion(rng)
        axis, angle = q.axis_angle()
        assert 0.0 <= angle <= math.pi + 1e-12
        if angle > 1e-12:
            assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-9)
            assert quat_distance(Quaternion.from_axis_angle(axis, angle), q) < 1e-9
    axis, angle = Quaternion.identity().axis_angle()
    assert angle == 0.0 and np.all(axis == 0.0)


def test_orientation_error_zero_iff_aligned(rng):
    q = random_quaternion(rng)
    np.testing.assert_allclose(orientation_error(q, q), 0.0, atol=1e-12)
    # the two double-cover representatives are the same attitude
    flipped = Quaternion(*(-q.wxyz))
    np.testing.assert_allclose(orientation_error(q, flipped), 0.0, atol=1e-12)


def test_orientation_error_integrates_back_exactly(rng):
    # the error vector is exactly the body rotation from q to the setpoint
    for _ in range(20):
        q, q_set = random_quaternion(rng), random_quaternion(rng)
        err = orientation_error(q_set, q)
        assert np.linalg.norm(err) <= math.pi + 1e-9
        reached = integrate_orientation(q, err, 1.0)
        assert quat_distance(reached, q_set) < 1e-9


def test_orientation_error_small_angle_direction():
    q = Quaternion.identity()
    q_set = Quaternion.from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.01)
    np.testing.assert_allclose(orientation_error(q_set, q), [0.0, 0.0, 0.01], atol=1e-9)


def test_integrate_orientation_constant_rate_exact(rng):
    axis = random_unit(rng)
    rate = 1.7
    q = Quaternion.identity()
    dt = 0.005
    for _ in range(400):
        q = integrate_orientation(q, rate * axis, dt)
    expected = Quaternion.from_axis_angle(axis, rate * 400 * dt)
    assert quat_distance(q, expected) < 1e-9


def test_integrate_orientation_matches_rate_derivative(rng):
    q0 = random_quaternion(rng)
    omega = rng.normal(size=3)

    def rotated(t):
        return integrate_orientation(q0, omega, t).rotate(np.array([1.0, 0.0, 0.0]))

    # d/dt (R(t) v) = R (omega x v) for a body-frame rate
    v_dot = central_diff(rotated, 0.01, 1e-6)
    expected = integrate_orientation(q0, omega, 0.01).rotate(np.cross(omega, [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(v_dot, expected, atol=1e-6)


def test_integrate_orientation_rejects_bad_dt():
    with pytest.raises(ValueError):
        integrate_orientation(Quaternion.identity(), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        integrate_orientation(Quaternion.identity(), np.zeros(3), -0.1)
