"""Branch-transit supervisor of the SQP flight loop, one rule per test.

Each test feeds the supervisor a synthetic converged solve and least-norm
reference for the six-arm octahedron, so one rule decides the outcome. Arm
0 is the arm under test; the other arms carry load and agree with the
reference.
"""

import math

import numpy as np
import pytest

from helpers import after_solve_oracle, same_bits
from rotorarm import (
    AllocatorInput,
    AllocatorSolution,
    DroneModel,
    Quaternion,
    Scenario,
    SolverError,
    SweepSpec,
    build_catalog,
    orientation_sweep,
    pinv_allocate,
    run_flight,
    vectored_thrust_matrix,
)
from rotorarm import allocation, simulation
from rotorarm.allocation import LeastNormAllocation
from rotorarm.simulation import SERVO_RATE_LIMIT, _BranchSupervisor

K = 100  # a tick well past the share history's length
LOADED = 0.3


@pytest.fixture
def supervisor(octa_model):
    return _BranchSupervisor(Scenario(model=octa_model, sweep=SweepSpec("hover")))


def solution(throttle0=0.01, converged=True) -> AllocatorSolution:
    throttles = np.full(6, LOADED)
    throttles[0] = throttle0
    angles = np.linspace(-1.0, 1.5, 6)
    return AllocatorSolution(throttles, angles, np.zeros(6), 3, 0.0, 1.0, converged)


def reference(sol, share0=0.0, gap0=0.0) -> AllocatorSolution:
    """A reference that agrees with the solution except on arm 0.

    Arm 0's reference sits gap0 from its solved angle, with a throttle
    whose projection on the solved thrust direction is share0.
    """
    gaps = np.zeros(6)
    gaps[0] = gap0
    throttles = sol.throttles.copy()
    throttles[0] = share0 / math.cos(gap0)
    return AllocatorSolution(throttles, sol.angles + gaps, np.zeros(6), 1, 0.0, 0.0, True)


def after(supervisor, sol, ref, k=K):
    return supervisor.after_solve(k, sol, ref)


def with_history(supervisor, share0):
    """Share history in which arm 0 held share0 and the other arms full load."""
    supervisor.share_hist[:] = LOADED
    supervisor.share_hist[:, 0] = share0


def transiting(supervisor):
    return list(np.nonzero(~np.isnan(supervisor.target))[0])


# ---------------------------------------------------------------------------
# starting transits


def test_falling_share_starts_early(supervisor):
    sol = solution()
    with_history(supervisor, 0.1)  # slope -1.58 /s, extrapolated share -0.28
    after(supervisor, sol, reference(sol, share0=0.005))
    assert transiting(supervisor) == [0]
    assert supervisor.target[0] == sol.angles[0] + math.pi
    assert supervisor.cool[0] == pytest.approx(K * supervisor.dt + 0.3)


def test_the_slope_is_taken_over_the_recorded_share_history(supervisor):
    sol = solution()
    after(supervisor, sol, reference(sol, share0=0.1))  # too large a share to start a transit
    assert transiting(supervisor) == []
    after(supervisor, sol, reference(sol, share0=0.005), k=K + supervisor.hist_len)
    assert transiting(supervisor) == [0]


def test_a_loaded_arm_whose_share_falls_steeply_starts(supervisor):
    sol = solution()
    with_history(supervisor, 0.5)  # slope -7.5 /s from share 0.05 extrapolates to -1.3
    after(supervisor, sol, reference(sol, share0=0.05))
    assert transiting(supervisor) == [0]


def test_an_arm_held_flat_below_the_margin_starts(supervisor):
    sol = solution()
    with_history(supervisor, -0.05)  # slope 0: the share itself is clearly negative
    after(supervisor, sol, reference(sol, share0=-0.05, gap0=3.0))
    assert transiting(supervisor) == [0]
    assert supervisor.target[0] == sol.angles[0] + math.pi


def test_early_start_needs_the_extrapolation_clearly_negative(supervisor):
    sol = solution()
    # slope -0.2 /s from share 0.01 extrapolates to -0.026, above -0.04
    with_history(supervisor, 0.01 + 0.2 * supervisor.hist_len * supervisor.dt)
    after(supervisor, sol, reference(sol, share0=0.01))
    assert transiting(supervisor) == []


def test_an_arm_in_transit_is_not_nominated_again(supervisor):
    sol = solution()
    ref = reference(sol, share0=-0.05, gap0=3.0)
    with_history(supervisor, 0.1)
    after(supervisor, sol, ref, k=0)
    with_history(supervisor, 0.1)
    after(supervisor, sol, ref, k=61)  # past the cool-down, with the half-turn not yet walked
    assert transiting(supervisor) == [0]
    assert supervisor.cool[0] == pytest.approx(0.3)


def test_turn_direction_follows_the_reference_past_a_crossing(supervisor):
    sol = solution()
    with_history(supervisor, 0.1)
    after(supervisor, sol, reference(sol, share0=0.1 * math.cos(-2.8), gap0=-2.8))
    assert supervisor.target[0] == sol.angles[0] - math.pi


def test_turn_direction_is_positive_before_a_crossing(supervisor):
    sol = solution()
    with_history(supervisor, 0.1)
    after(supervisor, sol, reference(sol, share0=0.005, gap0=-0.3))
    assert supervisor.target[0] == sol.angles[0] + math.pi


def test_cool_down_blocks_a_retrigger_for_0_3_s(supervisor):
    sol = solution()
    ref = reference(sol, share0=-0.05, gap0=3.0)
    with_history(supervisor, 0.1)
    after(supervisor, sol, ref, k=0)
    warm = sol.next_warm()
    for _ in range(60):
        supervisor.advance(warm)
    assert transiting(supervisor) == []  # the half-turn took under 0.3 s
    after(supervisor, sol, ref, k=59)
    assert transiting(supervisor) == []
    after(supervisor, sol, ref, k=61)
    assert transiting(supervisor) == [0]


def test_the_2_s_pitch_steps_fly_with_every_tick_converged(octa_model):
    """Fast pitch steps demand branch changes while arms still carry load.

    A share test that also waits for a small share starts those half-turns
    too late, and the flight leaves its sweep by hundreds of metres.
    """
    log = run_flight(Scenario(model=octa_model,
                              sweep=orientation_sweep(axes=("pitch",), step_duration=2.0)))
    assert len(log.t) == 2400 and log.converged.all()
    assert np.max(log.pos_error) < 0.1


# ---------------------------------------------------------------------------
# the supervisor never calls the solver


@pytest.fixture
def solves(monkeypatch):
    """Make every solve through the simulation module break down, and record its calls."""
    calls = []

    def breaks_down(*args):
        calls.append(args)
        raise SolverError("no solve expected here")

    monkeypatch.setattr(simulation, "sqp_allocate", breaks_down)
    return calls


@pytest.mark.parametrize("throttle0", [0.2, -0.03], ids=["loaded", "pinned"])
def test_an_arm_starts_a_transit_without_a_solve_when_its_share_falls_through_zero(
        supervisor, solves, throttle0):
    """Whatever its throttle, loaded or pinned negative, the share test alone starts the half-turn."""
    sol = solution(throttle0=throttle0)
    with_history(supervisor, 0.1)
    after(supervisor, sol, reference(sol, share0=-0.05, gap0=3.0))
    assert transiting(supervisor) == [0] and solves == []


# ---------------------------------------------------------------------------
# running transits and pulling the warm point


def test_transit_walks_the_warm_point_under_a_raised_throttle_weight(supervisor):
    base = supervisor.scenario.weights
    sol = solution()
    warm = sol.next_warm()
    assert supervisor.advance(warm) is base  # nothing in transit
    with_history(supervisor, 0.1)
    warm = after(supervisor, sol, reference(sol, share0=-0.05, gap0=3.0))
    start = warm.angles.copy()

    weights = supervisor.advance(warm)
    np.testing.assert_array_equal(weights.throttle, base.throttle * np.array([50, 1, 1, 1, 1, 1]))
    assert warm.angles[0] - start[0] == pytest.approx(supervisor.transit_step)
    assert warm.prev_angles[0] == warm.angles[0]
    np.testing.assert_array_equal(warm.angles[1:], start[1:])
    assert supervisor.transit_step == pytest.approx(0.9 * SERVO_RATE_LIMIT * supervisor.dt)
    for _ in range(60):  # the half-turn takes 47 ticks
        supervisor.advance(warm)
    assert transiting(supervisor) == []
    assert warm.angles[0] == pytest.approx(sol.angles[0] + math.pi, abs=1e-9)


def test_warm_point_is_pulled_toward_the_reference(supervisor):
    sol = solution(throttle0=0.2)
    ref = AllocatorSolution(sol.throttles + np.array([0.0, 0.0, 0.0, 0.05, -0.2, 0.0]),
                            sol.angles + np.array([0.05, 0.5, -0.5, 0.0, 0.0, 0.0]),
                            np.zeros(6), 1, 0.0, 0.0, True)
    warm = after(supervisor, sol, ref)
    np.testing.assert_allclose(warm.angles - sol.angles, [0.005, 0.01, -0.01, 0, 0, 0], atol=1e-15)
    np.testing.assert_array_equal(warm.prev_angles, warm.angles)
    # the pull moves angles only: the warm throttles are the solved ones, in an array of their own
    assert same_bits(warm.throttles, sol.throttles)
    assert not np.shares_memory(warm.throttles, sol.throttles)


def test_arms_in_transit_are_not_pulled(supervisor):
    sol = solution()
    with_history(supervisor, 0.1)
    ref = reference(sol, share0=-0.05, gap0=3.0)
    ref.angles[1] += 0.2
    warm = after(supervisor, sol, ref)
    assert transiting(supervisor) == [0]
    assert warm.angles[0] == sol.angles[0]
    assert warm.angles[1] == sol.angles[1] + 0.01
    assert same_bits(warm.throttles, sol.throttles)


def test_no_reference_leaves_the_warm_point_and_history_alone(supervisor):
    sol = solution()
    with_history(supervisor, 0.1)
    warm = after(supervisor, sol, None)
    np.testing.assert_array_equal(warm.angles, sol.angles)
    np.testing.assert_array_equal(warm.throttles, sol.throttles)
    assert np.all(supervisor.share_hist[:, 0] == 0.1) and transiting(supervisor) == []


def test_after_solve_is_the_array_formulas_bit_for_bit(supervisor, rng):
    """Random solves, references and supervisor states against the first array formulas.

    Transits run on some arms (finite targets, NaN elsewhere) and
    cool-downs are on either side of the tick's time, so transits start and
    every branch of the turn direction is taken. The warm start, target,
    cool and share history must match byte for byte; the warm throttles are
    the solved ones, byte for byte.
    """
    scenario = supervisor.scenario
    edges = [0.0, -0.0, 0.05, -0.02, 0.02, math.pi, -math.pi, 0.5 * math.pi, -0.5 * math.pi]
    started = 0
    for case in range(400):
        program, oracle = _BranchSupervisor(scenario), _BranchSupervisor(scenario)
        k = int(rng.integers(0, 20000))
        t = k * supervisor.dt
        target = np.where(rng.random(6) < 0.3, rng.uniform(-10.0, 10.0, 6), np.nan)
        cool = t + rng.uniform(-0.5, 0.5, 6)
        history = rng.uniform(-0.1, 0.3, (supervisor.hist_len, 6))
        for each in (program, oracle):
            each.target[:], each.cool[:], each.share_hist[:] = target, cool, history
        throttles = rng.uniform(-0.1, 0.3, 6)
        gaps = rng.uniform(-4.0, 4.0, 6)
        for values in (throttles, gaps):
            values[rng.integers(6)] = rng.choice(edges)
        angles = rng.uniform(-10.0, 10.0, 6)
        angles[rng.integers(6)] = rng.choice([0.0, -0.0])
        sol = AllocatorSolution(throttles, angles, rng.normal(size=6), 3, 0.0, 1.0, True)
        ref = LeastNormAllocation(rng.uniform(-0.3, 0.3, 6), angles + gaps)

        warm = program.after_solve(k, sol, ref)
        expected = after_solve_oracle(oracle, k, sol, ref)
        for name in ("throttles", "angles", "multipliers", "prev_angles"):
            assert same_bits(getattr(warm, name), getattr(expected, name)), (case, name)
        assert same_bits(warm.throttles, sol.throttles), case
        for name in ("target", "cool", "share_hist"):
            assert same_bits(getattr(program, name), getattr(oracle, name)), (case, name)
        started += int(np.sum(np.isnan(target) & ~np.isnan(program.target)))
    assert started > 100


# ---------------------------------------------------------------------------
# the least-norm reference


def test_reference_is_pinv_allocate_bit_for_bit(supervisor, rng):
    """Random attitudes, demands and previous angles; every tenth demand is zero."""
    model = supervisor.scenario.model
    pinv = np.linalg.pinv(vectored_thrust_matrix(model))
    for case in range(200):
        scale = 0.0 if case % 10 == 0 else 1.0
        inp = AllocatorInput(Quaternion(*rng.normal(size=4)), scale * rng.normal(0.0, 15.0, 3),
                             scale * rng.normal(0.0, 1.5, 3))
        prev = rng.uniform(-20.0, 20.0, 6)
        prev[rng.integers(6)] = rng.choice([0.0, -0.0])
        ref = supervisor.reference(inp, prev)
        sol = pinv_allocate(inp, model, prev_angles=prev)
        assert same_bits(ref.throttles, sol.throttles) and same_bits(ref.angles, sol.angles)
        # the throttles are the row norms that np.linalg.norm computes
        coords = (pinv @ inp.body_wrench()).reshape(6, 2)
        assert same_bits(ref.throttles, np.linalg.norm(coords, axis=1))
        if scale == 0.0:
            assert same_bits(ref.angles, prev)  # unloaded arms keep their angle


def test_a_layout_without_a_reference_flies_with_no_transit_and_no_pull(monkeypatch):
    """Fixed arms have no thrust-plane map, so every converged tick takes the `ref is None` path."""
    seen = []
    after_solve = _BranchSupervisor.after_solve

    def recorded(self, k, sol, ref):
        warm = after_solve(self, k, sol, ref)
        seen.append((ref, sol, warm, np.isnan(self.target).all() and not self.share_hist.any()))
        return warm

    monkeypatch.setattr(_BranchSupervisor, "after_solve", recorded)
    model = DroneModel(build_catalog("hexagon_tilt30_fixed"))
    log = run_flight(Scenario(model=model, sweep=SweepSpec("hover"), duration=0.5))
    assert len(seen) == np.sum(log.converged) == len(log.t)
    for ref, sol, warm, untouched in seen:
        assert ref is None and untouched
        assert same_bits(warm.throttles, sol.throttles) and same_bits(warm.angles, sol.angles)
        assert same_bits(warm.prev_angles, sol.angles)


def test_a_fixed_arm_layout_looks_for_its_thrust_plane_map_once(monkeypatch):
    """A failed map lookup is not cached, so the supervisor decides once, not on every converged tick."""
    calls = []
    matrix = allocation.vectored_thrust_matrix

    def counted(model):
        calls.append(model)
        return matrix(model)

    monkeypatch.setattr(allocation, "vectored_thrust_matrix", counted)
    model = DroneModel(build_catalog("hexagon_tilt30_fixed"))
    log = run_flight(Scenario(model=model, sweep=SweepSpec("hover"), duration=0.5))
    assert np.all(log.converged) and len(log.t) == 100
    assert len(calls) <= 1
    # the pinv route still refuses the layout, with the same message
    hover = AllocatorInput(Quaternion.identity(), np.array([0.0, 0.0, 23.5]), np.zeros(3))
    with pytest.raises(SolverError, match="^the pseudoinverse route needs every arm to be a rotating arm$"):
        pinv_allocate(hover, model)
