"""tick_profile.py's stages are the program's: a renamed or unused stage fails here."""

import tick_profile
from flight_digests import FLIGHTS
from rotorarm import DroneModel, Scenario, build_catalog, run_flight


def test_every_stage_is_an_attribute_of_its_owner():
    for owner, attr, label in tick_profile.STAGES + tick_profile.SWEEP_STAGES + tick_profile.CHAIN_STAGES:
        assert attr in vars(owner), f"{label}: {owner.__name__} has no {attr}"


def test_a_short_sqp_flight_calls_every_solver_stage():
    geometry, factory, sweep_args, scenario_args = FLIGHTS[tick_profile.FLIGHT]
    scenario = Scenario(model=DroneModel(build_catalog(geometry)), sweep=factory(**sweep_args),
                        duration=0.1, **scenario_args)
    ticks, _, _, calls = tick_profile.profile(lambda: run_flight(scenario))
    assert ticks == 20
    for _, _, label in tick_profile.SOLVER_STAGES:
        assert calls[label] >= 1, label
    assert calls["sqp_allocate"] == calls["_net_wrench"] == calls["rigid_body_step"] == ticks
    # the supervisor's warm states carry no record
    assert calls["_evaluate_at_rest"] == 0


def test_a_short_chain_calls_every_chain_stage():
    solves, chain_ns, self_ns, calls = tick_profile.profile_chain("octahedron_rot", rounds=1)
    assert solves == 100 and chain_ns > 0
    assert all(ns > 0 for ns in self_ns.values())
    # every solve takes its first evaluation from its warm state's record, so
    # each wrench pair is made by an evaluation after a Newton step
    assert calls["_evaluate_at_rest"] == solves
    assert calls["DroneModel._wrench_pair"] == calls["_evaluate"] == calls["_newton_delta"] > solves


def test_a_short_fixed_arm_sweep_calls_every_sweep_stage():
    samples, sweep_ns, self_ns, calls = tick_profile.profile_sweep(
        build_catalog("hexagon_tilt30_fixed"), 100)
    assert samples == 100 and sweep_ns > 0
    assert calls["sweep_orientations"] == 1
    assert calls["HoverProblem"] == calls["solve_hover"] == 100
    # the feasible samples, and only they, take both fractions
    assert 1 <= calls["upward_fraction"] == calls["capacity_fraction"] < 100
    assert all(ns > 0 for ns in self_ns.values())
