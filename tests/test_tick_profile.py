"""tick_profile.py's stages are the program's: a renamed or unused stage fails here."""

import tick_profile
from flight_digests import FLIGHTS
from rotorarm import DroneModel, Scenario, build_catalog, run_flight


def test_every_stage_is_an_attribute_of_its_owner():
    for owner, attr, label in tick_profile.STAGES:
        assert attr in vars(owner), f"{label}: {owner.__name__} has no {attr}"


def test_a_short_sqp_flight_calls_every_solver_stage():
    geometry, factory, sweep_args, scenario_args = FLIGHTS[tick_profile.FLIGHT]
    scenario = Scenario(model=DroneModel(build_catalog(geometry)), sweep=factory(**sweep_args),
                        duration=0.1, **scenario_args)
    ticks, _, _, calls = tick_profile.profile(lambda: run_flight(scenario))
    assert ticks == 20
    for _, _, label in tick_profile.SOLVER_STAGES:
        assert calls[label] >= 1, label
    assert calls["sqp_allocate"] == ticks
