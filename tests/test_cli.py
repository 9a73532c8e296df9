"""End-to-end command-line behavior: files, determinism, exit codes."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rotorarm
from helpers import plant_nan_pinv
from rotorarm import build_catalog, cli, efficiency
from rotorarm.geometry import ARM_KINDS, load_geometry
from rotorarm.tables import write_csv

HOVER_FORCE = 2.4 * 9.81


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def write_json_file(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def hover_request(tmp_path, **extra) -> str:
    payload = {"q": [1.0, 0.0, 0.0, 0.0], "F": [0.0, 0.0, HOVER_FORCE], "M": [0.0, 0.0, 0.0]}
    payload.update(extra)
    return write_json_file(tmp_path / "request.json", payload)


def inline_geometry() -> str:
    geometry = build_catalog("square_rot")
    doc = {"name": "inline_square", "arms": [
        {"r": list(geometry.endpoints[i]), "x": list(geometry.axes[i]),
         "z0": list(geometry.zero_dirs[i]), "s": int(geometry.spins[i]), "kind": "rotating"}
        for i in range(geometry.n_arms)
    ]}
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_writes_deterministic_files(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli("efficiency", "--geometry", "square_rot", "--samples", 128, "--out", out)
        assert code == 0
    for name in ("efficiency_samples.csv", "efficiency_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "efficiency_summary.json").read_text())
    assert summary["n_samples"] == 128
    assert 0.0 < summary["x2_min"] <= summary["x2_max"] <= 1.0
    table = np.genfromtxt(out_a / "efficiency_samples.csv", delimiter=",", names=True)
    assert len(table) == 128


def test_csv_writer_matches_per_number_formatting(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
    rows[0] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0 / 3.0]
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e", "f", "g"], rows)
    expected = "a,b,c,d,e,f,g\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_efficiency_json_table_format(tmp_path):
    assert run_cli("efficiency", "--geometry", "square_rot", "--samples", 128,
                   "--out", tmp_path, "--format", "json") == 0
    payload = json.loads((tmp_path / "efficiency_samples.json").read_text())
    assert payload["columns"][:3] == ["up_x", "up_y", "up_z"]
    assert len(payload["rows"]) == 128


def test_efficiency_reports_a_failed_least_squares_solve_with_exit_2(tmp_path, capsys, monkeypatch):
    resolve = cli.resolve_geometry
    monkeypatch.setattr(cli, "resolve_geometry", lambda *args: plant_nan_pinv(resolve(*args)))
    assert run_cli("efficiency", "--samples", 100, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: least-squares hover solve failed") and "Traceback" not in err


def test_efficiency_with_no_feasible_sample_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                        monkeypatch):
    def all_infeasible(geometry, n_samples, mass, gravity):
        nan = np.full(n_samples, np.nan)
        failures = [(i, efficiency.InfeasibleHoverError("no admissible hover"))
                    for i in range(n_samples)]
        return efficiency.EfficiencyMap(geometry.name, efficiency.fibonacci_sphere(n_samples),
                                        nan, nan.copy(), mass, gravity, failures)

    monkeypatch.setattr(cli, "sweep_orientations", all_infeasible)
    out = tmp_path / "out"
    assert run_cli("efficiency", "--samples", 100, "--out", out) == 2
    assert capsys.readouterr().err == "numerical failure: no feasible orientation among 100 samples\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# allocate


def test_allocate_hover_to_file(tmp_path):
    out = tmp_path / "result.json"
    assert run_cli("allocate", hover_request(tmp_path), "--out", out) == 0
    result = json.loads(out.read_text())
    assert result["converged"] is True
    assert len(result["u"]) == len(result["a"]) == 6
    assert result["residual"] < 1e-5
    np.testing.assert_allclose(result["u"][:4], HOVER_FORCE / 60.0, atol=1e-4)


def test_allocate_prints_json_without_out(tmp_path, capsys):
    assert run_cli("allocate", hover_request(tmp_path)) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["converged"] is True


def test_allocate_pinv_and_warm_start(tmp_path):
    out = tmp_path / "result.json"
    assert run_cli("allocate", hover_request(tmp_path), "--allocator", "pinv", "--out", out) == 0
    assert json.loads(out.read_text())["iterations"] == 1

    warm = {"u": [0.4] * 6, "a": [0.0] * 6}
    assert run_cli("allocate", hover_request(tmp_path, warm=warm), "--out", out) == 0
    assert json.loads(out.read_text())["converged"] is True


def test_allocate_accepts_inline_geometry(tmp_path):
    out = tmp_path / "result.json"
    code = run_cli("allocate", hover_request(tmp_path), "--geometry", inline_geometry(),
                   "--out", out)
    assert code == 0
    assert len(json.loads(out.read_text())["u"]) == 4


def test_pinv_rejects_fixed_arm_geometry(tmp_path):
    # the vectored-coordinate matrix does not exist for fixed arms: numerical failure
    code = run_cli("allocate", hover_request(tmp_path),
                   "--geometry", "hexagon_tilt30_fixed", "--allocator", "pinv")
    assert code == 2


# ---------------------------------------------------------------------------
# validation failures exit with 1


def _req_missing_force(tmp_path):
    return ["allocate", write_json_file(tmp_path / "r.json",
            {"q": [1, 0, 0, 0], "M": [0, 0, 0]})]


def _req_nan(tmp_path):
    (tmp_path / "r.json").write_text('{"q": [NaN, 0, 0, 0], "F": [0, 0, 1], "M": [0, 0, 0]}')
    return ["allocate", str(tmp_path / "r.json")]


def _req_extra_key(tmp_path):
    return ["allocate", write_json_file(tmp_path / "r.json",
            {"q": [1, 0, 0, 0], "F": [0, 0, 1], "M": [0, 0, 0], "bogus": 1})]


def _req_bad_warm(tmp_path):
    return ["allocate", write_json_file(tmp_path / "r.json",
            {"q": [1, 0, 0, 0], "F": [0, 0, 1], "M": [0, 0, 0],
             "warm": {"u": [0.1] * 6, "a": [0.0] * 6, "junk": 1}})]


def _req_missing_file(tmp_path):
    return ["allocate", str(tmp_path / "nowhere.json")]


def _unknown_config_key(tmp_path):
    config = write_json_file(tmp_path / "c.json", {"speling": 1})
    return ["fly", "--config", config]


def _config_not_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{ this is not json")
    return ["fly", "--config", str(path)]


def _bad_format(tmp_path):
    return ["efficiency", "--format", "xml"]


def _bad_geometry(tmp_path):
    return ["efficiency", "--geometry", "dodecahedron_rot"]


def _too_few_samples(tmp_path):
    return ["efficiency", "--samples", "50"]


def _no_command(tmp_path):
    return []


def _unknown_flag(tmp_path):
    return ["efficiency", "--turbo"]


def _bad_sweep_kind(tmp_path):
    config = write_json_file(tmp_path / "c.json", {"sweep": {"kind": "spiral"}})
    return ["fly", "--config", config]


def _allocate_with_solver(tmp_path, **solver):
    config = write_json_file(tmp_path / "c.json", {"solver": solver})
    return ["allocate", hover_request(tmp_path), "--config", config]


def _allocate_zero_throttle_step_limit(tmp_path):
    return _allocate_with_solver(tmp_path, throttle_step_limit=0.0)


def _allocate_zero_max_iterations(tmp_path):
    return _allocate_with_solver(tmp_path, max_iterations=0)


def _allocate_negative_tol_constraint(tmp_path):
    return _allocate_with_solver(tmp_path, tol_constraint=-1.0)


def _config_value(tmp_path, command, **values):
    return [command, "--config", write_json_file(tmp_path / "c.json", values),
            "--out", str(tmp_path / "out")]


def _fractional_samples(tmp_path):
    return _config_value(tmp_path, "efficiency", samples=150.9)


def _boolean_samples(tmp_path):
    return _config_value(tmp_path, "efficiency", samples=True)


def _fractional_seed(tmp_path):
    return _config_value(tmp_path, "fly", seed=1.5, sweep={"kind": "hover"}, duration=1.0,
                         settle=0.2)


def _boolean_seed(tmp_path):
    return _config_value(tmp_path, "fly", seed=True, sweep={"kind": "hover"}, duration=1.0,
                         settle=0.2)


def _boolean_noise_std(tmp_path):
    return _config_value(tmp_path, "fly", noise_std=True, sweep={"kind": "hover"}, duration=0.5,
                         settle=0.2)


def _boolean_radius(tmp_path):
    return _config_value(tmp_path, "efficiency", radius=True, samples=100)


def _boolean_model_mass(tmp_path):
    return _config_value(tmp_path, "efficiency", model={"mass": True}, samples=100)


def _boolean_max_iterations(tmp_path):
    return _allocate_with_solver(tmp_path, max_iterations=True)


def _boolean_request_vector(tmp_path):
    request = write_json_file(tmp_path / "r.json", {"q": [True, 0, 0, 0], "F": [0, 0, HOVER_FORCE],
                                                    "M": [0, 0, 0]})
    return ["allocate", request]


def _efficiency_negative_thrust_constant(tmp_path):
    return _config_value(tmp_path, "efficiency", model={"thrust_constant": -1.0}, samples=100)


def _efficiency_nan_thrust_constant(tmp_path):
    return _config_value(tmp_path, "efficiency", model={"thrust_constant": math.nan}, samples=100)


def _efficiency_infinite_thrust_constant(tmp_path):
    return _config_value(tmp_path, "efficiency", model={"thrust_constant": math.inf}, samples=100)


def _efficiency_infinite_torque_constant(tmp_path):
    return _config_value(tmp_path, "efficiency", model={"torque_constant": math.inf}, samples=100)


def _efficiency_infinite_control_period(tmp_path):
    return _config_value(tmp_path, "efficiency", model={"control_period": math.inf}, samples=100)


def _efficiency_overflowing_weight(tmp_path):
    """Each constant finite, but mass * gravity overflows to inf."""
    return _config_value(tmp_path, "efficiency", model={"mass": 1e300, "gravity": 1e10}, samples=200)


def _efficiency_weight_square_overflows(tmp_path):
    """The weight is finite, but its square, and so each per-arm force norm, overflows."""
    return _config_value(tmp_path, "efficiency", model={"mass": 1e160, "gravity": 1.0}, samples=200)


def _fly_infinite_motor_lag(tmp_path):
    return _config_value(tmp_path, "fly", sweep={"kind": "hover"}, duration=0.5, settle=0.2,
                         motor_lag=math.inf)


def _fly_negative_gain(tmp_path):
    return _config_value(tmp_path, "fly", sweep={"kind": "hover"}, duration=0.5, settle=0.2,
                         gains={"kp_pos": -5})


def _fly_with_weights(tmp_path, **weights):
    return _config_value(tmp_path, "fly", sweep={"kind": "hover"}, duration=0.5, settle=0.2,
                         weights=weights)


def _fly_infinite_limit_weight(tmp_path):
    return _fly_with_weights(tmp_path, limit=math.inf)


def _fly_infinite_arm_rate_weight(tmp_path):
    return _fly_with_weights(tmp_path, arm_rate=math.inf)


def _fly_infinite_throttle_weight(tmp_path):
    return _fly_with_weights(tmp_path, throttle=math.inf)


def _allocate_infinite_limit_weight(tmp_path):
    config = write_json_file(tmp_path / "c.json", {"weights": {"limit": math.inf}})
    return ["allocate", hover_request(tmp_path), "--config", config]


def _radius_with_custom_geometry(tmp_path):
    return _config_value(tmp_path, "efficiency", geometry=json.loads(inline_geometry()), radius=0.3,
                         samples=100)


@pytest.mark.parametrize("build_argv", [
    _req_missing_force, _req_nan, _req_extra_key, _req_bad_warm, _req_missing_file,
    _unknown_config_key, _config_not_json, _bad_format, _bad_geometry,
    _too_few_samples, _no_command, _unknown_flag, _bad_sweep_kind,
    _allocate_zero_throttle_step_limit, _allocate_zero_max_iterations,
    _allocate_negative_tol_constraint, _fractional_samples, _boolean_samples,
    _fractional_seed, _boolean_seed, _boolean_noise_std, _boolean_radius, _boolean_model_mass,
    _boolean_max_iterations, _boolean_request_vector, _efficiency_negative_thrust_constant,
    _efficiency_nan_thrust_constant, _fly_negative_gain,
    _efficiency_infinite_thrust_constant,
    _efficiency_infinite_torque_constant, _efficiency_infinite_control_period,
    _efficiency_overflowing_weight, _efficiency_weight_square_overflows,
    _fly_infinite_motor_lag, _fly_infinite_limit_weight, _fly_infinite_arm_rate_weight,
    _fly_infinite_throttle_weight, _allocate_infinite_limit_weight, _radius_with_custom_geometry,
], ids=lambda f: f.__name__.lstrip("_"))
def test_validation_problems_exit_1(tmp_path, build_argv, capsys):
    assert run_cli(*build_argv(tmp_path)) == 1
    capsys.readouterr()  # errors go to stderr, keep the terminal clean


def test_a_mistyped_geometry_id_is_told_the_catalog_ids(capsys):
    assert run_cli("efficiency", "--geometry", "dodecahedron_rot") == 1
    err = capsys.readouterr().err
    assert "dodecahedron_rot" in err and all(name in err for name in rotorarm.CATALOG_IDS)


def test_a_radius_for_a_custom_geometry_is_refused_naming_both_settings(tmp_path, capsys):
    """radius scales catalog layouts only; with a custom layout the CLI says so instead of ignoring it."""
    geometry = write_json_file(tmp_path / "g.json", json.loads(inline_geometry()))
    out = tmp_path / "out"
    with_radius = write_json_file(tmp_path / "c.json", {"radius": 5.0})
    assert run_cli("efficiency", "--geometry", geometry, "--config", with_radius,
                   "--samples", 100, "--out", out) == 1
    err = capsys.readouterr().err
    assert "radius" in err and "geometry" in err and "Traceback" not in err
    assert not out.exists()
    # the same layout without the setting runs, and a catalog id takes the radius
    assert run_cli("efficiency", "--geometry", geometry, "--samples", 100, "--out", out) == 0
    assert run_cli("efficiency", "--geometry", "square_rot", "--config", with_radius,
                   "--samples", 100, "--out", out) == 0


@pytest.mark.parametrize("where, config", [
    ("config.model.mass", {"model": {"mass": 10**400}}),
    ("config.model.inertia", {"model": {"inertia": [0.02, -(10**400), 0.02]}}),
    ("config.radius", {"radius": 10**400}),
    ("config.sweep.amplitude", {"sweep": {"amplitude": 10**400}}),
])
def test_a_config_integer_too_large_for_a_float_is_refused_naming_it(tmp_path, capsys, where, config):
    """The 401-digit integer that float() cannot read: exit 1 naming the setting, not an OverflowError."""
    out = tmp_path / "out"
    argv = ["--config", write_json_file(tmp_path / "c.json", config), "--out", out]
    assert run_cli("efficiency", "--samples", 100, *argv) == 1
    err = capsys.readouterr().err
    assert f"{where} holds an integer too large for a float" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed documents and requests, drawn: a validation error and exit 1, never a traceback

# numbers in strings are no numbers, and neither are booleans; nor is an integer too
# large for a float
_NOT_A_NUMBER = st.sampled_from(["1", "0.5", "NaN", "", True, False, None, [], {}, 10**400])
_ANY_JUNK = st.one_of(_NOT_A_NUMBER, st.text(max_size=4), st.integers(-3, 3),
                      st.floats(allow_nan=True, allow_infinity=True),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                      st.lists(st.integers(), max_size=2).map(lambda v: [v]))


def _junk_vector(length: int):
    """Anything but a list of `length` finite numbers."""
    finite = st.floats(-2.0, 2.0)
    wrong_length = st.lists(finite, max_size=length + 2).filter(lambda v: len(v) != length)
    non_finite = st.tuples(st.lists(finite, min_size=length - 1, max_size=length - 1),
                           st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, length - 1)
                           ).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    junk_entry = st.tuples(st.lists(finite, min_size=length - 1, max_size=length - 1),
                           _NOT_A_NUMBER, st.integers(0, length - 1)
                           ).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    return st.one_of(_ANY_JUNK, wrong_length, non_finite, junk_entry)


@st.composite
def _malformed_geometry(draw):
    """A geometry document with one thing wrong, from its top level down to one arm's field."""
    doc = json.loads(inline_geometry())
    arm = doc["arms"][draw(st.integers(0, len(doc["arms"]) - 1), label="arm")]
    fault = draw(st.sampled_from(["not_an_object", "unknown_key", "arms", "arm_not_an_object",
                                  "arm_unknown_key", "arm_missing_key", "spin", "kind", "vector",
                                  "too_few_arms"]), label="fault")
    if fault == "not_an_object":
        return draw(st.one_of(st.none(), st.integers(), st.text(max_size=4), st.lists(st.integers())))
    if fault == "unknown_key":
        doc[draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in ("name", "arms")))] = 1
    elif fault == "arms" and draw(st.booleans(), label="drop_arms"):
        del doc["arms"]
    elif fault == "arms":
        doc["arms"] = draw(_ANY_JUNK.filter(lambda v: not isinstance(v, list)))
    elif fault == "arm_not_an_object":
        doc["arms"][doc["arms"].index(arm)] = draw(_ANY_JUNK.filter(lambda v: not isinstance(v, dict)))
    elif fault == "arm_unknown_key":
        known = {"r", "x", "n", "z0", "s", "kind"}
        arm[draw(st.text(min_size=1, max_size=3).filter(lambda k: k not in known))] = [0, 0, 1]
    elif fault == "arm_missing_key":
        del arm[draw(st.sampled_from(["r", "x", "s", "kind"]))]
    elif fault == "spin":
        arm["s"] = draw(st.one_of(st.sampled_from([0, 2, -2, 1.0, -1.0, 1.5, True, False, "1", None]),
                                  st.integers().filter(lambda v: v not in (-1, 1))))
    elif fault == "kind":
        arm["kind"] = draw(st.one_of(st.text(max_size=8).filter(lambda k: k not in ARM_KINDS),
                                     st.none(), st.integers()))
    elif fault == "vector":
        arm[draw(st.sampled_from(["r", "x", "z0"]))] = draw(_junk_vector(3))
    else:
        doc["arms"] = doc["arms"][:draw(st.integers(0, 3))]
    return doc


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_malformed_geometry())
def test_a_malformed_geometry_is_a_validation_error(doc, tmp_path, capsys):
    """load_geometry raises a ValueError (GeometryError is one), and the CLI exits 1 with no traceback."""
    text = json.dumps(doc)
    with pytest.raises(ValueError):
        load_geometry(doc if isinstance(doc, dict) else text)
    code = run_cli("efficiency", "--geometry", text, "--samples", 100, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


@st.composite
def _malformed_request(draw):
    """An allocation request with one thing wrong, warm start included."""
    payload = {"q": [1.0, 0.0, 0.0, 0.0], "F": [0.0, 0.0, HOVER_FORCE], "M": [0.0, 0.0, 0.0],
               "warm": {"u": [0.4] * 6, "a": [0.0] * 6, "multipliers": [0.0] * 6, "a_prev": [0.0] * 6}}
    fault = draw(st.sampled_from(["not_an_object", "unknown_key", "missing", "vector", "zero_q",
                                  "warm_not_an_object", "warm_unknown_key", "warm_missing",
                                  "warm_vector"]), label="fault")
    warm = payload["warm"]
    if fault == "not_an_object":
        return draw(st.one_of(st.none(), st.integers(), st.text(max_size=4), st.lists(st.integers())))
    if fault == "unknown_key":
        payload[draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in cli._INPUT_KEYS))] = 1
    elif fault == "missing":
        del payload[draw(st.sampled_from(["q", "F", "M"]))]
    elif fault == "vector":
        key = draw(st.sampled_from(["q", "F", "M"]))
        payload[key] = draw(_junk_vector(len(payload[key])))
    elif fault == "zero_q":
        payload["q"] = [0.0, 0.0, 0.0, 0.0]
    elif fault == "warm_not_an_object":
        payload["warm"] = draw(_ANY_JUNK.filter(lambda v: not isinstance(v, dict)))
    elif fault == "warm_unknown_key":
        warm[draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in cli._WARM_KEYS))] = 1
    elif fault == "warm_missing":
        del warm[draw(st.sampled_from(["u", "a"]))]
    else:
        key = draw(st.sampled_from(["u", "a", "multipliers", "a_prev"]))
        warm[key] = draw(_junk_vector(len(warm[key])))
    return payload


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_malformed_request())
def test_a_malformed_allocation_request_is_a_validation_error(payload, tmp_path, capsys):
    """parse_allocation_input raises ValueError, and `allocate` exits 1 with no traceback."""
    with pytest.raises(ValueError):
        cli.parse_allocation_input(payload, 6)
    request = tmp_path / "request.json"
    request.write_text(json.dumps(payload))
    code = run_cli("allocate", request)
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("section, cls", [
    ("model", rotorarm.DroneModel), ("weights", rotorarm.PenaltyWeights),
    ("gains", rotorarm.PidGains), ("sweep", rotorarm.SweepSpec),
    ("solver", rotorarm.SolverSettings),
])
def test_config_sections_take_exactly_their_dataclass_fields(tmp_path, section, cls):
    names = {f.name for f in fields(cls)} - {"geometry"}  # the model's geometry is its own key
    values = dict.fromkeys(names, 0)
    config = cli.load_run_config(write_json_file(tmp_path / "c.json", {section: values}))
    assert config[section] == values
    for extra in ("geometry", "bogus"):
        path = write_json_file(tmp_path / "c.json", {section: {**values, extra: 0}})
        with pytest.raises(ValueError, match=f"unknown config.{section} key"):
            cli.load_run_config(path)


@pytest.mark.parametrize("sweep, extra", [
    ({"kind": "continuous_roll", "seconds_per_rev": 0.0}, {}),
    ({"kind": "hover"}, {"duration": 0.0}),
    ({"kind": "hover"}, {"noise_std": -0.05}),
    ({"kind": "hover"}, {"model": {"inertia": [0.0, 0.02, 0.02]}}),
    ({"kind": "hover"}, {"solver": {"throttle_step_limit": 0.0}}),
], ids=["zero_seconds_per_rev", "zero_duration", "negative_noise", "singular_inertia",
        "zero_throttle_step_limit"])
def test_fly_rejects_invalid_flight_inputs_with_an_error_line(tmp_path, capsys, sweep, extra):
    config = write_json_file(tmp_path / "c.json", {"sweep": sweep, "out": str(tmp_path / "f"),
                                                   **extra})
    assert run_cli("fly", "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "f").exists()


# ---------------------------------------------------------------------------
# fly


def hover_config(tmp_path, name="config.json", **extra) -> str:
    payload = {"sweep": {"kind": "hover"}, "duration": 1.0, "settle": 0.2,
               "out": str(tmp_path / "flight")}
    payload.update(extra)
    return write_json_file(tmp_path / name, payload)


def test_fly_hover_writes_log_and_stats(tmp_path):
    config = hover_config(tmp_path)
    assert run_cli("fly", "--config", config) == 0
    out = tmp_path / "flight"
    stats = json.loads((out / "flight_stats.json").read_text())
    assert stats["allocator"] == "sqp"
    assert stats["n_ticks"] == 200
    assert stats["n_nonconverged"] == 0
    assert stats["arm_continuity_ok"] is True
    assert stats["pos_mean_m"] < 1e-3
    first = (out / "flight_log.csv").read_bytes()
    assert run_cli("fly", "--config", config) == 0
    assert (out / "flight_log.csv").read_bytes() == first
    assert len(first.splitlines()) == 201


def test_a_flight_whose_demand_overflows_exits_2(tmp_path, capsys):
    """Finite gains, but kp_pos * error passes the largest float: a numerical failure, not a bad input.

    On either allocator the one line on stderr is the failure: no numpy
    warning comes first.
    """
    for allocator in ("sqp", "pinv"):
        config = hover_config(tmp_path, allocator=allocator, gains={"kp_pos": 1e308}, duration=3.0,
                              sweep={"kind": "position", "amplitude": 5.0, "start_delay": 0.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("fly", "--config", config) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: the flight broke down at tick \d+: "
                            r"force must be a finite 3-vector, got .*\n", err), (allocator, err)
        assert [str(w.message) for w in caught] == [], allocator
        assert not (tmp_path / "flight").exists()


def test_a_config_setting_the_removed_pid_mode_exits_1_as_an_unknown_key(tmp_path, capsys):
    for value in (False, True, "no"):
        config = hover_config(tmp_path, gains={"proportional_on_measurement": value})
        assert run_cli("fly", "--config", config) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown config.gains key(s): proportional_on_measurement\n"
        assert not (tmp_path / "flight").exists()


def test_fly_settle_window_must_leave_samples(tmp_path):
    config = hover_config(tmp_path, settle=5.0)  # longer than the 1 s flight
    assert run_cli("fly", "--config", config) == 1


def test_fly_many_configs_need_distinct_outs(tmp_path):
    config_a = hover_config(tmp_path, "a.json", out=str(tmp_path / "a"))
    config_b = hover_config(tmp_path, "b.json", out=str(tmp_path / "b"), allocator="pinv")
    assert run_cli("fly", "--config", config_a, "--config", config_b) == 0
    assert json.loads((tmp_path / "a" / "flight_stats.json").read_text())["allocator"] == "sqp"
    assert json.loads((tmp_path / "b" / "flight_stats.json").read_text())["allocator"] == "pinv"

    clash = hover_config(tmp_path, "c.json", out=str(tmp_path / "a"))
    assert run_cli("fly", "--config", config_a, "--config", clash) == 1
    assert run_cli("fly", "--config", config_a, "--config", config_b,
                   "--out", tmp_path / "forced") == 1


def test_fly_noise_seed_controls_output(tmp_path):
    out = tmp_path / "flight"
    config = hover_config(tmp_path, noise_std=0.05, duration=0.5)
    assert run_cli("fly", "--config", config, "--seed", 1) == 0
    first = (out / "flight_log.csv").read_bytes()
    assert run_cli("fly", "--config", config, "--seed", 1) == 0
    assert (out / "flight_log.csv").read_bytes() == first
    assert run_cli("fly", "--config", config, "--seed", 2) == 0
    assert (out / "flight_log.csv").read_bytes() != first


# ---------------------------------------------------------------------------
# compare


def test_compare_small_sweep(tmp_path):
    config = write_json_file(tmp_path / "c.json", {
        "sweep": {"kind": "orientation", "axes": ["yaw"], "amplitude": 0.3,
                  "step_duration": 1.0, "start_delay": 0.1},
        "settle": 0.5,
        "out": str(tmp_path / "cmp"),
    })
    assert run_cli("compare", "--config", config) == 0
    out = tmp_path / "cmp"
    assert (out / "compare_sqp.csv").exists()
    assert (out / "compare_pinv.csv").exists()
    payload = json.loads((out / "comparison.json").read_text())
    # a 0.3 rad wiggle never drives an arm through vertical: inconclusive by design
    assert payload["n_pairs"] == 0
    assert payload["p_value_one_sided"] == 1.0
    assert payload["mean_peak_sqp_m"] is None  # NaN serializes as null
    assert payload["sqp"]["allocator"] == "sqp"
    assert payload["pinv"]["allocator"] == "pinv"
    assert payload["sqp"]["pos_mean_m"] < 0.05


# ---------------------------------------------------------------------------
# console script


def _declared_entry_point(name: str) -> str:
    """The `module:attr` target that pyproject.toml declares for console script `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return scripts[name]


def _check_efficiency_smoke(command, tmp_path, env=None):
    """Run `command efficiency ...` in its own process and check its output and files."""
    proc = subprocess.run(
        [*command, "efficiency", "--geometry", "square_rot", "--samples", "128",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "x1 range" in proc.stdout
    assert (tmp_path / "efficiency_summary.json").exists()


def test_console_script_smoke(tmp_path):
    """The declared entry point runs as `rotorarm` would, without an install.

    The `-c` program is the one an installed launcher runs; PYTHONPATH gets the
    absolute directory holding the imported package, so the subprocess finds
    the same source whatever its working directory.
    """
    module, attr = _declared_entry_point("rotorarm").split(":")
    launcher = (f"import sys; sys.argv[0] = 'rotorarm'; "
                f"from {module} import {attr}; sys.exit({attr}())")
    package_root = str(Path(rotorarm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    _check_efficiency_smoke([sys.executable, "-c", launcher], tmp_path, env=env)


@pytest.mark.skipif(shutil.which("rotorarm") is None, reason="not installed on PATH")
def test_installed_console_script(tmp_path):
    _check_efficiency_smoke([shutil.which("rotorarm")], tmp_path)
