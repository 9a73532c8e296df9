"""The benchmark's own tests: every output check passes on real rotorarm
output and fails on a corrupted copy of it; the tracer counts and restores.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil

import numpy as np
import pytest

import checks
import worker
from tracing import Tracer
from rotorarm import build_catalog, cli, efficiency

WEIGHT = 2.4 * 9.81
N_HOVER = 200


def rewrite_table(path, edit):
    header, rows = checks.read_table(path)
    edit({name: i for i, name in enumerate(header)}, rows)
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(f"{x:.17g}" for x in row) + "\n")


def rewrite_json(path, key, value):
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))


@pytest.fixture(scope="module", params=["octahedron_rot", "hexagon_tilt30_fixed"])
def hover_run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    assert cli.main(["efficiency", "--geometry", request.param, "--samples", str(N_HOVER),
                     "--out", str(out)]) == 0
    return checks.Frame.of(build_catalog(request.param)), out


@pytest.fixture
def hover_copy(hover_run, tmp_path):
    frame, out = hover_run
    for name in ("efficiency_samples.csv", "efficiency_summary.json"):
        shutil.copy(out / name, tmp_path / name)
    return frame, tmp_path / "efficiency_samples.csv", tmp_path / "efficiency_summary.json"


def test_hover_map_matches(hover_copy):
    frame, samples, summary = hover_copy
    assert checks.check_hover_outputs(frame, samples, summary, N_HOVER, WEIGHT) == (N_HOVER, 0)


def test_hover_sample_value_corrupted(hover_copy):
    frame, samples, summary = hover_copy

    def nudge(col, rows):
        k = int(np.nonzero(np.isfinite(rows[:, col["x1"]]))[0][0])
        rows[k, col["x1"]] += 1e-9

    rewrite_table(samples, nudge)
    assert checks.check_hover_outputs(frame, samples, summary, N_HOVER, WEIGHT) == (N_HOVER, 1)


def test_hover_feasibility_corrupted(hover_copy):
    frame, samples, summary = hover_copy

    def flip(col, rows):
        feasible = np.isfinite(rows[:, col["x1"]])
        k = int(np.nonzero(~feasible)[0][0]) if not feasible.all() else 0
        rows[k, col["x1"]], rows[k, col["x2"]] = (0.9, 0.5) if not feasible[k] else (np.nan,) * 2

    rewrite_table(samples, flip)
    assert checks.check_hover_outputs(frame, samples, summary, N_HOVER, WEIGHT) == (N_HOVER, 1)


@pytest.mark.parametrize("key", ["x1_max", "x2_min", "n_infeasible"])
def test_hover_summary_corrupted(hover_copy, key):
    frame, samples, summary = hover_copy
    rewrite_json(summary, key, json.loads(summary.read_text())[key] + 1)
    with pytest.raises(checks.CheckError):
        checks.check_hover_outputs(frame, samples, summary, N_HOVER, WEIGHT)


def test_hover_lattice_corrupted(hover_copy):
    frame, samples, summary = hover_copy
    rewrite_table(samples, lambda col, rows: rows.__setitem__((3, col["up_z"]), 0.5))
    with pytest.raises(checks.CheckError):
        checks.check_hover_outputs(frame, samples, summary, N_HOVER, WEIGHT)


# ---------------------------------------------------------------------------
# flight


FLIGHT_TICKS = 200


@pytest.fixture(scope="module")
def flight_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("flight")
    config = {"geometry": "octahedron_rot", "allocator": "sqp", "model": worker.FlightSqp.model,
              "sweep": {"kind": "orientation", "axes": ["pitch"], "start_delay": 0.0},
              "duration": FLIGHT_TICKS * 0.005, "settle": 0.2, "out": str(out)}
    (out / "config.json").write_text(json.dumps(config))
    assert cli.main(["fly", "--config", str(out / "config.json")]) == 0
    return out


@pytest.fixture
def flight_copy(flight_run, tmp_path):
    for name in ("flight_log.csv", "flight_stats.json"):
        shutil.copy(flight_run / name, tmp_path / name)
    return tmp_path / "flight_log.csv", tmp_path / "flight_stats.json"


def check_flight(paths, n_ticks=FLIGHT_TICKS):
    frame = checks.Frame.of(build_catalog("octahedron_rot"))
    return checks.check_flight_outputs(frame, *paths, worker.FlightSqp.model, n_ticks, 0.2)


def test_flight_matches(flight_copy):
    attempted, failed, figures = check_flight(flight_copy)
    assert (attempted, failed) == (FLIGHT_TICKS, 0)
    assert figures["translational_mismatch"] < 1e-15


@pytest.mark.parametrize("column, delta", [
    ("vz", 1e-9), ("px", 1e-9), ("wx", 1e-8), ("qy", 1e-3), ("u_act", 1e-6), ("a_act", 1e-6),
])
def test_flight_law_corrupted(flight_copy, column, delta):
    log, _ = flight_copy

    def bend(col, rows):
        name = column
        if column in ("u_act", "a_act"):  # on the most loaded arm
            loaded = np.argmax([rows[100, col[f"u_act_{i}"]] for i in range(6)])
            name = f"{column}_{loaded}"
        rows[100, col[name]] += delta

    rewrite_table(log, bend)
    with pytest.raises(checks.CheckError, match="rigid-body law"):
        check_flight(flight_copy)


def test_flight_truncated(flight_copy):
    with pytest.raises(checks.CheckError, match="ticks"):
        check_flight(flight_copy, n_ticks=FLIGHT_TICKS + 1)


def test_flight_arm_jump(flight_copy):
    log, _ = flight_copy
    rewrite_table(log, lambda col, rows: rows.__setitem__((50, col["a_cmd_1"]), rows[50, col["a_cmd_1"]] + 1.0))
    with pytest.raises(checks.CheckError, match="jumps"):
        check_flight(flight_copy)


@pytest.mark.parametrize("key", ["pos_mean_m", "ori_p90_rad", "iterations_max", "n_ticks"])
def test_flight_stats_corrupted(flight_copy, key):
    _, stats = flight_copy
    rewrite_json(stats, key, json.loads(stats.read_text())[key] + 1e-6)
    with pytest.raises(checks.CheckError, match=key):
        check_flight(flight_copy)


def test_flight_nonconverged_tick_counts_as_failed(flight_copy):
    log, stats = flight_copy
    rewrite_table(log, lambda col, rows: rows.__setitem__((7, col["converged"]), 0.0))
    rewrite_json(stats, "n_nonconverged", 1)
    assert check_flight(flight_copy)[:2] == (FLIGHT_TICKS, 1)


# ---------------------------------------------------------------------------
# allocation chain


@pytest.fixture
def chain(tmp_path):
    chain = worker.AllocChain()
    chain.setup()
    chain.prepare(seed=4, out=tmp_path)
    chain.round(worker.Clock(worker.HostReference()))
    return chain


def test_allocation_residuals(chain):
    args = [np.array([sol.throttles for sol in chain.solutions]),
            np.array([sol.angles for sol in chain.solutions]), *chain.demand]
    model = chain.model

    def residuals(u, a, wxyz, force, torque):
        return checks.allocation_residuals(checks.Frame.of(model.geometry), u, a, wxyz, force,
                                           torque, model.thrust_constant, model.torque_constant)

    assert np.all(residuals(*args) <= worker.AllocChain.tol_constraint)
    bent = [x.copy() for x in args]
    bent[1][5, 2] += 1e-3  # one arm angle off
    bent[2][9] = bent[2][9] * np.array([1.0, -1.0, -1.0, -1.0])  # demand in the wrong frame
    bent[0][20, 0] += 1e-4  # one throttle off
    bad = residuals(*bent) > worker.AllocChain.tol_constraint
    assert set(np.nonzero(bad)[0]) == {5, 9, 20}


def test_alloc_chain_counts_corrupted_solution(chain):
    assert chain.check() == (worker.BLOCK_ITEMS, 0)
    chain.round(worker.Clock(worker.HostReference()))
    chain.solutions[3].angles[0] += 1e-3
    chain.solutions[8].converged = False
    assert chain.check() == (worker.BLOCK_ITEMS, 2)
    chain.iterations[:] = [9] * len(chain.iterations)
    with pytest.raises(checks.CheckError, match="median"):
        chain.finish()


# ---------------------------------------------------------------------------
# tracer and the benchmark definition


def test_tracer_counts_raises_and_restores():
    geometry = build_catalog("hexagon_tilt30_fixed")
    original = efficiency.solve_hover
    with Tracer() as tracer:
        assert efficiency.solve_hover is not original
        result = efficiency.sweep_orientations(geometry, n_samples=100)
    assert efficiency.solve_hover is original
    stats = tracer.layer_stats()
    calls, inclusive, self_ns, raised = stats["efficiency.solve_hover"]
    assert calls == 100 and raised == len(result.failures) > 0
    assert stats["geometry.force_map"][0] == 100
    sweep_calls, sweep_incl, sweep_self, _ = stats["efficiency.sweep_orientations"]
    assert sweep_calls == 1 and 0 < sweep_self < sweep_incl and inclusive <= sweep_incl
    assert self_ns < inclusive


def test_benchmark_json_lists_every_metric():
    spec = json.loads((worker.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "items_per_s", "item_us_p50", "item_us_p90", "item_ref_p50", "peak_rss_mb"}
    layer_names = [f"{layer}.{stat}" for layer, stat in worker.PER_LAYER]
    assert [m["name"] for m in spec["per_layer"]] == layer_names + ["host.ref_us", "trace.overhead_pct"]


def test_reference_kernel_is_positive():
    assert worker.HostReference().measure() > 0
    assert math.isfinite(worker.HostReference()._once())
