"""Hover solutions and efficiency metrics against analytic symmetry points."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from helpers import (
    capacity_fraction_oracle,
    hover_norms_oracle,
    nan_lstsq_column,
    random_unit,
    same_bits,
    solve_hover_reference,
    upward_fraction_oracle,
)
from rotorarm import (
    CATALOG_IDS,
    Arm,
    DroneGeometry,
    EfficiencyMap,
    HoverProblem,
    InfeasibleHoverError,
    build_catalog,
    capacity_fraction,
    fibonacci_sphere,
    force_map,
    solve_hover,
    sweep_orientations,
    upward_fraction,
)
from rotorarm import allocation, efficiency
from rotorarm.efficiency import HoverSolution
from rotorarm.geometry import FIXED_UNIDIRECTIONAL, ROTATING, default_zero_dir

EZ = np.array([0.0, 0.0, 1.0])


def test_fibonacci_sphere_is_a_deterministic_unit_lattice():
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pts, fibonacci_sphere(500))
    assert np.min(pts[:, 2]) < -0.99 and np.max(pts[:, 2]) > 0.99
    # near-uniform: every octant gets close to its fair share
    octant = (pts[:, 0] > 0) & (pts[:, 1] > 0) & (pts[:, 2] > 0)
    assert 40 <= int(np.sum(octant)) <= 85


def test_hover_problem_validation():
    g = build_catalog("octahedron_rot")
    not_finite_3_vectors = ([0.0, math.nan, 1.0], [0.0, math.inf, 1.0], [-math.inf, 0.0, 0.0],
                            [0.0, 1.0], [[0.0], [0.0], [1.0]])
    for up in not_finite_3_vectors:
        for given_up in (up, np.array(up)):
            with pytest.raises(ValueError, match="finite 3-vector"):
                HoverProblem(g, given_up)
    with pytest.raises(ValueError, match=r"unit length, got norm 2\.0$"):
        HoverProblem(g, np.array([0.0, 0.0, 2.0]))
    # the unit-norm check allows 1e-6
    with pytest.raises(ValueError, match=r"unit length, got norm 1\.000002$"):
        HoverProblem(g, np.array([0.0, 0.0, 1.0 + 2e-6]))
    accepted = HoverProblem(g, [0.0, 0.0, 1.0 + 5e-7])
    assert accepted.up.dtype == float and accepted.up.shape == (3,)
    assert accepted.up.tolist() == [0.0, 0.0, 1.0 + 5e-7]
    HoverProblem(g, np.array([0.0, 0.0, 1.0 - 5e-7]))
    with pytest.raises(ValueError):
        HoverProblem(g, EZ, mass=-1.0)
    with pytest.raises(ValueError):
        HoverProblem(g, EZ, gravity=0.0)


def test_solve_hover_balances_weight_without_torque(rng):
    g = build_catalog("octahedron_rot")
    for _ in range(20):
        up = random_unit(rng)
        problem = HoverProblem(g, up, mass=2.4, gravity=9.81)
        sol = solve_hover(problem)
        weight = problem.mass * problem.gravity
        np.testing.assert_allclose(sol.forces.sum(axis=0), weight * up, atol=1e-8 * weight)
        torque = np.cross(g.endpoints, sol.forces).sum(axis=0)
        np.testing.assert_allclose(torque, 0.0, atol=1e-8 * weight)
        # rotating arms only produce thrust inside their plane
        np.testing.assert_allclose(np.einsum("ij,ij->i", sol.forces, g.axes), 0.0, atol=1e-10)


def test_solve_hover_is_minimum_norm(rng):
    # the stacked coordinate vector must be orthogonal to the wrench-map null space
    g = build_catalog("octahedron_rot")
    fm = force_map(g)
    basis = null_space(fm.matrix)
    assert basis.shape == (12, 6)
    for _ in range(10):
        sol = solve_hover(HoverProblem(g, random_unit(rng)))
        coords = np.stack([
            np.einsum("ij,ij->i", sol.forces, g.plane_block[:, 0, :3]),
            np.einsum("ij,ij->i", sol.forces, g.plane_block[:, 1, :3]),
        ], axis=1).ravel()
        np.testing.assert_allclose(basis.T @ coords, 0.0, atol=1e-9 * max(np.linalg.norm(coords), 1.0))


def test_vertex_up_octahedron_uses_four_arms():
    g = build_catalog("octahedron_rot")
    problem = HoverProblem(g, EZ)
    sol = solve_hover(problem)
    x2 = capacity_fraction(sol, problem.mass, problem.gravity, g.n_arms)
    assert abs(x2 - 2.0 / 3.0) < 1e-9
    assert int(np.sum(sol.norms > 1e-6)) == 4
    # the two arms whose rotation axis is vertical cannot help lift
    np.testing.assert_allclose(sol.norms[4:], 0.0, atol=1e-9)
    lift = problem.mass * problem.gravity / 4.0
    np.testing.assert_allclose(sol.norms[:4], lift, atol=1e-9)


def test_face_up_octahedron_wastes_a_fixed_share():
    g = build_catalog("octahedron_rot")
    up = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    sol = solve_hover(HoverProblem(g, up))
    x1 = upward_fraction(sol, up)
    assert abs((1.0 - x1) - 0.18) < 0.01


def test_flat_hexagon_hover_is_lossless():
    g = build_catalog("hexagon_rot")
    problem = HoverProblem(g, EZ)
    sol = solve_hover(problem)
    assert upward_fraction(sol, EZ) == pytest.approx(1.0, abs=1e-9)
    assert capacity_fraction(sol, problem.mass, problem.gravity, 6) == pytest.approx(1.0, abs=1e-9)


def test_metrics_do_not_depend_on_mass_or_gravity():
    g = build_catalog("octahedron_rot")
    ups = fibonacci_sphere(128)
    reference = None
    for mass, gravity in ((1.0, 9.81), (2.4, 3.7), (5.0, 1.0)):
        metrics = np.array([
            (upward_fraction(s, up), capacity_fraction(s, mass, gravity, g.n_arms))
            for up in ups
            for s in [solve_hover(HoverProblem(g, up, mass, gravity))]
        ])
        if reference is None:
            reference = metrics
        else:
            np.testing.assert_allclose(metrics, reference, atol=1e-9)


def test_unidirectional_arms_clamp_or_fail():
    g = build_catalog("hexagon_tilt30_fixed")
    sol = solve_hover(HoverProblem(g, EZ))
    along = np.einsum("ij,ij->i", sol.forces, g.zero_dirs)
    assert np.all(along >= -1e-9)  # never pushes against a one-way propeller
    with pytest.raises(InfeasibleHoverError):
        solve_hover(HoverProblem(g, -EZ))  # inverted flight needs reversed thrust


def test_solve_hover_is_the_lstsq_reference_bit_for_bit():
    """Same forces, active flags and infeasible orientations as one lstsq per clamp set."""
    ups = fibonacci_sphere(2000)
    for config_id in CATALOG_IDS:
        g = build_catalog(config_id)
        n_infeasible = 0
        for up in ups:
            problem = HoverProblem(g, up)
            reference = solve_hover_reference(problem)
            if reference.solution is None:
                n_infeasible += 1
                with pytest.raises(InfeasibleHoverError):
                    solve_hover(problem)
                continue
            sol = solve_hover(problem)
            assert same_bits(sol.forces, reference.solution.forces), (config_id, up)
            np.testing.assert_array_equal(sol.active, reference.solution.active)
        assert n_infeasible == (1942 if config_id == "hexagon_tilt30_fixed" else 0)


def assert_figures_are_the_array_formulas(sol, problem):
    """norms, x1 and x2 of a solution byte for byte as np.linalg.norm, np.sum and np.max give them."""
    n_arms = len(sol.forces)
    assert same_bits(sol.norms, hover_norms_oracle(sol.forces))
    assert same_bits(upward_fraction(sol, problem.up), upward_fraction_oracle(sol.forces, problem.up))
    assert same_bits(capacity_fraction(sol, problem.mass, problem.gravity, n_arms),
                     capacity_fraction_oracle(sol.forces, problem.mass, problem.gravity, n_arms))


def test_norms_and_fractions_are_the_array_formulas_bit_for_bit():
    ups = fibonacci_sphere(2000)
    for config_id in CATALOG_IDS:
        g = build_catalog(config_id)
        for up in ups:
            problem = HoverProblem(g, up)
            try:
                sol = solve_hover(problem)
            except InfeasibleHoverError:
                continue
            assert_figures_are_the_array_formulas(sol, problem)


@pytest.mark.parametrize("forces", [
    [[1.0, 2.0, 3.0], [0.5, math.nan, 0.0], [0.0, 0.0, 4.0]],
    [[math.nan, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 4.0]],
    [[1.0, 2.0, 3.0], [0.0, 0.0, 4.0], [2.0, -1.0, math.nan]],
    [[1.0, 2.0, 3.0], [0.0, -math.inf, 0.0], [0.0, 0.0, 4.0]],
    [[-0.0, 0.0, -0.0], [3e-170, -4e-170, 1e-300], [1e200, -1e200, 2e154]],
], ids=["nan_in_the_middle", "nan_first", "nan_last", "inf", "zeros_tiny_huge"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
def test_figures_of_a_hand_built_solution_are_the_array_formulas(forces):
    forces = np.array(forces)
    sol = HoverSolution(forces, np.ones(len(forces), dtype=bool))
    problem = HoverProblem(build_catalog("octahedron_rot"), np.array([0.6, 0.0, 0.8]))
    assert_figures_are_the_array_formulas(sol, problem)


def _mixed_layout(rng, n_rotating: int, n_unidirectional: int) -> DroneGeometry:
    """Rotating and unidirectional arms with endpoints in a 0.5 m cube and random directions."""
    arms = []
    for kind in [ROTATING] * n_rotating + [FIXED_UNIDIRECTIONAL] * n_unidirectional:
        endpoint = rng.uniform(-0.5, 0.5, size=3)
        direction = random_unit(rng)
        zero_dir = default_zero_dir(direction) if kind == ROTATING else direction
        arms.append(Arm(endpoint, direction, zero_dir, int(rng.choice((-1, 1))), kind))
    return DroneGeometry(arms, name="mixed")


# continuous draws come from a seeded generator, so no two arms or
# coordinates tie and the clamp order is the reference's by construction
@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rotating=st.integers(1, 4),
       n_unidirectional=st.integers(1, 5))
def test_solve_hover_agrees_with_the_reference_on_mixed_layouts(seed, n_rotating, n_unidirectional):
    rng = np.random.default_rng(seed)
    g = _mixed_layout(rng, n_rotating, n_unidirectional)
    for _ in range(20):
        problem = HoverProblem(g, random_unit(rng))
        reference = solve_hover_reference(problem).solution
        if reference is None:
            with pytest.raises(InfeasibleHoverError):
                solve_hover(problem)
            continue
        sol = solve_hover(problem)
        weight = problem.mass * problem.gravity
        np.testing.assert_allclose(sol.forces, reference.forces, rtol=0.0, atol=1e-9 * weight)
        np.testing.assert_array_equal(sol.active, reference.active)
        assert_figures_are_the_array_formulas(sol, problem)


def test_a_failed_least_squares_solve_raises_linalgerror(monkeypatch):
    monkeypatch.setattr(efficiency, "lstsq_column", nan_lstsq_column())
    with pytest.raises(np.linalg.LinAlgError, match="least-squares hover solve failed"):
        solve_hover(HoverProblem(build_catalog("octahedron_rot"), EZ))


def test_public_lstsq_gives_the_sweep_its_bits(monkeypatch):
    """Through np.linalg.lstsq, as on a numpy without the gufunc under that name, every table bit stays."""
    tables = {cid: sweep_orientations(build_catalog(cid), 300).table()[1] for cid in CATALOG_IDS}
    lstsq, calls = np.linalg.lstsq, []

    def counted_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(efficiency, "lstsq_column", allocation._lstsq_column_from(SimpleNamespace()))
    for config_id, table in tables.items():
        assert same_bits(sweep_orientations(build_catalog(config_id), 300).table()[1], table), config_id
    assert len(calls) == 6 * 300 - 291  # one per feasible sample; 291 are infeasible on the fixed layout


def test_infeasible_hover_message_gives_up_and_residuals():
    g = build_catalog("hexagon_tilt30_fixed")
    pattern = re.compile(
        r"no admissible hover for up=\((-?\d+\.\d{6}), (-?\d+\.\d{6}), (-?\d+\.\d{6})\) "
        r"on hexagon_tilt30_fixed: residual force (\S+) N, torque (\S+) Nm")
    for up in fibonacci_sphere(200):
        problem = HoverProblem(g, up)
        reference = solve_hover_reference(problem)
        if reference.solution is not None:
            continue
        with pytest.raises(InfeasibleHoverError) as raised:
            solve_hover(problem)
        match = pattern.fullmatch(str(raised.value))
        assert match, str(raised.value)
        assert [float(v) for v in match.groups()[:3]] == [round(v, 6) for v in up.tolist()]
        assert match[4] == f"{reference.force_residual:.3e}"
        # the torque residual is the pseudo-inverse's, equal to lstsq's up to rounding
        assert float(match[5]) == pytest.approx(reference.torque_residual, rel=1e-2, abs=1e-13)


def test_fraction_helpers_reject_zero_thrust():
    empty = HoverSolution(np.zeros((4, 3)), np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        upward_fraction(empty, EZ)
    with pytest.raises(ValueError):
        capacity_fraction(empty, 2.4, 9.81, 4)


def test_sweep_orientations_ranges_and_summary():
    g = build_catalog("octahedron_rot")
    eff = sweep_orientations(g, n_samples=256)
    assert eff.n_samples == 256 and not eff.failures
    assert np.all(np.isfinite(eff.x1)) and np.all(np.isfinite(eff.x2))
    assert np.all((eff.x1 > 0.7) & (eff.x1 <= 1.0 + 1e-9))
    assert np.all((eff.x2 > 0.6) & (eff.x2 <= 1.0 + 1e-9))
    summary = eff.summary()
    assert summary["geometry"] == "octahedron_rot"
    assert summary["n_infeasible"] == 0
    assert summary["x1_min"] == pytest.approx(np.min(eff.x1))
    assert summary["x2_max"] == pytest.approx(np.max(eff.x2))


def test_sweep_orientations_requires_enough_samples():
    with pytest.raises(ValueError):
        sweep_orientations(build_catalog("octahedron_rot"), n_samples=99)


def test_sweep_orientations_records_infeasible_as_nan():
    eff = sweep_orientations(build_catalog("hexagon_tilt30_fixed"), n_samples=128)
    assert eff.failures
    failed = [i for i, _ in eff.failures]
    assert np.all(np.isnan(eff.x1[failed]))
    assert eff.summary()["n_infeasible"] == len(failed)
    # hovering nearly straight-up works; flying inverted cannot
    feasible_z = eff.ups[np.isfinite(eff.x1)][:, 2]
    assert np.max(feasible_z) > 0.95
    assert np.all(eff.ups[failed][:, 2] < 0.95)
    inverted = eff.ups[:, 2] < -0.95
    assert np.all(np.isnan(eff.x1[inverted]))


def test_efficiency_map_csv_round_trip(tmp_path):
    eff = sweep_orientations(build_catalog("square_rot"), n_samples=100)
    header, rows = eff.table()
    assert header == ["up_x", "up_y", "up_z", "x1", "x2"]
    assert rows.shape == (100, 5)
    path = tmp_path / "eff.csv"
    eff.write_csv(path)
    again = np.genfromtxt(path, delimiter=",", skip_header=1)
    np.testing.assert_array_equal(again, rows)  # 17 significant digits survive the trip


def test_efficiency_map_summary_requires_a_feasible_sample():
    bad = EfficiencyMap("none", fibonacci_sphere(100), np.full(100, np.nan),
                        np.full(100, np.nan), 2.4, 9.81, failures=[(i, "x") for i in range(100)])
    with pytest.raises(InfeasibleHoverError):
        bad.summary()
