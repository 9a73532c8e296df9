"""Hover solutions and efficiency metrics against analytic symmetry points."""

import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from flight_digests import compare
from helpers import (
    capacity_fraction_oracle,
    hover_norms_oracle,
    pinv_hover_forces_oracle,
    plant_nan_pinv,
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
from rotorarm.efficiency import HoverSolution
from rotorarm.geometry import FIXED_UNIDIRECTIONAL, ROTATING, ForceMap, default_zero_dir

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
    # each finite, but their product overflows, or its square does
    big = "1" + "0" * 200
    for mass, gravity, shown in ((1e300, 1e10, r"1e\+300 \* 10000000000\.0"), (1e300, 1.0, r"1e\+300 \* 1\.0"),
                                 (1.35e154, 1.0, r"1\.35e\+154 \* 1\.0"), (10**200, 10**200, rf"{big} \* {big}")):
        with pytest.raises(ValueError, match=rf"weight mass \* gravity must have a finite square, got {shown}$"):
            HoverProblem(g, EZ, mass=mass, gravity=gravity)
    HoverProblem(g, EZ, mass=1e150, gravity=1.0)
    HoverProblem(g, EZ, mass=1.34e154, gravity=1.0)  # sqrt of the largest float is 1.3408e154


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


def test_a_weight_whose_square_is_finite_sweeps_as_the_nominal_one():
    """No residual or per-arm norm overflows at the largest weights HoverProblem accepts."""
    ups = fibonacci_sphere(200)
    for config_id in CATALOG_IDS:
        g = build_catalog(config_id)
        nominal = sweep_orientations(g, len(ups))
        heavy = sweep_orientations(g, len(ups), mass=1.34e154, gravity=1.0)
        assert [i for i, _ in heavy.failures] == [i for i, _ in nominal.failures]
        np.testing.assert_allclose(heavy.x1, nominal.x1, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(heavy.x2, nominal.x2, rtol=0.0, atol=1e-15)


def _fractions_or_none(geometry, up):
    """(upward, capacity) fractions of the hover at `up`, None where it cannot hover."""
    try:
        solution = solve_hover(HoverProblem(geometry, up))
    except InfeasibleHoverError:
        return None
    return upward_fraction(solution, up), capacity_fraction(solution, 2.4, 9.81, geometry.n_arms)


# the rotation group of the octahedron: signed permutation matrices with determinant +1
OCTAHEDRAL_ROTATIONS = [
    matrix for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
    for matrix in [np.eye(3)[list(perm)] * np.array(signs)[:, None]]
    if np.linalg.det(matrix) > 0.0
]


def _unit(v):
    return np.array(v) / math.sqrt(sum(x * x for x in v))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 0.01))
def test_octahedron_hover_efficiency_has_the_octahedral_symmetry(v):
    """The layout's design claim: all 24 rotations of the octahedron leave both figures as they are.

    The hover map leaves out drag torque, so propeller spins play no part.
    """
    assert len(OCTAHEDRAL_ROTATIONS) == 24
    g = build_catalog("octahedron_rot")
    up = _unit(v)
    expected = _fractions_or_none(g, up)
    for rotation in OCTAHEDRAL_ROTATIONS:
        np.testing.assert_allclose(_fractions_or_none(g, rotation @ up), expected, rtol=0.0, atol=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
def test_tilted_hexagon_hover_efficiency_repeats_every_third_of_a_turn(xy):
    """Tilts of up to 35 degrees from body-up, on both sides of the edge of the feasible cap."""
    g = build_catalog("hexagon_tilt30_fixed")
    up = _unit((*xy, 1.0))
    c, s = -0.5, math.sqrt(3.0) / 2.0
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    expected = _fractions_or_none(g, up)
    for rotation in (turn, turn @ turn):
        turned = _fractions_or_none(g, rotation @ up)
        assert (turned is None) == (expected is None)
        if expected is not None:
            np.testing.assert_allclose(turned, expected, rtol=0.0, atol=1e-12)


def test_unidirectional_arms_clamp_or_fail():
    g = build_catalog("hexagon_tilt30_fixed")
    sol = solve_hover(HoverProblem(g, EZ))
    along = np.einsum("ij,ij->i", sol.forces, g.zero_dirs)
    assert np.all(along >= -1e-9)  # never pushes against a one-way propeller
    with pytest.raises(InfeasibleHoverError):
        solve_hover(HoverProblem(g, -EZ))  # inverted flight needs reversed thrust


def test_solve_hover_is_the_lstsq_reference_bit_for_bit():
    """The clamp sets and infeasible orientations of one lstsq per clamp set, with the pinv oracle's bits.

    The forces are np.linalg.pinv's product on the reference's final clamp
    set, bit for bit, and agree with the reference's lstsq forces to the
    tolerance of the mixed-layout property.
    """
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
            assert same_bits(sol.forces, pinv_hover_forces_oracle(problem, reference.free)), (config_id, up)
            np.testing.assert_array_equal(sol.active, reference.solution.active)
            weight = problem.mass * problem.gravity
            np.testing.assert_allclose(sol.forces, reference.solution.forces, rtol=0.0, atol=1e-9 * weight)
        assert n_infeasible == (1942 if config_id == "hexagon_tilt30_fixed" else 0)


def test_an_infeasible_tilted_hexagon_sample_gives_up_at_its_first_clamp(monkeypatch):
    """Two clamp-set solves per infeasible lattice sample, the unclamped set and one clamp; one per feasible.

    The reference's loop, run to its end, reaches the same verdict after
    further clamps, with a clamp set on the way whose residual decides.
    """
    g = build_catalog("hexagon_tilt30_fixed")
    solved = []
    free_columns = ForceMap.free_columns
    monkeypatch.setattr(ForceMap, "free_columns",
                        lambda fm, clamped=0: solved.append(clamped) or free_columns(fm, clamped))
    n_infeasible = 0
    for up in fibonacci_sphere(2000):
        problem = HoverProblem(g, up)
        solved.clear()
        try:
            solve_hover(problem)
        except InfeasibleHoverError:
            n_infeasible += 1
            assert len(solved) == 2 and solved[0] == 0 and bin(solved[1]).count("1") == 1, solved
            reference = solve_hover_reference(problem)
            assert reference.solution is None and reference.deciding is not None
            assert np.count_nonzero(~reference.free) > 1  # the full loop clamps further
        else:
            assert solved == [0]
    assert n_infeasible == 1942


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


def test_a_failed_least_squares_solve_raises_linalgerror():
    g = plant_nan_pinv(build_catalog("octahedron_rot"))
    with pytest.raises(np.linalg.LinAlgError, match="least-squares hover solve failed"):
        solve_hover(HoverProblem(g, EZ))


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
        # the residuals of the clamp set that decided, not of the set the full loop ends on
        force_res, torque_res = reference.deciding
        assert match[4] == f"{force_res:.3e}"
        # the torque residual is the pseudo-inverse's, equal to lstsq's up to rounding
        assert float(match[5]) == pytest.approx(torque_res, rel=1e-2, abs=1e-13)

    # a sweep keeps each error, without its traceback, and formats its message when read
    eff = sweep_orientations(g, 2000)
    assert len(eff.failures) == 1942
    for i, exc in eff.failures:
        assert isinstance(exc, InfeasibleHoverError) and exc.__traceback__ is None
        with pytest.raises(InfeasibleHoverError) as raised:
            solve_hover(HoverProblem(g, eff.ups[i]))
        assert str(exc) == str(raised.value)
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is type(exc) and str(again) == str(exc)


def test_digest_summaries_compare_a_failures_hash_as_text(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"efficiency_x": {"n_infeasible": 3, "failures_sha256": "0" * 64}}))
    b.write_text(json.dumps({"efficiency_x": {"n_infeasible": 3, "failures_sha256": "f" * 64},
                             "efficiency_y": {"failures_sha256": "1" * 64}}))
    assert compare(a, b) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1] == ["efficiency_x", "n_infeasible", "3", "3", "+0"]
    assert rows[2] == ["efficiency_x", "failures_sha256", "0" * 14, "f" * 14, "changed"]
    assert rows[3] == ["efficiency_y", "failures_sha256", "(none)", "1" * 14, "changed"]
    assert rows[4] == ["2", "of", "3", "figures", "moved"]
    assert compare(b, b) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[2] == ["efficiency_x", "failures_sha256", "f" * 14, "f" * 14]
    assert rows[4] == ["0", "of", "3", "figures", "moved"]


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
    failures = [(i, InfeasibleHoverError("x")) for i in range(100)]
    bad = EfficiencyMap("none", fibonacci_sphere(100), np.full(100, np.nan),
                        np.full(100, np.nan), 2.4, 9.81, failures=failures)
    with pytest.raises(InfeasibleHoverError) as raised:
        bad.summary()
    assert type(raised.value) is InfeasibleHoverError
    assert str(raised.value) == "no feasible orientation among 100 samples"
