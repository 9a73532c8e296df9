"""Catalog layouts, validation rules, and the JSON geometry loader."""

import json
import math

import numpy as np
import pytest

from helpers import (
    hover_matrix_oracle,
    plane_rows_oracle,
    same_bits,
    thrust_plane_basis,
    vectored_thrust_matrix_oracle,
    wrench_rows_oracle,
)
from rotorarm import (
    CATALOG_IDS,
    DEFAULT_RADIUS,
    Arm,
    DroneGeometry,
    DroneModel,
    GeometryError,
    build_catalog,
    default_zero_dir,
    force_map,
    load_geometry,
    validate,
)
from rotorarm.allocation import vectored_thrust_matrix
from rotorarm.geometry import FIXED_BIDIRECTIONAL, FIXED_UNIDIRECTIONAL, ROTATING

EZ = np.array([0.0, 0.0, 1.0])


def _mixed_geometry() -> DroneGeometry:
    """Octahedron arms with one unidirectional and one bidirectional fixed arm in place of the last two."""
    octa = build_catalog("octahedron_rot")
    tilted = np.array([0.0, 0.6, 0.8])
    fixed = [Arm(octa.arms[4].endpoint, tilted, tilted, 1, FIXED_UNIDIRECTIONAL),
             Arm(octa.arms[5].endpoint, -tilted, -tilted, -1, FIXED_BIDIRECTIONAL)]
    return DroneGeometry([*octa.arms[:4], *fixed], name="mixed")


def _block_layouts() -> list[DroneGeometry]:
    return [build_catalog(config_id) for config_id in CATALOG_IDS] + [_mixed_geometry()]


def test_every_catalog_entry_is_fully_actuated():
    for config_id in CATALOG_IDS:
        g = build_catalog(config_id)
        report = validate(g)
        assert report.ok, f"{config_id}: {report.violations}"
        assert report.hover_map_rank == 6
        assert g.n_arms >= 4
        assert g.max_radius == pytest.approx(DEFAULT_RADIUS)
        assert g.max_radius == float(np.max(np.linalg.norm(g.endpoints, axis=1)))


def test_octahedron_layout():
    g = build_catalog("octahedron_rot", radius=0.3)
    assert g.n_arms == 6
    expected = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    np.testing.assert_allclose(g.endpoints, 0.3 * expected, atol=1e-12)
    np.testing.assert_allclose(g.axes, expected, atol=1e-12)
    assert np.all(g.rotating)
    # antipodal arms spin opposite ways so equal thrust cancels drag torque
    np.testing.assert_array_equal(g.spins, [1, -1, 1, -1, 1, -1])
    np.testing.assert_allclose(g.zero_dirs[:4], np.tile(EZ, (4, 1)), atol=1e-12)
    np.testing.assert_allclose(g.zero_dirs[4:], [[1, 0, 0], [1, 0, 0]], atol=1e-12)


def test_thrust_plane_bases_are_orthonormal():
    for g in _block_layouts():
        basis = g.plane_block[..., :3]
        for i, arm in enumerate(g.arms):
            if arm.kind != ROTATING:
                np.testing.assert_array_equal(basis[i, 0], arm.zero_dir)
                np.testing.assert_array_equal(basis[i, 1], 0.0)
                continue
            b1, b2 = thrust_plane_basis(arm)
            assert abs(np.dot(b1, arm.axis)) < 1e-12
            assert abs(np.dot(b2, arm.axis)) < 1e-12
            assert abs(np.dot(b1, b2)) < 1e-12
            assert np.linalg.norm(b1) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(b2) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(basis[i, 0], b1, atol=1e-12)
            np.testing.assert_allclose(basis[i, 1], b2, atol=1e-12)


def test_thrust_plane_basis_rejects_fixed_arms():
    g = build_catalog("hexagon_tilt30_fixed")
    with pytest.raises(GeometryError):
        thrust_plane_basis(g.arms[0])
    np.testing.assert_allclose(g.plane_block[:, 1], 0.0, atol=1e-12)


def test_default_zero_dir(rng):
    np.testing.assert_allclose(default_zero_dir([1.0, 0.0, 0.0]), EZ, atol=1e-12)
    # body-up is in the thrust plane unless the arm axis is vertical
    np.testing.assert_allclose(default_zero_dir(EZ), [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(default_zero_dir(-EZ), [1.0, 0.0, 0.0], atol=1e-12)
    for _ in range(20):
        v = rng.normal(size=3)
        axis = v / np.linalg.norm(v)
        z0 = default_zero_dir(axis)
        assert np.linalg.norm(z0) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.dot(z0, axis)) < 1e-9


def test_geometry_arrays_are_read_only():
    g = build_catalog("octahedron_rot")
    model = DroneModel(g)
    fixed = build_catalog("hexagon_tilt30_fixed").hover_map
    cached = [fm.free_columns(clamped) for fm, clamped in
              ((g.hover_map, 0), (fixed, 0), (fixed, 0b1), (fixed, 0b101001))]
    for arr in (g.endpoints, g.axes, g.zero_dirs, g.spins, g.plane_block, g.hover_map.matrix,
                g.hover_map.col_arm, g.hover_map.unidirectional_cols,
                *(a for free in cached for a in (free.matrix, free.pinv, free.active)),
                model.wrench_block, model.wrench1, model.wrench2, vectored_thrust_matrix(model)):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_free_columns_are_cached_pseudo_inverses():
    for g in _block_layouts():
        fm = g.hover_map
        n_cols = fm.matrix.shape[1]
        for clamped in (0, 0b1, 0b110, (1 << n_cols) - 1):
            free = fm.free_columns(clamped)
            assert fm.free_columns(clamped) is free
            assert free.cols == tuple(c for c in range(n_cols) if not clamped >> c & 1)
            assert same_bits(free.matrix, fm.matrix[:, list(free.cols)])
            assert free.pinv.shape == (len(free.cols), 6)
            if free.cols:
                lstsq_cutoff = np.finfo(float).eps * max(free.matrix.shape)
                np.testing.assert_allclose(free.pinv, np.linalg.pinv(free.matrix, rcond=lstsq_cutoff),
                                           rtol=0.0, atol=1e-12)
            assert free.one_sided == tuple(k for k, c in enumerate(free.cols)
                                           if fm.unidirectional_cols[c])
            assert free.directions == tuple(tuple(fm.matrix[:3, c].tolist()) for c in free.cols)
            assert free.arms == tuple(int(fm.col_arm[c]) for c in free.cols)
            clamped_arms = {int(fm.col_arm[c]) for c in range(n_cols) if clamped >> c & 1}
            assert free.active.tolist() == [i not in clamped_arms for i in range(g.n_arms)]


def test_force_map_octahedron():
    g = build_catalog("octahedron_rot")
    fm = force_map(g)
    assert fm.matrix.shape == (6, 12)
    np.testing.assert_array_equal(fm.col_arm, np.repeat(np.arange(6), 2))
    assert not np.any(fm.unidirectional_cols)
    for col in range(12):
        arm = g.arms[fm.col_arm[col]]
        b1, b2 = thrust_plane_basis(arm)
        expected_dir = b1 if col % 2 == 0 else b2
        np.testing.assert_allclose(fm.matrix[:3, col], expected_dir, atol=1e-12)
        # hover capability ignores drag torque: pure lever-arm cross product
        np.testing.assert_allclose(fm.matrix[3:, col], np.cross(arm.endpoint, expected_dir), atol=1e-12)


def test_hover_map_is_built_once_from_the_moments():
    for g in _block_layouts():
        for i, arm in enumerate(g.arms):
            for k in range(2):
                basis, moment = g.plane_block[i, k, :3], g.plane_block[i, k, 3:]
                assert same_bits(moment, np.cross(arm.endpoint, basis))
        fresh = force_map(g)
        for name in ("matrix", "col_arm", "unidirectional_cols"):
            np.testing.assert_array_equal(getattr(g.hover_map, name), getattr(fresh, name))


def test_every_map_is_the_block_bit_for_bit():
    """The blocks give the bits and layouts of the one-array-per-basis-vector formulas."""
    for g in _block_layouts():
        oracle = hover_matrix_oracle(g)
        assert g.hover_map.matrix.tobytes("A") == oracle.tobytes("A")
        assert g.hover_map.matrix.strides == oracle.strides
        basis1, basis2, moment1, moment2 = plane_rows_oracle(g)
        assert same_bits(g.plane_block, np.stack(
            [np.hstack([basis1, moment1]), np.hstack([basis2, moment2])], axis=1))
        model = DroneModel(g, torque_constant=0.3)
        wrench1, wrench2 = wrench_rows_oracle(model)
        assert same_bits(model.wrench1, wrench1) and same_bits(model.wrench2, wrench2)
        assert np.shares_memory(model.wrench1, model.wrench_block)
        assert np.shares_memory(model.wrench2, model.wrench_block)
        if np.all(g.rotating):
            matrix, oracle = vectored_thrust_matrix(model), vectored_thrust_matrix_oracle(model)
            assert matrix.tobytes("A") == oracle.tobytes("A")
            assert matrix.strides == oracle.strides


def test_force_map_fixed_arms():
    g = build_catalog("hexagon_tilt30_fixed")
    fm = force_map(g)
    assert fm.matrix.shape == (6, 6)
    assert np.all(fm.unidirectional_cols)
    np.testing.assert_allclose(fm.matrix[:3].T, g.zero_dirs, atol=1e-12)


def test_validate_flags_bad_arms():
    arms = [
        Arm(np.array([0.2, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), EZ, 1, ROTATING),
        Arm(np.array([-0.2, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), EZ, -1, ROTATING),
        Arm(np.array([0.0, 0.2, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]), 1, ROTATING),
        Arm(np.array([0.0, -0.2, 0.0]), np.array([0.0, -1.0, 0.0]), EZ, -1, ROTATING),
    ]
    report = validate(DroneGeometry(arms))
    assert not report.ok
    text = " ".join(report.violations)
    assert "unit length" in text
    assert "orthogonal" in text


def test_validate_flags_rank_deficiency():
    # four parallel fixed thrusters cannot produce lateral force or roll+pitch torque
    arms = [
        Arm(np.array([x, y, 0.0]), EZ, EZ, int(np.sign(x * y)), FIXED_BIDIRECTIONAL)
        for x, y in ((0.2, 0.2), (0.2, -0.2), (-0.2, 0.2), (-0.2, -0.2))
    ]
    report = validate(DroneGeometry(arms))
    assert not report.ok
    assert any("rank" in v for v in report.violations)


def test_validate_needs_four_arms():
    arms = [Arm(np.array([0.2, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), EZ, 1, ROTATING)]
    report = validate(DroneGeometry(arms))
    assert any("4 arms" in v for v in report.violations)


def test_arm_rejects_bad_fields():
    with pytest.raises(GeometryError):
        Arm(np.array([0.2, 0.0, math.nan]), EZ, EZ, 1, ROTATING)
    with pytest.raises(GeometryError):
        Arm(np.array([0.2, 0.0, 0.0]), EZ, EZ, 2, ROTATING)
    with pytest.raises(GeometryError):
        Arm(np.array([0.2, 0.0, 0.0]), EZ, EZ, 1, "sideways")


def test_build_catalog_rejects_bad_requests():
    with pytest.raises(GeometryError):
        build_catalog("dodecahedron_rot")
    with pytest.raises(GeometryError):
        build_catalog("octahedron_rot", radius=0.0)
    with pytest.raises(GeometryError):
        build_catalog("octahedron_rot", radius=math.inf)


def _as_document(geometry: DroneGeometry) -> dict:
    return {
        "name": geometry.name,
        "arms": [
            {
                "r": list(arm.endpoint),
                "x": list(arm.axis),
                "z0": list(arm.zero_dir),
                "s": int(arm.spin),
                "kind": arm.kind,
            }
            for arm in geometry.arms
        ],
    }


def test_load_geometry_round_trip(tmp_path):
    original = build_catalog("square_rot")
    doc = _as_document(original)

    for source in (doc, json.dumps(doc)):
        loaded = load_geometry(source)
        np.testing.assert_allclose(loaded.endpoints, original.endpoints, atol=1e-15)
        np.testing.assert_allclose(loaded.axes, original.axes, atol=1e-15)
        np.testing.assert_allclose(loaded.zero_dirs, original.zero_dirs, atol=1e-15)
        np.testing.assert_array_equal(loaded.spins, original.spins)

    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    assert load_geometry(path).n_arms == 4


def test_load_geometry_defaults_zero_dir():
    doc = _as_document(build_catalog("square_rot"))
    for arm in doc["arms"]:
        del arm["z0"]
    loaded = load_geometry(doc)
    np.testing.assert_allclose(loaded.zero_dirs, np.tile(EZ, (4, 1)), atol=1e-12)


def test_load_geometry_fixed_arms_use_n():
    doc = {
        "name": "tilted",
        "arms": [
            {"r": list(arm.endpoint), "n": list(arm.zero_dir), "s": int(arm.spin), "kind": arm.kind}
            for arm in build_catalog("hexagon_tilt30_fixed").arms
        ],
    }
    loaded = load_geometry(doc)
    assert np.all(loaded.unidirectional)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(extra=1),
        lambda doc: doc["arms"][0].update(tilt=0.5),
        lambda doc: doc["arms"][0].pop("r"),
        lambda doc: doc["arms"][0].pop("s"),
        lambda doc: doc["arms"][0].pop("kind"),
        lambda doc: doc["arms"][0].pop("x"),
        lambda doc: doc["arms"][0].update(kind="fixed_unidirectional"),  # fixed arms need "n"
        lambda doc: doc["arms"][0].update(s=0),
        lambda doc: doc.update(arms=doc["arms"][:3]),  # too few arms
        lambda doc: doc.pop("arms"),
        lambda doc: doc["arms"][0].update(s=1.9),  # spins are the integers +1 and -1 only
        lambda doc: doc["arms"][0].update(s=-1.5),
        lambda doc: doc["arms"][0].update(s=True),
    ],
)
def test_load_geometry_rejects_malformed_documents(mutate):
    doc = _as_document(build_catalog("square_rot"))
    mutate(doc)
    with pytest.raises(GeometryError):
        load_geometry(doc)


def test_load_geometry_rejects_bad_json_text():
    with pytest.raises(GeometryError):
        load_geometry("{not json")
    with pytest.raises(GeometryError):
        load_geometry("[1, 2, 3]")
