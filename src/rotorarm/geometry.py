"""Arm layouts for multirotors with rotating or fixed-tilt thrust units.

An arm carries one thrust unit at endpoint ``endpoint`` (body frame, meters).
Rotating arms revolve their thrust direction about the arm's long axis
``axis``; ``zero_dir`` is the thrust direction at arm angle zero. Fixed arms
keep a constant thrust direction (stored in both ``axis`` and ``zero_dir``).
``spin`` is the propeller handedness (+1 or -1) and sets the sign of the
drag torque about the thrust direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .spatial import UNIT_TOL, normalize

ROTATING = "rotating"
FIXED_UNIDIRECTIONAL = "fixed_unidirectional"
FIXED_BIDIRECTIONAL = "fixed_bidirectional"
ARM_KINDS = (ROTATING, FIXED_UNIDIRECTIONAL, FIXED_BIDIRECTIONAL)

# arm length of the reference hexarotor build (412 mm motor-to-motor diagonal)
DEFAULT_RADIUS = 0.206

CATALOG_IDS = (
    "octahedron_rot",
    "tetrahedron_rot",
    "cube_rot",
    "hexagon_rot",
    "square_rot",
    "hexagon_tilt30_fixed",
)

_EX = np.array([1.0, 0.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


class GeometryError(ValueError):
    """Raised for unknown catalog ids, malformed files, or invalid layouts."""


@dataclass(frozen=True, eq=False)
class Arm:
    endpoint: np.ndarray
    axis: np.ndarray
    zero_dir: np.ndarray
    spin: int
    kind: str

    def __post_init__(self):
        for name in ("endpoint", "axis", "zero_dir"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise GeometryError(f"arm {name} must be a finite 3-vector, got {v!r}")
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if self.spin not in (-1, 1):
            raise GeometryError(f"arm spin must be +1 or -1, got {self.spin!r}")
        if self.kind not in ARM_KINDS:
            raise GeometryError(f"unknown arm kind {self.kind!r}, expected one of {ARM_KINDS}")


def default_zero_dir(axis) -> np.ndarray:
    """Deterministic zero-angle thrust direction for a rotating arm.

    Projects body-up onto the arm's thrust plane; falls back to body-x when
    the arm axis is (anti)parallel to body-up.
    """
    axis = np.asarray(axis, dtype=float)
    p = _EZ - np.dot(_EZ, axis) * axis
    n = np.linalg.norm(p)
    if n < UNIT_TOL:
        return _EX.copy()
    return p / n


class DroneGeometry:
    """Immutable collection of arms plus precomputed per-arm arrays.

    ``plane_block`` (n_arms x 2 x 6) is the thrust-plane block: row k of
    arm i is [b_k; r_i x b_k], a unit force along the basis vector b_k and
    its torque about the body origin. b_1 is the zero-angle direction and
    b_2 = axis x b_1 on rotating arms, 0 on fixed ones, so a rotating arm
    thrusts along cos(a) b_1 + sin(a) b_2. The hover map and every
    DroneModel wrench are taken from this one block.
    """

    def __init__(self, arms, name: str = "custom"):
        self.arms = tuple(arms)
        self.name = str(name)
        if len(self.arms) == 0:
            raise GeometryError("geometry needs at least one arm")
        self.endpoints = np.array([a.endpoint for a in self.arms])
        self.axes = np.array([a.axis for a in self.arms])
        self.zero_dirs = np.array([a.zero_dir for a in self.arms])
        self.spins = np.array([float(a.spin) for a in self.arms])
        self.rotating = np.array([a.kind == ROTATING for a in self.arms])
        self.unidirectional = np.array([a.kind == FIXED_UNIDIRECTIONAL for a in self.arms])
        basis = np.stack(
            [self.zero_dirs, np.where(self.rotating[:, None], np.cross(self.axes, self.zero_dirs), 0.0)],
            axis=1,
        )
        self.plane_block = np.concatenate([basis, np.cross(self.endpoints[:, None], basis)], axis=2)
        self.max_radius = float(np.max(np.linalg.norm(self.endpoints, axis=1)))
        self.hover_map = force_map(self)
        for arr in (
            self.endpoints,
            self.axes,
            self.zero_dirs,
            self.spins,
            self.rotating,
            self.unidirectional,
            self.plane_block,
        ):
            arr.flags.writeable = False

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    def __repr__(self) -> str:
        return f"DroneGeometry({self.name!r}, {self.n_arms} arms)"


@dataclass(frozen=True, eq=False)
class FreeColumns:
    """The columns of a ForceMap left free when some are clamped to zero.

    ``cols`` are their indices in ascending order, ``matrix`` is
    ``ForceMap.matrix[:, cols]`` and ``pinv`` its pseudo-inverse, with
    ``cutoff``, the singular-value cutoff of ``np.linalg.lstsq(..., rcond=None)``.
    ``one_sided`` lists the positions within ``cols`` of unidirectional columns.
    Per free column, ``directions`` holds its force direction (x, y, z) and
    ``arms`` its owning arm; ``active`` flags the arms with no clamped column.
    """

    cols: tuple[int, ...]
    matrix: np.ndarray
    pinv: np.ndarray
    cutoff: float
    one_sided: tuple[int, ...]
    directions: tuple[tuple[float, float, float], ...]
    arms: tuple[int, ...]
    active: np.ndarray


@dataclass
class ForceMap:
    """Linear map from per-arm force coordinates to the body wrench.

    ``matrix`` is 6 x K: the top three rows produce net force, the bottom
    three net torque about the body origin (drag torque excluded; it is a
    control-allocation detail, not a hover-capability one); ``matrix[:3].T``
    holds each column's force direction and ``col_arm`` the owning arm index.
    Every geometry builds its own once, as ``DroneGeometry.hover_map``. All
    arrays are read-only, those of ``free_columns`` included.
    """

    matrix: np.ndarray
    col_arm: np.ndarray
    unidirectional_cols: np.ndarray
    _free: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.matrix, self.col_arm, self.unidirectional_cols):
            arr.flags.writeable = False

    def free_columns(self, clamped: int = 0) -> FreeColumns:
        """The columns whose bit is not set in ``clamped``; built on first use, then cached."""
        entry = self._free.get(clamped)
        if entry is None:
            cols = tuple(c for c in range(self.matrix.shape[1]) if not clamped >> c & 1)
            matrix = self.matrix[:, np.array(cols, dtype=np.intp)]
            cutoff = float(np.finfo(float).eps * max(matrix.shape))
            pinv = np.linalg.pinv(matrix, rcond=cutoff)
            one_sided = tuple(k for k, c in enumerate(cols) if self.unidirectional_cols[c])
            directions = tuple(map(tuple, matrix[:3].T.tolist()))
            owners = self.col_arm.tolist()
            arms = tuple(owners[c] for c in cols)
            active = np.ones(owners[-1] + 1, dtype=bool)
            active[[owners[c] for c in range(len(owners)) if clamped >> c & 1]] = False
            for arr in (matrix, pinv, active):
                arr.flags.writeable = False
            entry = self._free[clamped] = FreeColumns(cols, matrix, pinv, cutoff, one_sided,
                                                      directions, arms, active)
        return entry


def force_map(geometry: DroneGeometry) -> ForceMap:
    """Both plane_block rows per rotating arm and the first per fixed arm, in arm order."""
    n = geometry.n_arms
    keep = np.column_stack([np.ones(n, dtype=bool), geometry.rotating]).ravel()
    owners = np.repeat(np.arange(n), 2)[keep]
    # Fortran order: the bits of solve_hover's matrix @ coords depend on the layout
    matrix = geometry.plane_block.reshape(-1, 6)[keep].T
    return ForceMap(matrix, owners, geometry.unidirectional[owners])


@dataclass
class ValidationReport:
    violations: list[str]
    hover_map_rank: int
    notes: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(geometry: DroneGeometry) -> ValidationReport:
    """Check unit norms, plane orthogonality, and hover-map rank."""
    violations: list[str] = []
    notes: list[str] = []
    if geometry.n_arms < 4:
        violations.append(f"need at least 4 arms, got {geometry.n_arms}")
    for i, arm in enumerate(geometry.arms):
        if abs(np.linalg.norm(arm.axis) - 1.0) > UNIT_TOL:
            violations.append(f"arm {i}: axis is not unit length")
        if abs(np.linalg.norm(arm.zero_dir) - 1.0) > UNIT_TOL:
            violations.append(f"arm {i}: zero_dir is not unit length")
        if arm.kind == ROTATING and abs(np.dot(arm.axis, arm.zero_dir)) > UNIT_TOL:
            violations.append(f"arm {i}: zero_dir must be orthogonal to the arm axis")
        if np.linalg.norm(arm.endpoint) < 1e-12:
            notes.append(f"arm {i}: endpoint at body origin produces no lever-arm torque")
    fm = geometry.hover_map
    rank = int(np.linalg.matrix_rank(fm.matrix))
    if rank < 6:
        violations.append(
            f"hover force map has rank {rank} < 6; some wrench directions are unreachable"
        )
    n_coords = fm.matrix.shape[1]
    if rank >= 6 and n_coords - 6 < 2:
        notes.append(
            f"only {n_coords - 6} redundant force coordinates; little room to optimize"
        )
    if rank >= 6 and np.any(~geometry.rotating):
        notes.append(
            "fixed arms present: rank 6 does not guarantee every wrench is reachable "
            "(per-arm direction or sign limits still apply)"
        )
    elif rank >= 6 and geometry.n_arms == 4:
        notes.append(
            "4 rotating arms give 8 force coordinates at rank 6; the reachable "
            "wrench set is still bounded by per-arm thrust limits"
        )
    return ValidationReport(violations, rank, notes)


def _polygon_layout(n: int):
    angles = [2.0 * math.pi * k / n for k in range(n)]
    dirs = [np.array([math.cos(t), math.sin(t), 0.0]) for t in angles]
    return dirs


def build_catalog(config_id: str, radius: float = DEFAULT_RADIUS) -> DroneGeometry:
    """Construct one of the built-in layouts, scaled to the given arm radius."""
    if not (radius > 0.0 and math.isfinite(radius)):
        raise GeometryError(f"arm radius must be positive and finite, got {radius}")
    if config_id not in CATALOG_IDS:
        raise GeometryError(f"unknown geometry id {config_id!r}; known ids: {', '.join(CATALOG_IDS)}")

    arms: list[Arm] = []
    if config_id == "octahedron_rot":
        # collinear pairs carry opposite spin so their drag torques cancel
        # when both thrust in the same direction at equal throttle
        dirs = [_EX, -_EX, np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0]), _EZ, -_EZ]
        for k, d in enumerate(dirs):
            arms.append(Arm(radius * d, d, default_zero_dir(d), +1 if k % 2 == 0 else -1, ROTATING))
    elif config_id == "tetrahedron_rot":
        diag = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        for k, d in enumerate(diag):
            x = normalize(np.array(d, dtype=float))
            arms.append(Arm(radius * x, x, default_zero_dir(x), +1 if k % 2 == 0 else -1, ROTATING))
    elif config_id == "cube_rot":
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    x = normalize(np.array([sx, sy, sz], dtype=float))
                    spin = sx * sy * sz  # flips with the antipode
                    arms.append(Arm(radius * x, x, default_zero_dir(x), spin, ROTATING))
    elif config_id in ("hexagon_rot", "square_rot"):
        n = 6 if config_id == "hexagon_rot" else 4
        for k, d in enumerate(_polygon_layout(n)):
            arms.append(Arm(radius * d, d, default_zero_dir(d), +1 if k % 2 == 0 else -1, ROTATING))
    elif config_id == "hexagon_tilt30_fixed":
        # flat hexacopter with thrust axes alternately tilted +-30 degrees
        # about the radial direction; conventional unidirectional propellers
        tilt = math.radians(30.0)
        for k, d in enumerate(_polygon_layout(6)):
            sign = 1.0 if k % 2 == 0 else -1.0
            c, s = math.cos(sign * tilt), math.sin(sign * tilt)
            # rotate body-up about the radial axis d by the tilt angle
            n_dir = c * _EZ + s * np.cross(d, _EZ)
            n_dir = normalize(n_dir)
            arms.append(Arm(radius * d, n_dir, n_dir, +1 if k % 2 == 0 else -1, FIXED_UNIDIRECTIONAL))
    geometry = DroneGeometry(arms, name=config_id)
    report = validate(geometry)
    if not report.ok:  # catalog entries must always be well formed
        raise GeometryError(f"catalog geometry {config_id} failed validation: {report.violations}")
    return geometry


_ARM_KEYS = {"r", "x", "n", "z0", "s", "kind"}


def _parse_arm(entry: dict, index: int) -> Arm:
    if not isinstance(entry, dict):
        raise GeometryError(f"arm {index}: expected an object, got {type(entry).__name__}")
    unknown = set(entry) - _ARM_KEYS
    if unknown:
        raise GeometryError(f"arm {index}: unknown keys {sorted(unknown)}")
    try:
        r = np.asarray(entry["r"], dtype=float)
        kind = entry["kind"]
        spin = int(entry["s"])
    except KeyError as missing:
        raise GeometryError(f"arm {index}: missing required key {missing}") from None
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"arm {index}: {exc}") from None
    if kind == ROTATING:
        if "x" not in entry:
            raise GeometryError(f"arm {index}: rotating arms need an axis 'x'")
        axis = np.asarray(entry["x"], dtype=float)
        zero = np.asarray(entry["z0"], dtype=float) if "z0" in entry else default_zero_dir(normalize(axis))
        return Arm(r, axis, zero, spin, ROTATING)
    if kind in (FIXED_UNIDIRECTIONAL, FIXED_BIDIRECTIONAL):
        if "n" not in entry:
            raise GeometryError(f"arm {index}: fixed arms need a thrust direction 'n'")
        n_dir = np.asarray(entry["n"], dtype=float)
        return Arm(r, n_dir, n_dir, spin, kind)
    raise GeometryError(f"arm {index}: unknown arm kind {kind!r}")


def load_geometry(source) -> DroneGeometry:
    """Load a custom geometry from a JSON file, dict, or JSON string.

    Schema: {"name": str, "arms": [{"r": [..], "kind": .., "s": +-1,
    "x": [..] or "n": [..], "z0": [..] optional}, ...]}. Lengths in meters.
    The layout is validated and a GeometryError lists every violation.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        try:
            if Path(text).exists():
                text = Path(text).read_text()
        except OSError:  # e.g. inline JSON long enough to overflow a path name
            pass
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"geometry file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GeometryError("geometry document must be a JSON object")
    unknown = set(doc) - {"name", "arms"}
    if unknown:
        raise GeometryError(f"unknown geometry keys {sorted(unknown)}")
    if "arms" not in doc or not isinstance(doc["arms"], list):
        raise GeometryError("geometry document needs an 'arms' array")
    arms = [_parse_arm(entry, i) for i, entry in enumerate(doc["arms"])]
    geometry = DroneGeometry(arms, name=doc.get("name", "custom"))
    report = validate(geometry)
    if not report.ok:
        raise GeometryError("; ".join(report.violations))
    return geometry
