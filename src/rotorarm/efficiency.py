"""Minimum-effort hover solutions and orientation-sweep efficiency metrics.

For a chosen body-frame up direction the hover problem asks for per-arm
forces, each confined to its arm's admissible set (a plane for rotating
arms, a line or ray for fixed ones), that balance gravity with zero net
torque while minimizing the sum of squared force magnitudes. Two scalars
summarize the solution: the fraction of produced thrust that points up,
and the fraction of installed thrust capacity needed to hover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import _abs_max, _add_reduce
from .geometry import DroneGeometry
from .tables import write_csv

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class InfeasibleHoverError(RuntimeError):
    """Hover is not achievable for the requested orientation.

    `solve_hover` raises it as `_NoHover`, whose message is formatted only
    when it is read; catch this class.
    """


class _NoHover(InfeasibleHoverError):
    """`solve_hover`'s error: args are up's x, y and z, the geometry's name and the
    force and torque residuals, formatted when the message is read. With no
    `__init__` of its own it pickles as any exception does."""

    def __str__(self):
        x, y, z, name, force_res, torque_res = self.args
        return (f"no admissible hover for up=({x:.6f}, {y:.6f}, {z:.6f}) on {name}: "
                f"residual force {force_res:.3e} N, torque {torque_res:.3e} Nm")


@dataclass
class HoverProblem:
    geometry: DroneGeometry
    up: np.ndarray  # body-frame direction opposing gravity, unit length
    mass: float = 2.4
    gravity: float = 9.81

    def __post_init__(self):
        up = self.up = np.asarray(self.up, dtype=float)
        if up.shape != (3,):
            raise ValueError("up must be a finite 3-vector")
        x, y, z = up.tolist()
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("up must be a finite 3-vector")
        norm = math.sqrt((x * x + y * y) + z * z)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"up must be unit length, got norm {norm}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not (self.gravity > 0.0 and math.isfinite(self.gravity)):
            raise ValueError(f"gravity must be positive, got {self.gravity}")
        # solve_hover's residuals and the per-arm force norms square force components of the
        # weight's size
        weight = float(self.mass) * float(self.gravity)
        if not math.isfinite(weight * weight):
            raise ValueError(f"weight mass * gravity must have a finite square, "
                             f"got {self.mass} * {self.gravity}")


@dataclass
class HoverSolution:
    forces: np.ndarray  # (n_arms, 3) per-arm force vectors, N
    active: np.ndarray  # per-arm flag; False when a one-sided arm was clamped to zero
    # per-arm force magnitudes, the bits of np.linalg.norm(forces, axis=1)
    norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.norms = np.array([math.sqrt((x * x + y * y) + z * z) for x, y, z in self.forces.tolist()])


def solve_hover(problem: HoverProblem) -> HoverSolution:
    """Minimum sum-of-squared-forces hover solution.

    Solves the stacked linear balance in per-arm force coordinates with a
    minimum-norm least-squares solve. One-sided (unidirectional) arms that
    come out negative are clamped to zero one at a time, most negative
    first, and the reduced system is re-solved; at most one clamp per arm.
    Each solve is one product with the pseudo-inverse of the free columns,
    cached per clamp set on the hover map. The clamp sets are nested, so a
    clamp can only grow the least-squares residual: the loop gives up at
    the first clamp set whose residual norm already exceeds the hypot of
    the force and torque tolerances, and quotes that set's residuals. The
    forces of a feasible hover are the coordinates of the final set, the
    ones whose residual the feasibility test checked; non-finite
    coordinates raise LinAlgError.
    """
    g = problem.geometry
    fm = g.hover_map
    weight = problem.mass * problem.gravity
    x, y, z = problem.up.tolist()
    target = np.array([weight * x, weight * y, weight * z, 0.0, 0.0, 0.0])

    clamped = 0  # bit c set: column c is clamped to zero
    threshold = -1e-12 * weight
    tol_force = 1e-8 * weight
    tol_torque = tol_force * max(g.max_radius, 1e-9)
    hopeless = False
    for _ in range(g.n_arms + 1):
        free = fm.free_columns(clamped)
        sol = free.pinv.dot(target)
        if clamped:
            force_res, torque_res = _residual_norms(free.matrix.dot(sol) - target)
            hopeless = math.hypot(force_res, torque_res) > math.hypot(tol_force, tol_torque)
            if hopeless:
                break
        coords = sol.tolist()
        worst, lowest = -1, threshold
        for k in free.one_sided:  # ascending, so the first of equal minima wins
            if coords[k] < lowest:
                worst, lowest = k, coords[k]
        if worst < 0:
            break
        clamped |= 1 << free.cols[worst]

    if not clamped:
        force_res, torque_res = _residual_norms(free.matrix.dot(sol) - target)
    if hopeless or force_res > tol_force or torque_res > tol_torque:
        raise _NoHover(x, y, z, g.name, force_res, torque_res)

    if not all(map(math.isfinite, coords)):
        raise np.linalg.LinAlgError(f"least-squares hover solve failed for up=({x}, {y}, {z}) on {g.name}")
    # np.add.at's order: per arm, 0.0 plus each free column's share in column
    # order; a clamped column would only add a zero
    forces = [0.0] * (3 * g.n_arms)
    for c, (dx, dy, dz), arm in zip(coords, free.directions, free.arms):
        i = 3 * arm
        forces[i] += c * dx
        forces[i + 1] += c * dy
        forces[i + 2] += c * dz
    return HoverSolution(np.array(forces).reshape(g.n_arms, 3), free.active)


def _residual_norms(residual: np.ndarray) -> tuple[float, float]:
    """Lengths of the force and the torque part of a 6-vector wrench residual."""
    fx, fy, fz, tx, ty, tz = residual.tolist()
    return math.sqrt((fx * fx + fy * fy) + fz * fz), math.sqrt((tx * tx + ty * ty) + tz * tz)


def upward_fraction(solution: HoverSolution, up) -> float:
    """Share of total produced thrust that points along `up` (x1 in outputs)."""
    up = np.asarray(up, dtype=float)
    total = _add_reduce(solution.norms.tolist())
    if total < 1e-12:
        raise ValueError("hover solution produces no thrust; fraction undefined")
    return _add_reduce(solution.forces.dot(up).tolist()) / total


def capacity_fraction(solution: HoverSolution, mass: float, gravity: float, n_arms: int) -> float:
    """Hover weight over installed capacity at the busiest arm's level (x2 in outputs).

    With every arm sized to the largest force actually used, this is the
    fraction of that installed thrust needed to hover.
    """
    peak = _abs_max(solution.norms.tolist())  # np.max of the non-negative norms, NaN included
    if peak < 1e-12:
        raise ValueError("hover solution produces no thrust; fraction undefined")
    return mass * gravity / (peak * n_arms)


def fibonacci_sphere(n_samples: int) -> np.ndarray:
    """Deterministic, nearly uniform unit-sphere sampling (n_samples, 3)."""
    k = np.arange(n_samples)
    z = 1.0 - (2.0 * k + 1.0) / n_samples
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * k
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


@dataclass
class EfficiencyMap:
    """Per-orientation efficiency samples plus range summary."""

    name: str
    ups: np.ndarray
    x1: np.ndarray  # upward thrust fraction per sample (NaN when infeasible)
    x2: np.ndarray  # capacity fraction per sample (NaN when infeasible)
    mass: float
    gravity: float
    # (sample index, its error) per infeasible sample, in index order; str() of an
    # error gives its message, formatted when read. No traceback is kept.
    failures: list[tuple[int, InfeasibleHoverError]] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.ups)

    def summary(self) -> dict:
        feasible = np.isfinite(self.x1)
        if not np.any(feasible):
            raise InfeasibleHoverError(f"no feasible orientation among {self.n_samples} samples")
        return {
            "geometry": self.name,
            "n_samples": int(self.n_samples),
            "n_infeasible": int(len(self.failures)),
            "x1_min": float(np.nanmin(self.x1)),
            "x1_max": float(np.nanmax(self.x1)),
            "x2_min": float(np.nanmin(self.x2)),
            "x2_max": float(np.nanmax(self.x2)),
        }

    def table(self) -> tuple[list[str], np.ndarray]:
        """Column names and an (n_samples, 5) matrix; infeasible rows hold NaN."""
        header = ["up_x", "up_y", "up_z", "x1", "x2"]
        return header, np.column_stack([self.ups, self.x1, self.x2])

    def write_csv(self, path) -> None:
        write_csv(path, *self.table())


def sweep_orientations(
    geometry: DroneGeometry,
    n_samples: int = 2000,
    mass: float = 2.4,
    gravity: float = 9.81,
) -> EfficiencyMap:
    """Evaluate both efficiency metrics over a Fibonacci lattice of up directions.

    Infeasible orientations (possible with one-sided fixed arms) are recorded
    as NaN samples rather than aborting the sweep, and their errors in
    `failures`.
    """
    if n_samples < 100:
        raise ValueError(f"need at least 100 samples for a meaningful sweep, got {n_samples}")
    ups = fibonacci_sphere(n_samples)
    x1 = np.full(n_samples, np.nan)
    x2 = np.full(n_samples, np.nan)
    failures: list[tuple[int, InfeasibleHoverError]] = []
    for i, up in enumerate(ups):
        try:
            sol = solve_hover(HoverProblem(geometry, up, mass, gravity))
        except InfeasibleHoverError as exc:
            # a traceback would keep every solve_hover frame of the sweep alive
            failures.append((i, exc.with_traceback(None)))
            continue
        x1[i] = upward_fraction(sol, up)
        x2[i] = capacity_fraction(sol, mass, gravity, geometry.n_arms)
    return EfficiencyMap(geometry.name, ups, x1, x2, mass, gravity, failures)
