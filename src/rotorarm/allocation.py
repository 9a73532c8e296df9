"""Wrench-to-actuator allocation for rotating-arm multirotors.

Maps a demanded world-frame force/torque pair onto per-arm throttles and
arm angles. Two routes are provided:

* ``sqp_allocate``: an equality-constrained solver that performs Newton
  steps on the first-order optimality system of a soft-penalty objective.
  Arm angles evolve continuously, so vertical-axis alignments are crossed
  without step discontinuities.
* ``pinv_allocate``: the classic linear baseline. Per-arm thrust vectors
  are expressed in thrust-plane coordinates, making the wrench map constant;
  the minimum-norm solve is a single pseudoinverse multiply. Extracting the
  angle through atan2 reintroduces discontinuities near alignments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import DroneGeometry
from .spatial import Quaternion

TWO_PI = 2.0 * math.pi


class SolverError(RuntimeError):
    """Raised when a linear solve inside the allocator cannot be completed."""


def _quiet() -> np.errstate:
    """A fresh scope that silences every floating-point warning; a scope enters only once."""
    return np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore")


def _solve_vector_from(gufuncs):
    """np.linalg.solve(matrix, rhs) for a float square matrix and a 1-D rhs, bit for bit.

    Returns two functions, ``solve_vector`` and ``solve_quieted``. Both call
    ``gufuncs.solve1``, the LAPACK gufunc that np.linalg.solve itself
    dispatches to, without that wrapper's type checks; ``solve_vector``
    enters a `_quiet` scope of its own, and ``solve_quieted`` is for a
    caller already inside one. Where ``gufuncs`` has no such name both
    call np.linalg.solve. Either way a singular matrix gives all NaN
    instead of a LinAlgError.
    """
    solve1 = getattr(gufuncs, "solve1", None)
    if solve1 is None:
        def solve_vector(matrix, rhs) -> np.ndarray:
            try:
                return np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError:
                return np.full(len(rhs), math.nan)
        return solve_vector, solve_vector

    def solve_quieted(matrix, rhs) -> np.ndarray:
        return solve1(matrix, rhs, signature="dd->d")

    def solve_vector(matrix, rhs) -> np.ndarray:
        with _quiet():
            return solve1(matrix, rhs, signature="dd->d")
    return solve_vector, solve_quieted


# numpy's private LAPACK gufunc is looked up once here; a numpy without it
# under this name gets the public function, with the same bits
solve_vector, _solve_quieted = _solve_vector_from(_umath_linalg)


@dataclass(frozen=True)
class PenaltyWeights:
    """Soft-cost coefficients for throttle use, arm-rate use, and limit overruns; immutable once built.

    Throttle outside [throttle_low, throttle_high] and arm rates beyond
    rate_limit are discouraged with one-sided quadratics, keeping the
    objective piecewise quadratic with a continuous first derivative.

    `throttle` may be a per-arm array, kept as a read-only copy; a
    supervisor can then raise the cost of individual arms (for example
    while walking one across a singular direction) with
    ``dataclasses.replace``, without touching the shared scalar defaults.
    The solver's per-arm penalty tables are built once per weights object
    and arm count and kept on the object, which is why it cannot change.
    """

    throttle: float = 1.0
    arm_rate: float = 0.01  # s^2; rad/s maps to the same cost scale as throttle
    limit: float = 100.0
    throttle_low: float = 0.0
    throttle_high: float = 1.0
    rate_limit: float = TWO_PI  # rad/s

    def __post_init__(self):
        if not isinstance(self.throttle, numbers.Real):
            throttle = np.array(self.throttle, dtype=float)
            throttle.setflags(write=False)
            object.__setattr__(self, "throttle", throttle)
        # one test per weight, as a NaN fails both comparisons; np.min of per-arm
        # throttle weights is NaN when any of them is. An infinite weight turns
        # a zero penalty into NaN; an infinite rate limit is no limit.
        weights = (np.min(self.throttle), np.max(self.throttle), self.arm_rate, self.limit)
        if not (all(0.0 < w < math.inf for w in weights) and self.rate_limit > 0.0):
            raise ValueError("penalty weights must be positive and finite, the rate limit positive")
        if not self.throttle_high > self.throttle_low:
            raise ValueError("throttle_high must exceed throttle_low")
        object.__setattr__(self, "_tables", {})  # arm count -> _PenaltyTables, see _penalized


def _default_inertia() -> np.ndarray:
    return np.diag([0.02, 0.02, 0.02])


@dataclass
class DroneModel:
    """Physical constants shared by the allocator and the simulator.

    ``wrench_block`` (n_arms x 2 x 6, read-only) scales the geometry's
    ``plane_block``: row k of arm i is the body wrench [force; torque] per
    unit throttle thrusting along basis vector b_k, drag torque included.
    ``wrench1`` and ``wrench2`` are its views [:, 0] and [:, 1]. It is built
    once here and serves every allocator, the flight loop and the pinv
    matrix. So do the two read-only (2 n_arms, 6) blocks [wrench1; wrench2]
    and [wrench2; wrench1] of `_wrench_pair`, stacked in one array.
    """

    geometry: DroneGeometry
    thrust_constant: float = 15.0  # N of thrust per unit throttle
    torque_constant: float = 0.18  # Nm of drag torque per unit throttle
    control_period: float = 0.005  # s between allocator calls
    mass: float = 2.4  # kg
    gravity: float = 9.81  # m/s^2
    inertia: np.ndarray = field(default_factory=_default_inertia)

    def __post_init__(self):
        # a chained comparison that fails also rejects NaN
        if not (0.0 < self.thrust_constant < math.inf and 0.0 <= self.torque_constant < math.inf):
            raise ValueError("thrust_constant must be positive, torque_constant non-negative, "
                             "both finite")
        if not all(0.0 < v < math.inf for v in (self.control_period, self.mass, self.gravity)):
            raise ValueError("control_period, mass, and gravity must be positive and finite")
        inertia = np.asarray(self.inertia, dtype=float)
        if inertia.shape == (3,):
            inertia = np.diag(inertia)
        if inertia.shape != (3, 3) or not np.all(np.isfinite(inertia)):
            raise ValueError("inertia must be a finite 3x3 matrix or 3-vector of diagonals")
        try:
            np.linalg.cholesky(inertia)  # reads one triangle only, so symmetry is checked apart
            positive_definite = True
        except np.linalg.LinAlgError:
            positive_definite = False
        if not (positive_definite and np.array_equal(inertia, inertia.T)):
            raise ValueError(f"inertia must be symmetric positive definite, got {inertia.tolist()}")
        self.inertia = inertia
        g = self.geometry
        self._rotating = g.rotating.tolist()
        self._all_rotating = all(self._rotating)
        mu, drag = self.thrust_constant, self.torque_constant * g.spins[:, None, None]
        basis, moment = g.plane_block[..., :3], g.plane_block[..., 3:]
        self.wrench_block = np.concatenate([mu * basis, mu * moment + drag * basis], axis=2)
        self.wrench_block.flags.writeable = False
        self.wrench1, self.wrench2 = self.wrench_block[:, 0], self.wrench_block[:, 1]
        self._pair_blocks = np.stack((np.concatenate((self.wrench1, self.wrench2)),
                                      np.concatenate((self.wrench2, self.wrench1))))
        self._pair_blocks.flags.writeable = False

    def _wrench_pair(self, angles: list) -> np.ndarray:
        """[W; dW/da] of `unit_wrenches` as one (2 n_arms, 6) array, from the angles as floats.

        With c and s per arm, the coefficient columns [c; c] and [s; -s]
        times the blocks [wrench1; wrench2] and [wrench2; wrench1] give c
        wrench1 + s wrench2 over c wrench2 + (-s) wrench1, which has the
        bits of c wrench2 - s wrench1, as a - b is a + (-b) exactly.
        math.cos and math.sin stand in for np.cos and np.sin, whose bits they
        matched on every draw of the oracle tests.
        """
        if self._all_rotating:
            c, s = list(map(math.cos, angles)), list(map(math.sin, angles))
        else:
            c = [math.cos(a) if r else 1.0 for a, r in zip(angles, self._rotating)]
            s = [math.sin(a) if r else 0.0 for a, r in zip(angles, self._rotating)]
        products = np.array(c + c + s + [-v for v in s]).reshape(2, -1, 1) * self._pair_blocks
        pair = products[0]
        pair += products[1]
        return pair

    def wrenches_at(self, angles) -> np.ndarray:
        """W of `unit_wrenches` alone, for callers that need no derivative."""
        return self.unit_wrenches(angles)[0]

    def unit_wrenches(self, angles) -> tuple[np.ndarray, np.ndarray]:
        """Per-arm wrench W per unit throttle at the given arm angles, and dW/da.

        On rotating arms W = cos(a) wrench1 + sin(a) wrench2, so dW/da =
        -sin(a) wrench1 + cos(a) wrench2 and d2W/da2 = -W. Fixed arms ignore
        their angle: W = wrench1 and dW/da = 0. Both are views of one
        `_wrench_pair`.
        """
        n = self.geometry.n_arms
        pair = self._wrench_pair(np.asarray(angles, dtype=float).tolist())
        return pair[:n], pair[n:]

    @cached_property
    def _thrust_plane_pinv(self) -> tuple[np.ndarray, int]:
        """Pseudoinverse of vectored_thrust_matrix and its rank, built on the first pinv call."""
        matrix = vectored_thrust_matrix(self)
        return np.linalg.pinv(matrix), int(np.linalg.matrix_rank(matrix))

    @cached_property
    def _kkt_diagonals(self) -> np.ndarray:
        """Flat indices of the per-arm entries that `_assemble` writes into the KKT matrix.

        In write order: the throttle and angle diagonals, then the
        throttle-angle coupling and its mirror.
        """
        n = self.geometry.n_arms
        dim = 2 * n + 6
        u = np.arange(n)  # throttle rows
        a = n + u  # angle rows
        index = np.concatenate((u * dim + u, a * dim + a, u * dim + a, a * dim + u))
        index.flags.writeable = False
        return index

    @property
    def hover_throttle(self) -> float:
        """Equal-share throttle that would carry the weight if all arms pushed up."""
        return self.mass * self.gravity / (self.thrust_constant * self.geometry.n_arms)


@dataclass(frozen=True)
class AllocatorInput:
    """One wrench demand at one attitude; immutable once built.

    ``force`` and ``torque`` are read-only copies, so the body-frame wrench,
    computed on first use and shared by every later caller, cannot go stale.
    """

    orientation: Quaternion
    force: np.ndarray  # demanded net force, world frame, N
    torque: np.ndarray  # demanded net torque, world frame, Nm

    def __post_init__(self):
        for name in ("force", "torque"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,) or not all(map(math.isfinite, v.tolist())):
                raise ValueError(f"{name} must be a finite 3-vector, got {v!r}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @cached_property
    def _body_wrench(self) -> np.ndarray:
        # v @ R is R^T v: world to body for both rows at once
        wrench = (np.array((self.force, self.torque)) @ self.orientation.to_matrix()).ravel()
        wrench.setflags(write=False)
        return wrench

    def body_wrench(self) -> np.ndarray:
        """Demanded [force; torque] in the body frame (read-only, computed once)."""
        return self._body_wrench


@dataclass
class AllocatorState:
    """Warm-start data: current iterate plus the previous tick's arm angles."""

    throttles: np.ndarray
    angles: np.ndarray
    multipliers: np.ndarray
    prev_angles: np.ndarray

    def __post_init__(self):
        self.throttles = np.asarray(self.throttles, dtype=float)
        self.angles = np.asarray(self.angles, dtype=float)
        self.multipliers = np.asarray(self.multipliers, dtype=float)
        self.prev_angles = np.asarray(self.prev_angles, dtype=float)

    @classmethod
    def cold_start(cls, model: DroneModel) -> "AllocatorState":
        n = model.geometry.n_arms
        return cls(np.full(n, model.hover_throttle), np.zeros(n), np.zeros(6), np.zeros(n))


@dataclass
class AllocatorSolution:
    throttles: np.ndarray
    angles: np.ndarray
    multipliers: np.ndarray
    iterations: int
    residual: float  # constraint violation norm at the returned iterate
    objective: float
    converged: bool

    def next_warm(self) -> AllocatorState:
        """Warm start for the next control tick."""
        return AllocatorState(
            self.throttles.copy(), self.angles.copy(), self.multipliers.copy(), self.angles.copy()
        )


# ---------------------------------------------------------------------------
# constraint residual


def constraint_residual(throttles, angles, inp: AllocatorInput, model: DroneModel) -> np.ndarray:
    """Produced-minus-demanded body wrench; zero at an exact allocation."""
    throttles = np.asarray(throttles, dtype=float)
    angles = np.asarray(angles, dtype=float)
    return throttles @ model.wrenches_at(angles) - inp.body_wrench()


# ---------------------------------------------------------------------------
# objective


class _PenaltyTables(NamedTuple):
    """Per-entry coefficients of the penalty over one stacked vector, as Python floats."""

    weight: list
    low: list
    high: list
    limit: float
    two_weight: list  # 2 w: the curvature inside the band
    two_weight_over: list  # 2 w + 2 limit: the curvature outside it
    two_limit: float


def _penalty_tables(weight, low, high, limit: float) -> _PenaltyTables:
    """The tables of `_penalty` and `_penalty_slopes` for the given per-entry weights and band.

    With positive weights and a finite limit, the curvature 2 w + 2 limit
    (d != 0) is one of the two curvature entries, bit for bit.
    """
    two_limit = 2.0 * limit
    two_weight = [2.0 * w for w in weight]
    return _PenaltyTables(weight, low, high, limit, two_weight, [t + two_limit for t in two_weight],
                          two_limit)


def _penalty(x, tables: _PenaltyTables) -> tuple[list, list]:
    """Cost w x^2 + limit d^2 per entry, and d, the distance of x outside [low, high].

    x is a sequence of Python floats, one per table entry, and both come
    back as lists. d = x - clip(x, low, high) is x - high above the band,
    x - low below it and +0 inside, so one pass gives every one-sided
    quadratic. The clip keeps x itself on a tie and on NaN, as
    np.minimum(high, np.maximum(low, x)) does, which keeps the derivatives'
    signed zeros.
    """
    limit = tables.limit
    p, over = [], []
    for xi, wi, lo, hi in zip(x, tables.weight, tables.low, tables.high):
        c = lo if lo > xi else xi
        v = xi - (hi if hi < c else c)
        p.append(wi * xi * xi + limit * (v * v))
        over.append(v)
    return p, over


def _penalty_slopes(x, over: list, tables: _PenaltyTables) -> tuple[list, list]:
    """First and second derivatives of `_penalty` at x, from its distances ``over``."""
    two_limit = tables.two_limit
    dp = [tw * xi + two_limit * v for tw, xi, v in zip(tables.two_weight, x, over)]
    ddp = [out if v != 0.0 else inside
           for inside, out, v in zip(tables.two_weight, tables.two_weight_over, over)]
    return dp, ddp


def _add_reduce(values) -> float:
    """np.add.reduce of the float64 array of a list of floats ``values``, bit for bit.

    numpy starts from +0.0 and adds fewer than 8 numbers in order and
    exactly 8 as four pairs added pairwise, which Python floats repeat at
    no array's cost. Longer lists, which only custom layouts of more than 8
    arms produce, go to numpy itself.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n == 8:
        r = values
        return 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    return float(np.add.reduce(np.array(values, dtype=float)))


def _penalized(weights: PenaltyWeights, n_arms: int) -> _PenaltyTables:
    """The penalty tables of the stacked vector [throttles; arm rates], built once per weights and arm count."""
    tables = weights._tables.get(n_arms)
    if tables is None:
        throttle = np.asarray(weights.throttle, dtype=float).ravel().tolist()
        if len(throttle) == 1:
            throttle *= n_arms
        if len(throttle) != n_arms:
            raise ValueError(f"the throttle weight must be a scalar or one weight per arm ({n_arms}), "
                             f"got {len(throttle)}")
        tables = weights._tables[n_arms] = _penalty_tables(
            throttle + [float(weights.arm_rate)] * n_arms,
            [float(weights.throttle_low)] * n_arms + [-float(weights.rate_limit)] * n_arms,
            [float(weights.throttle_high)] * n_arms + [float(weights.rate_limit)] * n_arms,
            float(weights.limit))
    return tables


def _objective_pass(throttles: list, angles: list, prev_angles: list, period: float,
                    tables: _PenaltyTables):
    """The objective, the stacked [throttles; arm rates] and their distances outside the bands.

    The inputs are lists of floats. The objective is two partial sums, the
    throttle costs and then the arm-rate costs, each added as numpy's sum
    of an array adds it.
    """
    n_arms = len(throttles)
    penalized = throttles + [(a - b) / period for a, b in zip(angles, prev_angles)]
    p, over = _penalty(penalized, tables)
    return _add_reduce(p[:n_arms]) + _add_reduce(p[n_arms:]), penalized, over


def allocation_objective(throttles, angles, prev_angles, period: float, weights: PenaltyWeights) -> float:
    """Total soft cost of an actuator configuration given last tick's angles."""
    if period <= 0.0:
        raise ValueError(f"control period must be positive, got {period}")
    u, a, a_prev = (np.asarray(v, dtype=float).tolist() for v in (throttles, angles, prev_angles))
    return _objective_pass(u, a, a_prev, period, _penalized(weights, len(u)))[0]


# ---------------------------------------------------------------------------
# optimality system


class _Iterate(NamedTuple):
    """Every quantity of one iterate that its convergence test and its assembly read."""

    pair: np.ndarray  # [W; dW/da]: per-arm unit wrenches over their angle derivatives, (2n, 6)
    residual: np.ndarray  # produced minus demanded body wrench
    objective: float  # what allocation_objective gives, by the same pass
    values: list  # the iterate as Python floats
    penalized: list  # [throttles; arm rates] as Python floats
    over: list  # their distances outside the penalty bands
    tables: _PenaltyTables  # the solve's penalty tables


def _evaluate(x, values, prev_angles, body_wrench, model: DroneModel, tables) -> _Iterate:
    """Evaluate one iterate once; that serves both its convergence test and the next assembly.

    ``x`` is the iterate [throttles; angles; multipliers] and ``values``
    the same as a list of Python floats, ``prev_angles`` a list too and
    ``tables`` what `_penalized` gives for the solve's weights. The
    per-arm arithmetic runs on Python floats in numpy's operation order,
    so every value has the bits of the array formulas; the wrench blocks
    and the matrix products stay numpy. The penalty derivatives wait for
    `_gradient`, which an iterate that passes the objective test never
    reaches.
    """
    n_arms = model.geometry.n_arms
    angles = values[n_arms: 2 * n_arms]
    pair = model._wrench_pair(angles)
    objective, penalized, over = _objective_pass(values[:n_arms], angles, prev_angles,
                                                 model.control_period, tables)
    return _Iterate(pair, x[:n_arms] @ pair[:n_arms] - body_wrench, objective, values, penalized,
                    over, tables)


def _gradient(x, it: _Iterate, model: DroneModel) -> tuple[list, list, list]:
    """The Lagrangian's gradient at the iterate x, whose evaluation is ``it``, and what H reuses.

    The wrench is throttles @ W, so W is its throttle Jacobian and u * dW
    its angle Jacobian: grad_u = dp_u + lambda . W and grad_a = dp_a / dt
    + u lambda . dW, from one `_penalty_slopes` call and one product that
    gives lambda . W over lambda . dW. Returns the rows [grad_u; grad_a],
    the penalty curvatures and lambda . [W; dW], each a list of Python
    floats (a plain tuple: a NamedTuple costs a microsecond more per call).
    `sqp_allocate` tests the rows' norm for stationarity and hands all
    three on to `_assemble`.
    """
    dt = model.control_period
    n_arms = model.geometry.n_arms
    dp, ddp = _penalty_slopes(it.penalized, it.over, it.tables)
    lam_pair = (it.pair @ x[2 * n_arms:]).tolist()
    grad_u, grad_a = [], []
    for ui, lw, hu, dpu, dpa in zip(it.values, lam_pair, lam_pair[n_arms:], dp, dp[n_arms:]):
        grad_u.append(dpu + lw)
        grad_a.append(dpa / dt + ui * hu)
    return grad_u + grad_a, ddp, lam_pair


def _assemble(x, it: _Iterate, model: DroneModel, gradient: tuple | None = None):
    """Jacobian H, gradient K and per-arm blocks of the stationarity system at the iterate x.

    ``it`` is the evaluation of the same x, and ``gradient`` its `_gradient`
    where the caller already holds it. Layout: variables are (throttles,
    angles, multipliers); K stacks the two stationarity blocks and the
    constraint residual, H is its symmetric Jacobian. Arms never couple to
    each other through second derivatives, so the primal blocks are
    diagonal. The blocks are H's per-arm entries as lists of Python floats,
    (H_uu, H_aa, H_ua), for `_floored`.
    """
    dt = model.control_period
    n_arms = model.geometry.n_arms
    u = it.values[:n_arms]
    rows, ddp, lam_pair = _gradient(x, it, model) if gradient is None else gradient

    # second derivatives are diagonal per arm, with d2W/da2 = -W on rotating
    # arms and 0 on fixed ones
    h_ua = lam_pair[n_arms:]
    dt2 = dt * dt
    diag_a = [dda / dt2 + (-ui * lw if rotating else 0.0)
              for ui, lw, rotating, dda in zip(u, lam_pair, model._rotating, ddp[n_arms:])]

    n_primal = 2 * n_arms
    hess = np.zeros((n_primal + 6, n_primal + 6))
    # throttle second derivatives never touch the constraints; the entries
    # go in the order of DroneModel._kkt_diagonals
    hess.put(model._kkt_diagonals, ddp[:n_arms] + diag_a + h_ua + h_ua)
    # the constraint Jacobian, transposed: [W; u * dW], with 1.0 * W = W bit for bit
    constraint = hess[:n_primal, n_primal:]
    np.multiply(it.pair, np.array([1.0] * n_arms + u).reshape(-1, 1), out=constraint)
    hess[n_primal:, :n_primal] = constraint.T
    return hess, np.array(rows + it.residual.tolist()), (ddp[:n_arms], diag_a, h_ua)


def assemble_kkt(state: AllocatorState, inp: AllocatorInput, model: DroneModel, weights: PenaltyWeights):
    """Public wrapper around the optimality-system assembly; returns (H, K)."""
    n_arms = model.geometry.n_arms
    _check_warm(state, n_arms)
    x = np.concatenate((state.throttles, state.angles, state.multipliers), dtype=float)
    it = _evaluate(x, x.tolist(), state.prev_angles.tolist(), inp.body_wrench(), model,
                   _penalized(weights, n_arms))
    return _assemble(x, it, model)[:2]


def _check_warm(warm: AllocatorState, n_arms: int) -> None:
    """Raise ValueError unless every warm-start array has one entry per arm (six multipliers)."""
    shapes = (warm.throttles.shape, warm.angles.shape, warm.prev_angles.shape, warm.multipliers.shape)
    if shapes != ((n_arms,),) * 3 + ((6,),):
        raise ValueError("warm-start arrays do not match the geometry")


_INERTIA_FLOOR = 1e-6  # f / max(1, |H_uu|, |H_aa|): see _floored


def _floored(hess: np.ndarray, h_uu: list, h_aa: list, h_ua: list) -> np.ndarray:
    """H with each arm's primal block [a, b; b, c] = [H_uu, H_ua; H_ua, H_aa] lifted to its floor.

    The per-arm entries come as lists of Python floats, with the bits of H's. A block whose smaller
    eigenvalue l is below f = _INERTIA_FLOOR max(1, |a|, |c|) gets f - l on both diagonal entries,
    in a copy (H itself where none is below). The primal block is then positive definite, so H has
    the inertia (2n, 6, 0) of a step toward a constrained minimum wherever the constraint Jacobian
    has rank 6. l - f is the smaller eigenvalue of the block less f I, taken as the eigenvalues'
    product over the larger one where their mean is positive: a block on its floor keeps its bits,
    and one an ulp below it is lifted. A NaN entry lifts nothing.
    """
    n_arms, matrix = len(h_uu), hess
    for i, (a, c, b) in enumerate(zip(h_uu, h_aa, h_ua)):
        size = abs(a) if abs(a) > abs(c) else abs(c)
        f = _INERTIA_FLOOR * size if size > 1.0 else _INERTIA_FLOOR
        p, q = a - f, c - f
        if p > 0.0 and p * q > b * b:  # above the floor, with no square root taken
            continue
        mean, half = 0.5 * (p + q), 0.5 * (p - q)
        root = math.sqrt(half * half + b * b)
        low = (p * q - b * b) / (mean + root) if mean > 0.0 else mean - root
        if low < 0.0:
            matrix = hess.copy() if matrix is hess else matrix
            matrix[i, i], matrix[n_arms + i, n_arms + i] = a - low, c - low
    return matrix


def _newton_delta(hess: np.ndarray, grad: np.ndarray, blocks: tuple) -> np.ndarray:
    """The whole step delta of `newton_step`, as one array laid out like the iterate.

    ``blocks`` are H's per-arm (H_uu, H_aa, H_ua), as `_assemble` gives them. With H `_floored`,
    delta is taken when |H delta + K| <= 1e-10 max(1, |K|), which a singular solve's NaN (the
    caller holds a `_quiet` scope) or an infinite delta fails: 0 * inf is NaN.
    """
    matrix = _floored(hess, *blocks)
    delta = _solve_quieted(matrix, -grad)  # all NaN where the matrix is singular
    residual = matrix @ delta + grad
    res = math.sqrt(residual @ residual)  # what np.linalg.norm computes, without its dispatch
    if res <= 1e-10 or res <= 1e-10 * max(1.0, math.sqrt(grad @ grad)):
        return delta
    raise SolverError(f"no usable Newton step (dim {hess.shape[0]}, |K|={math.sqrt(grad @ grad):.3e})")


def newton_step(hess: np.ndarray, grad: np.ndarray, n_arms: int):
    """(d_throttles, d_angles, d_multipliers) of H delta = -K, H `_floored`; H is only read.

    The step `sqp_allocate` takes from the same H and K; SolverError where that fails.
    """
    with _quiet():
        delta = _newton_delta(hess, grad, _primal_blocks(hess, n_arms))
    return delta[:n_arms], delta[n_arms: 2 * n_arms], delta[2 * n_arms:]


def _primal_blocks(hess: np.ndarray, n_arms: int) -> tuple:
    """The per-arm (H_uu, H_aa, H_ua) of a dense H, read back out of it as lists of floats."""
    h = hess.diagonal().tolist()
    return h[:n_arms], h[n_arms: 2 * n_arms], hess.diagonal(n_arms)[:n_arms].tolist()


def _abs_max(values) -> float:
    """np.abs(values).max() of a list of floats or an array, 0 when there are none.

    A NaN anywhere gives NaN, as numpy's max does; Python's max passes over
    a NaN that does not come first.
    """
    if not isinstance(values, list):
        values = np.ravel(values).tolist()
    if any(map(math.isnan, values)):
        return math.nan
    return max(map(abs, values), default=0.0)


@dataclass(frozen=True)
class SolverSettings:
    """Stopping tests and per-iteration step limits of ``sqp_allocate``, checked once when built."""

    tol_objective: float = 1e-4  # relative objective change
    tol_constraint: float = 1e-5  # wrench residual norm
    max_iterations: int = 30
    throttle_step_limit: float = 0.1
    angle_step_limit: float = 0.2

    def __post_init__(self):
        iterations = self.max_iterations
        if isinstance(iterations, bool) or not isinstance(iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {iterations!r}")
        if iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {iterations}")
        names = ("throttle_step_limit", "angle_step_limit", "tol_objective", "tol_constraint")
        # `not > 0` also rejects NaN
        not_positive = [name for name in names if not getattr(self, name) > 0.0]
        if not_positive:
            raise ValueError(f"{', '.join(not_positive)} must be positive")


def step_scale(d_throttles, d_angles, throttle_step_limit: float = SolverSettings.throttle_step_limit,
               angle_step_limit: float = SolverSettings.angle_step_limit) -> float:
    """Shrink factor keeping per-iteration updates inside trust bounds.

    The steps are arrays or lists of Python floats. A NaN step is never
    over a bound, so it leaves the factor at 1.
    """
    return _scale_for(_abs_max(d_throttles), _abs_max(d_angles), throttle_step_limit, angle_step_limit)


def _scale_for(max_du: float, max_da: float, throttle_step_limit: float, angle_step_limit: float) -> float:
    """`step_scale` of steps whose largest magnitudes are max_du and max_da."""
    alpha = angle_step_limit / max_da if max_da > angle_step_limit else 1.0  # a ratio under 1 then, so no min
    if max_du > throttle_step_limit:
        alpha = min(alpha, throttle_step_limit / max_du)
    return alpha


_TOL_STATIONARITY = 1e-4  # norm of the Lagrangian's gradient


def sqp_allocate(
    inp: AllocatorInput,
    warm: AllocatorState,
    model: DroneModel,
    weights: PenaltyWeights | None = None,
    settings: SolverSettings = SolverSettings(),
) -> AllocatorSolution:
    """Allocate a wrench demand by Newton iteration on the optimality system.

    Accepts an iterate once its constraint residual norm is below
    settings.tol_constraint and either the relative objective change is
    below settings.tol_objective or the norm of the Lagrangian's gradient
    (the primal rows of K) is below _TOL_STATIONARITY; stops unconverged
    after settings.max_iterations. The gradient is taken only where the
    residual passes and the objective test fails, and the next assembly
    reuses it, so the exit adds no work to a solve it does not end; one it
    ends after k steps takes one gradient more than a k-step solve that
    ends on the objective test. Arm angles are left unwrapped so they can
    accumulate over continuous rotations. The warm state is only read. The
    iteration runs in one `_quiet` scope.
    """
    weights = PenaltyWeights() if weights is None else weights
    tol_objective, tol_constraint = settings.tol_objective, settings.tol_constraint
    body_wrench = inp.body_wrench()
    n_arms = model.geometry.n_arms
    _check_warm(warm, n_arms)
    a_prev = warm.prev_angles.tolist()

    # the iterate [throttles; angles; multipliers] in one fresh array, and a
    # view of each part
    x = np.concatenate((warm.throttles, warm.angles, warm.multipliers), dtype=float)
    u, a, lam = x[:n_arms], x[n_arms: 2 * n_arms], x[2 * n_arms:]
    tables = _penalized(weights, n_arms)

    iterations, converged, res_norm, gradient = 0, False, math.inf, None
    with _quiet():
        it = _evaluate(x, x.tolist(), a_prev, body_wrench, model, tables)
        obj_prev = it.objective
        for iterations in range(1, settings.max_iterations + 1):
            delta = _newton_delta(*_assemble(x, it, model, gradient))
            step = delta.tolist()  # finite (see _newton_delta), so the maxima need no NaN scan
            alpha = _scale_for(max(map(abs, step[:n_arms])), max(map(abs, step[n_arms: 2 * n_arms])),
                               settings.throttle_step_limit, settings.angle_step_limit)
            if alpha != 1.0:  # 1.0 * delta is delta
                delta *= alpha
            x += delta
            values = x.tolist()
            if not all(map(math.isfinite, values)):
                raise SolverError("allocator iterate diverged to non-finite values")
            it = _evaluate(x, values, a_prev, body_wrench, model, tables)
            obj = it.objective
            force, torque = it.residual[:3], it.residual[3:]
            res_norm = math.hypot(math.sqrt(force @ force), math.sqrt(torque @ torque))
            gradient = None
            if res_norm < tol_constraint:
                converged = abs(obj - obj_prev) / max(obj, 1e-9) < tol_objective
                if not converged:
                    gradient = _gradient(x, it, model)
                    converged = math.hypot(*gradient[0]) < _TOL_STATIONARITY
            obj_prev = obj
            if converged:
                break
    return AllocatorSolution(u, a, lam, iterations, res_norm, obj_prev, converged)


# ---------------------------------------------------------------------------
# pseudoinverse baseline


def vectored_thrust_matrix(model: DroneModel) -> np.ndarray:
    """Constant 6 x 2n wrench map over thrust-plane coordinates, a read-only view of wrench_block.

    Column pair 2i, 2i+1 multiplies arm i's coordinates (u cos a, u sin a).
    Only valid when every arm rotates; drag torque is included.
    """
    if not np.all(model.geometry.rotating):
        raise SolverError("the pseudoinverse route needs every arm to be a rotating arm")
    # arm-major: columns (b1_0, b2_0, b1_1, b2_1, ...)
    return model.wrench_block.reshape(-1, 6).T


def wrap_angle(x):
    """Wrap to [-pi, pi)."""
    return (np.asarray(x, dtype=float) + math.pi) % TWO_PI - math.pi


class LeastNormAllocation(NamedTuple):
    """Throttles and arm angles of `least_norm_allocation`."""

    throttles: np.ndarray
    angles: np.ndarray


def least_norm_allocation(body_wrench: np.ndarray, model: DroneModel,
                          prev_angles=None) -> LeastNormAllocation:
    """Throttles and angles of the minimum-norm solve through the constant thrust-plane map.

    Arm angles come from atan2 of the plane coordinates, unwrapped to the
    nearest turn of the previous angle (one per arm, or one for all); arms allocated zero
    throttle keep their previous angle. `pinv_allocate` and the flight
    loop's supervisor reference both call this. Raises SolverError when
    the map is rank deficient or an arm does not rotate.

    The per-arm arithmetic runs on Python floats in numpy's operation
    order, with the bits of the array formulas: the row norms of
    np.linalg.norm(coords, axis=1), and `wrap_angle`'s formula. The matrix
    product and the atan2 stay numpy, since math.atan2 differs from
    np.arctan2 in the last bit on some inputs.
    """
    pinv, rank = model._thrust_plane_pinv
    if rank < 6:
        raise SolverError(f"thrust-plane wrench map of {model.geometry.name} is rank deficient")
    coords = (pinv @ body_wrench).reshape(-1, 2)
    flat = coords.ravel().tolist()
    throttles = [math.sqrt(x * x + y * y) for x, y in zip(flat[0::2], flat[1::2])]
    raw = np.arctan2(coords[:, 1], coords[:, 0]).tolist()
    if prev_angles is None:
        angles = [r if u > 1e-9 else 0.0 for u, r in zip(throttles, raw)]
    else:
        prev = np.empty(len(throttles))
        prev[:] = prev_angles  # one angle per arm or one for all; ValueError on any other length
        angles = [p + ((r - p + math.pi) % TWO_PI - math.pi) if u > 1e-9 else p
                  for u, r, p in zip(throttles, raw, prev.tolist())]
    return LeastNormAllocation(np.array(throttles), np.array(angles))


def pinv_allocate(inp: AllocatorInput, model: DroneModel, prev_angles=None) -> AllocatorSolution:
    """Single-shot linear allocation through the constant thrust-plane map.

    Exact for any wrench in the map's range. The angles are those of
    `least_norm_allocation`; sign reversals of the coordinate vector still
    demand half-turn jumps, which is this method's singularity behavior.
    """
    body_wrench = inp.body_wrench()
    throttles, angles = least_norm_allocation(body_wrench, model, prev_angles)
    residual = constraint_residual(throttles, angles, inp, model)
    res_norm = float(np.linalg.norm(residual))
    return AllocatorSolution(
        throttles=throttles,
        angles=angles,
        multipliers=np.zeros(6),
        iterations=1,
        residual=res_norm,
        objective=float(np.sum(throttles**2)),
        converged=res_norm <= 1e-6 * max(1.0, float(np.linalg.norm(body_wrench))),
    )
