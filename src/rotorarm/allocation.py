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


def _solve_vector_from(gufuncs):
    """np.linalg.solve(matrix, rhs) for a float square matrix and a 1-D rhs, bit for bit.

    The function returned calls ``gufuncs.solve1``, the LAPACK gufunc that
    np.linalg.solve itself dispatches to, without that wrapper's type
    checks; where ``gufuncs`` has no such name it calls np.linalg.solve.
    Either way a singular matrix gives all NaN instead of a LinAlgError.
    """
    solve1 = getattr(gufuncs, "solve1", None)
    if solve1 is None:
        def solve_vector(matrix, rhs) -> np.ndarray:
            try:
                return np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError:
                return np.full(len(rhs), math.nan)
    else:
        def solve_vector(matrix, rhs) -> np.ndarray:
            with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore"):
                return solve1(matrix, rhs, signature="dd->d")
    return solve_vector


def _lstsq_column_from(gufuncs):
    """np.linalg.lstsq(matrix, column, rcond=cutoff)[0] for a float matrix and an (m, 1) column, bit for bit.

    The function returned calls ``gufuncs.lstsq``, the LAPACK gufunc that
    np.linalg.lstsq itself dispatches to, without that wrapper's checks and
    error state; where ``gufuncs`` has no such name it calls np.linalg.lstsq.
    Where the SVD fails the gufunc gives NaN and lstsq raises LinAlgError,
    so a caller checks the result for NaN.
    """
    lstsq = getattr(gufuncs, "lstsq", None)
    if lstsq is None:
        def lstsq_column(matrix, column, cutoff: float) -> np.ndarray:
            return np.linalg.lstsq(matrix, column, rcond=cutoff)[0]
    else:
        def lstsq_column(matrix, column, cutoff: float) -> np.ndarray:
            return lstsq(matrix, column, cutoff, signature="ddd->ddid")[0]
    return lstsq_column


# numpy's private LAPACK gufuncs are looked up once here; a numpy without
# them under these names (1.x names lstsq's gufunc by shape) gets the public
# functions, with the same bits
solve_vector = _solve_vector_from(_umath_linalg)
lstsq_column = _lstsq_column_from(_umath_linalg)


@dataclass
class PenaltyWeights:
    """Soft-cost coefficients for throttle use, arm-rate use, and limit overruns.

    Throttle outside [throttle_low, throttle_high] and arm rates beyond
    rate_limit are discouraged with one-sided quadratics, keeping the
    objective piecewise quadratic with a continuous first derivative.

    `throttle` may be a per-arm array; a supervisor can then raise the cost
    of individual arms (for example while walking one across a singular
    direction) without touching the shared scalar defaults.
    """

    throttle: float = 1.0
    arm_rate: float = 0.01  # s^2; rad/s maps to the same cost scale as throttle
    limit: float = 100.0
    throttle_low: float = 0.0
    throttle_high: float = 1.0
    rate_limit: float = TWO_PI  # rad/s

    def __post_init__(self):
        # one test per weight, as a NaN fails `> 0.0`; np.min of per-arm
        # throttle weights is NaN when any of them is
        weights = (np.min(self.throttle), self.arm_rate, self.limit, self.rate_limit)
        if not all(w > 0.0 for w in weights):
            raise ValueError("penalty weights and the rate limit must be positive")
        if not self.throttle_high > self.throttle_low:
            raise ValueError("throttle_high must exceed throttle_low")


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
    matrix.
    """

    geometry: DroneGeometry
    thrust_constant: float = 15.0  # N of thrust per unit throttle
    torque_constant: float = 0.18  # Nm of drag torque per unit throttle
    control_period: float = 0.005  # s between allocator calls
    mass: float = 2.4  # kg
    gravity: float = 9.81  # m/s^2
    inertia: np.ndarray = field(default_factory=_default_inertia)

    def __post_init__(self):
        if self.thrust_constant <= 0.0 or self.torque_constant < 0.0:
            raise ValueError("thrust_constant must be positive, torque_constant non-negative")
        if self.control_period <= 0.0 or self.mass <= 0.0 or self.gravity <= 0.0:
            raise ValueError("control_period, mass, and gravity must be positive")
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

    def _cos_sin(self, angles) -> tuple[np.ndarray, np.ndarray]:
        """Columns of cos(a) and sin(a) per arm; a fixed arm reads 1 and 0 whatever its angle."""
        if self._all_rotating:
            return np.cos(angles).reshape(-1, 1), np.sin(angles).reshape(-1, 1)
        rotating = self.geometry.rotating
        return (np.where(rotating, np.cos(angles), 1.0).reshape(-1, 1),
                np.where(rotating, np.sin(angles), 0.0).reshape(-1, 1))

    def _wrenches(self, c, s) -> np.ndarray:
        return c * self.wrench1 + s * self.wrench2

    def wrenches_at(self, angles) -> np.ndarray:
        """W of `unit_wrenches` alone, for callers that need no derivative."""
        return self._wrenches(*self._cos_sin(angles))

    def unit_wrenches(self, angles) -> tuple[np.ndarray, np.ndarray]:
        """Per-arm wrench W per unit throttle at the given arm angles, and dW/da.

        On rotating arms W = cos(a) wrench1 + sin(a) wrench2, so dW/da =
        -sin(a) wrench1 + cos(a) wrench2 and d2W/da2 = -W. Fixed arms ignore
        their angle: W = wrench1 and dW/da = 0.
        """
        c, s = self._cos_sin(angles)
        return self._wrenches(c, s), c * self.wrench2 - s * self.wrench1

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
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @cached_property
    def _body_wrench(self) -> np.ndarray:
        # v @ R is R^T v: world to body for both rows at once
        wrench = (np.stack([self.force, self.torque]) @ self.orientation.to_matrix()).ravel()
        wrench.flags.writeable = False
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
        share = np.full(n, model.hover_throttle)
        return cls(share, np.zeros(n), np.zeros(6), np.zeros(n))


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


def _penalty(x, weight, low, high, limit):
    """Cost weight x^2 + limit d^2 with derivatives, d the distance of x outside [low, high].

    x, weight, low and high are sequences of Python floats of one length,
    and p, dp and ddp come back as lists. v = x - clip(x, low, high) is
    x - high above the band, x - low below it and +0 inside, so one pass
    gives every one-sided quadratic. The clip keeps x itself on a tie and
    on NaN, as np.minimum(high, np.maximum(low, x)) does, which keeps the
    derivatives' signed zeros.
    """
    two_limit = 2.0 * limit
    p, dp, ddp = [], [], []
    for xi, wi, lo, hi in zip(x, weight, low, high):
        c = lo if lo > xi else xi
        v = xi - (hi if hi < c else c)
        p.append(wi * xi * xi + limit * (v * v))
        dp.append(2.0 * wi * xi + two_limit * v)
        ddp.append(2.0 * wi + two_limit * (v != 0.0))
    return p, dp, ddp


def _penalty_arrays(x, weight, low: float, high: float, limit: float):
    """`_penalty` of an array of any shape and a scalar or broadcast weight, as arrays."""
    x, weight = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(weight, dtype=float))
    size = x.size
    results = _penalty(x.ravel().tolist(), weight.ravel().tolist(), [low] * size, [high] * size, limit)
    # [()] turns a 0-d result into a scalar, as elementwise numpy arithmetic does
    return tuple(np.array(r, dtype=float).reshape(x.shape)[()] for r in results)


def penalty_throttle(u, weights: PenaltyWeights):
    """Throttle cost p(u) with first and second derivatives (elementwise)."""
    return _penalty_arrays(u, weights.throttle, weights.throttle_low, weights.throttle_high,
                           weights.limit)


def penalty_arm_rate(rate, weights: PenaltyWeights):
    """Arm-rate cost p(v) with derivatives; one-sided beyond +-rate_limit."""
    return _penalty_arrays(rate, weights.arm_rate, -weights.rate_limit, weights.rate_limit,
                           weights.limit)


def _add_reduce(values) -> float:
    """np.add.reduce of the float64 array of ``values`` bit for bit, on Python floats.

    numpy starts from +0.0 and adds pairwise: fewer than 8 numbers in
    order, up to 128 in eight interleaved partial sums, more in two halves
    whose first is a multiple of 8 long.
    """
    return 0.0 + _pairwise_sum(values)


def _pairwise_sum(values) -> float:
    """numpy's pairwise_sum of a list of Python floats, without the +0.0 start."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = values[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[tail:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def allocation_objective(throttles, angles, prev_angles, period: float, weights: PenaltyWeights) -> float:
    """Total soft cost of an actuator configuration given last tick's angles."""
    if period <= 0.0:
        raise ValueError(f"control period must be positive, got {period}")
    pu, _, _ = penalty_throttle(np.asarray(throttles, dtype=float), weights)
    rate = (np.asarray(angles, dtype=float) - np.asarray(prev_angles, dtype=float)) / period
    pa, _, _ = penalty_arm_rate(rate, weights)
    return float(np.sum(pu) + np.sum(pa))


# ---------------------------------------------------------------------------
# optimality system


class _Iterate(NamedTuple):
    """Every quantity of one iterate that depends on the primal variables."""

    wrench: np.ndarray  # per-arm unit wrenches W, (n, 6)
    d_wrench: np.ndarray  # dW/da
    residual: np.ndarray  # produced minus demanded body wrench
    objective: float  # what allocation_objective gives
    values: list  # the iterate as Python floats
    dp: list  # penalty first and second derivatives over [throttles; arm rates]
    ddp: list


def _penalized(weights: PenaltyWeights, n_arms: int):
    """`_penalty`'s arguments for the stacked vector [throttles; arm rates]."""
    throttle = np.asarray(weights.throttle, dtype=float).ravel().tolist()
    if len(throttle) == 1:
        throttle *= n_arms
    if len(throttle) != n_arms:
        raise ValueError(f"the throttle weight must be a scalar or one weight per arm ({n_arms}), "
                         f"got {len(throttle)}")
    weight = throttle + [float(weights.arm_rate)] * n_arms
    low = [float(weights.throttle_low)] * n_arms + [-float(weights.rate_limit)] * n_arms
    high = [float(weights.throttle_high)] * n_arms + [float(weights.rate_limit)] * n_arms
    return weight, low, high, float(weights.limit)


def _evaluate(x, values, prev_angles, body_wrench, model: DroneModel, penalized) -> _Iterate:
    """Evaluate one iterate once; that serves both its convergence test and the next assembly.

    ``x`` is the iterate [throttles; angles; multipliers] and ``values``
    the same as a list of Python floats, ``prev_angles`` a list too and
    ``penalized`` what `_penalized` gives for the solve's weights. The
    per-arm arithmetic runs on Python floats in numpy's operation order,
    so every value has the bits of the array formulas; the (n, 6) blocks
    and the matrix products stay numpy.
    """
    n_arms = model.geometry.n_arms
    dt = model.control_period
    wrench, d_wrench = model.unit_wrenches(x[n_arms: 2 * n_arms])
    rates = [(a - b) / dt for a, b in zip(values[n_arms: 2 * n_arms], prev_angles)]
    p, dp, ddp = _penalty(values[:n_arms] + rates, *penalized)
    # two partial sums, in the order allocation_objective adds them
    return _Iterate(wrench, d_wrench, x[:n_arms] @ wrench - body_wrench,
                    _add_reduce(p[:n_arms]) + _add_reduce(p[n_arms:]), values, dp, ddp)


def _assemble(x, it: _Iterate, model: DroneModel):
    """Jacobian H and gradient K of the stationarity system at the iterate x.

    ``it`` is the evaluation of the same x. Layout: variables are (throttles,
    angles, multipliers); K stacks the two stationarity blocks and the
    constraint residual, H is its symmetric Jacobian. Arms never couple to
    each other through second derivatives, so the primal blocks are
    diagonal.
    """
    dt = model.control_period
    n_arms = model.geometry.n_arms
    throttles, multipliers = x[:n_arms], x[2 * n_arms:]
    u = it.values[:n_arms]
    wrench, d_wrench = it.wrench, it.d_wrench

    # the wrench is throttles @ W, so W is its throttle Jacobian and u * dW
    # its angle Jacobian; second derivatives are diagonal per arm, with
    # d2W/da2 = -W on rotating arms and 0 on fixed ones
    lam_w = (wrench @ multipliers).tolist()
    h_ua = (d_wrench @ multipliers).tolist()
    h_aa = [-ui * lw if rotating else 0.0 for ui, lw, rotating in zip(u, lam_w, model._rotating)]

    n_primal = 2 * n_arms
    dt2 = dt * dt
    ddp, dp = it.ddp, it.dp
    hess = np.zeros((n_primal + 6, n_primal + 6))
    # throttle second derivatives never touch the constraints; the entries
    # go in the order of DroneModel._kkt_diagonals
    hess.put(model._kkt_diagonals,
             ddp[:n_arms] + [d / dt2 + h for d, h in zip(ddp[n_arms:], h_aa)] + h_ua + h_ua)
    constraint = hess[:n_primal, n_primal:]  # the constraint Jacobian, transposed
    constraint[:n_arms] = wrench
    constraint[n_arms:] = throttles[:, None] * d_wrench
    hess[n_primal:, :n_primal] = constraint.T
    grad = np.array([d + lw for d, lw in zip(dp[:n_arms], lam_w)]
                    + [d / dt + ui * h for d, ui, h in zip(dp[n_arms:], u, h_ua)]
                    + it.residual.tolist())
    return hess, grad


def assemble_kkt(state: AllocatorState, inp: AllocatorInput, model: DroneModel, weights: PenaltyWeights):
    """Public wrapper around the optimality-system assembly; returns (H, K)."""
    n_arms = model.geometry.n_arms
    _check_warm(state, n_arms)
    x = np.concatenate((state.throttles, state.angles, state.multipliers), dtype=float)
    it = _evaluate(x, x.tolist(), state.prev_angles.tolist(), inp.body_wrench(), model,
                   _penalized(weights, n_arms))
    return _assemble(x, it, model)


def _check_warm(warm: AllocatorState, n_arms: int) -> None:
    """Raise ValueError unless every warm-start array has one entry per arm (six multipliers)."""
    shapes = (warm.throttles.shape, warm.angles.shape, warm.prev_angles.shape, warm.multipliers.shape)
    if shapes != ((n_arms,),) * 3 + ((6,),):
        raise ValueError("warm-start arrays do not match the geometry")


_REGULARIZATIONS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def _newton_delta(hess: np.ndarray, grad: np.ndarray, n_arms: int) -> np.ndarray:
    """The whole step delta of `newton_step`, as one array laid out like the iterate."""
    n_primal = 2 * n_arms
    grad_norm = math.sqrt(grad @ grad)  # what np.linalg.norm computes, without its dispatch
    scale = max(1.0, grad_norm)
    for gamma in _REGULARIZATIONS:
        matrix = hess
        if gamma > 0.0:
            matrix = hess.copy()
            matrix[np.arange(n_primal), np.arange(n_primal)] += gamma
        delta = solve_vector(matrix, -grad)  # all NaN where the matrix is singular
        if not all(map(math.isfinite, delta.tolist())):
            continue
        residual = matrix @ delta + grad
        if math.sqrt(residual @ residual) > 1e-10 * scale:
            continue
        return delta
    raise SolverError(
        f"optimality system is singular even with diagonal regularization up to "
        f"{_REGULARIZATIONS[-1]:g} (dim {hess.shape[0]}, |K|={grad_norm:.3e})"
    )


def newton_step(hess: np.ndarray, grad: np.ndarray, n_arms: int):
    """Solve H delta = -K, regularizing the primal diagonal if needed.

    Returns (d_throttles, d_angles, d_multipliers). Raises SolverError when
    no regularization level in the ladder produces a usable solve.
    """
    delta = _newton_delta(hess, grad, n_arms)
    return delta[:n_arms], delta[n_arms: 2 * n_arms], delta[2 * n_arms:]


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


def step_scale(d_throttles, d_angles, throttle_step_limit: float = 0.1, angle_step_limit: float = 0.2) -> float:
    """Shrink factor keeping per-iteration updates inside trust bounds.

    The steps are arrays or lists of Python floats. A NaN step is never
    over a bound, so it leaves the factor at 1.
    """
    alpha = 1.0
    max_da, max_du = _abs_max(d_angles), _abs_max(d_throttles)
    if max_da > angle_step_limit:
        alpha = min(alpha, angle_step_limit / max_da)
    if max_du > throttle_step_limit:
        alpha = min(alpha, throttle_step_limit / max_du)
    return alpha


def check_solver_settings(
    tol_objective: float = 1e-4,
    tol_constraint: float = 1e-5,
    max_iterations: int = 30,
    throttle_step_limit: float = 0.1,
    angle_step_limit: float = 0.2,
) -> None:
    """Raise ValueError unless ``sqp_allocate``'s settings can run and converge.

    Callers check once per configuration; ``sqp_allocate`` itself does not,
    since it runs on every tick.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    settings = {"throttle_step_limit": throttle_step_limit, "angle_step_limit": angle_step_limit,
                "tol_objective": tol_objective, "tol_constraint": tol_constraint}
    # `not > 0` also rejects NaN
    not_positive = [name for name, value in settings.items() if not value > 0.0]
    if not_positive:
        raise ValueError(f"{', '.join(not_positive)} must be positive")


def sqp_allocate(
    inp: AllocatorInput,
    warm: AllocatorState,
    model: DroneModel,
    weights: PenaltyWeights | None = None,
    tol_objective: float = 1e-4,
    tol_constraint: float = 1e-5,
    max_iterations: int = 30,
    throttle_step_limit: float = 0.1,
    angle_step_limit: float = 0.2,
) -> AllocatorSolution:
    """Allocate a wrench demand by Newton iteration on the optimality system.

    Terminates when the relative objective change falls below tol_objective
    AND the constraint residual norm falls below tol_constraint, or after
    max_iterations. Arm angles are left unwrapped so they can accumulate
    over continuous rotations. The warm state is only read.
    """
    if weights is None:
        weights = PenaltyWeights()
    body_wrench = inp.body_wrench()
    n_arms = model.geometry.n_arms
    _check_warm(warm, n_arms)
    a_prev = warm.prev_angles.tolist()

    # the iterate [throttles; angles; multipliers] in one fresh array, and a
    # view of each part
    x = np.concatenate((warm.throttles, warm.angles, warm.multipliers), dtype=float)
    u, a, lam = x[:n_arms], x[n_arms: 2 * n_arms], x[2 * n_arms:]
    penalized = _penalized(weights, n_arms)

    it = _evaluate(x, x.tolist(), a_prev, body_wrench, model, penalized)
    obj_prev = it.objective
    iterations = 0
    converged = False
    res_norm = math.inf
    for iterations in range(1, max_iterations + 1):
        delta = _newton_delta(*_assemble(x, it, model), n_arms)
        step = delta.tolist()
        alpha = step_scale(step[:n_arms], step[n_arms: 2 * n_arms],
                           throttle_step_limit, angle_step_limit)
        x += alpha * delta
        values = x.tolist()
        if not all(map(math.isfinite, values)):
            raise SolverError("allocator iterate diverged to non-finite values")
        it = _evaluate(x, values, a_prev, body_wrench, model, penalized)
        obj = it.objective
        force, torque = it.residual[:3], it.residual[3:]
        res_norm = math.hypot(math.sqrt(force @ force), math.sqrt(torque @ torque))
        if abs(obj - obj_prev) / max(obj, 1e-9) < tol_objective and res_norm < tol_constraint:
            converged = True
            obj_prev = obj
            break
        obj_prev = obj
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
    nearest turn of the previous angle; arms allocated zero throttle keep
    their previous angle. `pinv_allocate` and the flight loop's supervisor
    reference both call this. Raises SolverError when the map is rank
    deficient or an arm does not rotate.
    """
    pinv, rank = model._thrust_plane_pinv
    if rank < 6:
        raise SolverError(f"thrust-plane wrench map of {model.geometry.name} is rank deficient")
    coords = (pinv @ body_wrench).reshape(-1, 2)
    # the row norms as np.linalg.norm(coords, axis=1) computes them
    throttles = np.sqrt(np.add.reduce(coords * coords, axis=1))
    raw = np.arctan2(coords[:, 1], coords[:, 0])
    if prev_angles is None:
        angles = np.where(throttles > 1e-9, raw, 0.0)
    else:
        prev_angles = np.asarray(prev_angles, dtype=float)
        angles = np.where(
            throttles > 1e-9, prev_angles + wrap_angle(raw - prev_angles), prev_angles
        )
    return LeastNormAllocation(throttles, angles)


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
