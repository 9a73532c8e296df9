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


class _ErrorStateScope:
    """A reusable `with` scope that sets numpy's error state to ``inside`` and ``outside`` again on exit."""

    __slots__ = ("_set", "_inside", "_outside")

    def __init__(self, set_state, inside, outside):
        self._set, self._inside, self._outside = set_state, inside, outside

    def __enter__(self):
        self._set(self._inside)

    def __exit__(self, exc_type, exc, traceback):
        self._set(self._outside)


def _quiet_from(umath):
    """`_quiet` over ``umath``, numpy's ufunc module: a scope that silences every floating-point warning.

    Where ``umath`` has numpy's error-state context variable and
    ``_make_extobj``, the state current when this runs (numpy's default,
    unless the importer changed it) and an all-ignore state made from it,
    with its buffer size and error callback, are built once; while the
    caller's state is that very object, the scope is one prebuilt
    `_ErrorStateScope` that switches between the two, with nothing made
    per call. Otherwise, and where ``umath`` has no such names, it is a
    fresh np.errstate, which makes the same all-ignore state from the
    caller's and resets it on exit.
    """
    def errstate() -> np.errstate:
        return np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore")

    state, make = getattr(umath, "_extobj_contextvar", None), getattr(umath, "_make_extobj", None)
    if state is None or make is None:
        return errstate
    outside = state.get()
    scope = _ErrorStateScope(state.set, make(all="ignore"), outside)
    current = state.get

    def quiet():
        return scope if current() is outside else errstate()
    return quiet


# numpy's error-state internals are looked up once here, as solve1 is below;
# a numpy without them gets np.errstate
_quiet = _quiet_from(getattr(getattr(np, "_core", None), "umath", None))


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

    _body_wrench = None  # set on the instance by the first body_wrench() call

    def body_wrench(self) -> np.ndarray:
        """Demanded [force; torque] in the body frame (read-only, computed once)."""
        wrench = self._body_wrench
        if wrench is None:
            # v.dot(R) is R^T v: world to body for both rows at once
            wrench = np.array((self.force, self.torque)).dot(self.orientation.to_matrix()).ravel()
            wrench.setflags(write=False)
            object.__setattr__(self, "_body_wrench", wrench)
        return wrench


@dataclass
class AllocatorState:
    """Warm-start data: current iterate plus the previous tick's arm angles.

    A state made by `AllocatorSolution.next_warm` also carries, privately
    and as no field, the evaluation that ended that solve, which
    `sqp_allocate`, `assemble_kkt` and `newton_step` reuse while it holds
    (see `_warm_start`). Any other state carries none.
    """

    throttles: np.ndarray
    angles: np.ndarray
    multipliers: np.ndarray
    prev_angles: np.ndarray

    # (bytes of the evaluated [throttles; angles], its _Iterate, its model), set by next_warm
    _evaluated = None

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

    _evaluated = None  # (the _Iterate that ended sqp_allocate, its model), set on the instance

    def next_warm(self) -> AllocatorState:
        """Warm start for the next control tick: copies of the solution, with prev_angles its angles.

        The state of an `sqp_allocate` solution is handed the evaluation
        that ended the solve, so the next solve can skip its first one.
        """
        state = AllocatorState(
            self.throttles.copy(), self.angles.copy(), self.multipliers.copy(), self.angles.copy()
        )
        if self._evaluated is not None:
            it, model = self._evaluated
            state._evaluated = (np.array(it.values[:-6]).tobytes(), it, model)
        return state


# ---------------------------------------------------------------------------
# constraint residual


def constraint_residual(throttles, angles, inp: AllocatorInput, model: DroneModel) -> np.ndarray:
    """Produced-minus-demanded body wrench; zero at an exact allocation."""
    throttles = np.asarray(throttles, dtype=float)
    angles = np.asarray(angles, dtype=float)
    return throttles.dot(model.wrenches_at(angles)) - inp.body_wrench()


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
    """The tables of `_penalty` and of its slopes in `_arm_pass` for the given per-entry weights and band.

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
    """The throttle cost, the objective, the stacked [throttles; arm rates] and their distances off the bands.

    The inputs are lists of floats. The objective is two partial sums, the
    throttle costs and then the arm-rate costs, each added as numpy's sum
    of an array adds it.
    """
    n_arms = len(throttles)
    penalized = throttles + [(a - b) / period for a, b in zip(angles, prev_angles)]
    p, over = _penalty(penalized, tables)
    throttle_cost = _add_reduce(p[:n_arms])
    return throttle_cost, throttle_cost + _add_reduce(p[n_arms:]), penalized, over


def allocation_objective(throttles, angles, prev_angles, period: float, weights: PenaltyWeights) -> float:
    """Total soft cost of an actuator configuration given last tick's angles."""
    if period <= 0.0:
        raise ValueError(f"control period must be positive, got {period}")
    u, a, a_prev = (np.asarray(v, dtype=float).tolist() for v in (throttles, angles, prev_angles))
    return _objective_pass(u, a, a_prev, period, _penalized(weights, len(u)))[1]


# ---------------------------------------------------------------------------
# optimality system


class _Iterate(NamedTuple):
    """Every quantity of one iterate that its convergence test and its assembly read."""

    pair: np.ndarray  # [W; dW/da]: per-arm unit wrenches over their angle derivatives, (2n, 6)
    produced: np.ndarray  # the produced body wrench throttles . W
    residual: np.ndarray  # produced minus demanded body wrench
    throttle_cost: float  # the objective's first partial sum
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
    `_arm_pass`, which an iterate that passes the objective test never
    reaches.
    """
    n_arms = model.geometry.n_arms
    angles = values[n_arms: 2 * n_arms]
    pair = model._wrench_pair(angles)
    throttle_cost, objective, penalized, over = _objective_pass(values[:n_arms], angles, prev_angles,
                                                                model.control_period, tables)
    produced = x[:n_arms].dot(pair[:n_arms])
    return _Iterate(pair, produced, produced - body_wrench, throttle_cost, objective, values,
                    penalized, over, tables)


_FLOAT64 = np.dtype(float)


def _handed_on(warm: AllocatorState, x, n_arms: int, model: DroneModel, tables) -> _Iterate | None:
    """The evaluation ``warm`` was handed by `next_warm`, where it still holds for the iterate x; else None.

    It holds where x's throttles and angles are bitwise the ones it
    evaluated, warm's prev_angles are float64 and bitwise those angles, so
    that each arm rate a - a is +0.0 (they are finite, as the solve that
    made it checked), and the solve's model and penalty tables are its
    own. Bitwise, as the state is mutable: a -0.0 angle gives other wrench
    bits than +0.0, and a NaN equals nothing.
    """
    key, it, evaluated_model = warm._evaluated
    primal = x[:2 * n_arms].tobytes()
    prev = warm.prev_angles
    if (primal == key and prev.dtype is _FLOAT64 and prev.tobytes() == primal[8 * n_arms:]
            and it.tables is tables and evaluated_model is model):
        return it
    return None


def _evaluate_at_rest(values: list, it: _Iterate, body_wrench) -> _Iterate:
    """`_evaluate` of ``values`` at zero arm rates, taken from ``it``, which evaluated its throttles and angles.

    The wrench pair, the produced wrench and the throttle half of the
    penalty depend on the throttles and angles alone, so they are its;
    the residual is one subtraction. Each arm rate is +0.0, whose penalty
    is +0.0 at distance +0.0 from its band (the rate limit is positive),
    and any `_add_reduce` of +0.0s is +0.0, so the objective is the
    throttle cost + 0.0, as `_objective_pass` adds it.
    """
    n_arms = len(it.penalized) // 2
    rest = [0.0] * n_arms
    return _Iterate(it.pair, it.produced, it.produced - body_wrench, it.throttle_cost,
                    it.throttle_cost + 0.0, values, values[:n_arms] + rest, it.over[:n_arms] + rest,
                    it.tables)


def _arm_pass(x, it: _Iterate, model: DroneModel, floored: bool = True) -> tuple[list, list]:
    """K's primal rows and H's per-arm entries at the iterate x, evaluated as ``it``, in one arm loop.

    The wrench is throttles . W, so W is its throttle Jacobian and u * dW
    its angle Jacobian: grad_u = dp_u + lambda . W and grad_a = dp_a / dt
    + u lambda . dW, with one product giving lambda . W over lambda . dW.
    Second derivatives are diagonal per arm, with d2W/da2 = -W on rotating
    arms and 0 on fixed ones: H_uu = ddp_u, H_aa = ddp_a / dt^2 - u lambda
    . W and H_ua = lambda . dW. The penalty slopes of `_penalty` are taken
    here, from its distances outside the bands: dp = 2 w x + 2 limit d and
    ddp = 2 w inside the band, 2 w + 2 limit outside it. Where ``floored``
    each arm's diagonal pair is lifted by `_floor_gap`, so the entries are
    those of the matrix the Newton step solves; otherwise they are the
    exact Jacobian's. Returns the rows [grad_u; grad_a], which
    `sqp_allocate` tests for stationarity, and the entries in the order of
    `DroneModel._kkt_diagonals`, each a list of Python floats (a plain
    tuple: a NamedTuple costs a microsecond more per call); `_assemble`
    takes both.
    """
    dt = model.control_period
    dt2 = dt * dt
    n_arms = model.geometry.n_arms
    tables = it.tables
    two_limit, two_weight, two_weight_over = tables.two_limit, tables.two_weight, tables.two_weight_over
    over = it.over
    lam_pair = it.pair.dot(x[2 * n_arms:]).tolist()
    h_ua = lam_pair[n_arms:]
    grad_u, grad_a, h_uu, h_aa = [], [], [], []
    for ui, rate, vu, va, tw_u, tw_a, out_u, out_a, lw, hu, rotating in zip(
            it.values, it.penalized[n_arms:], over, over[n_arms:], two_weight, two_weight[n_arms:],
            two_weight_over, two_weight_over[n_arms:], lam_pair, h_ua, model._rotating):
        grad_u.append((tw_u * ui + two_limit * vu) + lw)
        grad_a.append((tw_a * rate + two_limit * va) / dt + ui * hu)
        a = out_u if vu != 0.0 else tw_u
        c = (out_a if va != 0.0 else tw_a) / dt2 + (-ui * lw if rotating else 0.0)
        gap = _floor_gap(a, c, hu) if floored else 0.0  # a - 0.0 is a, bit for bit
        h_uu.append(a - gap)
        h_aa.append(c - gap)
    return grad_u + grad_a, h_uu + h_aa + h_ua + h_ua


def _assemble(it: _Iterate, arms: tuple[list, list], model: DroneModel):
    """Jacobian H and gradient K of the stationarity system at the iterate evaluated as ``it``.

    ``arms`` is that iterate's `_arm_pass`. Layout: variables are
    (throttles, angles, multipliers); K stacks the two stationarity blocks
    and the constraint residual, H is its symmetric Jacobian. Arms never
    couple to each other through second derivatives, so the primal blocks
    are diagonal, and their entries come from the pass.
    """
    n_arms = model.geometry.n_arms
    rows, entries = arms
    n_primal = 2 * n_arms
    hess = np.zeros((n_primal + 6, n_primal + 6))
    # throttle second derivatives never touch the constraints
    hess.put(model._kkt_diagonals, entries)
    # the constraint Jacobian, transposed: [W; u * dW], with 1.0 * W = W bit for bit
    constraint = hess[:n_primal, n_primal:]
    np.multiply(it.pair, np.array([1.0] * n_arms + it.values[:n_arms]).reshape(-1, 1), out=constraint)
    hess[n_primal:, :n_primal] = constraint.T
    return hess, np.array(rows + it.residual.tolist())


def _warm_start(warm: AllocatorState, body_wrench, model: DroneModel, weights: PenaltyWeights):
    """(x, prev_angles as floats, x's `_Iterate`): the first iterate of a solve from ``warm``, x a fresh array.

    The evaluation is the one ``warm`` was handed where it still holds
    (`_handed_on`), else a fresh `_evaluate`. `sqp_allocate`, `assemble_kkt`
    and `newton_step` all start here, so they see the same bits.
    """
    n_arms = model.geometry.n_arms
    _check_warm(warm, n_arms)
    a_prev = warm.prev_angles.tolist()
    x = np.concatenate((warm.throttles, warm.angles, warm.multipliers), dtype=float)
    tables = _penalized(weights, n_arms)
    it = None if warm._evaluated is None else _handed_on(warm, x, n_arms, model, tables)
    if it is None:
        it = _evaluate(x, x.tolist(), a_prev, body_wrench, model, tables)
    else:
        it = _evaluate_at_rest(x.tolist(), it, body_wrench)
    return x, a_prev, it


def assemble_kkt(state: AllocatorState, inp: AllocatorInput, model: DroneModel, weights: PenaltyWeights):
    """(H, K) at the first iterate `sqp_allocate` takes from the state, H the exact Jacobian, unfloored."""
    x, _, it = _warm_start(state, inp.body_wrench(), model, weights)
    return _assemble(it, _arm_pass(x, it, model, floored=False), model)


def _check_warm(warm: AllocatorState, n_arms: int) -> None:
    """Raise ValueError unless every warm-start array has one entry per arm (six multipliers)."""
    shapes = (warm.throttles.shape, warm.angles.shape, warm.prev_angles.shape, warm.multipliers.shape)
    if shapes != ((n_arms,),) * 3 + ((6,),):
        raise ValueError("warm-start arrays do not match the geometry")


_INERTIA_FLOOR = 1e-6  # f / max(1, |H_uu|, |H_aa|): see _floor_gap


def _floor_gap(a: float, c: float, b: float) -> float:
    """l - f for one arm's primal block [a, b; b, c] = [H_uu, H_ua; H_ua, H_aa] below its floor, else 0.0.

    l is the block's smaller eigenvalue and f = _INERTIA_FLOOR max(1, |a|, |c|). A block below its
    floor is lifted to it by a - gap and c - gap on its diagonal entries; then the primal block is
    positive definite, so H has the inertia (2n, 6, 0) of a step toward a constrained minimum
    wherever the constraint Jacobian has rank 6. l - f is the smaller eigenvalue of the block less
    f I, taken as the eigenvalues' product over the larger one where their mean is positive: a
    block on its floor keeps its bits, and one an ulp below it is lifted. A NaN entry lifts nothing.
    """
    size = abs(a) if abs(a) > abs(c) else abs(c)
    f = _INERTIA_FLOOR * size if size > 1.0 else _INERTIA_FLOOR
    p, q = a - f, c - f
    if p > 0.0 and p * q > b * b:  # above the floor, with no square root taken
        return 0.0
    mean, half = 0.5 * (p + q), 0.5 * (p - q)
    root = math.sqrt(half * half + b * b)
    low = (p * q - b * b) / (mean + root) if mean > 0.0 else mean - root
    return low if low < 0.0 else 0.0


def _newton_delta(matrix: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The whole step delta of matrix delta = -K, as one array laid out like the iterate.

    ``matrix`` is H already floored, as `_assemble` builds it from `_arm_pass`'s floored entries.
    delta is taken when |matrix delta + K| <= 1e-10 max(1, |K|), which a singular solve's NaN (the
    caller, `sqp_allocate` or `newton_step`, holds a `_quiet` scope) or an infinite delta fails:
    0 * inf is NaN.
    """
    delta = _solve_quieted(matrix, -grad)  # all NaN where the matrix is singular
    residual = matrix.dot(delta) + grad
    res = math.sqrt(residual.dot(residual))  # what np.linalg.norm computes, without its dispatch
    if res <= 1e-10 or res <= 1e-10 * max(1.0, math.sqrt(grad.dot(grad))):
        return delta
    raise SolverError(f"no usable Newton step (dim {matrix.shape[0]}, |K|={math.sqrt(grad.dot(grad)):.3e})")


def newton_step(state: AllocatorState, inp: AllocatorInput, model: DroneModel, weights: PenaltyWeights):
    """(d_throttles, d_angles, d_multipliers) of the first, unscaled step `sqp_allocate` takes from the state.

    The same `_warm_start`, `_arm_pass` with the floor, `_assemble` and
    `_newton_delta`, in one `_quiet` scope, so the step has the solver's
    bits; SolverError wherever the solver raises it. The state is only read.
    """
    n_arms = model.geometry.n_arms
    with _quiet():
        x, _, it = _warm_start(state, inp.body_wrench(), model, weights)
        delta = _newton_delta(*_assemble(it, _arm_pass(x, it, model), model))
    return delta[:n_arms], delta[n_arms: 2 * n_arms], delta[2 * n_arms:]


def _abs_max(values: list) -> float:
    """np.abs(values).max() of a list of floats, 0 when there are none.

    A NaN anywhere gives NaN, as numpy's max does; Python's max passes over
    a NaN that does not come first.
    """
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


def _scale_for(max_du: float, max_da: float, throttle_step_limit: float, angle_step_limit: float) -> float:
    """Shrink factor keeping a step inside the trust bounds, from its largest magnitudes max_du and max_da.

    A NaN maximum is never over its bound, so it leaves the factor at 1.
    """
    alpha = angle_step_limit / max_da if max_da > angle_step_limit else 1.0  # a ratio under 1 then, so no min
    if max_du > throttle_step_limit:
        alpha = min(alpha, throttle_step_limit / max_du)
    return alpha


_TOL_STATIONARITY = 1e-4  # norm of the Lagrangian's gradient

# the weights of a solve given none: one object, so its penalty tables are
# built once and a handed-on evaluation's tables are the next solve's
_DEFAULT_WEIGHTS = PenaltyWeights()


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
    after settings.max_iterations. The gradient comes from the iterate's
    `_arm_pass`, which is taken only where the residual passes and the
    objective test fails and which the next assembly reuses, so the exit
    adds no work to a solve it does not end; one it ends after k steps
    takes one pass more than a k-step solve that ends on the objective
    test. Arm angles are left unwrapped so they can accumulate over
    continuous rotations. The warm state is only read. The iteration runs
    in one `_quiet` scope. Without ``weights`` the solve takes the default
    `PenaltyWeights`, one object shared by every such call.

    The solution keeps the evaluation of the iterate it returns for its
    `next_warm` state. A solve from that state takes its first evaluation
    from it while it holds (`_handed_on`), with the same bits; any other
    warm state costs one `is None` test.
    """
    weights = _DEFAULT_WEIGHTS if weights is None else weights
    tol_objective, tol_constraint = settings.tol_objective, settings.tol_constraint
    body_wrench = inp.body_wrench()
    n_arms = model.geometry.n_arms

    iterations, converged, res_norm, arms = 0, False, math.inf, None
    with _quiet():
        # the iterate [throttles; angles; multipliers] in one fresh array, and
        # a view of each part
        x, a_prev, it = _warm_start(warm, body_wrench, model, weights)
        u, a, lam = x[:n_arms], x[n_arms: 2 * n_arms], x[2 * n_arms:]
        tables = it.tables
        obj_prev = it.objective
        for iterations in range(1, settings.max_iterations + 1):
            if arms is None:
                arms = _arm_pass(x, it, model)
            delta = _newton_delta(*_assemble(it, arms, model))
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
            res_norm = math.hypot(math.sqrt(force.dot(force)), math.sqrt(torque.dot(torque)))
            arms = None
            if res_norm < tol_constraint:
                converged = abs(obj - obj_prev) / max(obj, 1e-9) < tol_objective
                if not converged:
                    arms = _arm_pass(x, it, model)
                    converged = math.hypot(*arms[0]) < _TOL_STATIONARITY
            obj_prev = obj
            if converged:
                break
    solution = AllocatorSolution(u, a, lam, iterations, res_norm, obj_prev, converged)
    solution._evaluated = (it, model)  # it evaluated x as returned; next_warm hands it on
    return solution


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
    coords = pinv.dot(body_wrench).reshape(-1, 2)
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
    # a demand near the largest float overflows here; its non-finite
    # residual is the answer, so the arithmetic runs in one `_quiet` scope
    with _quiet():
        throttles, angles = least_norm_allocation(body_wrench, model, prev_angles)
        residual = constraint_residual(throttles, angles, inp, model)
        res_norm = float(np.linalg.norm(residual))
        objective = float(np.sum(throttles**2))
        converged = res_norm <= 1e-6 * max(1.0, float(np.linalg.norm(body_wrench)))
    return AllocatorSolution(
        throttles=throttles,
        angles=angles,
        multipliers=np.zeros(6),
        iterations=1,
        residual=res_norm,
        objective=objective,
        converged=converged,
    )
