"""Quaternion and 3-vector helpers shared by every other module.

Quaternions are stored scalar-first (w, x, y, z), use the Hamilton product,
and act as active rotations: when a quaternion represents a vehicle attitude,
``q.rotate(v)`` maps a body-frame vector into the world frame.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-9


def normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-15:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


class Quaternion:
    """Unit quaternion, scalar part first.

    Components are renormalized on every construction, so the unit-norm
    invariant holds to machine precision at all times. ``components`` holds
    them as a tuple of Python floats, which the arithmetic here reads. The
    array ``wxyz`` and the rotation matrix are built on first use and kept,
    so every rotation by one attitude shares the matrix.
    """

    __slots__ = ("components", "_wxyz", "_matrix")

    def __init__(self, w: float, x: float, y: float, z: float):
        self.components = _unit(float(w), float(x), float(y), float(z))
        self._wxyz = None
        self._matrix = None

    @property
    def wxyz(self) -> np.ndarray:
        """The components as a read-only array, built once per quaternion."""
        if self._wxyz is None:
            q = np.array(self.components)
            q.setflags(write=False)
            self._wxyz = q
        return self._wxyz

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Quaternion":
        """Rotation of `angle` radians about a unit `axis`."""
        axis = np.asarray(axis, dtype=float)
        norm = math.sqrt(axis.dot(axis))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"rotation axis must be unit length, got norm {norm}")
        return cls._about(*axis.tolist(), float(angle))

    @classmethod
    def _about(cls, x: float, y: float, z: float, angle: float) -> "Quaternion":
        """`from_axis_angle` on the components of an axis already known to be unit length."""
        return cls(*_rotation(x, y, z, angle))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product; composes rotations so (p*q).rotate == p.rotate(q.rotate(.))."""
        return Quaternion(*_hamilton(self.components, other.components))

    def conjugate(self) -> "Quaternion":
        w, x, y, z = self.components
        return Quaternion(w, -x, -y, -z)

    def inverse(self) -> "Quaternion":
        # unit quaternion: inverse == conjugate
        return self.conjugate()

    def rotate(self, v) -> np.ndarray:
        """Apply the rotation to a 3-vector."""
        return self.to_matrix().dot(np.asarray(v, dtype=float))

    def to_matrix(self) -> np.ndarray:
        """Rotation matrix (read-only), built once per quaternion."""
        if self._matrix is None:
            w, x, y, z = self.components
            matrix = np.array([
                1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
                2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
                2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
            ])
            matrix.setflags(write=False)  # the 3 x 3 view below is then read-only too
            self._matrix = matrix.reshape(3, 3)
        return self._matrix

    def axis_angle(self) -> tuple[np.ndarray, float]:
        """Rotation axis and angle in [0, pi]; axis is zero for the identity."""
        *axis, angle = _axis_angle(*self.components)
        return np.array(axis), angle

    def __repr__(self) -> str:
        w, x, y, z = self.components
        return f"Quaternion({w:.9g}, {x:.9g}, {y:.9g}, {z:.9g})"


def _unit(w: float, x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """Python-float components scaled to unit norm: what Quaternion stores.

    The norm is the square root of numpy's dot of the four components,
    which is what np.linalg.norm computes; a Python-float sum of the
    squares differs from it in the last bit. The divisions are the ones
    numpy's in-place division makes.
    """
    if not math.isfinite(w * w + x * x + y * y + z * z):
        # a component is not finite, or the squared norm overflows: then
        # scale the largest component to 1 first
        if not all(map(math.isfinite, (w, x, y, z))):
            raise ValueError("quaternion components must be finite")
        big = max(abs(w), abs(x), abs(y), abs(z))
        w, x, y, z = w / big, x / big, y / big, z / big
    q = np.array([w, x, y, z])
    n = math.sqrt(q.dot(q))
    if n < 1e-12:
        raise ValueError("quaternion norm too small to normalize")
    return w / n, x / n, y / n, z / n


def _hamilton(p, q) -> tuple[float, float, float, float]:
    """Components of the Hamilton product p * q of two component 4-tuples, before normalization."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _rotation(x: float, y: float, z: float, angle: float) -> tuple[float, float, float, float]:
    """Components of the rotation of `angle` about the unit axis (x, y, z), before normalization."""
    half = 0.5 * angle
    s = math.sin(half)
    return math.cos(half), s * x, s * y, s * z


def _axis_angle(w: float, x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """Unit axis components and angle in [0, pi] of a unit quaternion; a zero axis for the identity."""
    if w < 0.0:  # pick the representative with angle <= pi
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-15:
        return 0.0, 0.0, 0.0, 0.0
    return x / s, y / s, z / s, 2.0 * math.atan2(s, w)


def orientation_error(q_set: Quaternion, q: Quaternion) -> np.ndarray:
    """Axis-angle rotation (body frame) taking attitude `q` to `q_set`.

    Returns axis * angle with angle in [0, pi]; the zero vector iff the
    attitudes coincide (up to quaternion sign). The conjugate and the
    product are normalized as the Quaternion constructor normalizes them,
    on Python floats, without building either quaternion.
    """
    w, x, y, z = q.components
    conjugate = _unit(w, -x, -y, -z)
    x, y, z, angle = _axis_angle(*_unit(*_hamilton(conjugate, q_set.components)))
    return np.array([x * angle, y * angle, z * angle])


def integrate_orientation(q: Quaternion, omega_body, dt: float) -> Quaternion:
    """Advance `q` by body angular velocity `omega_body` held for `dt` seconds.

    Uses the quaternion exponential, which is exact for constant rates, and
    renormalizes through the Quaternion constructor; the increment is
    normalized as that constructor would, without building it.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    theta = np.asarray(omega_body, dtype=float) * dt
    angle = math.sqrt(theta.dot(theta))  # what np.linalg.norm computes
    x, y, z = theta.tolist()
    if angle < 1e-12:
        dq = _unit(1.0, 0.5 * x, 0.5 * y, 0.5 * z)
    else:
        dq = _unit(*_rotation(x / angle, y / angle, z / angle, angle))
    return Quaternion(*_hamilton(q.components, dq))
