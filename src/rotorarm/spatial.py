"""Quaternion and 3-vector helpers shared by every other module.

Quaternions are stored scalar-first (w, x, y, z), use the Hamilton product,
and act as active rotations: when a quaternion represents a vehicle attitude,
``q.rotate(v)`` maps a body-frame vector into the world frame.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-9


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a finite 3-vector as a float ndarray."""
    v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"vector components must be finite, got {v!r}")
    return v


def cross3(a, b) -> np.ndarray:
    """Cross product over the last axis of 3-vector arrays, with broadcasting.

    Same formulas in the same order as ``np.cross``, so results are
    bit-identical, but without its generic axis handling, which dominates
    the cost on the small arrays used per tick.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-15:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


class Quaternion:
    """Unit quaternion, scalar part first.

    Components are renormalized on every construction, so the unit-norm
    invariant holds to machine precision at all times. The rotation matrix
    is built on first use and kept, so every rotation by one attitude
    shares it.
    """

    __slots__ = ("wxyz", "_matrix")

    def __init__(self, w: float, x: float, y: float, z: float):
        q = np.array([w, x, y, z], dtype=float)
        if not np.isfinite(q).all():
            raise ValueError("quaternion components must be finite")
        w, x, y, z = q.tolist()
        if not math.isfinite(w * w + x * x + y * y + z * z):
            # the squared norm overflows: scale the largest component to 1 first
            q /= max(abs(w), abs(x), abs(y), abs(z))
        n = math.sqrt(q @ q)  # what np.linalg.norm computes, without its dispatch
        if n < 1e-12:
            raise ValueError("quaternion norm too small to normalize")
        q /= n
        q.flags.writeable = False
        self.wxyz = q
        self._matrix = None

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Quaternion":
        """Rotation of `angle` radians about a unit `axis`."""
        axis = np.asarray(axis, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_TOL:
            raise ValueError(f"rotation axis must be unit length, got norm {np.linalg.norm(axis)}")
        half = 0.5 * float(angle)
        s = math.sin(half)
        return cls(math.cos(half), s * axis[0], s * axis[1], s * axis[2])

    @property
    def w(self) -> float:
        return float(self.wxyz[0])

    @property
    def vector(self) -> np.ndarray:
        return self.wxyz[1:]

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product; composes rotations so (p*q).rotate == p.rotate(q.rotate(.))."""
        w1, x1, y1, z1 = self.wxyz
        w2, x2, y2, z2 = other.wxyz
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self) -> "Quaternion":
        w, x, y, z = self.wxyz
        return Quaternion(w, -x, -y, -z)

    def inverse(self) -> "Quaternion":
        # unit quaternion: inverse == conjugate
        return self.conjugate()

    def rotate(self, v) -> np.ndarray:
        """Apply the rotation to a 3-vector."""
        return self.to_matrix() @ np.asarray(v, dtype=float)

    def to_matrix(self) -> np.ndarray:
        """Rotation matrix (read-only), built once per quaternion."""
        if self._matrix is None:
            w, x, y, z = self.wxyz.tolist()
            matrix = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                ]
            )
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def dot(self, other: "Quaternion") -> float:
        return float(np.dot(self.wxyz, other.wxyz))

    def axis_angle(self) -> tuple[np.ndarray, float]:
        """Rotation axis and angle in [0, pi]; axis is zero for the identity."""
        w, x, y, z = self.wxyz
        if w < 0.0:  # pick the representative with angle <= pi
            w, x, y, z = -w, -x, -y, -z
        s = math.sqrt(x * x + y * y + z * z)
        angle = 2.0 * math.atan2(s, w)
        if s < 1e-15:
            return np.zeros(3), 0.0
        return np.array([x, y, z]) / s, angle

    def __repr__(self) -> str:
        w, x, y, z = self.wxyz
        return f"Quaternion({w:.9g}, {x:.9g}, {y:.9g}, {z:.9g})"


def orientation_error(q_set: Quaternion, q: Quaternion) -> np.ndarray:
    """Axis-angle rotation (body frame) taking attitude `q` to `q_set`.

    Returns axis * angle with angle in [0, pi]; the zero vector iff the
    attitudes coincide (up to quaternion sign).
    """
    axis, angle = (q.inverse() * q_set).axis_angle()
    return axis * angle


def integrate_orientation(q: Quaternion, omega_body, dt: float) -> Quaternion:
    """Advance `q` by body angular velocity `omega_body` held for `dt` seconds.

    Uses the quaternion exponential, which is exact for constant rates, and
    renormalizes through the Quaternion constructor.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    theta = np.asarray(omega_body, dtype=float) * dt
    angle = np.linalg.norm(theta)
    if angle < 1e-12:
        dq = Quaternion(1.0, 0.5 * theta[0], 0.5 * theta[1], 0.5 * theta[2])
    else:
        dq = Quaternion.from_axis_angle(theta / angle, angle)
    return q * dq
