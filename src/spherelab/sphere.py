"""Geometry primitives on the unit 2-sphere.

Colatitude ``phi`` is measured from the north pole (0, 0, 1), longitude
``theta`` from the positive x axis, so a point is
``(sin phi cos theta, sin phi sin theta, cos phi)``.
"""

import numpy as np

__all__ = [
    "SpherePoint",
    "GreatCircle",
    "geodesic_distance",
    "circle_angle",
    "rotation_to_pole",
    "fibonacci_axes",
]


class SpherePoint:
    """A point on the unit sphere.

    Construct from a nonzero 3-vector (normalized on entry) or from angles.
    ``xyz`` is stored as a read-only float array with unit norm to machine
    precision.
    """

    __slots__ = ("xyz",)

    def __init__(self, xyz):
        v = np.asarray(xyz, dtype=float).reshape(3).copy()
        norm = float(np.linalg.norm(v))
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("SpherePoint needs a finite nonzero 3-vector")
        v /= norm
        v.setflags(write=False)
        self.xyz = v

    @classmethod
    def from_angles(cls, phi: float, theta: float) -> "SpherePoint":
        """Point at colatitude phi in [0, pi] and longitude theta."""
        sp = np.sin(phi)
        return cls([sp * np.cos(theta), sp * np.sin(theta), np.cos(phi)])

    @property
    def phi(self) -> float:
        """Colatitude in [0, pi]."""
        return float(np.arccos(np.clip(self.xyz[2], -1.0, 1.0)))

    @property
    def theta(self) -> float:
        """Longitude in (-pi, pi]."""
        return float(np.arctan2(self.xyz[1], self.xyz[0]))

    def __repr__(self):
        return f"SpherePoint([{self.xyz[0]:.6f}, {self.xyz[1]:.6f}, {self.xyz[2]:.6f}])"


def _cross(a, b) -> np.ndarray:
    """a x b for two 3-vectors, bitwise equal to ``np.cross`` at a small fraction of its cost.

    ``np.cross`` spends tens of microseconds per call on axis handling;
    these are the same products and differences in the same order, on floats.
    """
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def _as_unit(x) -> np.ndarray:
    if isinstance(x, SpherePoint):
        return x.xyz
    v = np.asarray(x, dtype=float).reshape(3)
    norm = np.linalg.norm(v)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("expected a nonzero 3-vector")
    return v / norm


class GreatCircle:
    """Great circle given by its unit axis: the set { x : x . axis = 0 }.

    ``frame()`` returns an orthonormal pair (u, v) spanning the circle plane,
    so the circle is parametrized by u cos s + v sin s.  The frame choice is
    deterministic in the axis.
    """

    __slots__ = ("axis",)

    def __init__(self, axis):
        self.axis = _as_unit(axis)
        self.axis.setflags(write=False)

    def frame(self):
        a = self.axis
        # Pick the coordinate axis least aligned with a for a stable cross product.
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(a)))] = 1.0
        u = _cross(a, helper)
        u /= np.linalg.norm(u)
        v = _cross(a, u)
        return u, v

    def point_at(self, s: float) -> SpherePoint:
        u, v = self.frame()
        return SpherePoint(u * np.cos(s) + v * np.sin(s))

    def __repr__(self):
        return f"GreatCircle(axis=[{self.axis[0]:.6f}, {self.axis[1]:.6f}, {self.axis[2]:.6f}])"


def geodesic_distance(x, y) -> float:
    """Geodesic (angular) distance between two points, in [0, pi].

    Uses the two-argument arctangent of cross and dot products, which stays
    accurate for nearly equal and nearly antipodal points where arccos of the
    dot product loses half the significant digits.
    """
    a = _as_unit(x)
    b = _as_unit(y)
    return float(np.arctan2(np.linalg.norm(_cross(a, b)), float(a @ b)))


def circle_angle(axis_a, axis_b) -> float:
    """Angle between two great circles: min(angle, pi - angle) of their axes.

    An axis and its negation describe the same circle, so the metric is
    folded to [0, pi/2].
    """
    d = geodesic_distance(axis_a, axis_b)
    return float(min(d, np.pi - d))


def rotation_to_pole(x) -> np.ndarray:
    """Rotation matrix R with R x = (0, 0, 1).

    Rodrigues rotation about the axis x cross pole.  Aligned input returns
    the identity; antipodal input returns the half-turn about the x axis,
    diag(1, -1, -1).  Ties are broken deterministically this way so repeated
    calls agree bit for bit.
    """
    v = _as_unit(x)
    pole = np.array([0.0, 0.0, 1.0])
    c = float(v @ pole)
    axis = _cross(v, pole)
    s = float(np.linalg.norm(axis))
    if s < 1e-15:
        if c > 0.0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])
    axis = axis / s
    kx, ky, kz = axis
    cross_mat = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + s * cross_mat + (1.0 - c) * (cross_mat @ cross_mat)


def fibonacci_axes(n: int) -> np.ndarray:
    """Deterministic quasi-uniform set of n unit vectors (Fibonacci lattice).

    Returns an (n, 3) array.  Consecutive points advance by the golden angle
    in longitude while the z coordinate sweeps (-1, 1) uniformly.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    th = golden * i
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])
