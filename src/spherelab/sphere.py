"""Geometry primitives on the unit 2-sphere.

Colatitude ``phi`` is measured from the north pole (0, 0, 1), longitude
``theta`` from the positive x axis, so a point is
``(sin phi cos theta, sin phi sin theta, cos phi)``.
"""

import numpy as np

__all__ = [
    "circle_frame",
    "rotation_to_pole",
    "fibonacci_axes",
]


def _cross(a, b) -> np.ndarray:
    """a x b for two 3-vectors, bitwise equal to ``np.cross`` at a small fraction of its cost.

    ``np.cross`` spends tens of microseconds per call on axis handling;
    these are the same products and differences in the same order, on floats.
    """
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def _as_unit(x) -> np.ndarray:
    """x scaled to unit length; anything but a finite nonzero 3-vector is a ValueError."""
    v = np.asarray(x, dtype=float).reshape(3)
    norm = np.linalg.norm(v)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("expected a nonzero 3-vector")
    return v / norm


def circle_frame(axis):
    """Orthonormal pair (u, v) spanning the plane of the great circle { x : x . axis = 0 }.

    The circle is parametrized by u cos s + v sin s.  ``axis`` is a unit
    numpy 3-vector; the frame is deterministic in it.
    """
    # Pick the coordinate axis least aligned with the axis for a stable cross product.
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(axis)))] = 1.0
    u = _cross(axis, helper)
    u /= np.linalg.norm(u)
    return u, _cross(axis, u)


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
