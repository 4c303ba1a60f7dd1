import math

import numpy as np
import pytest

from spherelab.harmonics import _polar
from spherelab.sphere import (
    _as_unit,
    _cross,
    circle_frame,
    fibonacci_axes,
    rotation_to_pole,
)


def test_angle_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        phi = float(rng.uniform(0.01, math.pi - 0.01))
        theta = float(rng.uniform(-math.pi, math.pi))
        sp = math.sin(phi)
        got_phi, got_theta = _polar([sp * math.cos(theta), sp * math.sin(theta), math.cos(phi)])
        assert got_phi == pytest.approx(phi, abs=1e-12)
        assert got_theta == pytest.approx(theta, abs=1e-12)


def test_colatitude_is_the_arccos_of_the_clipped_height_bitwise():
    rng = np.random.default_rng(12)
    points = [*rng.standard_normal((40, 3)), [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
              [1e-9, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]
    for xyz in points:
        height = (np.asarray(xyz) / np.linalg.norm(xyz))[2]
        expected = float(np.arccos(np.clip(height, -1.0, 1.0)))
        assert np.float64(_polar(xyz)[0]).tobytes() == np.float64(expected).tobytes()


def test_rotation_to_pole_properties():
    rng = np.random.default_rng(6)
    for _ in range(60):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rot = rotation_to_pole(v)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rot @ v, [0, 0, 1], atol=1e-12)


def test_rotation_to_pole_tie_breaks():
    assert np.array_equal(rotation_to_pole([0.0, 0.0, 1.0]), np.eye(3))
    down = rotation_to_pole([0.0, 0.0, -1.0])
    assert np.array_equal(down, np.diag([1.0, -1.0, -1.0]))
    assert np.allclose(down @ np.array([0.0, 0.0, -1.0]), [0, 0, 1])


def test_great_circle_frame_and_points():
    rng = np.random.default_rng(7)
    for _ in range(20):
        axis = _as_unit(rng.standard_normal(3))
        u, v = circle_frame(axis)
        assert abs(u @ v) < 1e-13
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(u @ axis) < 1e-13
        assert abs(v @ axis) < 1e-13
        for s in (0.0, 1.0, 4.5):
            p = u * math.cos(s) + v * math.sin(s)
            assert abs(p @ axis) < 1e-12


def test_frame_matches_the_numpy_cross_frame_bitwise():
    # the closed-form cross product must give np.cross's bits, zero signs included
    rng = np.random.default_rng(5)
    axes = np.vstack([
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1e-17, -1.0], [1.0, 0.0, 0.0]],
        fibonacci_axes(1036),
        rng.standard_normal((500, 3)),
    ])
    for axis, other in zip(axes, axes[::-1]):
        a = _as_unit(axis)
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(a)))] = 1.0
        u = np.cross(a, helper)
        u /= np.linalg.norm(u)
        v = np.cross(a, u)
        got_u, got_v = circle_frame(a)
        assert got_u.tobytes() == u.tobytes() and got_v.tobytes() == v.tobytes()
        assert _cross(axis, other).tobytes() == np.cross(axis, other).tobytes()


def test_fibonacci_axes_spread():
    axes = fibonacci_axes(200)
    assert axes.shape == (200, 3)
    assert np.allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
    # nearest-neighbor separation stays comparable to the mean spacing
    gram = np.clip(axes @ axes.T, -1, 1)
    np.fill_diagonal(gram, -1)
    nearest = np.arccos(gram.max(axis=1))
    mean_spacing = math.sqrt(4 * math.pi / 200)
    assert nearest.min() > 0.4 * mean_spacing
    assert nearest.max() < 3.0 * mean_spacing


def test_fibonacci_axes_validation():
    with pytest.raises(ValueError):
        fibonacci_axes(0)
    single = fibonacci_axes(1)
    assert single.shape == (1, 3)
