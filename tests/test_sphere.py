import math

import numpy as np
import pytest

from spherelab.sphere import (
    GreatCircle,
    SpherePoint,
    _cross,
    circle_angle,
    fibonacci_axes,
    geodesic_distance,
    rotation_to_pole,
)


def test_point_normalizes_and_is_read_only():
    p = SpherePoint([0.0, 0.0, 5.0])
    assert np.allclose(p.xyz, [0, 0, 1])
    with pytest.raises(ValueError):
        SpherePoint([0.0, 0.0, 0.0])
    with pytest.raises((ValueError, RuntimeError)):
        p.xyz[0] = 1.0


def test_angle_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        phi = float(rng.uniform(0.01, math.pi - 0.01))
        theta = float(rng.uniform(-math.pi, math.pi))
        p = SpherePoint.from_angles(phi, theta)
        assert p.phi == pytest.approx(phi, abs=1e-12)
        assert p.theta == pytest.approx(theta, abs=1e-12)


def test_geodesic_distance_known_values():
    ex = [1.0, 0.0, 0.0]
    ey = [0.0, 1.0, 0.0]
    ez = [0.0, 0.0, 1.0]
    assert geodesic_distance(ex, ex) == 0.0
    assert geodesic_distance(ex, ey) == pytest.approx(math.pi / 2)
    assert geodesic_distance(ez, [0, 0, -1]) == pytest.approx(math.pi)
    # atan2 formulation keeps full accuracy near zero separation
    near = [1.0, 1e-9, 0.0]
    assert geodesic_distance(ex, near) == pytest.approx(1e-9, rel=1e-6)


def test_geodesic_distance_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y, z = rng.standard_normal((3, 3))
        dxy = geodesic_distance(x, y)
        dyz = geodesic_distance(y, z)
        dxz = geodesic_distance(x, z)
        assert dxz <= dxy + dyz + 1e-12


def test_circle_angle_folds_antipodes():
    a = [0.0, 0.0, 1.0]
    b = [math.sin(0.3), 0.0, math.cos(0.3)]
    assert circle_angle(a, b) == pytest.approx(0.3, abs=1e-12)
    assert circle_angle(a, [-v for v in b]) == pytest.approx(0.3, abs=1e-12)
    assert circle_angle(a, a) == 0.0
    assert 0.0 <= circle_angle(a, [1.0, 0.2, -0.3]) <= math.pi / 2


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
        axis = rng.standard_normal(3)
        circle = GreatCircle(axis)
        u, v = circle.frame()
        assert abs(u @ v) < 1e-13
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(u @ circle.axis) < 1e-13
        assert abs(v @ circle.axis) < 1e-13
        for s in (0.0, 1.0, 4.5):
            p = circle.point_at(s)
            assert abs(p.xyz @ circle.axis) < 1e-12


def test_frame_matches_the_numpy_cross_frame_bitwise():
    # the closed-form cross product must give np.cross's bits, zero signs included
    rng = np.random.default_rng(5)
    axes = np.vstack([
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1e-17, -1.0], [1.0, 0.0, 0.0]],
        fibonacci_axes(1036),
        rng.standard_normal((500, 3)),
    ])
    for axis, other in zip(axes, axes[::-1]):
        circle = GreatCircle(axis)
        a = circle.axis
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(a)))] = 1.0
        u = np.cross(a, helper)
        u /= np.linalg.norm(u)
        v = np.cross(a, u)
        got_u, got_v = circle.frame()
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
