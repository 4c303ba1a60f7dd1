import math

import numpy as np
import pytest

from spherelab.quadrature import (
    GridResolutionError,
    HarmonicField,
    TubeResolutionWarning,
    arc_selections,
    arc_tube_masses,
    build_grid,
    lp_norm,
    superlevel_measure,
    tube_mask,
    tube_mass,
)
from spherelab.sphere import GreatCircle


def test_grid_sizes_and_certificate():
    g = build_grid(4)
    assert g.n_phi == 9
    assert g.n_theta == 17
    assert g.cos_degree_exact == 17
    assert g.trig_degree_exact == 16
    g2 = build_grid(4, oversample=1.5)
    assert g2.n_phi == 14
    assert g2.n_theta == 26
    d = g.describe()
    assert d["band"] == 4 and d["n_points"] == 9 * 17
    assert "cos_degree_exact" in g.to_json()


def test_weights_sum_to_sphere_area():
    for k in (0, 3, 32):
        g = build_grid(k)
        assert (g.ring_weight * g.n_theta).sum() == pytest.approx(4 * math.pi, rel=1e-14)
        const = np.full(g.shape, 2.5)
        assert g.integrate(const) == pytest.approx(10 * math.pi, rel=1e-13)


def test_polynomial_times_trig_exactness():
    g = build_grid(4)
    t = g.t[:, None]
    theta = g.theta[None, :]
    # even power in t, constant in theta: 4 pi / (j + 1) * ... exact moments
    for j in (0, 2, 8, 16):
        vals = np.broadcast_to(t**j, g.shape)
        exact = 2.0 / (j + 1) * 2 * math.pi
        assert g.integrate(vals) == pytest.approx(exact, rel=1e-12)
    # odd moments and nonzero frequencies vanish
    assert g.integrate(np.broadcast_to(t**7, g.shape)) == pytest.approx(0.0, abs=1e-13)
    for m in (1, 5, 16):
        vals = t**2 * np.cos(m * theta)
        assert g.integrate(vals) == pytest.approx(0.0, abs=1e-12)


def test_trig_aliasing_boundary():
    # Frequency n_theta aliases to the constant; degree n_theta - 1 is the
    # certified limit and the test documents the first failure beyond it.
    g = build_grid(2)
    theta = g.theta[None, :]
    aliased = np.broadcast_to(np.cos(g.n_theta * theta), g.shape)
    assert g.integrate(aliased) == pytest.approx(4 * math.pi, rel=1e-12)


def test_integrate_shape_checks():
    g = build_grid(2)
    with pytest.raises(ValueError):
        g.integrate(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.integrate_profile(np.zeros(4))


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(-1)
    with pytest.raises(ValueError):
        build_grid(4, oversample=0.5)
    with pytest.raises(GridResolutionError):
        build_grid(100, max_points=1000)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            build_grid(4, oversample=bad)


def test_grids_of_one_size_share_read_only_nodes():
    a = build_grid(12)
    b = build_grid(12, max_points=10**6)
    assert a.t is b.t
    assert not a.t.flags.writeable
    with pytest.raises(ValueError):
        a.t[0] = 0.0
    assert build_grid(13).t is not a.t


@pytest.mark.parametrize("oversample", [1.0, 1.5, 2.0])
def test_grid_rings_are_bitwise_mirror_symmetric(oversample):
    # quartic_norms sums the t >= 0 hemisphere only and relies on this.
    for k in [*range(33), 64, 255, 512]:
        g = build_grid(k, oversample)
        assert np.array_equal(g.t, -g.t[::-1])
        assert np.array_equal(g.ring_weight, g.ring_weight[::-1])
        if g.n_phi % 2:
            assert g.t[g.n_phi // 2] == 0.0


def test_points_are_unit_vectors():
    g = build_grid(6)
    xyz = g.points()
    assert xyz.shape == (g.n_phi, g.n_theta, 3)
    assert np.allclose(np.linalg.norm(xyz, axis=2), 1.0, atol=1e-14)
    assert xyz is g.points()  # cached


def test_lp_norm_constant_field():
    g = build_grid(8)
    c = 0.7 - 0.2j
    f = HarmonicField(g, np.full(g.shape, c))
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(f, p) == pytest.approx(abs(c) * (4 * math.pi) ** (1 / p), rel=1e-13)
    assert lp_norm(f, np.inf) == pytest.approx(abs(c))
    assert f.l2_norm() == lp_norm(f, 2.0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_norm_interpolation_bound_on_random_field():
    # |f|^4 <= sup|f|^2 * |f|^2 pointwise, so ||f||_4^4 <= ||f||_inf^2 ||f||_2^2.
    rng = np.random.default_rng(8)
    g = build_grid(10)
    f = HarmonicField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    n4 = lp_norm(f, 4.0)
    n2 = lp_norm(f, 2.0)
    ninf = lp_norm(f, np.inf)
    assert n4**4 <= ninf**2 * n2**2 * (1 + 1e-12)
    assert n2 <= ninf * math.sqrt(4 * math.pi) * (1 + 1e-12)


def test_field_shape_check():
    g = build_grid(2)
    with pytest.raises(ValueError):
        HarmonicField(g, np.zeros((2, 2)))


def _unit_constant_field(grid):
    return HarmonicField(grid, np.full(grid.shape, 1.0 / math.sqrt(4 * math.pi)))


def test_tube_mask_geometry():
    g = build_grid(16)
    mask = tube_mask(g, GreatCircle([0, 0, 1]), 0.2)
    expect_rows = np.abs(g.t) <= math.sin(0.2)
    assert np.array_equal(mask.all(axis=1), expect_rows)
    assert np.array_equal(mask.any(axis=1), expect_rows)
    assert tube_mask(g, [0, 0, 1], math.pi / 2).all()
    with pytest.raises(ValueError):
        tube_mask(g, [0, 0, 1], 0.0)


def test_tube_mass_of_uniform_density():
    # The band |x . a| <= sin(w) has area 4 pi sin(w); a unit constant field
    # has density 1/(4 pi), so the mass is sin(w) up to one ring of rounding.
    g = build_grid(64)
    f = _unit_constant_field(g)
    for w in (0.3, 0.7):
        mass = tube_mass(f, GreatCircle([0, 0, 1]), w)
        assert mass == pytest.approx(math.sin(w), abs=2.5 / g.n_phi)
    # independent of the circle orientation for the uniform field
    slanted = tube_mass(f, GreatCircle([1, 1, 1]), 0.3)
    assert slanted == pytest.approx(math.sin(0.3), abs=0.02)


def test_tube_mass_requires_unit_field():
    g = build_grid(8)
    f = HarmonicField(g, np.full(g.shape, 1.0))
    with pytest.raises(ValueError):
        tube_mass(f, GreatCircle([0, 0, 1]), 0.3)


def test_tube_resolution_warning():
    g = build_grid(8)  # 17 rings, spacing ~ 0.12 in t
    f = _unit_constant_field(g)
    with pytest.warns(TubeResolutionWarning):
        tube_mass(f, GreatCircle([0, 0, 1]), 0.02)


def test_arc_masses_cover_the_tube():
    # Eight unit arcs centered pi/4 apart overlap (max gap to a center is
    # pi/8 < 1/2), so they cover the circle and their sum dominates the mass.
    g = build_grid(32)
    f = _unit_constant_field(g)
    circle = GreatCircle([0.2, -0.4, 0.9])
    mass = tube_mass(f, circle, 0.25)
    arcs = arc_tube_masses(f, circle, 0.25)
    assert arcs.shape == (8,)
    assert arcs.sum() >= mass * (1 - 1e-12)
    assert arcs.max() <= mass * (1 + 1e-12)
    # uniform density: each unit arc carries about 1/(2 pi) of the tube
    assert np.allclose(arcs, mass / (2 * math.pi), rtol=0.2)


def test_arc_selections_lie_inside_the_tube():
    g = build_grid(24)
    circle = GreatCircle([0.2, -0.4, 0.9])
    tube = tube_mask(g, circle, 0.25)
    sels = arc_selections(g, circle, 0.25)
    assert sels.shape == (8,) + g.shape
    assert not (sels & ~tube).any()
    # eight unit arcs cover the circle, so together they are the whole tube
    assert np.array_equal(sels.any(axis=0), tube)
    short = arc_selections(g, circle, 0.25, arc_length=0.2, n_arcs=3)
    assert short.shape == (3,) + g.shape
    assert not (short & ~tube).any()
    assert short.any(axis=0).sum() < tube.sum()


def test_superlevel_measure_constant():
    g = build_grid(8)
    f = _unit_constant_field(g)
    level = 1.0 / math.sqrt(4 * math.pi)
    assert superlevel_measure(f, 0.5 * level) == pytest.approx(4 * math.pi, rel=1e-13)
    assert superlevel_measure(f, 2.0 * level) == 0.0
    with pytest.raises(ValueError):
        superlevel_measure(f, -1.0)
