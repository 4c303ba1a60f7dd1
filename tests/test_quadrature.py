import math
import re
import tracemalloc

import numpy as np
import pytest

from spherelab import quadrature
from spherelab.quadrature import (
    GridResolutionError,
    HarmonicField,
    QuadratureGrid,
    arc_selections,
    build_grid,
    profile_norm,
    superlevel_measure,
)
from spherelab.harmonics import beam_field, ell_p_profile, ell_p_sum
from spherelab.sphere import _as_unit, circle_frame, fibonacci_axes


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
    assert d["cos_degree_exact"] == 17 and d["trig_degree_exact"] == 16


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
    with pytest.raises(GridResolutionError, match="cap is 50000000"):
        build_grid(5000)  # 10001 x 20001 points
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            build_grid(4, oversample=bad)
    # the count is formed in floating point, so no integer overflows or is printed in full
    for k, oversample, count in ((8, 1e5, "5.61e+12"), (8, 1e308, "inf"), (2**80, 1.0, "1.17e+49")):
        with pytest.raises(GridResolutionError, match=f"^grid would need {re.escape(count)} points, cap"):
            build_grid(k, oversample)


def test_grids_of_one_size_share_read_only_nodes():
    a = build_grid(12)
    b = build_grid(12, 1.0)
    assert a.t is b.t
    assert not a.t.flags.writeable
    with pytest.raises(ValueError):
        a.t[0] = 0.0
    assert build_grid(13).t is not a.t


@pytest.mark.parametrize("n", [*range(1, 301), 513, 1025, 2049, 4097])
def test_gauss_legendre_rule_is_leggauss_bitwise(n):
    nodes, weights = quadrature._gauss_legendre(n)
    expected_nodes, expected_weights = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes, expected_nodes)
    assert np.array_equal(weights, expected_weights)


def test_gauss_legendre_rule_without_dsterf_is_leggauss(monkeypatch):
    monkeypatch.setattr(quadrature, "_openblas", lambda: (None, None, None))
    nodes, weights = quadrature._gauss_legendre.__wrapped__(129)
    expected_nodes, expected_weights = np.polynomial.legendre.leggauss(129)
    assert np.array_equal(nodes, expected_nodes) and not nodes.flags.writeable
    assert np.array_equal(weights, expected_weights) and not weights.flags.writeable


def test_gauss_legendre_rule_needs_no_dense_matrix():
    # leggauss's 1025 x 1025 companion matrix and eigvalsh's copy of it hold 16.8 MB.
    if quadrature._openblas()[2] is None:
        pytest.skip("no int64 dsterf in numpy's OpenBLAS: the rule is numpy's leggauss")
    tracemalloc.start()
    try:
        quadrature._gauss_legendre.__wrapped__(1025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_grid_nodes_must_ascend():
    # Tube selections take the rings a tube can meet as one slice of t.
    g = build_grid(4)
    for t in (g.t[::-1], np.r_[g.t[:2], g.t[1:]], np.r_[g.t[:-1], np.nan]):
        with pytest.raises(ValueError, match="ascending"):
            QuadratureGrid(4, 1.0, t, np.ones(t.size), g.n_theta)


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


def field_norm(field, q):
    """||f||_q of a sampled field by the grid rule; q = inf is the max of |f| over the nodes."""
    if q == math.inf:
        return float(np.abs(field.values).max())
    return field.grid.integrate(np.abs(field.values) ** q) ** (1 / q)


def test_norm_interpolation_bound_on_random_field():
    # |f|^4 <= sup|f|^2 * |f|^2 pointwise, so ||f||_4^4 <= ||f||_inf^2 ||f||_2^2.
    rng = np.random.default_rng(8)
    g = build_grid(10)
    f = HarmonicField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    n4 = field_norm(f, 4.0)
    n2 = field_norm(f, 2.0)
    ninf = field_norm(f, np.inf)
    assert n4**4 <= ninf**2 * n2**2 * (1 + 1e-12)
    assert n2 <= ninf * math.sqrt(4 * math.pi) * (1 + 1e-12)


def test_field_shape_check():
    g = build_grid(2)
    with pytest.raises(ValueError):
        HarmonicField(g, np.zeros((2, 2)))


def _unit_constant_field(grid):
    return HarmonicField(grid, np.full(grid.shape, 1.0 / math.sqrt(4 * math.pi)))


def test_tube_mask_geometry():
    # the equatorial tube is the rings with |t| <= sin(width), every column of them
    g = build_grid(16)
    ring, col, _ = arc_selections(g, [0, 0, 1], 0.2)
    mask = np.zeros(g.shape, dtype=bool)
    mask[ring, col] = True
    expect_rows = np.abs(g.t) <= math.sin(0.2)
    assert np.array_equal(mask.all(axis=1), expect_rows)
    assert np.array_equal(mask.any(axis=1), expect_rows)
    assert arc_selections(g, [0, 0, 1], math.pi / 2)[0].size == g.n_points
    with pytest.raises(ValueError):
        arc_selections(g, [0, 0, 1], 0.0)


def node_mass(field, axis, width):
    """The field's L2 mass on the tube's nodes, summed in arc_selections' C order."""
    ring, col, _ = arc_selections(field.grid, axis, width)
    return (field.grid.ring_weight[ring] * np.abs(field.values[ring, col]) ** 2).sum()


def test_tube_mass_of_uniform_density():
    # The band |x . a| <= sin(w) has area 4 pi sin(w); a unit constant field
    # has density 1/(4 pi), so the mass is sin(w) up to one ring of rounding.
    g = build_grid(64)
    f = _unit_constant_field(g)
    for w in (0.3, 0.7):
        mass = node_mass(f, [0, 0, 1], w)
        assert mass == pytest.approx(math.sin(w), abs=2.5 / g.n_phi)
    # independent of the circle orientation for the uniform field
    slanted = node_mass(f, [1, 1, 1], 0.3)
    assert slanted == pytest.approx(math.sin(0.3), abs=0.02)


def arc_members(arcs):
    """(8, n_tube) membership from arc_selections' ids: arc j holds the nodes with id j."""
    return (arcs[:, None, :] == np.arange(8)[:, None]).any(axis=0)


def test_arc_masses_cover_the_tube():
    # Eight unit arcs centered pi/4 apart overlap (max gap to a center is
    # pi/8 < 1/2), so they cover the circle and their sum dominates the mass.
    g = build_grid(32)
    f = _unit_constant_field(g)
    axis = [0.2, -0.4, 0.9]
    mass = node_mass(f, axis, 0.25)
    ring, col, ids = arc_selections(g, axis, 0.25)
    dens = g.ring_weight[ring] / (4 * math.pi)
    arcs = np.array([dens[m].sum() for m in arc_members(ids)])
    assert arcs.shape == (8,)
    assert arcs.sum() >= mass * (1 - 1e-12)
    assert arcs.max() <= mass * (1 + 1e-12)
    # uniform density: each unit arc carries about 1/(2 pi) of the tube
    assert np.allclose(arcs, mass / (2 * math.pi), rtol=0.2)


def dense_tube(grid, axis, width):
    """Node test |x . a| <= sin(width) over the whole grid; the whole sphere from pi/2 on."""
    threshold = 1.0 if width >= math.pi / 2 else math.sin(width)
    return np.abs(grid.points() @ _as_unit(axis)) <= threshold


def arc_masks(grid, ring, col, arcs):
    """Arc masks of shape (8, n_phi, n_theta) from arc_selections' output."""
    sels = np.zeros((8,) + grid.shape, dtype=bool)
    sels[:, ring, col] = arc_members(arcs)
    return sels


def dense_arc_masks(grid, axis, width, arc_length=1.0):
    """Arc masks of shape (8, n_phi, n_theta), every arc tested at every tube point."""
    a = _as_unit(axis)
    mask = dense_tube(grid, a, width)
    u, v = circle_frame(a)
    xyz = grid.points()[mask]
    ang = np.arctan2(xyz @ v, xyz @ u)
    centers = 2.0 * np.pi * np.arange(8) / 8
    delta = np.abs((ang - centers[:, None] + np.pi) % (2.0 * np.pi) - np.pi)
    sels = np.zeros((8,) + grid.shape, dtype=bool)
    sels[:, mask] = delta <= 0.5 * arc_length
    return sels


def test_arc_selections_lie_inside_the_tube():
    g = build_grid(24)
    axis = [0.2, -0.4, 0.9]
    tube = dense_tube(g, axis, 0.25)
    ring, col, arcs = arc_selections(g, axis, 0.25)
    # the selection lists each tube node once, in C order, and nothing else
    assert np.all(np.diff(ring * g.n_theta + col) > 0)
    assert tube[ring, col].all() and ring.size == tube.sum()
    assert arcs.shape == (2, ring.size) and arcs.dtype.kind == "i"
    # eight unit arcs cover the circle: every node has a nearest arc, and a
    # second arc, where it has one, is another one
    assert ((0 <= arcs[0]) & (arcs[0] < 8)).all()
    assert ((-1 <= arcs[1]) & (arcs[1] < 8) & (arcs[1] != arcs[0])).all()
    assert 0 < (arcs[1] >= 0).sum() < ring.size


def test_tube_masses_equal_the_dense_sums_bitwise():
    # Tube-local sums add the same densities in the same order as the dense masks.
    g = build_grid(16, 1.5)
    f = beam_field(16, [0.3, 0.5, -0.8], g)
    dens = g.ring_weight[:, None] * np.abs(f.values) ** 2
    for axis, width in (([0.2, -0.4, 0.9], 0.25), ([1, 0, 0], 0.1), ([0, 0, 1], math.inf)):
        assert node_mass(f, axis, width) == dens[dense_tube(g, axis, width)].sum()
        ring, col, arcs = arc_selections(g, axis, width)
        masses = [dens[ring, col][m].sum() for m in arc_members(arcs)]
        assert masses == [dens[sel].sum() for sel in dense_arc_masks(g, axis, width)]


@pytest.mark.parametrize(
    "k, oversample",
    [(k, oversample) for k in (1, 8, 17, 33, 64) for oversample in (1.0, 1.5, 2.0)],
)
def test_arc_selections_match_the_dense_oracle(k, oversample):
    # The tube-local selection must pick the same nodes, in C order, and the
    # same arc memberships as testing every node against every arc center:
    # on the Fibonacci axes of the tube-ratio sweep, on edge-case and random
    # axes, and on the edge cases as whole-sphere tubes.
    g = build_grid(k, oversample)
    special = np.array([[0, 0, 1], [0, 0, -1], [0, 1e-17, -1], [1, 0, 0]], dtype=float)
    rng = np.random.default_rng(20261018)
    width = math.sqrt(k * (k + 1)) ** -0.5
    axes = (*fibonacci_axes(max(64, 4 * k)), *special, *rng.standard_normal((50, 3)))
    cases = [(axis, width) for axis in axes]
    cases += list(zip(special, (math.pi / 2, math.inf) * 2))
    for axis, w in cases:
        ring, col, arcs = arc_selections(g, axis, w)
        expect_ring, expect_col = np.nonzero(dense_tube(g, axis, w))
        assert np.array_equal(ring, expect_ring) and np.array_equal(col, expect_col)
        assert np.array_equal(arc_masks(g, ring, col, arcs), dense_arc_masks(g, axis, w))
        # the first id is the nearest center's arc, the second one an adjacent arc or none
        u, v = circle_frame(_as_unit(axis))
        xyz = g.points()[ring, col]
        nearest = np.rint(np.arctan2(xyz @ v, xyz @ u) / (math.pi / 4)).astype(int)
        assert np.array_equal(arcs[0], nearest % 8)
        has = arcs[1] >= 0
        assert np.isin((arcs[1] - arcs[0])[has] % 8, (1, 7)).all()


def test_arc_ends_follow_the_wrap_distance(monkeypatch):
    # Arc lengths that put a tube point exactly at the end of arc 0, as the
    # wrap distance measures it: the membership there must still be the
    # dense one, however the tube-local test rounds its own distance.  The
    # private arc length is patched to reach the _ARC_TIE re-test, within
    # the two-arc rule's range 2 pi / 8 < arc length < 4 pi / 8.
    n_arcs = quadrature._N_ARCS
    assert 2 * math.pi / n_arcs < quadrature._ARC_LENGTH < 4 * math.pi / n_arcs
    g = build_grid(8)
    axis = [0.2, -0.4, 0.9]
    u, v = circle_frame(_as_unit(axis))
    tube = dense_tube(g, axis, 0.3)
    xyz = g.points()[tube]
    ends = np.abs((np.arctan2(xyz @ v, xyz @ u) + math.pi) % (2.0 * math.pi) - math.pi)
    ends = ends[(math.pi / 8 < ends) & (ends < math.pi / 4)]
    assert ends.size == 17
    for end in ends:
        monkeypatch.setattr(quadrature, "_ARC_LENGTH", 2.0 * end)
        ring, col, arcs = arc_selections(g, axis, 0.3)
        expect = dense_arc_masks(g, axis, 0.3, 2.0 * end)
        assert np.array_equal(arc_masks(g, ring, col, arcs), expect)


def test_tube_inputs_are_checked_by_name():
    g = build_grid(8)
    f = _unit_constant_field(g)
    axis = [0.2, -0.4, 0.9]
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="width"):
            arc_selections(g, axis, bad)
    # width >= pi/2, inf included, is the whole sphere
    for w in (math.pi / 2, math.inf):
        assert node_mass(f, axis, w) == pytest.approx(1.0, rel=1e-13)
        assert arc_selections(g, axis, w)[0].size == g.n_points


def test_superlevel_measure_constant():
    g = build_grid(8)
    level = 1.0 / math.sqrt(4 * math.pi)
    profile = np.full(g.n_phi, level)
    assert superlevel_measure(g, profile, 0.5 * level) == pytest.approx(4 * math.pi, rel=1e-13)
    assert superlevel_measure(g, profile, 2.0 * level) == 0.0
    with pytest.raises(ValueError):
        superlevel_measure(g, profile, -1.0)


def test_superlevel_measure_sums_the_full_grid_mask_bitwise():
    # the selected rings' node weights are summed in node order, so the
    # measure is the sum over the full-grid mask of the same level set
    g = build_grid(40)
    profile = np.abs(np.sin(7.0 * g.t)) + 1.0 + g.t
    weights = np.broadcast_to(g.ring_weight[:, None], g.shape)
    for threshold in (0.0, 0.5, 1.2, 1.9, 3.0):
        mask = np.broadcast_to((profile >= threshold)[:, None], g.shape)
        assert superlevel_measure(g, profile, threshold) == float(weights[mask].sum())


def test_profile_norm_of_a_constant_profile():
    g = build_grid(8)
    c = -0.7
    profile = np.full(g.n_phi, c)
    for q in (1.0, 2.0, 4.0, 7.5):
        expect = abs(c) * (4 * math.pi) ** (1 / q)
        assert profile_norm(g, profile, q) == pytest.approx(expect, rel=1e-13)
        field = HarmonicField(g, np.full(g.shape, c * (0.6 - 0.8j)))  # |field| = |c|
        assert profile_norm(g, profile, q) == pytest.approx(field_norm(field, q), rel=1e-14)
    assert profile_norm(g, profile, np.inf) == abs(c)


def test_profile_norm_refuses_an_unrepresentable_integral():
    # |c|^q underflows to zero or a subnormal, or overflows, for a nonzero
    # profile, the unit profile at q = 1e308 included; the zero profile keeps
    # its zero norm.
    g = build_grid(8)
    cases = ((0.28, 1000.0), (0.28, 560.0), (0.5, 1073.0), (1e10, 40.0), (1e10, 31.5),
             (1.0 / math.sqrt(4 * math.pi), 1e308))
    for c, q in cases:
        with pytest.raises(ValueError, match=re.escape(f"q = {q:g} is out of range")):
            profile_norm(g, np.full(g.n_phi, c), q)
    assert profile_norm(g, np.zeros(g.n_phi), 1000.0) == 0.0
    assert profile_norm(g, np.full(g.n_phi, 0.28), 500.0) > 0.0


@pytest.mark.parametrize("q", [0.5, 0.0, -1.0, -math.inf, math.nan])
def test_every_norm_reader_refuses_an_exponent_below_one_alike(q):
    # profile_norm and the pointwise ell^p sums share one exponent rule
    g = build_grid(4)
    message = re.escape(f"norm exponent q must be >= 1, got {q:g}") + "$"
    calls = {
        "profile_norm": lambda: profile_norm(g, np.full(g.n_phi, 0.5), q),
        "ell_p_sum": lambda: ell_p_sum(4, [0.0, 0.6, 0.8], q),
        "ell_p_profile": lambda: ell_p_profile(4, g.t, q),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=message):
            call()
            pytest.fail(name)
