import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from spherelab.experiments import scaling_target
from spherelab.harmonics import (
    EigenvalueInfo,
    beam_field,
    coefficient_field,
    ell4_sum_field,
    ell_p_profile,
    ell_p_sum,
    eval_basis_row,
    highest_weight_field,
    pointwise_envelope,
    projection_kernel,
    signed_order_table,
    standard_field,
    synthesize_rings,
    theta_integral,
    zonal_field,
)
from spherelab.quadrature import build_grid, lp_norm
from spherelab.random_bases import sample_haar_unitary
from spherelab.sphere import SpherePoint


def _random_points(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return [SpherePoint(row) for row in v]


def test_eigenvalue_info():
    info = EigenvalueInfo(12)
    assert info.lam == pytest.approx(math.sqrt(12 * 13))
    assert info.multiplicity == 25


def test_sigma_exponent_branches():
    # the sharp eigenspace exponent is the larger branch; they cross at q = 6
    for q, sigma in ((4, 1 / 8), (6, 1 / 6), (8, 1 / 4), (math.inf, 1 / 2)):
        branches = (scaling_target("zonal", q), scaling_target("highest_weight", q))
        assert max(branches) == pytest.approx(sigma)


def test_eval_ykm_matches_scipy_random_orders():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(0, 41))
        m = int(rng.integers(-k, k + 1))
        x = SpherePoint(rng.standard_normal(3))
        polar = math.acos(np.clip(x.xyz[2], -1, 1))
        azimuth = math.atan2(x.xyz[1], x.xyz[0])
        ref = complex(sph_harm_y(k, m, polar, azimuth))
        got = eval_basis_row(k, x)[m + k]
        worst = max(worst, abs(got - ref))
    assert worst < 1e-13


def test_eval_ykm_matches_scipy_high_degree():
    x = SpherePoint([0.3, -0.5, 0.7])
    polar = math.acos(np.clip(x.xyz[2], -1, 1))
    azimuth = math.atan2(x.xyz[1], x.xyz[0])
    for k, m in ((100, 37), (100, -99), (200, 200), (300, 0)):
        ref = complex(sph_harm_y(k, m, polar, azimuth))
        got = eval_basis_row(k, x)[m + k]
        assert got == pytest.approx(ref, abs=5e-15 + 1e-12 * abs(ref))


def test_basis_row_and_table_consistency():
    k = 9
    for x in _random_points(10, 21):
        row = eval_basis_row(k, x)
        assert row.shape == (2 * k + 1,)
        table = signed_order_table(k, np.array([x.xyz[2]]))
        assert np.allclose(np.abs(table[0]), np.abs(row), atol=1e-13)
        phases = np.exp(1j * np.arange(-k, k + 1) * x.theta)
        assert np.allclose(table[0] * phases, row, atol=1e-13)


def test_projection_kernel_diagonal_and_reproducing():
    k = 7
    x = SpherePoint([0.1, 0.4, 0.9])
    assert projection_kernel(k, x, x) == pytest.approx((2 * k + 1) / (4 * math.pi), rel=1e-13)
    # reproducing property: integrating the kernel against Y recovers Y(x)
    grid = build_grid(k)
    f = standard_field(k, 3, grid)
    xyz = grid.points()
    dots = xyz @ x.xyz
    from spherelab.legendre import legendre_p

    kern = (2 * k + 1) / (4 * math.pi) * legendre_p(k, np.clip(dots, -1, 1))
    recovered = grid.integrate(kern * f.values)
    assert recovered == pytest.approx(eval_basis_row(k, x)[3 + k], abs=1e-12)


def test_ell2_sum_identity():
    for k in (0, 1, 5, 40, 128):
        for x in _random_points(5, 100 + k):
            val = ell_p_sum(k, x, 2)
            target = (2 * k + 1) / (4 * math.pi)
            assert abs(val**2 - target) <= 1e-10 * (2 * k + 1)


def test_ell_p_sum_rotation_and_parity():
    # the eigenspace l^p aggregate depends only on the colatitude
    k = 17
    t = 0.42
    s = math.sqrt(1 - t * t)
    base = ell_p_sum(k, [s, 0, t], 4)
    for theta in (0.3, 1.7, 4.4):
        x = [s * math.cos(theta), s * math.sin(theta), t]
        assert ell_p_sum(k, x, 4) == pytest.approx(base, rel=1e-11)
    assert ell_p_sum(k, [-s, 0, -t], 4) == pytest.approx(base, rel=1e-11)


def test_ell_p_profile_matches_pointwise():
    k = 12
    t = np.array([-0.9, -0.2, 0.0, 0.55, 1.0])
    prof4 = ell_p_profile(k, t, 4)
    prof_inf = ell_p_profile(k, t, np.inf)
    for i, ti in enumerate(t):
        s = math.sqrt(max(0.0, 1 - ti * ti))
        x = [s, 0.0, ti]
        assert prof4[i] == pytest.approx(ell_p_sum(k, x, 4), rel=1e-12)
        assert prof_inf[i] == pytest.approx(ell_p_sum(k, x, np.inf), rel=1e-12)
    with pytest.raises(ValueError):
        ell_p_sum(k, [0, 0, 1], 0.5)


def test_theta_integral_identity_and_riemann_oracle():
    for k in (1, 6, 23):
        for x in _random_points(4, 300 + k):
            val = theta_integral(k, x)
            # closed relation against the quartic aggregate
            assert val == pytest.approx(2 * math.pi * ell_p_sum(k, x, 4) ** 4, rel=1e-11)
            # brute-force trapezoid on a finer uniform angle set
            n = 8 * k + 13
            theta = 2 * math.pi * np.arange(n) / n
            c = x.xyz[2]
            s2 = 1 - c * c
            cosd = s2 * np.cos(theta) + c * c
            from spherelab.legendre import legendre_p

            kern = (2 * k + 1) / (4 * math.pi) * legendre_p(k, np.clip(cosd, -1, 1))
            oracle = 2 * math.pi * np.mean(kern**2)
            assert val == pytest.approx(oracle, rel=1e-12)


def test_pointwise_envelope_shape():
    k = 50
    # inner branch is flat at sqrt(k)
    assert pointwise_envelope(k, 0.0) == pytest.approx(math.sqrt(k))
    assert pointwise_envelope(k, 1.0 / k) == pytest.approx(math.sqrt(k))
    # outer branch decays like r^(-1/4) with the log correction
    r = 0.5
    expect = k**0.25 * r**-0.25 * max(math.log(k * r), math.log(2)) ** 0.25
    assert pointwise_envelope(k, r) == pytest.approx(expect, rel=1e-12)
    assert pointwise_envelope(k, 0.01) > pointwise_envelope(k, 0.4)
    with pytest.raises(ValueError):
        pointwise_envelope(1, 0.3)
    with pytest.raises(ValueError):
        pointwise_envelope(k, -0.1)
    with pytest.raises(ValueError):
        pointwise_envelope(k, 2.0)


def test_pointwise_bound_ratio_at_pole():
    # at the pole only the zonal element survives, so the ratio is exact
    for k in (8, 64):
        expect = math.sqrt((2 * k + 1) / (4 * math.pi)) / math.sqrt(k)
        ratio = ell_p_sum(k, [0, 0, 1], 4.0) / pointwise_envelope(k, 0.0)
        assert ratio == pytest.approx(expect, rel=1e-12)


def test_kernel_bound_ratio_restricted_band():
    # away from the antipodal focal zone the normalized kernel stays order one
    rng = np.random.default_rng(11)
    sups = {}
    for k in (8, 32, 128):
        best = 0.0
        x = SpherePoint([0, 0, 1])
        for _ in range(400):
            d = rng.uniform(1.0 / k, 3.0)
            theta = rng.uniform(0, 2 * math.pi)
            y = SpherePoint([math.sin(d) * math.cos(theta), math.sin(d) * math.sin(theta), math.cos(d)])
            # |Pi_k(x, y)| k^(-1/2) (k^(-1) + d)^(1/2), the kernel-envelope constant
            ratio = abs(projection_kernel(k, x, y)) * k**-0.5 * (1.0 / k + d) ** 0.5
            best = max(best, ratio)
        sups[k] = best
    for k, sup in sups.items():
        assert 0.2 <= sup <= 1.0, (k, sup)


def test_kernel_bound_ratio_antipodal_growth():
    # near the antipode the two-point weight cannot stay bounded: the
    # normalized ratio grows with k, which the restricted test above avoids
    x = SpherePoint([0, 0, 1])
    d = math.pi - 0.01
    y = SpherePoint([math.sin(d), 0, math.cos(d)])
    small = abs(projection_kernel(8, x, y)) * 8**-0.5 * (1.0 / 8 + d) ** 0.5
    large = abs(projection_kernel(64, x, y)) * 64**-0.5 * (1.0 / 64 + d) ** 0.5
    assert large > 2 * small


def test_standard_field_normalization_and_labels():
    grid = build_grid(6)
    z = zonal_field(6, grid)
    q = highest_weight_field(6, grid)
    y = standard_field(6, -4, grid)
    assert z.label == "Z_6"
    assert q.label == "Q_6"
    for f in (z, q, y):
        assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)
        assert f.k == 6


def test_beam_field_at_pole_matches_highest_weight():
    grid = build_grid(10)
    q = highest_weight_field(10, grid)
    b = beam_field(10, [0, 0, 1], grid)
    assert np.allclose(np.abs(b.values), np.abs(q.values), atol=1e-12)
    # global phase only
    mask = np.abs(q.values) > 1e-8
    phases = b.values[mask] / q.values[mask]
    assert np.allclose(phases, phases.flat[0], atol=1e-10)


def test_beam_field_tilted_is_normalized():
    grid = build_grid(16)
    b = beam_field(16, [1.0, -2.0, 0.5], grid)
    assert b.l2_norm() == pytest.approx(1.0, rel=1e-10)
    # concentration on the great circle orthogonal to the axis
    axis = np.array([1.0, -2.0, 0.5])
    axis /= np.linalg.norm(axis)
    dots = np.abs(grid.points() @ axis)
    dens = np.abs(b.values) ** 2
    near = dens[dots < 0.2].sum()
    far = dens[dots > 0.6].sum()
    assert near > 100 * far


def test_coefficient_field_one_hot():
    grid = build_grid(5)
    coeff = np.zeros(11, dtype=complex)
    coeff[7] = 1.0  # order m = +2
    f = coefficient_field(5, coeff, grid)
    ref = standard_field(5, 2, grid)
    assert np.allclose(f.values, ref.values, atol=1e-13)
    with pytest.raises(ValueError):
        coefficient_field(5, np.zeros(4), grid)


def test_transform_pair_validation():
    grid = build_grid(6)
    with pytest.raises(ValueError):
        synthesize_rings(6, np.zeros((2, 12)), grid)
    with pytest.raises(ValueError):
        synthesize_rings(6, np.zeros(13), grid)


def test_synthesized_square_sum_is_constant():
    # Any orthonormal basis of the eigenspace has sum_j |phi_j(x)|^2 = (2k+1)/4pi.
    k = 8
    grid = build_grid(k)
    target = (2 * k + 1) / (4 * math.pi)
    for matrix in (np.eye(2 * k + 1), sample_haar_unitary(2 * k + 1, np.random.default_rng(2))):
        rings = synthesize_rings(k, matrix, grid)
        square_sum = np.array([(np.abs(ring) ** 2).sum(axis=0) for ring in rings])
        assert square_sum.shape == grid.shape
        assert np.allclose(square_sum, target, atol=1e-10)


def test_ell4_sum_field_matches_profile():
    grid = build_grid(9)
    f = ell4_sum_field(9, grid)
    prof = ell_p_profile(9, grid.t, 4)
    assert np.allclose(f.values.real, prof[:, None] * np.ones((1, grid.n_theta)), rtol=1e-12)
    # quartic aggregate to the fourth power integrates to the average growth constant
    a_k = grid.integrate(np.abs(f.values) ** 4) / (2 * 9 + 1)
    assert a_k > 0


def test_low_degree_l4_closed_forms():
    # degree-one fields have elementary quartic integrals
    grid = build_grid(1)
    q1 = highest_weight_field(1, grid)
    z1 = zonal_field(1, grid)
    assert lp_norm(q1, 4) ** 4 == pytest.approx(3 / (10 * math.pi), rel=1e-13)
    assert lp_norm(z1, 4) ** 4 == pytest.approx(9 / (20 * math.pi), rel=1e-13)
