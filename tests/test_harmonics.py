import hashlib
import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

import spherelab.harmonics as harmonics
from spherelab.experiments import average_l4_experiment, scaling_target
from spherelab.harmonics import (
    _signed_orders,
    beam_field,
    coefficient_field,
    ell_p_profile,
    ell_p_sum,
    eval_basis_row,
    pointwise_envelope,
    projection_kernel,
    signed_order_table,
    theta_integral,
)
from spherelab.legendre import _sectoral_log, legendre_p
from spherelab.quadrature import arc_selections, build_grid
from spherelab.random_bases import sample_haar_unitary
from spherelab.sphere import rotation_to_pole
from test_quadrature import field_norm


def _standard_field(k, m, grid):
    """Y_km on the grid, synthesized from its one-hot coefficient vector."""
    coefficients = np.zeros(2 * k + 1)
    coefficients[m + k] = 1.0
    return coefficient_field(k, coefficients, grid)


def _random_points(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _pinned_points():
    """Raw (unnormalized) points of norms 0.01 to 100 times a normal draw, and the poles."""
    rng = np.random.default_rng(31)
    raw = rng.standard_normal((20, 3)) * rng.uniform(0.01, 100.0, (20, 1))
    return [*raw, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 7.0], [0.0, 0.0, -0.5]]


# blake2b digests of the one-point entry points on _pinned_points() per degree k,
# recorded when points were still SpherePoint objects, so plain 3-vectors must give
# the same bits: eval_basis_row and ell_p_sum(., 4) at each point, and
# projection_kernel at each point and the next one.
_PINNED_DIGESTS = {
    1: ("0784ceb3772fa92c", "2ad1cda84efbb1e6", "a76adc79b0cadc92"),
    8: ("24cd117ed75b91e1", "cb8694252cc1e2f4", "86d7ff88b723bcce"),
    64: ("7af46fefcf30a749", "3d7810c3eb350091", "23170bbe1663d1fd"),
}


def _digest(values):
    return hashlib.blake2b(np.ascontiguousarray(values).tobytes(), digest_size=8).hexdigest()


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
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        polar = math.acos(np.clip(x[2], -1, 1))
        azimuth = math.atan2(x[1], x[0])
        ref = complex(sph_harm_y(k, m, polar, azimuth))
        got = eval_basis_row(k, x)[m + k]
        worst = max(worst, abs(got - ref))
    assert worst < 1e-13


def test_eval_ykm_matches_scipy_high_degree():
    x = np.array([0.3, -0.5, 0.7]) / math.sqrt(0.83)
    polar = math.acos(np.clip(x[2], -1, 1))
    azimuth = math.atan2(x[1], x[0])
    for k, m in ((100, 37), (100, -99), (200, 200), (300, 0)):
        ref = complex(sph_harm_y(k, m, polar, azimuth))
        got = eval_basis_row(k, x)[m + k]
        assert got == pytest.approx(ref, abs=5e-15 + 1e-12 * abs(ref))


def test_basis_row_and_table_consistency():
    k = 9
    for x in _random_points(10, 21):
        row = eval_basis_row(k, x)
        assert row.shape == (2 * k + 1,)
        table = signed_order_table(k, np.array([x[2]]))
        assert np.allclose(np.abs(table[0]), np.abs(row), atol=1e-13)
        phases = np.exp(1j * np.arange(-k, k + 1) * math.atan2(x[1], x[0]))
        assert np.allclose(table[0] * phases, row, atol=1e-13)
    # raw points and the poles keep the recorded bits
    for k, (digest, _, _) in _PINNED_DIGESTS.items():
        assert _digest([eval_basis_row(k, x) for x in _pinned_points()]) == digest, k


def test_projection_kernel_diagonal_and_reproducing():
    k = 7
    x = np.array([0.1, 0.4, 0.9]) / math.sqrt(0.98)
    assert projection_kernel(k, x, x) == pytest.approx((2 * k + 1) / (4 * math.pi), rel=1e-13)
    # reproducing property: integrating the kernel against Y recovers Y(x)
    grid = build_grid(k)
    f = _standard_field(k, 3, grid)
    xyz = grid.points()
    dots = xyz @ x
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
    # raw points and the poles keep the recorded bits
    for k, (_, digest, _) in _PINNED_DIGESTS.items():
        assert _digest([ell_p_sum(k, x, 4) for x in _pinned_points()]) == digest, k


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
            val = theta_integral(k, x[2])
            # closed relation against the quartic aggregate
            assert val == pytest.approx(2 * math.pi * ell_p_sum(k, x, 4) ** 4, rel=1e-11)
            # brute-force trapezoid on a finer uniform angle set
            n = 8 * k + 13
            theta = 2 * math.pi * np.arange(n) / n
            c = x[2]
            s2 = 1 - c * c
            cosd = s2 * np.cos(theta) + c * c
            from spherelab.legendre import legendre_p

            kern = (2 * k + 1) / (4 * math.pi) * legendre_p(k, np.clip(cosd, -1, 1))
            oracle = 2 * math.pi * np.mean(kern**2)
            assert val == pytest.approx(oracle, rel=1e-12)


def test_theta_integral_on_an_array_is_the_elementwise_calls_bitwise():
    t = np.concatenate([[1.0, -1.0, 0.0, -0.0], np.random.default_rng(5).uniform(-1.0, 1.0, 12)])
    for k in (0, 1, 6, 23, 64):
        values = theta_integral(k, t)
        assert values.shape == t.shape
        assert values.tobytes() == np.array([theta_integral(k, float(c)) for c in t]).tobytes()
        assert type(theta_integral(k, t[4])) is float


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
        x = [0.0, 0.0, 1.0]
        ds, ys = [], []
        for _ in range(400):
            d = rng.uniform(1.0 / k, 3.0)
            theta = rng.uniform(0, 2 * math.pi)
            ds.append(d)
            ys.append([math.sin(d) * math.cos(theta), math.sin(d) * math.sin(theta), math.cos(d)])
        # |Pi_k(x, y)| k^(-1/2) (k^(-1) + d)^(1/2), the kernel-envelope constant
        kernels = projection_kernel(k, [x] * len(ys), ys)
        ratios = np.abs(kernels) * k**-0.5 * (1.0 / k + np.array(ds)) ** 0.5
        sups[k] = ratios.max()
    for k, sup in sups.items():
        assert 0.2 <= sup <= 1.0, (k, sup)


def test_kernel_bound_ratio_antipodal_growth():
    # near the antipode the two-point weight cannot stay bounded: the
    # normalized ratio grows with k, which the restricted test above avoids
    x = [0.0, 0.0, 1.0]
    d = math.pi - 0.01
    y = [math.sin(d), 0.0, math.cos(d)]
    small = abs(projection_kernel(8, x, y)) * 8**-0.5 * (1.0 / 8 + d) ** 0.5
    large = abs(projection_kernel(64, x, y)) * 64**-0.5 * (1.0 / 64 + d) ** 0.5
    assert large > 2 * small


def test_standard_field_normalization():
    grid = build_grid(6)
    for m in (0, 6, -4):
        assert field_norm(_standard_field(6, m, grid), 2.0) == pytest.approx(1.0, rel=1e-12)


def test_beam_field_at_pole_matches_highest_weight():
    grid = build_grid(10)
    q = _standard_field(10, 10, grid)
    b = beam_field(10, [0, 0, 1], grid)
    assert np.allclose(np.abs(b.values), np.abs(q.values), atol=1e-12)
    # global phase only
    mask = np.abs(q.values) > 1e-8
    phases = b.values[mask] / q.values[mask]
    assert np.allclose(phases, phases.flat[0], atol=1e-10)


def test_beam_field_tilted_is_normalized():
    grid = build_grid(16)
    b = beam_field(16, [1.0, -2.0, 0.5], grid)
    assert field_norm(b, 2.0) == pytest.approx(1.0, rel=1e-10)
    # concentration on the great circle orthogonal to the axis
    axis = np.array([1.0, -2.0, 0.5])
    axis /= np.linalg.norm(axis)
    dots = np.abs(grid.points() @ axis)
    dens = np.abs(b.values) ** 2
    near = dens[dots < 0.2].sum()
    far = dens[dots > 0.6].sum()
    assert near > 100 * far


def _one_shot_beam(k, axis, grid):
    """The beam formula over the whole grid at once, the reference for beam_field's ring blocks."""
    rot = rotation_to_pole(axis)
    xyz = grid.points()
    rotated = xyz @ rot.T
    y1 = rotated[..., 0]
    y2 = rotated[..., 1]
    s = np.hypot(y1, y2)
    with np.errstate(divide="ignore"):
        log_mag = _sectoral_log(k) + k * np.log(np.where(s > 0.0, s, 1.0))
    alpha = np.arctan2(y2, y1)
    values = np.where(s > 0.0, np.exp(log_mag), 0.0) * np.exp(1j * k * alpha)
    if k == 0:
        values = np.full(grid.shape, 1.0 / np.sqrt(4.0 * np.pi), dtype=complex)
    return values


_BEAM_AXES = {
    "north": [0.0, 0.0, 1.0],
    "south": [0.0, 0.0, -1.0],
    "equator": [1.0, 0.0, 0.0],
    "tilted": [1.0, -2.0, 0.5],
}


@pytest.mark.parametrize("oversample", [1.0, 2.0])
@pytest.mark.parametrize("k", [0, 1, 8, 64, 128])
def test_ring_blocked_beam_field_is_the_one_shot_formula_bitwise(monkeypatch, k, oversample):
    grid = build_grid(k, oversample)
    rings = harmonics._BLOCK_POINTS // grid.n_theta
    if k >= 64:  # several blocks, the last one short
        assert grid.n_phi > rings and grid.n_phi % rings != 0
    for name, axis in _BEAM_AXES.items():
        reference = _one_shot_beam(k, axis, grid).tobytes()
        assert beam_field(k, axis, grid).values.tobytes() == reference, name
        with monkeypatch.context() as patch:  # one ring per block
            patch.setattr(harmonics, "_BLOCK_POINTS", 1)
            assert beam_field(k, axis, grid).values.tobytes() == reference, name


def test_coefficient_field_one_hot():
    grid = build_grid(5)
    coeff = np.zeros(11, dtype=complex)
    coeff[7] = 1.0  # order m = +2
    f = coefficient_field(5, coeff, grid)
    # Y_52 = N(5, 2, t) exp(2 i theta), evaluated directly
    ref = signed_order_table(5, grid.t)[:, 7][:, None] * np.exp(2j * grid.theta)[None, :]
    assert np.allclose(f.values, ref, atol=1e-13)
    with pytest.raises(ValueError):
        coefficient_field(5, np.zeros(4), grid)


def test_transform_pair_validation():
    grid = build_grid(6)
    for bad in (np.zeros(12), np.zeros((2, 12)), np.zeros((1, 13)), np.zeros((2, 13))):
        with pytest.raises(ValueError, match="length 13"):
            coefficient_field(6, bad, grid)


def test_synthesized_square_sum_is_constant():
    # Any orthonormal basis of the eigenspace has sum_j |phi_j(x)|^2 = (2k+1)/4pi.
    k = 8
    grid = build_grid(k)
    target = (2 * k + 1) / (4 * math.pi)
    for matrix in (np.eye(2 * k + 1), sample_haar_unitary(2 * k + 1, np.random.default_rng(2))):
        square_sum = sum(np.abs(coefficient_field(k, row, grid).values) ** 2 for row in matrix)
        assert square_sum.shape == grid.shape
        assert np.allclose(square_sum, target, atol=1e-10)


def test_ell4_profile_integrates_to_the_average_l4():
    # the ring profile superlevel reads: sum_m ||Y_km||_4^4 = integral of its fourth power
    for k in (1, 9, 40):
        grid = build_grid(k)
        a_k = grid.integrate_profile(ell_p_profile(k, grid.t, 4) ** 4) / (2 * k + 1)
        assert a_k == pytest.approx(average_l4_experiment([k]).rows[0]["a_k"], rel=1e-12)


def test_low_degree_l4_closed_forms():
    # degree-one fields have elementary quartic integrals
    grid = build_grid(1)
    q1 = _standard_field(1, 1, grid)
    z1 = _standard_field(1, 0, grid)
    assert field_norm(q1, 4) ** 4 == pytest.approx(3 / (10 * math.pi), rel=1e-13)
    assert field_norm(z1, 4) ** 4 == pytest.approx(9 / (20 * math.pi), rel=1e-13)


def test_signed_orders_match_the_sign_vector_product_bitwise():
    # Negating the odd negative orders in place equals multiplying by the
    # +-1 sign vector, values and memory layout both, so reductions over the
    # table add in the same order.
    rng = np.random.default_rng(13)
    for k in (0, 1, 2, 5, 64):
        m = np.arange(-k, k + 1)
        sign = np.where((m < 0) & (np.abs(m) % 2 == 1), -1.0, 1.0)
        for n_rows in (1, 3, 200):
            base = rng.standard_normal((n_rows, k + 1))
            base[0, 0] = 0.0
            expected = base[:, np.abs(m)] * sign[None, :]
            got = _signed_orders(k, base)
            assert got.tobytes() == expected.tobytes()
            assert got.flags.c_contiguous == expected.flags.c_contiguous
            assert got.flags.f_contiguous == expected.flags.f_contiguous


def test_projection_kernel_clips_the_dot_product_as_numpy_does():
    rng = np.random.default_rng(14)
    points = [*rng.standard_normal((20, 3)), [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    for k in (0, 1, 6, 40):
        xs, ys, kernels = [], [], []
        for i, x in enumerate(points):
            for y in (x, -np.asarray(x), points[(i + 1) % len(points)]):
                a, b = x / np.linalg.norm(x), np.asarray(y) / np.linalg.norm(y)
                dot = float(np.clip(a @ b, -1.0, 1.0))
                expected = float((2 * k + 1) / (4.0 * np.pi) * legendre_p(k, dot))
                assert projection_kernel(k, x, y) == expected
                xs.append(x)
                ys.append(y)
                kernels.append(expected)
        # Equal-length sequences, as lists of points or as (N, 3) arrays, give
        # the per-pair bits: equal and antipodal pairs included.
        expected = np.array(kernels).tobytes()
        assert projection_kernel(k, xs, ys).tobytes() == expected
        assert projection_kernel(k, np.array(xs), np.array(ys)).tobytes() == expected
        assert projection_kernel(k, tuple(np.array(xs)), ys).tobytes() == expected
        assert projection_kernel(k, [], []).shape == (0,)
    # raw points and the poles keep the recorded bits
    points = _pinned_points()
    for k, (_, _, digest) in _PINNED_DIGESTS.items():
        assert _digest(projection_kernel(k, points, points[1:] + points[:1])) == digest, k


def test_entry_points_refuse_anything_but_a_finite_nonzero_3_vector():
    grid = build_grid(4)
    pole = [0.0, 0.0, 1.0]
    entry_points = (
        lambda x: eval_basis_row(4, x),
        lambda x: ell_p_sum(4, x, 4),
        lambda x: projection_kernel(4, x, pole),
        lambda y: projection_kernel(4, pole, y),
        lambda x: arc_selections(grid, x, 0.3),
    )
    for call in entry_points:
        call([0.0, 0.0, 2.0])
        for bad in ([0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [1.0, 0.0], [0.0, 0.0, 1.0, 0.0], 1.0):
            with pytest.raises(ValueError):
                call(bad)
    # a point against a sequence, either way round, and sequences of unequal length
    mixed = (([pole], pole, r"\(1, 3\) and \(3,\)"), (pole, [pole], r"\(3,\) and \(1, 3\)"),
             ([pole, pole], [pole], "lengths 2 and 1"))
    for x, y, names in mixed:
        with pytest.raises(ValueError, match=names):
            projection_kernel(4, x, y)
