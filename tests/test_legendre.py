import math

import numpy as np
import pytest

from spherelab.legendre import (
    _sectoral_log,
    _upward_degree_table,
    legendre_p,
    log_factorial,
    normalized_assoc_legendre,
    normalized_assoc_legendre_row,
    normalized_legendre_table,
    wallis_integral,
    zonal_sup_coefficient,
)


def wallis_by_recursion(n):
    # Independent oracle: W_0 = pi, W_1 = 2, W_n = (n-1)/n * W_{n-2}.
    vals = [math.pi, 2.0]
    for j in range(2, n + 1):
        vals.append((j - 1) / j * vals[j - 2])
    return vals[n]


def test_wallis_against_recursion_oracle():
    for n in range(0, 60):
        assert wallis_integral(n) == pytest.approx(wallis_by_recursion(n), rel=1e-13)


def test_wallis_pair_product_identity():
    # W_n * W_{n+1} = 2 pi / (n + 1)
    for n in (0, 1, 5, 40, 333):
        assert wallis_integral(n) * wallis_integral(n + 1) == pytest.approx(
            2.0 * math.pi / (n + 1), rel=1e-12
        )


def test_wallis_domain():
    with pytest.raises(ValueError):
        wallis_integral(-1)


def test_log_factorial_against_lgamma():
    for n in (0, 1, 2, 7, 100, 4096, 10000):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-14, abs=1e-14)
    arr = log_factorial(np.array([3, 5, 8]))
    assert np.allclose(arr, [math.lgamma(4), math.lgamma(6), math.lgamma(9)])


def test_legendre_p_explicit_polynomials():
    rng = np.random.default_rng(0)
    t = rng.uniform(-1, 1, size=50)
    assert np.allclose(legendre_p(0, t), np.ones_like(t))
    assert np.allclose(legendre_p(1, t), t)
    assert np.allclose(legendre_p(2, t), 0.5 * (3 * t**2 - 1), atol=1e-14)
    assert np.allclose(legendre_p(3, t), 0.5 * (5 * t**3 - 3 * t), atol=1e-14)
    assert np.allclose(
        legendre_p(5, t), (63 * t**5 - 70 * t**3 + 15 * t) / 8.0, atol=1e-13
    )


def test_legendre_p_endpoints_and_bound():
    for k in (1, 2, 3, 10, 77, 512):
        assert legendre_p(k, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert legendre_p(k, -1.0) == pytest.approx((-1.0) ** k, abs=1e-12)
    t = np.linspace(-1, 1, 2001)
    assert np.abs(legendre_p(40, t)).max() <= 1.0 + 1e-12


def test_legendre_p_scalar_and_domain():
    assert isinstance(legendre_p(3, 0.25), float)
    with pytest.raises(ValueError):
        legendre_p(3, 1.5)
    with pytest.raises(ValueError):
        legendre_p(-1, 0.0)


def test_normalized_low_order_closed_forms():
    rng = np.random.default_rng(1)
    t = rng.uniform(-1, 1, size=20)
    s = np.sqrt(1 - t**2)
    assert np.allclose(normalized_assoc_legendre(0, 0, t), 1 / math.sqrt(4 * math.pi))
    assert np.allclose(normalized_assoc_legendre(1, 0, t), math.sqrt(3 / (4 * math.pi)) * t)
    # Condon-Shortley: the order +1 function is negative on (0, pi).
    assert np.allclose(
        normalized_assoc_legendre(1, 1, t), -math.sqrt(3 / (8 * math.pi)) * s
    )
    assert np.allclose(
        normalized_assoc_legendre(1, -1, t), math.sqrt(3 / (8 * math.pi)) * s
    )
    assert np.allclose(
        normalized_assoc_legendre(2, 1, t),
        -math.sqrt(15 / (8 * math.pi)) * t * s,
    )


def test_negative_order_symmetry():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, size=11)
    for k, m in ((3, 2), (5, 5), (9, 1), (12, 7)):
        plus = normalized_assoc_legendre(k, m, t)
        minus = normalized_assoc_legendre(k, -m, t)
        assert np.allclose(minus, (-1.0) ** m * plus, rtol=0, atol=1e-15)


def test_l2_normalization_by_quadrature():
    # 2 pi * int N(k,m)^2 dt = 1 for every order.
    nodes, weights = np.polynomial.legendre.leggauss(80)
    for k in (1, 4, 17, 33):
        for m in (0, 1, k // 2, k):
            vals = normalized_assoc_legendre(k, m, nodes)
            total = 2 * math.pi * float(weights @ vals**2)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_cross_degree_orthogonality():
    nodes, weights = np.polynomial.legendre.leggauss(120)
    for m in (0, 2, 5):
        for k1, k2 in ((m, m + 2), (m + 1, m + 4), (m + 3, m + 7)):
            a = normalized_assoc_legendre(k1, m, nodes)
            b = normalized_assoc_legendre(k2, m, nodes)
            assert 2 * math.pi * float(weights @ (a * b)) == pytest.approx(0.0, abs=1e-12)


def test_three_evaluators_agree():
    rng = np.random.default_rng(3)
    t = rng.uniform(-1, 1, size=7)
    k = 160
    table = normalized_legendre_table(k, t)
    for i, ti in enumerate(t):
        row = normalized_assoc_legendre_row(k, float(ti))
        assert np.abs(row - table[i]).max() < 1e-12
    for m in (0, 1, 40, 159, 160):
        col = normalized_assoc_legendre(k, m, t)
        assert np.abs(col - table[:, m]).max() < 1e-12


def test_sectoral_amplitude_matches_direct_value():
    for k in (1, 5, 50, 500):
        direct = normalized_assoc_legendre(k, k, 0.0)
        assert abs(direct) == pytest.approx(math.exp(_sectoral_log(k)), rel=1e-12)
        assert math.copysign(1.0, direct) == (-1.0) ** k


def test_pole_values():
    for k in (0, 1, 6, 11):
        assert normalized_assoc_legendre(k, 0, 1.0) == pytest.approx(
            zonal_sup_coefficient(k), rel=1e-14
        )
        assert normalized_assoc_legendre(k, 0, -1.0) == pytest.approx(
            (-1.0) ** k * zonal_sup_coefficient(k), rel=1e-14
        )
        if k:
            assert normalized_assoc_legendre(k, 1, 1.0) == 0.0
    row = normalized_assoc_legendre_row(9, -1.0)
    assert row[0] == pytest.approx(-zonal_sup_coefficient(9), rel=1e-14)
    assert np.all(row[1:] == 0.0)


def test_extreme_degree_survives_subnormal_window():
    # Around k ~ 2000 the sectoral seed sits far below 1e-300; the exponent
    # carry must keep every order finite and normalized.
    k = 2048
    nodes, weights = np.polynomial.legendre.leggauss(k + 1)
    for m in (0, 1024, 2047, 2048):
        vals = normalized_assoc_legendre(k, m, nodes)
        assert np.isfinite(vals).all()
        total = 2 * math.pi * float(weights @ vals**2)
        assert total == pytest.approx(1.0, abs=1e-8)
    row = normalized_assoc_legendre_row(k, 0.3)
    cols = np.array([normalized_assoc_legendre(k, m, 0.3) for m in (0, 1, 7, 511, 2048)])
    assert np.abs(row[[0, 1, 7, 511, 2048]] - cols).max() < 1e-11


def test_table_beyond_old_cap_is_normalized():
    # Every column of the k = 2048 table on the band-2048 Gauss nodes has
    # unit L2 norm: the sectoral seeds sit far below the double range there.
    k = 2048
    nodes, weights = np.polynomial.legendre.leggauss(2 * k + 1)
    table = normalized_legendre_table(k, nodes)
    assert table.shape == (nodes.size, k + 1)
    assert np.isfinite(table).all()
    norms = 2 * math.pi * (weights @ table**2)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_table_matches_upward_degree_sweep():
    # The second algorithm: upward in degree, plain doubles, k <= 1024.
    k = 1024
    nodes, _ = np.polynomial.legendre.leggauss(2 * k + 1)
    diff = normalized_legendre_table(k, nodes) - _upward_degree_table(k, nodes)
    assert np.abs(diff).max() <= 1e-9
    with pytest.raises(ValueError):
        _upward_degree_table(1025, nodes[:1])


def test_table_pole_points():
    for k in (0, 1, 6, 11, 2048):
        table = normalized_legendre_table(k, np.array([1.0, 0.5, -1.0]))
        for row, sign in ((0, 1.0), (2, -1.0)):
            assert table[row, 0] == pytest.approx(sign**k * zonal_sup_coefficient(k), rel=1e-14)
            assert np.all(table[row, 1:] == 0.0)
        assert np.abs(table[1] - normalized_assoc_legendre_row(k, 0.5)).max() < 1e-12


def test_table_degree_zero_and_scalar_argument():
    table = normalized_legendre_table(0, np.array([-0.3, 0.0, 0.9]))
    assert table.shape == (3, 1)
    assert np.allclose(table, 1 / math.sqrt(4 * math.pi), rtol=1e-15, atol=0)
    assert normalized_legendre_table(5, np.array([])).shape == (0, 6)
    single = normalized_legendre_table(7, 0.42)
    assert single.shape == (1, 8)
    assert np.abs(single[0] - normalized_assoc_legendre_row(7, 0.42)).max() < 1e-15
    with pytest.raises(ValueError):
        normalized_legendre_table(-1, 0.0)
    with pytest.raises(ValueError):
        normalized_legendre_table(3, np.array([1.5]))


def test_argument_validation():
    with pytest.raises(ValueError):
        normalized_assoc_legendre(3, 4, 0.0)
    with pytest.raises(ValueError):
        normalized_assoc_legendre(3, 0, 1.01)
    with pytest.raises(ValueError):
        normalized_assoc_legendre_row(5, -1.2)
    with pytest.raises(ValueError):
        normalized_assoc_legendre_row(-2, 0.0)


def test_scalar_in_scalar_out():
    val = normalized_assoc_legendre(7, 3, 0.42)
    assert isinstance(val, float)
    arr = normalized_assoc_legendre(7, 3, np.array([0.42]))
    assert arr.shape == (1,)
    assert arr[0] == val
