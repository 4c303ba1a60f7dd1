import math

import numpy as np
import pytest
from scipy.special import gammaln

from spherelab.harmonics import signed_order_table
from spherelab.legendre import (
    _sectoral_log,
    _upward_degree_table,
    legendre_p,
    log_factorial,
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


def test_log_factorial_is_gammaln_bit_for_bit():
    # Every integer to 2^20, through the shared table and past its end.
    n = np.arange(2**20 + 1)
    assert log_factorial(n).tobytes() == gammaln(n + 1.0).tobytes()
    assert log_factorial(n[:-1]).tobytes() == gammaln(n[:-1] + 1.0).tobytes()
    # Cephes branch edges (x = n + 1 < 13, >= 1000, > 1e8) and far beyond.
    edges = [0, 11, 12, 13, 998, 999, 1000, 10**8 - 1, 10**8, 10**8 + 1,
             2 * 10**8 + 1, 10**9 + 1, 2**40 + 1, 10**15, 2**53, 2**63 - 1]
    for value in edges:
        expected = float(gammaln(np.int64(value) + 1.0))
        assert log_factorial(value) == expected, value
        assert log_factorial(np.int64(value)) == expected, value
    assert log_factorial(np.array(edges)).tobytes() == gammaln(np.array(edges) + 1.0).tobytes()


def test_log_factorial_shapes_and_domain():
    zero_d = log_factorial(np.array(7))
    assert type(zero_d) is float and zero_d == float(gammaln(8.0))
    grid = np.arange(12).reshape(3, 4)
    assert log_factorial(grid).shape == (3, 4)
    assert log_factorial(np.array([], dtype=np.int64)).shape == (0,)
    for bad in (-1, np.array([3, -2])):
        with pytest.raises(ValueError):
            log_factorial(bad)
    with pytest.raises(OverflowError):
        log_factorial(2**63)


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
    one = normalized_legendre_table(1, t)
    assert np.allclose(normalized_legendre_table(0, t)[:, 0], 1 / math.sqrt(4 * math.pi))
    assert np.allclose(one[:, 0], math.sqrt(3 / (4 * math.pi)) * t)
    # Condon-Shortley: the order +1 function is negative on (0, pi).
    assert np.allclose(one[:, 1], -math.sqrt(3 / (8 * math.pi)) * s)
    # signed_order_table column 0 is the order -1.
    assert np.allclose(signed_order_table(1, t)[:, 0], math.sqrt(3 / (8 * math.pi)) * s)
    assert np.allclose(
        normalized_legendre_table(2, t)[:, 1],
        -math.sqrt(15 / (8 * math.pi)) * t * s,
    )


def test_negative_order_symmetry():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, size=11)
    for k, m in ((3, 2), (5, 5), (9, 1), (12, 7)):
        signed = signed_order_table(k, t)
        plus, minus = signed[:, k + m], signed[:, k - m]
        assert np.array_equal(plus, normalized_legendre_table(k, t)[:, m])
        assert np.allclose(minus, (-1.0) ** m * plus, rtol=0, atol=1e-15)


def test_l2_normalization_by_quadrature():
    # 2 pi * int N(k,m)^2 dt = 1 for every order.
    nodes, weights = np.polynomial.legendre.leggauss(80)
    for k in (1, 4, 17, 33):
        table = normalized_legendre_table(k, nodes)
        for m in (0, 1, k // 2, k):
            vals = table[:, m]
            total = 2 * math.pi * float(weights @ vals**2)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_cross_degree_orthogonality():
    nodes, weights = np.polynomial.legendre.leggauss(120)
    for m in (0, 2, 5):
        for k1, k2 in ((m, m + 2), (m + 1, m + 4), (m + 3, m + 7)):
            a = normalized_legendre_table(k1, nodes)[:, m]
            b = normalized_legendre_table(k2, nodes)[:, m]
            assert 2 * math.pi * float(weights @ (a * b)) == pytest.approx(0.0, abs=1e-12)


def test_three_evaluators_agree():
    # The row and the table run one recurrence; the upward degree sweep is
    # the independent third evaluator.
    rng = np.random.default_rng(3)
    t = rng.uniform(-1, 1, size=7)
    k = 160
    table = normalized_legendre_table(k, t)
    for i, ti in enumerate(t):
        row = normalized_assoc_legendre_row(k, float(ti))
        assert np.abs(row - table[i]).max() < 1e-12
    assert np.abs(_upward_degree_table(k, t) - table).max() < 1e-12


def test_sectoral_amplitude_matches_direct_value():
    for k in (1, 5, 50, 500):
        direct = normalized_legendre_table(k, 0.0)[0, k]
        assert abs(direct) == pytest.approx(math.exp(_sectoral_log(k)), rel=1e-12)
        assert math.copysign(1.0, direct) == (-1.0) ** k


def test_pole_values():
    for k in (0, 1, 6, 11):
        north, south = normalized_legendre_table(k, np.array([1.0, -1.0]))
        assert north[0] == pytest.approx(zonal_sup_coefficient(k), rel=1e-14)
        assert south[0] == pytest.approx((-1.0) ** k * zonal_sup_coefficient(k), rel=1e-14)
        if k:
            assert north[1] == 0.0
    row = normalized_assoc_legendre_row(9, -1.0)
    assert row[0] == pytest.approx(-zonal_sup_coefficient(9), rel=1e-14)
    assert np.all(row[1:] == 0.0)


def test_extreme_degree_survives_subnormal_window():
    # Around k ~ 2000 the sectoral seed sits far below 1e-300; the exponent
    # carry must keep every order finite and normalized.
    k = 2048
    nodes, weights = np.polynomial.legendre.leggauss(k + 1)
    table = normalized_legendre_table(k, nodes)
    for m in (0, 1024, 2047, 2048):
        vals = table[:, m]
        assert np.isfinite(vals).all()
        total = 2 * math.pi * float(weights @ vals**2)
        assert total == pytest.approx(1.0, abs=1e-8)
    # Orders 0 and 1 at one point against the closed forms in P_k.
    row = normalized_assoc_legendre_row(k, 0.3)
    assert np.abs(row[:2] - _low_order_closed_forms(k, np.array([0.3]))[:, 0]).max() < 1e-11


def _low_order_closed_forms(k, t):
    """N(k, 0, t) and N(k, 1, t) from legendre_p alone, shape (2, len(t)), for |t| < 1.

    N(k, 1) uses (1 - t^2) P_k'(t) = k (P_{k-1}(t) - t P_k(t)).
    """
    p_k = legendre_p(k, t)
    p_km1 = legendre_p(k - 1, t)
    col0 = math.sqrt((2 * k + 1) / (4 * math.pi)) * p_k
    col1 = (
        -math.sqrt((2 * k + 1) / (4 * math.pi * k * (k + 1)))
        * k * (p_km1 - t * p_k) / np.sqrt(1 - t * t)
    )
    return np.array([col0, col1])


@pytest.mark.parametrize("k", [1024, 2048])
def test_low_order_columns_match_legendre_p_closed_forms(k):
    # An oracle above scipy's range that shares no code with the
    # extended-range recurrence.
    nodes, _ = np.polynomial.legendre.leggauss(2 * k + 1)
    table = normalized_legendre_table(k, nodes)
    assert np.abs(table[:, :2].T - _low_order_closed_forms(k, nodes)).max() <= 1e-9


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
        normalized_legendre_table(-3, 0.0)
    with pytest.raises(ValueError):
        normalized_legendre_table(3, 1.01)
    with pytest.raises(ValueError):
        normalized_assoc_legendre_row(5, -1.2)
    with pytest.raises(ValueError):
        normalized_assoc_legendre_row(-2, 0.0)
