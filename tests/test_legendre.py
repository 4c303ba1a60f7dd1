import math

import numpy as np
import pytest
from scipy.special import gammaln

from spherelab.harmonics import signed_order_table
from spherelab.quadrature import _gauss_legendre
from spherelab.legendre import (
    _sectoral_log,
    _upward_degree_table,
    legendre_p,
    log_factorial,
    normalized_assoc_legendre_row,
    normalized_legendre_table,
    zonal_sup_coefficient,
)


def wallis_integral(n) -> float:
    """Integral of sin(x)^n over [0, pi], n >= 0 integer.

    Evaluated as sqrt(pi) * Gamma((n+1)/2) / Gamma(n/2 + 1) in log space, so
    it stays finite for n in the hundreds of thousands where the direct
    product recursion would be slow.
    """
    n = int(n)
    if n < 0:
        raise ValueError("wallis_integral requires n >= 0")
    return math.exp(0.5 * math.log(math.pi) + math.lgamma((n + 1) / 2.0)
                    - math.lgamma(n / 2.0 + 1.0))


def wallis_by_recursion(n):
    # Independent oracle: W_0 = pi, W_1 = 2, W_n = (n-1)/n * W_{n-2}.
    vals = [math.pi, 2.0]
    for j in range(2, n + 1):
        vals.append((j - 1) / j * vals[j - 2])
    return vals[n]


def test_wallis_against_recursion_oracle():
    for n in range(0, 60):
        assert wallis_integral(n) == pytest.approx(wallis_by_recursion(n), rel=1e-13, abs=0)


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
        assert north[0] == pytest.approx(zonal_sup_coefficient(k), rel=1e-14, abs=0)
        assert south[0] == pytest.approx((-1.0) ** k * zonal_sup_coefficient(k), rel=1e-14, abs=0)
        if k:
            assert north[1] == 0.0
    row = normalized_assoc_legendre_row(9, -1.0)
    assert row[0] == pytest.approx(-zonal_sup_coefficient(9), rel=1e-14, abs=0)
    assert np.all(row[1:] == 0.0)


def test_extreme_degree_survives_subnormal_window():
    # Around k ~ 2000 the sectoral seed sits far below 1e-300; the exponent
    # carry must keep every order finite and normalized.
    k = 2048
    nodes, weights = _gauss_legendre(k + 1)
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
    nodes, _ = _gauss_legendre(2 * k + 1)
    table = normalized_legendre_table(k, nodes)
    assert np.abs(table[:, :2].T - _low_order_closed_forms(k, nodes)).max() <= 1e-9


def test_table_beyond_old_cap_is_normalized():
    # Every column of the k = 2048 table on the band-2048 Gauss nodes has
    # unit L2 norm: the sectoral seeds sit far below the double range there.
    k = 2048
    nodes, weights = _gauss_legendre(2 * k + 1)
    table = normalized_legendre_table(k, nodes)
    assert table.shape == (nodes.size, k + 1)
    assert np.isfinite(table).all()
    norms = 2 * math.pi * (weights @ table**2)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_table_matches_upward_degree_sweep():
    # The second algorithm: upward in degree, plain doubles, k <= 1024.
    k = 1024
    nodes, _ = _gauss_legendre(2 * k + 1)
    diff = normalized_legendre_table(k, nodes) - _upward_degree_table(k, nodes)
    assert np.abs(diff).max() <= 1e-9
    with pytest.raises(ValueError):
        _upward_degree_table(1025, nodes[:1])


def test_table_pole_points():
    for k in (0, 1, 6, 11, 2048):
        table = normalized_legendre_table(k, np.array([1.0, 0.5, -1.0]))
        for row, sign in ((0, 1.0), (2, -1.0)):
            assert table[row, 0] == pytest.approx(sign**k * zonal_sup_coefficient(k), rel=1e-14, abs=0)
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


def test_nan_arguments_are_refused():
    # |t| <= 1 is tested as `not |t| <= 1 + 1e-12`, so NaN fails it everywhere.
    nan = float("nan")
    for evaluate in (
        lambda: legendre_p(3, nan),
        lambda: legendre_p(3, np.float64(nan)),
        lambda: legendre_p(3, np.array(nan)),
        lambda: legendre_p(3, np.array([0.5, nan])),
        lambda: legendre_p(0, np.array([[nan]])),
        lambda: normalized_assoc_legendre_row(3, nan),
        lambda: normalized_assoc_legendre_row(0, nan),
        lambda: normalized_legendre_table(3, [nan]),
        lambda: normalized_legendre_table(3, np.array([0.1, nan, -0.2])),
        lambda: _upward_degree_table(3, [nan]),
        lambda: _upward_degree_table(0, np.array([0.4, nan])),
    ):
        with pytest.raises(ValueError, match=r"\|t\| <= 1"):
            evaluate()


# The evaluators as they stood before their loops moved to Python floats and
# reused buffers, kept as bitwise references.

def _reference_row(k, t):
    """The one-point downward recurrence on numpy scalars, its coefficients taken per order."""
    t = min(1.0, max(-1.0, float(t)))
    s = np.sqrt(max(0.0, 1.0 - t * t))
    out = np.zeros(k + 1)
    if s == 0.0:
        out[0] = (np.sign(t) ** k if k else 1.0) * np.sqrt((2 * k + 1) / (4.0 * np.pi))
        return out, 0
    log2_seed = (_sectoral_log(k) + k * np.log(s)) * (1.0 / np.log(2.0))
    off = int(np.floor(log2_seed))
    cur = (-1.0) ** k * 2.0 ** (log2_seed - off)
    mans = np.zeros(k + 1)
    offs = np.zeros(k + 1, dtype=np.int64)
    mans[k] = cur
    offs[k] = off
    t_over_s = t / s
    prev_m = cur
    above = 0.0
    rescales = 0
    for m in range(k, 0, -1):
        denom = np.sqrt((k + m) * (k - m + 1.0))
        val = -(np.sqrt((k + m + 1.0) * (k - m)) * above + 2.0 * m * t_over_s * prev_m) / denom
        above, prev_m = prev_m, val
        big = max(abs(above), abs(prev_m))
        if big > 2.0**500:
            above *= 2.0**-1000
            prev_m *= 2.0**-1000
            off += 1000
            rescales += 1
        elif 0.0 < big < 1.0 / 2.0**500:
            above *= 2.0**1000
            prev_m *= 2.0**1000
            off -= 1000
            rescales += 1
        mans[m - 1] = prev_m
        offs[m - 1] = off
    return np.ldexp(mans, np.clip(offs, -2400, 2400).astype(np.int32)), rescales


def _reference_legendre_p(k, t):
    """The three-term recurrence with fresh temporaries at every degree."""
    t_arr = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    p_prev = np.ones_like(t_arr)
    if k == 0:
        return float(p_prev) if np.isscalar(t) or t_arr.ndim == 0 else p_prev
    p_cur = t_arr.copy()
    for n in range(2, k + 1):
        p_next = ((2 * n - 1) * t_arr * p_cur - (n - 1) * p_prev) / n
        p_prev, p_cur = p_cur, p_next
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(p_cur)
    return p_cur


def _reference_upward_table(k, t):
    """The upward sweep in degree on point-major buffers, each head formed out of place."""
    t_arr = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - t_arr * t_arr))
    prev = np.zeros((t_arr.size, k + 1))
    cur = np.zeros((t_arr.size, k + 1))
    nxt = np.zeros((t_arr.size, k + 1))
    cur[:, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for n in range(1, k + 1):
        if n >= 2:
            m = np.arange(0, n - 1)
            a = np.sqrt((2 * n - 1.0) * (2 * n + 1.0) / ((n - m) * (n + m)))
            b = np.sqrt(
                (2 * n + 1.0) * (n + m - 1.0) * (n - m - 1.0)
                / ((n - m) * (n + m) * (2.0 * n - 3.0))
            )
            nxt[:, : n - 1] = a * t_arr[:, None] * cur[:, : n - 1] - b * prev[:, : n - 1]
        nxt[:, n - 1] = np.sqrt(2.0 * n + 1.0) * t_arr * cur[:, n - 1]
        nxt[:, n] = -np.sqrt((2.0 * n + 1.0) / (2.0 * n)) * s * cur[:, n - 1]
        prev, cur, nxt = cur, nxt, prev
    return cur


# Poles, one rounding step inside them, a denormal-sized t, signed zeros,
# values inside the clipped 1e-12 margin, and random interior points.
_EDGE_POINTS = [1.0, -1.0, 1.0 - 1e-15, -(1.0 - 1e-15), 1e-300, -1e-300, 0.0, -0.0,
                1.0 + 5e-13, -1.0 - 5e-13, 0.999, -0.9999999, 1.0 - 1e-12]
_REFERENCE_POINTS = _EDGE_POINTS + list(np.random.default_rng(11).uniform(-1.0, 1.0, 6))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 64, 300, 1500, 4000])
def test_row_matches_the_numpy_scalar_loop_bitwise(k):
    rescales = 0
    for t in _REFERENCE_POINTS:
        expected, count = _reference_row(k, t)
        rescales += count
        assert normalized_assoc_legendre_row(k, t).tobytes() == expected.tobytes(), t
    # Near the poles the values grow past 2^500 and the row rescales.
    assert rescales > 0 or k < 64


@pytest.mark.parametrize("k", [0, 1, 2, 5, 64, 300, 1500, 4000])
def test_legendre_p_matches_the_fresh_temporary_loop_bitwise(k):
    points = np.array(_REFERENCE_POINTS)
    for t in _REFERENCE_POINTS[:8] if k > 300 else _REFERENCE_POINTS:
        for scalar in (t, np.float64(t), np.array(t)):
            got = legendre_p(k, scalar)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(_reference_legendre_p(k, scalar)).tobytes()
    for array in (points, points.reshape(1, -1), points[:12].reshape(3, 4), points[:0], list(points[:5])):
        got = legendre_p(k, array)
        expected = _reference_legendre_p(k, array)
        assert type(got) is np.ndarray and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [0, 1, 2, 5, 64, 300, 1024])
def test_upward_sweep_matches_the_point_major_loop_bitwise(k):
    points = np.array(_REFERENCE_POINTS if k < 1024 else _EDGE_POINTS[:6])
    for t in (points, points[:1], points[0]):
        got = _upward_degree_table(k, t)
        expected = _reference_upward_table(k, t)
        assert got.shape == expected.shape and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
