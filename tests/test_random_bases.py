import math

import numpy as np
import pytest

from spherelab.experiments import monte_carlo_lambda4
from spherelab.harmonics import synthesize_rings
from spherelab.quadrature import GridResolutionError, build_grid
from spherelab.random_bases import (
    CoefficientBasis,
    _first_row_moduli,
    entry_moment,
    gaussian_limit_check,
    lambda4,
    quartic_norms,
    sample_haar_unitary,
    trial_rng,
)


def test_haar_unitary_is_unitary_and_deterministic():
    rng = np.random.default_rng(5)
    u = sample_haar_unitary(17, rng)
    assert u.shape == (17, 17)
    assert np.allclose(u @ u.conj().T, np.eye(17), atol=1e-12)
    u2 = sample_haar_unitary(17, np.random.default_rng(5))
    assert np.array_equal(u, u2)
    with pytest.raises(ValueError):
        sample_haar_unitary(0, rng)


def test_haar_rotation_invariance_of_first_moment():
    # column norms are exchangeable: the mean |u_ij|^2 over many draws is 1/n
    n = 6
    acc = np.zeros((n, n))
    rng = np.random.default_rng(123)
    trials = 400
    for _ in range(trials):
        u = sample_haar_unitary(n, rng)
        acc += np.abs(u) ** 2
    acc /= trials
    assert np.allclose(acc, 1.0 / n, atol=0.05)


def test_trial_rng_streams_are_stable_and_distinct():
    a = trial_rng(9, 0).standard_normal(4)
    b = trial_rng(9, 0).standard_normal(4)
    c = trial_rng(9, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_coefficient_basis_validation():
    good = CoefficientBasis.identity(3)
    assert good.size == 7
    bad = np.eye(7, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        CoefficientBasis(3, bad)
    with pytest.raises(ValueError):
        CoefficientBasis(3, np.eye(5, dtype=complex))


def test_identity_basis_lambda4_closed_form():
    # the standard degree-1 basis has an elementary quartic sum
    grid = build_grid(1)
    val = lambda4(CoefficientBasis.identity(1), grid)
    assert val == pytest.approx(21 / (20 * math.pi), rel=1e-12)


def test_lambda4_requires_quartic_grid():
    basis = CoefficientBasis.identity(8)
    with pytest.raises(GridResolutionError):
        lambda4(basis, build_grid(7))
    # a band-8 grid is quartic-exact for degree-8 fields
    val = lambda4(basis, build_grid(8))
    assert val > 0


def test_lambda4_rotation_invariant_for_identity():
    # any unitary recombination keeps the square sum constant; the quartic
    # sum changes, but the unitary-conjugated identity at k=1 stays put
    grid = build_grid(1)
    u = sample_haar_unitary(3, np.random.default_rng(0))
    val = lambda4(CoefficientBasis(1, u), grid)
    base = lambda4(CoefficientBasis.identity(1), grid)
    # degree-1 space: any orthonormal basis of it gives the same square-sum
    # field, but quartic sums genuinely differ; just sanity-bound the range
    assert 0 < val < 10 * base


def _full_sphere_quartic_norms(k, coefficients, grid):
    """Every ring, northern and southern, summed at its own weight."""
    out = np.zeros(len(coefficients))
    for weight, ring in zip(grid.ring_weight, synthesize_rings(k, coefficients, grid)):
        out += weight * (np.abs(ring) ** 4).sum(axis=1)
    return out


def _coefficient_sets(k):
    """Row sets of degree k: orthonormal ones, and the non-orthonormal rows beams pass."""
    n = 2 * k + 1
    rng = np.random.default_rng(k)
    gaussian = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return {
        "identity": np.eye(n),
        "haar": sample_haar_unitary(n, trial_rng(3, k)),
        "gaussian": gaussian,
        "one row": gaussian[:1],
        "partial": gaussian[: k + 1],
    }


@pytest.mark.parametrize("k", [0, 1, 2, 17, 32])
@pytest.mark.parametrize("oversample", [1.0, 1.5])
def test_quartic_norms_hemisphere_fold_matches_full_sphere(k, oversample):
    # The oracle synthesizes every ring at every longitude over all orders,
    # so it checks the hemisphere, +-m and +-theta folds together.
    # Oversample 1 gives odd n_phi (an equator ring) and odd n_theta (the
    # turn by pi lands on no grid longitude, and only theta_0 is its own
    # mirror); oversample 1.5 gives even n_theta (theta_{n_theta/2} is its
    # own mirror too) and n_phi of both parities over these k.
    grid = build_grid(k, oversample)
    for name, coefficients in _coefficient_sets(k).items():
        folded = quartic_norms(k, coefficients, grid)
        full = _full_sphere_quartic_norms(k, coefficients, grid)
        assert folded.shape == (len(coefficients),), name
        np.testing.assert_allclose(folded, full, rtol=1e-13, atol=0.0, err_msg=name)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_quartic_norms_agree_on_every_exact_grid(k):
    # All three grids integrate |f|^4 exactly; between them they cover both
    # parities of n_phi and of n_theta.  The degrees stay small because the
    # Gauss-Legendre rule itself drifts from grid to grid as n_phi grows
    # (about 6e-13 relative for Z_17 between these three grids, the same
    # before the +-m and +-theta folds), which is not what this test checks.
    grids = [build_grid(k, oversample) for oversample in (1.0, 1.5, 2.0)]
    for name, coefficients in _coefficient_sets(k).items():
        base, *others = [quartic_norms(k, coefficients, grid) for grid in grids]
        for other in others:
            np.testing.assert_allclose(other, base, rtol=1e-13, atol=0.0, err_msg=name)


def test_quartic_norms_rejects_rows_of_the_wrong_length():
    grid = build_grid(3)
    with pytest.raises(ValueError, match="rows of length 7"):
        quartic_norms(3, np.eye(5), grid)
    with pytest.raises(ValueError, match="rows of length 7"):
        quartic_norms(3, np.ones(7), grid)


@pytest.mark.parametrize("n", [1, 2, 3, 65])
def test_first_row_moduli_match_the_qr_sampler(n):
    a2, b2 = _first_row_moduli(n, 50, 9)
    rows = [np.abs(sample_haar_unitary(n, trial_rng(9, i))[0, :2]) ** 2 for i in range(50)]
    assert np.abs(a2 - [row[0] for row in rows]).max() <= 1e-14
    assert np.abs(b2 - [row[1] if n > 1 else 0.0 for row in rows]).max() <= 1e-14


def test_monte_carlo_reproducible_and_subset_consistent():
    r1 = monte_carlo_lambda4(8, trials=10, seed=42)
    r2 = monte_carlo_lambda4(8, trials=10, seed=42)
    assert r1.rows == r2.rows
    r5 = monte_carlo_lambda4(8, trials=5, seed=42)
    assert r5.rows == r1.rows[:5]
    assert r1.outputs["benchmark"] == pytest.approx((2 * 8 + 1) / (2 * math.pi), rel=1e-15)
    assert 0.9 <= r1.outputs["ratio"] <= 1.1
    values = [row["lambda4"] for row in r1.rows]
    assert r1.outputs["mean"] == np.mean(values)
    assert r1.rows[0] == {"trial": 0, "k": 8, "lambda4": values[0], "seed": 42}
    with pytest.raises(ValueError):
        monte_carlo_lambda4(8, trials=1, seed=0)


def test_monte_carlo_mean_tracks_dimension_correction():
    # the expected ratio to the benchmark is N/(N+1) with N = 2k + 1
    res = monte_carlo_lambda4(8, trials=60, seed=7).outputs
    n = 17.0
    assert res["ratio"] == pytest.approx(n / (n + 1), abs=4 * res["ratio_stderr"])


def test_entry_moment_closed_forms_n2():
    # exact moments for 2x2 Haar unitaries: 1/2, 1/3, 1/6
    m2, s2 = entry_moment(2, "|u|^2", samples=4000, seed=1, return_stderr=True)
    m4, s4 = entry_moment(2, "|u|^4", samples=4000, seed=2, return_stderr=True)
    mc, sc = entry_moment(2, "|u|^2|u'|^2", samples=4000, seed=3, return_stderr=True)
    assert m2 == pytest.approx(1 / 2, abs=4 * s2)
    assert m4 == pytest.approx(1 / 3, abs=4 * s4)
    assert mc == pytest.approx(1 / 6, abs=4 * sc)
    with pytest.raises(ValueError):
        entry_moment(2, "|u|^6", samples=10, seed=0)


def test_gaussian_limit_check_frozen_run():
    report = gaussian_limit_check(32, samples=20000, seed=77)
    assert report.second_moment == pytest.approx(1.0, abs=4 * report.second_stderr)
    assert report.fourth_moment == pytest.approx(2.0, abs=4 * report.fourth_stderr)
    assert report.distance < 0.05
    # exact frozen values guard the seeding scheme
    assert report.second_moment == pytest.approx(1.0028731156549267, rel=1e-12)
    assert report.fourth_moment == pytest.approx(1.9881328889094776, rel=1e-12)
    with pytest.raises(ValueError):
        gaussian_limit_check(4, samples=100, seed=0)


def test_entry_moments_share_one_first_row_sampler():
    # The (1,1) moments of one seed read the same sampled unitaries.
    m2 = entry_moment(3, "|u|^2", samples=50, seed=5)
    m4 = entry_moment(3, "|u|^4", samples=50, seed=5)
    u11 = [abs(sample_haar_unitary(3, trial_rng(5, i))[0, 0]) ** 2 for i in range(50)]
    assert m2 == pytest.approx(np.mean(u11), rel=1e-14)
    assert m4 == pytest.approx(np.mean(np.square(u11)), rel=1e-14)
    # A 1x1 unitary is a phase: |u_11|^2 = 1 with zero spread.
    mean, stderr = entry_moment(1, "|u|^2", samples=5, seed=0, return_stderr=True)
    assert mean == pytest.approx(1.0, rel=1e-14) and stderr < 1e-15
    with pytest.raises(ValueError):
        gaussian_limit_check(8, samples=1, seed=0)


@pytest.mark.parametrize("seed", [np.random.default_rng(1), 1.0, "1", True, -1, None])
def test_moment_seeds_must_be_non_negative_ints(seed):
    # Per-sample streams are derived from the seed, so a generator cannot stand in.
    with pytest.raises(ValueError, match="seed"):
        entry_moment(3, "|u|^2", samples=5, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        gaussian_limit_check(8, samples=5, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        monte_carlo_lambda4(1, trials=2, seed=seed)
    assert entry_moment(3, "|u|^2", samples=5, seed=np.int64(5)) == entry_moment(
        3, "|u|^2", samples=5, seed=5
    )
