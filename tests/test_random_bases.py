import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spherelab import experiments, quadrature, random_bases
from spherelab.cli import main
from spherelab.experiments import monte_carlo_lambda4
from spherelab.harmonics import _signed_orders, coefficient_field
from spherelab.legendre import normalized_legendre_table
from spherelab.quadrature import GridResolutionError, build_grid
from spherelab.random_bases import (
    CoefficientBasis,
    _first_row_moduli,
    _mean_stderr,
    _quartic_plan,
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
    return np.array([
        grid.integrate(np.abs(coefficient_field(k, row, grid).values) ** 4) for row in coefficients
    ])


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
@experiments._one_blas_thread()
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


def _reference_quartic_norms(k, coefficients, grid):
    """The folded ring loop with its set-up rebuilt and fresh temporaries on every call."""
    coefficients = np.asarray(coefficients, dtype=complex)
    rows = coefficients.shape[0]
    half = grid.n_phi // 2
    weights = 2.0 * grid.ring_weight[half:]
    if grid.n_phi % 2:
        weights[0] = grid.ring_weight[half]
    h = grid.n_theta // 2 + 1
    multiplicity = np.full(h, 2.0)
    multiplicity[0] = 1.0
    if grid.n_theta % 2 == 0:
        multiplicity[-1] = 1.0
    mirrored = (coefficients * _signed_orders(k, np.ones((1, k + 1))))[:, k::-1]
    plus = coefficients[:, k:] + mirrored
    plus[:, 0] = coefficients[:, k]
    minus = coefficients[:, k + 1 :] - mirrored[:, 1:]
    plus = np.concatenate([plus.real, plus.imag])
    minus = np.concatenate([minus.real, minus.imag])
    angles = np.outer(np.arange(k + 1), grid.theta[:h])
    cos_table = np.cos(angles)
    sin_table = np.sin(angles[1:])
    out = np.zeros(rows)
    for weight, radial in zip(weights, normalized_legendre_table(k, grid.t[half:])):
        p = (plus * radial) @ cos_table
        s = (minus * radial[1:]) @ sin_table
        p_re, p_im = p[:rows], p[rows:]
        s_re, s_im = s[:rows], s[rows:]
        square = p_re * p_re + p_im * p_im + s_re * s_re + s_im * s_im
        cross = p_im * s_re - p_re * s_im
        out += (square * square + 4.0 * cross * cross) @ (weight * multiplicity)
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 16, 17, 33, 64])
@pytest.mark.parametrize("oversample", [1.0, 1.5, 2.0])
@experiments._one_blas_thread()
def test_quartic_norms_bitwise_match_the_fresh_loop(k, oversample):
    # The cached plan and the reused buffers keep every product's shape and
    # every elementwise step, so the values agree bit for bit.  The second
    # pass runs on a warm grid.
    n = 2 * k + 1
    grid = build_grid(k, oversample)
    haar = sample_haar_unitary(n, trial_rng(11, k))
    rng = np.random.default_rng(k)
    gaussian = rng.standard_normal((3 * k + 2, n)) + 1j * rng.standard_normal((3 * k + 2, n))
    for _ in range(2):
        for source in (haar, gaussian):
            for rows in sorted({1, 3, n, 3 * k + 2}):
                if rows > len(source):
                    continue
                coefficients = source[:rows]
                assert np.array_equal(
                    quartic_norms(k, coefficients, grid),
                    _reference_quartic_norms(k, coefficients, grid),
                ), rows


def test_quartic_plan_is_built_once_per_grid_and_degree(monkeypatch):
    calls = []

    def counting_table(k, t):
        calls.append(k)
        return normalized_legendre_table(k, t)

    monkeypatch.setattr(random_bases, "normalized_legendre_table", counting_table)
    grid = build_grid(6)
    rows = sample_haar_unitary(13, trial_rng(2, 0))
    first = quartic_norms(6, rows, grid)
    assert calls == [6]
    assert np.array_equal(quartic_norms(6, rows, grid), first)
    lambda4(CoefficientBasis(6, rows), grid)
    assert calls == [6]


def test_one_grid_serves_several_degrees():
    # A band-5 grid is quartic-exact for k = 3 as well; each degree keeps its
    # own plan, and the values match fresh grids.
    shared = build_grid(5)
    for k in (3, 5):
        rows = sample_haar_unitary(2 * k + 1, trial_rng(4, k))
        assert np.array_equal(quartic_norms(k, rows, shared), quartic_norms(k, rows, build_grid(5)))
    assert sorted(shared._quartic) == [3, 5]


def test_quartic_plan_arrays_are_read_only():
    grid = build_grid(4)
    for array in _quartic_plan(4, grid):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    assert _quartic_plan(4, grid) is _quartic_plan(4, grid)


@experiments._one_blas_thread()
def test_quartic_norms_memory_on_a_warm_grid():
    # At k = 64 the plan is about 0.23 MB and a full-basis call peaks at
    # about 1.7 MB: the coefficient folds and one set of ring buffers.
    k = 64
    grid = build_grid(k)
    rows = sample_haar_unitary(2 * k + 1, trial_rng(0, 0))
    quartic_norms(k, rows, grid)
    plan_bytes = sum(array.nbytes for array in grid._quartic[k])
    assert plan_bytes <= 0.25e6
    tracemalloc.start()
    try:
        quartic_norms(k, rows, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.8e6, peak


def test_quartic_norms_rejects_rows_of_the_wrong_length():
    grid = build_grid(3)
    with pytest.raises(ValueError, match="rows of length 7"):
        quartic_norms(3, np.eye(5), grid)
    with pytest.raises(ValueError, match="rows of length 7"):
        quartic_norms(3, np.ones(7), grid)


@pytest.mark.parametrize("n", [1, 2, 3, 65])
def test_first_row_moduli_match_the_qr_sampler(n):
    a2 = _first_row_moduli(n, 50, 9)
    u11 = [abs(sample_haar_unitary(n, trial_rng(9, i))[0, 0]) ** 2 for i in range(50)]
    assert np.abs(a2 - u11).max() <= 1e-14


def test_monte_carlo_reproducible_and_subset_consistent():
    r1 = monte_carlo_lambda4(8, trials=10, seed=42)
    r2 = monte_carlo_lambda4(8, trials=10, seed=42)
    assert r1.rows == r2.rows
    r5 = monte_carlo_lambda4(8, trials=5, seed=42)
    assert r5.rows == r1.rows[:5]
    assert r1.outputs["benchmark"] == pytest.approx((2 * 8 + 1) / (2 * math.pi), rel=1e-15, abs=0)
    assert 0.9 <= r1.outputs["ratio"] <= 1.1
    values = [row["lambda4"] for row in r1.rows]
    assert r1.outputs["mean"] == np.mean(values)
    assert r1.rows[0] == {"trial": 0, "k": 8, "lambda4": values[0], "seed": 42}
    with pytest.raises(ValueError):
        monte_carlo_lambda4(8, trials=1, seed=0)


def _openblas_threads():
    """The (set, get) pair ``_one_blas_thread`` uses; skips the test where it finds none."""
    set_threads, get_threads, _ = quadrature._openblas()
    if set_threads is None:
        pytest.skip("no OpenBLAS thread control found: the BLAS thread count is left as it is")
    return set_threads, get_threads


def _python(code, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_one_blas_thread_sets_one_thread_and_restores_the_count():
    set_threads, get_threads = _openblas_threads()
    original = get_threads()
    try:
        set_threads(2)
        with experiments._one_blas_thread():
            assert get_threads() == 1
        assert get_threads() == 2
        with pytest.raises(ValueError, match="inside"):
            with experiments._one_blas_thread():
                assert get_threads() == 1
                raise ValueError("inside")
        assert get_threads() == 2
    finally:
        set_threads(original)


# Small runs of the subcommands whose experiments run on one OpenBLAS thread.
_ONE_THREAD_RUNS = {
    "verify": ["verify", "--k-max", "2", "--points", "2"],
    "beams": ["beams", "--k-min", "8", "--delta", "0.5"],
    "tube-ratio": ["tube-ratio", "--k-min", "8", "--k-max", "8"],
    "random-onb": ["random-onb", "--k", "8", "--trials", "2"],
    "norms": ["norms", "--k", "8", "--q", "4", "--q", "inf"],
    "scaling": ["scaling", "--k-min", "4", "--k-max", "32"],
    "superlevel": ["superlevel", "--k-min", "4", "--k-max", "8"],
}


@pytest.mark.parametrize("command", sorted(_ONE_THREAD_RUNS))
def test_one_thread_subcommands_build_their_grids_on_one_thread(command):
    set_threads, get_threads = _openblas_threads()
    build = experiments.build_grid
    counts = []

    def spy(*args, **kwargs):
        counts.append(get_threads())
        return build(*args, **kwargs)

    original = get_threads()
    try:
        set_threads(2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "build_grid", spy)
            main(_ONE_THREAD_RUNS[command])
        assert counts and set(counts) == {1}
        assert get_threads() == 2
    finally:
        set_threads(original)


# Each experiment the command line runs, at a tiny size.
_TINY_RUNS = {
    "scaling_experiment": lambda: experiments.scaling_experiment("highest_weight", 4.0, [2, 4, 8, 16]),
    "norms_experiment": lambda: experiments.norms_experiment(4, (4.0, math.inf), 2),
    "average_l4_experiment": lambda: experiments.average_l4_experiment([2, 4]),
    "pointwise_envelope_experiment": lambda: experiments.pointwise_envelope_experiment([2, 4]),
    "monte_carlo_lambda4": lambda: experiments.monte_carlo_lambda4(2, 2, 0),
    "beam_experiment": lambda: experiments.beam_experiment([4], [0.5]),
    "tube_ratio_experiment": lambda: experiments.tube_ratio_experiment([2]),
    "superlevel_experiment": lambda: experiments.superlevel_experiment([2, 4]),
    "exact_identity_suite": lambda: experiments.exact_identity_suite(2, 2, 0),
}


def test_every_experiment_runs_on_one_blas_thread(monkeypatch):
    # A fake thread control records each count it is set to, so the rule
    # holds, and is checked, whichever BLAS numpy has.
    runs = [name for name in experiments.__all__
            if getattr(getattr(experiments, name), "__annotations__", {}).get("return")
            is experiments.ExperimentRun]
    assert sorted(runs) == sorted(_TINY_RUNS)
    for name in runs:
        threads = [3]
        monkeypatch.setattr(experiments, "_openblas",
                            lambda: (threads.append, lambda: threads[-1], None))
        assert isinstance(_TINY_RUNS[name](), experiments.ExperimentRun)
        assert threads == [3, 1, 3], name


def test_cli_import_does_no_blas_lookup():
    # The lookup reads /proc/self/maps and opens the library, so it waits for
    # the first use, by the thread control or by the grid rule's solver.
    probe = ("import spherelab.cli, spherelab.quadrature as q; "
             "print(q._openblas.cache_info().currsize, q._gauss_legendre.cache_info().currsize)")
    assert _python(probe).split() == ["0", "0"]


# The benchmark's run of each one-thread subcommand, as its library call, with
# the float columns compared and the number of values they hold.
_CORE_COUNT_PROBES = {
    "random-onb": ("monte_carlo_lambda4(64, 8, 0)", ("lambda4",), 8),
    "verify": ("exact_identity_suite(64, 100, 0)", ("max_error",), 4),
    "beams": ("beam_experiment([64, 128], [0.5, 0.35, 0.25], seed=0)",
              ("min_ret", "mean_ret", "gram_cond", "sum_l4"), 24),
    "tube-ratio": ("tube_ratio_experiment([8, 16, 32, 64], 2.0)",
                   ("l4", "sup_arc_mass", "ratio"), 384),
}


@pytest.mark.parametrize("command", sorted(_CORE_COUNT_PROBES))
def test_rows_do_not_depend_on_the_core_count(command):
    # At two OpenBLAS threads the QR at n = 129 and the per-ring products of
    # quartic_norms round differently than at one; each of these runs on one.
    _openblas_threads()
    call, columns, count = _CORE_COUNT_PROBES[command]
    probe = ("import spherelab.experiments as xp; "
             f"print(*(row[c].hex() for row in xp.{call}.rows for c in {columns!r}))")
    one, two = (_python(probe, OPENBLAS_NUM_THREADS=n).split() for n in ("1", "2"))
    assert len(one) == count
    assert one == two


def test_monte_carlo_mean_tracks_dimension_correction():
    # the expected ratio to the benchmark is N/(N+1) with N = 2k + 1
    res = monte_carlo_lambda4(8, trials=60, seed=7).outputs
    n = 17.0
    assert res["ratio"] == pytest.approx(n / (n + 1), abs=4 * res["ratio_stderr"])


def test_entry_moment_closed_forms_n2():
    # exact moments of |u_11|^2 for 2x2 Haar unitaries: 1/2 and 1/3
    m2, s2 = _mean_stderr(_first_row_moduli(2, 4000, 1))
    m4, s4 = _mean_stderr(_first_row_moduli(2, 4000, 2) ** 2)
    assert m2 == pytest.approx(1 / 2, abs=4 * s2)
    assert m4 == pytest.approx(1 / 3, abs=4 * s4)


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
    a2 = _first_row_moduli(3, 50, 5)
    u11 = [abs(sample_haar_unitary(3, trial_rng(5, i))[0, 0]) ** 2 for i in range(50)]
    assert a2.mean() == pytest.approx(np.mean(u11), rel=1e-14, abs=0)
    assert np.mean(a2 * a2) == pytest.approx(np.mean(np.square(u11)), rel=1e-14, abs=0)
    # A 1x1 unitary is a phase: |u_11|^2 = 1 with zero spread.
    mean, stderr = _mean_stderr(_first_row_moduli(1, 5, 0))
    assert mean == pytest.approx(1.0, rel=1e-14, abs=0) and stderr < 1e-15
    with pytest.raises(ValueError):
        gaussian_limit_check(8, samples=1, seed=0)


@pytest.mark.parametrize("seed", [np.random.default_rng(1), 1.0, "1", True, -1, None])
def test_moment_seeds_must_be_non_negative_ints(seed):
    # Per-sample streams are derived from the seed, so a generator cannot stand in.
    with pytest.raises(ValueError, match="seed"):
        _first_row_moduli(3, 5, seed)
    with pytest.raises(ValueError, match="seed"):
        gaussian_limit_check(8, samples=5, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        monte_carlo_lambda4(1, trials=2, seed=seed)
    assert np.array_equal(_first_row_moduli(3, 5, np.int64(5)), _first_row_moduli(3, 5, 5))
