import hashlib
import math

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from spherelab import experiments
from spherelab.beams import (
    _MAX_LATTICE_AXES,
    _MIN_SEPARATION,
    PackingInfeasibleError,
    RankDeficiencyError,
    _xlogy,
    beam_coefficients,
    orthonormalize,
    packing_bound,
    place_separated_axes,
)
from spherelab.experiments import BEAM_EXPERIMENT_COLUMNS, beam_experiment
from spherelab.harmonics import (
    beam_field,
    coefficient_field,
    signed_order_table,
)
from spherelab.quadrature import GridResolutionError, build_grid
from spherelab.random_bases import quartic_norms
from spherelab.sphere import rotation_to_pole
from test_quadrature import field_norm


def beam_overlap(k: int, axis1, axis2) -> complex:
    """Hermitian inner product of two beams; |overlap| depends only on the axis angle."""
    c1 = beam_coefficients(k, axis1)
    c2 = beam_coefficients(k, axis2)
    return complex(np.vdot(c2, c1))


def analyze(k, values, grid):
    """Quadrature projection <f, Y_km>, m = -k..k, of a field given by its grid values.

    The oracle for the closed-form beam coefficients: one DFT per ring, then
    the weighted colatitude sum against the radial table.  Exact for fields
    of degree <= k when the grid integrates degree-2k products exactly
    (build_grid(k) does).
    """
    if grid.cos_degree_exact < 2 * k or grid.trig_degree_exact < 2 * k:
        raise GridResolutionError(f"projection needs exactness to degree {2 * k}")
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"expected values of shape {grid.shape}, got {values.shape}")
    table = signed_order_table(k, grid.t)
    conj_phases = np.exp(-1j * np.outer(grid.theta, np.arange(-k, k + 1)))
    return ((grid.ring_weight[:, None] * table) * (values @ conj_phases)).sum(axis=0)


def _rows(k, axes):
    """Beam coefficient rows along the given axes, shape (J, 2k+1)."""
    return np.array([beam_coefficients(k, axis) for axis in axes])


def _retention(k, rows, basis):
    """Fourth-power norm of each orthonormalized row over that of its beam."""
    grid = build_grid(k)
    return quartic_norms(k, basis.matrix, grid) / quartic_norms(k, rows, grid)


def _oracle_axes():
    """Both poles, 1e-9 off each, an equator axis, the antipodal tie-break, 4 random axes."""
    fixed = [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [1e-9, 0.0, 1.0],
        [1e-9, 0.0, -1.0],
        [1.0, 0.0, 0.0],
        [1e-17, 0.0, -1.0],
    ]
    return [np.array(a) for a in fixed] + list(np.random.default_rng(29).standard_normal((4, 3)))


def _scipy_beam_coefficients(k, axis):
    """The closed form of beam_coefficients with scipy's gammaln and xlogy."""
    rot = rotation_to_pole(axis)
    a = rot[0] + 1j * rot[1]
    xi_sq, eta_sq = (a[0] - 1j * a[1]) / 2.0, -(a[0] + 1j * a[1]) / 2.0
    if abs(xi_sq) >= abs(eta_sq):
        xi = np.sqrt(xi_sq)
        eta = -a[2] / (2.0 * xi)
    else:
        eta = np.sqrt(eta_sq)
        xi = -a[2] / (2.0 * eta)
    up = np.arange(2 * k + 1)
    down = up[::-1]
    log_mag = (
        0.5 * (gammaln(2 * k + 1.0) - gammaln(up + 1.0) - gammaln(down + 1.0))
        + xlogy(up, abs(xi))
        + xlogy(down, abs(eta))
    )
    return (-1.0) ** k * np.exp(log_mag + 1j * (up * np.angle(xi) + down * np.angle(eta)))


def test_xlogy_is_scipy_bit_for_bit():
    n = np.arange(300)
    rng = np.random.default_rng(41)
    for y in [0.0, 5e-324, 1e-300, 0.5, 1.0, 1.0 - 2**-53, *rng.uniform(0.0, 1.0, 20)]:
        assert _xlogy(n, y).tobytes() == xlogy(n, y).tobytes(), y


def test_beam_coefficients_match_the_scipy_reference_bitwise():
    # poles, near-poles, the equator and random axes
    for k in (0, 1, 2, 7, 64, 128, 300):
        for axis in _oracle_axes():
            expected = _scipy_beam_coefficients(k, axis)
            assert beam_coefficients(k, axis).tobytes() == expected.tobytes(), (k, axis)


def test_analyze_inverts_synthesis():
    rng = np.random.default_rng(4)
    for k in (0, 1, 17):
        grid = build_grid(k)
        coeffs = rng.standard_normal((3, 2 * k + 1)) + 1j * rng.standard_normal((3, 2 * k + 1))
        for row in coeffs:
            field = coefficient_field(k, row, grid).values
            assert np.abs(analyze(k, field, grid) - row).max() <= 1e-12
    grid = build_grid(6)
    with pytest.raises(ValueError):
        analyze(6, np.zeros((3, 3)), grid)
    with pytest.raises(GridResolutionError):
        analyze(13, np.zeros(grid.shape), grid)  # needs degree-26 exactness


def test_closed_form_matches_quadrature_projection():
    for k in (0, 1, 2, 7, 33, 64, 128):
        grid = build_grid(k)
        for axis in _oracle_axes():
            projected = analyze(k, beam_field(k, axis, grid).values, grid)
            assert np.abs(beam_coefficients(k, axis) - projected).max() <= 1e-12, (k, axis)


def test_closed_form_magnitude_law():
    # |c_m| = sqrt(C(2k, k+m)) cos(beta/2)^(k+m) sin(beta/2)^(k-m), beta the axis polar angle
    for k in (0, 1, 7, 64, 128):
        m = np.arange(-k, k + 1)
        binom = np.sqrt([float(math.comb(2 * k, k + mm)) for mm in m])
        for axis in _oracle_axes():
            beta = math.atan2(math.hypot(axis[0], axis[1]), axis[2])
            law = binom * math.cos(beta / 2) ** (k + m) * math.sin(beta / 2) ** (k - m)
            assert np.abs(np.abs(beam_coefficients(k, axis)) - law).max() <= 1e-13, (k, axis)


def test_closed_form_stays_unit_norm_at_high_degree():
    for k in (1024, 2048):
        for axis in _oracle_axes():
            assert abs(np.linalg.norm(beam_coefficients(k, axis)) - 1.0) <= 1e-11, (k, axis)
    with pytest.raises(ValueError):
        beam_coefficients(-1, [0.0, 0.0, 1.0])


def test_beam_coefficients_build_no_grid(monkeypatch):
    import spherelab.quadrature as quadrature

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(quadrature, "build_grid", no_grid)
    rows = _rows(16, place_separated_axes(3, 0.6))
    assert rows.shape == (3, 33)
    basis, _ = orthonormalize(16, rows)
    assert basis.matrix.shape == (3, 33)
    alpha = 0.7
    overlap = beam_overlap(16, [0.0, 0.0, 1.0], [math.sin(alpha), 0.0, math.cos(alpha)])
    assert abs(overlap) == pytest.approx(math.cos(alpha / 2) ** 32, abs=1e-12)


def test_polar_beam_is_one_hot():
    c = beam_coefficients(6, [0, 0, 1])
    expect = np.zeros(13, dtype=complex)
    expect[-1] = 1.0  # highest order m = +k sits last
    assert np.allclose(np.abs(c), np.abs(expect), atol=1e-12)
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12


def test_beam_round_trip():
    rng = np.random.default_rng(17)
    for k in (1, 8, 33):
        grid = build_grid(k)
        axis = rng.standard_normal(3)
        c = beam_coefficients(k, axis, grid)
        rebuilt = coefficient_field(k, c, grid)
        direct = beam_field(k, axis, grid)
        assert np.max(np.abs(rebuilt.values - direct.values)) < 1e-10


def test_overlap_law():
    # |<b1, b2>| = cos(alpha/2)^(2k) where alpha is the circle angle
    k = 12
    a1 = np.array([0.0, 0.0, 1.0])
    for alpha in (0.3, math.pi / 4, 1.2):
        a2 = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        got = abs(beam_overlap(k, a1, a2))
        assert got == pytest.approx(math.cos(alpha / 2) ** (2 * k), abs=1e-12)


def test_overlap_doubling_identity():
    # doubling the degree squares the overlap
    alpha = math.pi / 4
    a1 = [0.0, 0.0, 1.0]
    a2 = [math.sin(alpha), 0.0, math.cos(alpha)]
    o1 = abs(beam_overlap(16, a1, a2))
    o2 = abs(beam_overlap(32, a1, a2))
    assert o2 == pytest.approx(o1**2, abs=1e-8)


def test_packing_bound_values():
    assert packing_bound(math.pi / 2) == 3
    assert packing_bound(0.5) > packing_bound(1.0)
    for delta in (2.0, math.inf):  # the lattice clause explains only the lower end
        with pytest.raises(ValueError, match="separation must lie in") as refusal:
            packing_bound(delta)
        assert "lattice" not in str(refusal.value)
    # the smallest separation keeps the placement lattice within its cap
    assert 32.0 / _MIN_SEPARATION**2 == pytest.approx(_MAX_LATTICE_AXES, rel=1e-12)
    assert packing_bound(_MIN_SEPARATION) > 0
    for delta in (math.nextafter(_MIN_SEPARATION, 0.0), 1e-10, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"more than {_MAX_LATTICE_AXES} lattice axes"):
            packing_bound(delta)


def _circle_angles(axes) -> np.ndarray:
    """Pairwise great-circle angles min(d, pi - d) of the axes' arctan2 geodesic distances d."""
    axes = np.asarray(axes) / np.linalg.norm(axes, axis=1)[:, None]
    sines = np.linalg.norm(np.cross(axes[:, None, :], axes[None, :, :]), axis=2)
    d = np.arctan2(sines, axes @ axes.T)
    return np.minimum(d, np.pi - d)


# blake2b digests of place_separated_axes(j, delta), recorded while the placement still
# measured circle angles pair by pair: the bench's beams settings (J = 8 and 11 at its
# three separations) and the settings the tests place.
_PLACEMENT_DIGESTS = {
    (8, 0.5): "91384560ab83b9b7",
    (8, 0.35): "ee40ff5c4a92d404",
    (8, 0.25): "d14de132b264173a",
    (11, 0.5): "3f576bc9c8c9efbe",
    (11, 0.35): "9a9db29c66a482bf",
    (11, 0.25): "22af2c373f80f3d2",
    (6, 0.5): "3f14ce58951bcf83",
    (5, 0.5): "994f3892ded67846",
    (4, 0.6): "27f5cc4bbdb2c92c",
    (3, 0.6): "30954b906052cceb",
    (16, 0.5): "dac5ad65e2aa60e9",
    (9, 0.35): "1ac1b33b5f392ab6",
    (200, 0.1): "29d2af613ed0a288",
}


def test_place_separated_axes():
    assert _circle_angles([[0, 0, 1], [0, 0, -1]])[0, 1] == 0.0
    for (j, delta), digest in _PLACEMENT_DIGESTS.items():
        axes = place_separated_axes(j, delta)
        assert axes.shape == (j, 3)
        digest_of = hashlib.blake2b(axes.tobytes(), digest_size=8).hexdigest()
        assert digest_of == digest, (j, delta)
        assert np.allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
        pairs = np.triu_indices(j, 1)
        assert _circle_angles(axes)[pairs].min() >= delta - 1e-12
        assert np.array_equal(axes[0], [0, 0, 1])
    assert np.allclose(place_separated_axes(1, 0.5), [[0, 0, 1]])
    with pytest.raises(PackingInfeasibleError):
        place_separated_axes(50, 1.4)
    with pytest.raises(ValueError):
        place_separated_axes(0, 0.5)
    # Within the packing bound but beyond the greedy pass, as when the digests
    # were recorded; (3, 1.5) is refused only because the pair test folds a
    # negative dot product, as an axis and its negation give one circle.
    for j, delta in ((3, 1.5), (40, 0.316)):
        with pytest.raises(PackingInfeasibleError, match="greedy search exhausted"):
            place_separated_axes(j, delta)


def test_orthonormalize_symmetric_properties():
    k = 16
    rows = _rows(k, place_separated_axes(5, 0.5))
    basis, gram_condition = orthonormalize(k, rows)
    gram = basis.matrix @ basis.matrix.conj().T
    assert np.allclose(gram, np.eye(5), atol=1e-9)
    assert gram_condition >= 1.0
    retention = _retention(k, rows, basis)
    assert retention.min() <= retention.mean() <= retention.max()
    assert 0 < retention.min() <= retention.max() < 2.0


def test_symmetric_orthonormalization_permutation_equivariance():
    k = 12
    axes = place_separated_axes(5, 0.5)
    perm = np.array([3, 0, 4, 1, 2])
    b1, _ = orthonormalize(k, _rows(k, axes))
    b2, _ = orthonormalize(k, _rows(k, axes[perm]))
    assert np.max(np.abs(b2.matrix - b1.matrix[perm])) < 1e-12


def test_sequential_orthonormalization_keeps_first_beam():
    k = 12
    rows = _rows(k, place_separated_axes(4, 0.6))
    basis, _ = orthonormalize(k, rows, method="sequential")
    first = rows[0] / np.linalg.norm(rows[0])
    assert np.max(np.abs(basis.matrix[0] - first)) < 1e-12
    gram = basis.matrix @ basis.matrix.conj().T
    assert np.allclose(gram, np.eye(4), atol=1e-9)
    with pytest.raises(ValueError):
        orthonormalize(k, rows, method="overlapping")
    with pytest.raises(ValueError):
        orthonormalize(k + 1, rows)


def test_orthonormalize_rejects_degenerate_family():
    with pytest.raises(RankDeficiencyError, match="floor"):
        orthonormalize(8, _rows(8, [[0, 0, 1.0], [0, 0, 1.0]]))
    # Separated but too many for the degree: the Gram spectrum clears the floor,
    # and the condition number is too large for an orthonormal result.
    for k, j, delta in ((8, 16, 0.5), (4, 9, 0.35)):
        with pytest.raises(RankDeficiencyError, match="Gram condition number"):
            orthonormalize(k, _rows(k, place_separated_axes(j, delta)))


@experiments._one_blas_thread()
def test_two_well_separated_beams_keep_their_mass():
    k = 64
    rows = _rows(k, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    basis, _ = orthonormalize(k, rows)
    assert _retention(k, rows, basis).min() >= 0.99


def test_beam_count_rule():
    assert beam_experiment([16], deltas=(0.3,), exponent=0.5).rows[0]["J"] == 4
    assert beam_experiment([1], deltas=(0.3,), exponent=0.5).rows[0]["J"] == 1
    with pytest.raises(ValueError):
        beam_experiment([16], deltas=(0.3,), exponent=-0.1)


def test_default_beam_count_is_isqrt_clamped_to_the_packing_bound():
    # the default count is the exponent rule at 1/2; at perfect squares and
    # their neighbours floor(k^(1/2)) is isqrt(k), clamped to packing_bound // 2
    ks = [1, 3, 4, 8, 15, 16, 24, 63, 64]
    deltas = (1.2, 0.5)  # clamps at 2 and at 16
    rows = beam_experiment(ks, deltas).rows
    assert [(row["k"], row["delta"], row["J"]) for row in rows] == [
        (k, delta, min(math.isqrt(k), packing_bound(delta) // 2)) for k in ks for delta in deltas
    ]
    assert beam_experiment(ks, deltas, exponent=0.5).rows == rows


@pytest.mark.parametrize("j", [1, None], ids=["one beam", "default count"])
def test_beam_experiment_refuses_an_unknown_method_before_any_grid(monkeypatch, j):
    # with one beam per family orthonormalize never runs, so the experiment checks the method
    built = []
    build_grid = experiments.build_grid

    def spy(*args, **kwargs):
        built.append(args)
        return build_grid(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_grid", spy)
    with pytest.raises(ValueError, match="^method must be 'symmetric' or 'sequential'$"):
        beam_experiment([16], [0.5], j=j, method="bogus")
    assert built == []


def test_beam_experiment_rows():
    run = beam_experiment([16], deltas=(0.5, 0.35), seed=3)
    rows = run.rows
    assert len(rows) == 2
    assert run.outputs == {"rows": 2}
    assert run.gates == [(True, "orthonormalization completed for every configuration")]
    for row in rows:
        assert tuple(row.keys()) == BEAM_EXPERIMENT_COLUMNS
        assert row["k"] == 16
        assert row["J"] >= 1
        assert row["min_ret"] > 0
        assert math.isfinite(row["gram_cond"])
        assert row["sum_l4"] > 0


def test_single_beam_experiment_matches_direct_norm():
    grid = build_grid(64)
    q = field_norm(beam_field(64, [0, 0, 1], grid), 4) ** 4
    rows = beam_experiment([64], deltas=(0.5,), j=1).rows
    assert rows[0]["J"] == 1
    assert rows[0]["sum_l4"] == pytest.approx(q, rel=1e-10)
    assert rows[0]["min_ret"] == 1.0


def test_beam_experiment_refuses_a_tiny_separation_before_any_grid(monkeypatch):
    import spherelab.experiments as experiments

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(experiments, "build_grid", refuse)
    with pytest.raises(ValueError, match="separation must lie in"):
        beam_experiment([4], [0.5, 1e-3])


def test_single_beam_l4_scaling_between_degrees():
    # one beam has ||f||_4^4 growing like sqrt(k); adjacent doublings of the
    # compensated value agree to a few percent
    g64 = build_grid(64)
    g128 = build_grid(128)
    v64 = field_norm(beam_field(64, [0, 0, 1], g64), 4) ** 4 / math.sqrt(64)
    v128 = field_norm(beam_field(128, [0, 0, 1], g128), 4) ** 4 / math.sqrt(128)
    assert v128 == pytest.approx(v64, rel=0.03)


# Rows of the paths no golden digest covers, recorded as hex literals before
# orthonormalize became linear algebra on plain coefficient rows:
# (k, J, delta, method, seed, min_ret, mean_ret, gram_cond, sum_l4).
BEAM_ROWS_FROZEN = {
    "single": (
        dict(ks=[16, 64], deltas=(0.5, 0.35), j=1, seed=5),
        [
            (16, 1, 0.5, "symmetric", 5, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
             "0x1.0000000000000p+0", "0x1.0d26b57f0c6fdp-2"),
            (16, 1, 0.35, "symmetric", 6, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
             "0x1.0000000000000p+0", "0x1.0d26b57f0c6fdp-2"),
            (64, 1, 0.5, "symmetric", 5, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
             "0x1.0000000000000p+0", "0x1.065a131bf821cp-1"),
            (64, 1, 0.35, "symmetric", 6, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
             "0x1.0000000000000p+0", "0x1.065a131bf821cp-1"),
        ],
    ),
    "exponent": (
        dict(ks=[16, 32], deltas=(0.5, 0.35), exponent=0.25),
        [
            (16, 8, 0.5, "symmetric", 0, "0x1.c2a6194487b5bp-1", "0x1.e8925c39af530p-1",
             "0x1.557c37b07de44p+3", "0x1.00d5d58220a96p+1"),
            (16, 8, 0.35, "symmetric", 1, "0x1.3bd2c2b923d93p-1", "0x1.cb6bfbbef36bcp-1",
             "0x1.28d19903e88fcp+10", "0x1.e305ef465dff1p+0"),
            (32, 13, 0.5, "symmetric", 0, "0x1.fb06e4780df96p-1", "0x1.fd5e9d71b124fp-1",
             "0x1.b39f7a50582c4p+0", "0x1.2e818aaf10daap+2"),
            (32, 13, 0.35, "symmetric", 1, "0x1.a3466e69f4005p-1", "0x1.dde54eba874dfp-1",
             "0x1.f753dac2d8030p+4", "0x1.1bd071473ffebp+2"),
        ],
    ),
    "sequential": (
        dict(ks=[16, 32], deltas=(0.5, 0.35), method="sequential", seed=2),
        [
            (16, 4, 0.5, "sequential", 2, "0x1.d8391fc8b7d76p-1", "0x1.e516033fd772cp-1",
             "0x1.fb02c4da8dd70p+1", "0x1.fe017a97dea32p-1"),
            (16, 4, 0.35, "sequential", 3, "0x1.9563dc0d5acd5p-1", "0x1.c27a93d635073p-1",
             "0x1.34d2f767f7f54p+4", "0x1.d99eeaea42b98p-1"),
            (32, 5, 0.5, "sequential", 2, "0x1.fa0005f9ed0f9p-1", "0x1.fc5af0c48ce5dp-1",
             "0x1.7fd58e7be1198p+0", "0x1.d07793daa47e1p+0"),
            (32, 5, 0.35, "sequential", 3, "0x1.9df32dd8e4586p-1", "0x1.d787345702890p-1",
             "0x1.7836c87c9aaeap+2", "0x1.aed1c599f2779p+0"),
        ],
    ),
}


@pytest.mark.parametrize("path", sorted(BEAM_ROWS_FROZEN))
def test_beam_experiment_rows_are_frozen(path):
    kwargs, frozen = BEAM_ROWS_FROZEN[path]
    rows = beam_experiment(**kwargs).rows
    got = [
        (
            row["k"], row["J"], row["delta"], row["method"], row["seed"],
            *(row[col].hex() for col in ("min_ret", "mean_ret", "gram_cond", "sum_l4")),
        )
        for row in rows
    ]
    assert got == frozen
