import math

import numpy as np
import pytest

from spherelab.beams import (
    BeamFamily,
    PackingInfeasibleError,
    RankDeficiencyError,
    beam_coefficients,
    beam_overlap,
    orthonormalize,
    packing_bound,
    place_separated_axes,
)
from spherelab.experiments import BEAM_EXPERIMENT_COLUMNS, beam_count_rule, beam_experiment
from spherelab.harmonics import (
    beam_field,
    coefficient_field,
    signed_order_table,
    synthesize_rings,
)
from spherelab.quadrature import GridResolutionError, build_grid, lp_norm
from spherelab.sphere import circle_angle


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


def test_analyze_inverts_synthesis():
    rng = np.random.default_rng(4)
    for k in (0, 1, 17):
        grid = build_grid(k)
        coeffs = rng.standard_normal((3, 2 * k + 1)) + 1j * rng.standard_normal((3, 2 * k + 1))
        values = np.stack(list(synthesize_rings(k, coeffs, grid)), axis=1)
        assert values.shape == (3,) + grid.shape
        for row, field in zip(coeffs, values):
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
    import spherelab.beams as beams

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(beams, "build_grid", no_grid)
    family = BeamFamily.build(16, place_separated_axes(3, 0.6))
    assert family.matrix.shape == (3, 33)
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
    with pytest.raises(ValueError):
        packing_bound(0.0)
    with pytest.raises(ValueError):
        packing_bound(2.0)


def test_place_separated_axes():
    axes = place_separated_axes(6, 0.5)
    assert axes.shape == (6, 3)
    assert np.allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
    for i in range(6):
        for j in range(i + 1, 6):
            assert circle_angle(axes[i], axes[j]) >= 0.5 - 1e-12
    assert np.allclose(axes[0], [0, 0, 1])
    assert np.allclose(place_separated_axes(1, 0.5), [[0, 0, 1]])
    with pytest.raises(PackingInfeasibleError):
        place_separated_axes(50, 1.4)
    with pytest.raises(ValueError):
        place_separated_axes(0, 0.5)


def test_family_build_records_min_separation():
    axes = place_separated_axes(4, 0.6)
    fam = BeamFamily.build(8, axes)
    assert fam.size == 4
    assert fam.matrix.shape == (4, 17)
    pairwise = min(
        circle_angle(axes[i], axes[j]) for i in range(4) for j in range(i + 1, 4)
    )
    assert fam.delta == pytest.approx(pairwise, rel=1e-12)
    single = BeamFamily.build(8, [[0.0, 0.0, 1.0]])
    assert single.delta == pytest.approx(math.pi / 2)


def test_orthonormalize_symmetric_properties():
    k = 16
    fam = BeamFamily.build(k, place_separated_axes(5, 0.5))
    basis, report = orthonormalize(fam)
    gram = basis.matrix @ basis.matrix.conj().T
    assert np.allclose(gram, np.eye(5), atol=1e-9)
    assert report.method == "symmetric"
    assert report.gram_condition >= 1.0
    assert report.min_retention <= report.mean_retention <= report.max_retention
    assert 0 < report.min_retention <= report.max_retention < 2.0


def test_symmetric_orthonormalization_permutation_equivariance():
    k = 12
    axes = place_separated_axes(5, 0.5)
    perm = np.array([3, 0, 4, 1, 2])
    b1, _ = orthonormalize(BeamFamily.build(k, axes))
    b2, _ = orthonormalize(BeamFamily.build(k, axes[perm]))
    assert np.max(np.abs(b2.matrix - b1.matrix[perm])) < 1e-12


def test_sequential_orthonormalization_keeps_first_beam():
    k = 12
    fam = BeamFamily.build(k, place_separated_axes(4, 0.6))
    basis, report = orthonormalize(fam, method="sequential")
    assert report.method == "sequential"
    first = fam.matrix[0] / np.linalg.norm(fam.matrix[0])
    assert np.max(np.abs(basis.matrix[0] - first)) < 1e-12
    gram = basis.matrix @ basis.matrix.conj().T
    assert np.allclose(gram, np.eye(4), atol=1e-9)
    with pytest.raises(ValueError):
        orthonormalize(fam, method="overlapping")


def test_orthonormalize_rejects_degenerate_family():
    fam = BeamFamily.build(8, [[0, 0, 1.0], [0, 0, 1.0]])
    with pytest.raises(RankDeficiencyError):
        orthonormalize(fam)


def test_two_well_separated_beams_keep_their_mass():
    k = 64
    fam = BeamFamily.build(k, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    _, report = orthonormalize(fam)
    assert report.min_retention >= 0.99


def test_beam_count_rule():
    rule = beam_count_rule(0.5)
    assert rule(16, 0.3) == 4
    assert rule(1, 0.3) == 1
    with pytest.raises(ValueError):
        beam_count_rule(-0.1)


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
    q = lp_norm(beam_field(64, [0, 0, 1], grid), 4) ** 4
    rows = beam_experiment([64], deltas=(0.5,), j_rule=lambda k, d: 1).rows
    assert rows[0]["J"] == 1
    assert rows[0]["sum_l4"] == pytest.approx(q, rel=1e-10)
    assert rows[0]["min_ret"] == 1.0


def test_single_beam_l4_scaling_between_degrees():
    # one beam has ||f||_4^4 growing like sqrt(k); adjacent doublings of the
    # compensated value agree to a few percent
    g64 = build_grid(64)
    g128 = build_grid(128)
    v64 = lp_norm(beam_field(64, [0, 0, 1], g64), 4) ** 4 / math.sqrt(64)
    v128 = lp_norm(beam_field(128, [0, 0, 1], g128), 4) ** 4 / math.sqrt(128)
    assert v128 == pytest.approx(v64, rel=0.03)
