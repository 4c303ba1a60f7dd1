import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import spherelab.experiments as experiments
from spherelab.experiments import (
    AVERAGE_L4_COLUMNS,
    AVERAGE_L4_MAX_DEGREE,
    ENVELOPE_COLUMNS,
    IDENTITY_CHECKS,
    SUPERLEVEL_COLUMNS,
    TUBE_RATIO_COLUMNS,
    _identity_gram,
    average_l4_experiment,
    exact_identity_suite,
    fit_power_law,
    norms_experiment,
    pointwise_envelope_experiment,
    scaling_experiment,
    scaling_target,
    superlevel_experiment,
    tube_ratio_experiment,
)
from spherelab.harmonics import beam_field, coefficient_field
from spherelab.legendre import _sectoral_log, _zonal_3j_squares, normalized_legendre_table
from spherelab.quadrature import QuadratureGrid, arc_selections, build_grid
from spherelab.sphere import fibonacci_axes
from test_quadrature import dense_arc_masks, field_norm


def test_fit_power_law_exact_recovery():
    ks = np.array([4, 8, 16, 32, 64])
    values = 3.0 * ks**0.7
    fit = fit_power_law(ks, values)
    assert list(fit) == ["exponent", "intercept", "residual_rms", "k_range",
                         "exponent_lambda", "residual_rms_lambda"]
    assert fit["exponent"] == pytest.approx(0.7, abs=1e-12)
    assert math.exp(fit["intercept"]) == pytest.approx(3.0, rel=1e-12)
    assert fit["residual_rms"] < 1e-12
    assert fit["k_range"] == (4, 64)
    # the lambda = sqrt(k(k+1)) refit shifts the exponent a little at low k
    assert fit["exponent_lambda"] == pytest.approx(0.7, abs=0.05)
    assert fit["residual_rms_lambda"] < 0.01
    with pytest.raises(ValueError):
        fit_power_law([4], [1.0])


def _no_work(*args):
    raise AssertionError("a grid or table was built before the degree check")


@pytest.mark.parametrize(
    "run, message, checked_first",
    [
        (lambda: tube_ratio_experiment([8, 0]), "tube ratio needs degrees k >= 1, got k = 0", True),
        (lambda: pointwise_envelope_experiment([8, 0]), "k >= 2, got k = 0", True),
        (lambda: pointwise_envelope_experiment([8, 1]), "k >= 2, got k = 1", True),
        (lambda: scaling_experiment("zonal", math.inf, [0, 1, 2, 4]), "got degree 0", False),
        (lambda: fit_power_law([1, 2], [1.0, -0.0]), "got value -0", False),
    ],
    ids=["tube-ratio-k0", "pointwise-k0", "pointwise-k1", "scaling-k0", "fit-nonpositive-value"],
)
def test_degrees_a_sweep_cannot_take_are_refused_by_name(monkeypatch, capfd, run, message,
                                                         checked_first):
    # A ValueError that names the degree or value, raised before any grid or
    # Legendre table is built where the sweep can check first, and no LAPACK
    # complaint on stderr from a log-log fit of log(0).
    if checked_first:
        for name in ("build_grid", "normalized_legendre_table", "ell_p_profile"):
            monkeypatch.setattr(experiments, name, _no_work)
    with pytest.raises(ValueError, match=message):
        run()
    assert capfd.readouterr().err == ""


def test_scaling_target_values():
    assert scaling_target("highest_weight", 4) == pytest.approx(1 / 8)
    assert scaling_target("highest_weight", 8) == pytest.approx(3 / 16)
    assert scaling_target("zonal", 8) == pytest.approx(1 / 4)
    assert scaling_target("zonal", math.inf) == pytest.approx(1 / 2)
    with pytest.raises(ValueError):
        scaling_target("random", 4)


def test_scaling_experiment_validation():
    ks = (8, 16, 32, 64)
    with pytest.raises(ValueError):
        scaling_experiment("zonal", 4, ks)
    with pytest.raises(ValueError):
        scaling_experiment("highest_weight", 4, (8, 16))
    with pytest.raises(ValueError):
        scaling_experiment("highest_weight", 1.5, ks)
    with pytest.raises(ValueError):
        scaling_experiment("unknown", 4, ks)


def test_scaling_experiment_small_sweep():
    run = scaling_experiment("highest_weight", 4, (8, 16, 32, 64))
    assert abs(run.outputs["exponent"] - 1 / 8) < 0.04
    assert run.outputs["target"] == scaling_target("highest_weight", 4)
    assert run.certificate["bands"] == {8: 8, 16: 16, 32: 32, 64: 64}
    assert len(run.certificate["norms"]) == 4


def test_average_l4_degree_one_closed_form():
    res = average_l4_experiment([1])
    # (||Y_10||_4^4 + 2 ||Y_11||_4^4) / 3 with the elementary degree-1 values
    expect = (9 / (20 * math.pi) + 2 * 3 / (10 * math.pi)) / 3
    assert res.rows[0]["a_k"] == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(7 / (20 * math.pi), rel=1e-15, abs=0)
    assert math.isnan(res.rows[0]["a_k_over_log_k"])


def test_average_l4_growth():
    res = average_l4_experiment([8, 16, 32])
    assert [row["k"] for row in res.rows] == [8, 16, 32]
    assert tuple(res.rows[0].keys()) == AVERAGE_L4_COLUMNS
    assert res.outputs["strictly_increasing"]
    assert res.outputs["band_spread"] >= 1.0
    low, high = res.outputs["ratio_band"]
    assert 0 < low <= high


def _mpmath_average_l4(k):
    """A_k = ((2k+1)/4pi) sum_s (k k 2s; 0 0 0)^2 at 40 digits, each 3j symbol by factorials."""
    f = mpmath.factorial
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for s in range(k + 1):
            ratio = f(k + s) / (f(s) ** 2 * f(k - s))
            total += f(2 * s) ** 2 * f(2 * k - 2 * s) / f(2 * k + 2 * s + 1) * ratio**2
        return (2 * k + 1) / (4 * mpmath.pi) * total


def _quadrature_average_l4(k):
    """A_k by Gauss-Legendre colatitude profiles on the band-k grid, a second algorithm."""
    grid = build_grid(k)
    quartic = normalized_legendre_table(k, grid.t) ** 4
    l44 = np.array([grid.integrate_profile(quartic[:, m]) for m in range(k + 1)])
    return (l44[0] + 2.0 * l44[1:].sum()) / (2 * k + 1)


@pytest.mark.parametrize("k", [1, 2, 8, 64, 256, 1024])
def test_average_l4_matches_forty_digit_sums(k):
    exact = _mpmath_average_l4(k)
    a_k = average_l4_experiment([k]).rows[0]["a_k"]
    assert abs(a_k - exact) / exact <= 1e-15
    assert _zonal_3j_squares(k)[0] == 1.0 / (2 * k + 1)


def test_average_l4_matches_the_quadrature_profiles():
    ks = [1, 2, 3, 8, 17, 64, 128, 256]
    res = average_l4_experiment(ks)
    for k, row in zip(ks, res.rows):
        assert row["a_k"] == pytest.approx(_quadrature_average_l4(k), rel=2e-12, abs=0.0)


def test_average_l4_builds_no_grid_or_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("avg-l4 must not build a grid or a Legendre table")

    monkeypatch.setattr(experiments, "build_grid", refuse)
    monkeypatch.setattr(experiments, "normalized_legendre_table", refuse)
    res = average_l4_experiment([8, 16, 32, 64, 128, 256, 512, 1024])
    assert len(res.rows) == 8 and res.outputs["strictly_increasing"]
    assert res.certificate["integrand_exact"] and "no quadrature" in res.certificate["note"]


def test_average_l4_degree_cap():
    assert AVERAGE_L4_MAX_DEGREE == 2**20
    (row,) = average_l4_experiment([AVERAGE_L4_MAX_DEGREE]).rows
    # A_k = (log k + gamma + 5 log 2)/(4 pi^2) + 1/(8 pi^2 k) + O(k^-2), found numerically
    k = row["k"]
    law = (math.log(k) + 0.5772156649015329 + 5 * math.log(2)) / (4 * math.pi**2)
    law += 1.0 / (8 * math.pi**2 * k)
    assert row["a_k"] == pytest.approx(law, rel=1e-9)
    for k in (AVERAGE_L4_MAX_DEGREE + 1, -1):
        with pytest.raises(ValueError, match="AVERAGE_L4_MAX_DEGREE"):
            average_l4_experiment([8, k])


def test_envelope_experiment_rows():
    res = pointwise_envelope_experiment([8, 32])
    assert tuple(res.rows[0].keys()) == ENVELOPE_COLUMNS
    assert res.outputs["band_spread"] >= 1.0
    for row in res.rows:
        assert 0 < row["sup_ratio"] < 1.0
        assert 0 <= row["argmax_r"] <= math.pi / 2
        expect_pole = math.sqrt((2 * row["k"] + 1) / (4 * math.pi)) / math.sqrt(row["k"])
        assert row["pole_ratio"] == pytest.approx(expect_pole, rel=1e-12)
        assert row["sup_ratio"] >= row["pole_ratio"] - 1e-12


def test_tube_ratio_experiment_rows():
    res = tube_ratio_experiment([8], oversample=2.0)
    labels = [row["label"] for row in res.rows]
    assert labels.count("beam_tilted") == 1
    assert len(labels) == 8 + 2  # orders m = 0..k plus the tilted beam
    assert tuple(res.rows[0].keys()) == TUBE_RATIO_COLUMNS
    for row in res.rows:
        assert row["lam"] == pytest.approx(math.sqrt(8 * 9), rel=1e-12)
        assert row["l4"] > 0
        assert row["sup_arc_mass"] > 0
        assert 0 < row["ratio"] < 1.0
    assert res.outputs["max_ratio"] == pytest.approx(max(row["ratio"] for row in res.rows))


def test_norms_rows_share_one_table_per_grid_bitwise():
    # `norms --k 64 --q 4 --q inf --m 5`: reading Z, Q and Y columns from one
    # table per grid must give the per-field values bit for bit.  The q = 4
    # literals were recorded when each field built its own table; the sup
    # norms of Q and Y are the exact node maxima |N(k, m, t_i)|, one ulp
    # below the old grid max of the complex field (see the next test).
    frozen = [
        ("Z_64", 4.0, "0x1.8415b38ae3af2p-1"),
        ("Q_64", 4.0, "0x1.b12f626517e33p-1"),
        ("Y_64_5", 4.0, "0x1.5cc8fae68f693p-1"),
        ("Z_64", math.inf, "0x1.13b30dcb6f1ffp+1"),
        ("Q_64", math.inf, "0x1.b336e68079338p-1"),
        ("Y_64_5", math.inf, "0x1.2242105210cc4p+0"),
    ]
    res = norms_experiment(64, (4.0, math.inf), 5)
    assert [(row["label"], row["q"], row["norm"].hex()) for row in res.rows] == frozen
    grid = build_grid(64)
    for row, m in zip(res.rows, (0, 64, 5)):
        assert row["norm"] == field_norm(coefficient_field(64, _one_hot(64, m), grid), 4.0)
    with pytest.raises(ValueError, match="order 65"):
        norms_experiment(64, (4.0,), 65)


def _one_hot(k, m):
    coefficients = np.zeros(2 * k + 1)
    coefficients[m + k] = 1.0
    return coefficients


@pytest.mark.parametrize("k, m", [(1, 1), (4, 4), (9, -7), (9, 2), (64, 5), (64, 64)])
def test_norms_sup_is_the_exact_node_max(k, m):
    # q = inf reads |N(k, m, t_i)| at the nodes, with no longitude phase, so
    # it never exceeds the grid max of the synthesized complex field, whose
    # rounded |exp(i m theta)| can read an ulp or two above it.
    grid = build_grid(k)
    sup = norms_experiment(k, (math.inf,), m).rows[-1]["norm"]
    assert sup == np.abs(normalized_legendre_table(k, grid.t)[:, abs(m)]).max()
    assert sup <= field_norm(coefficient_field(k, _one_hot(k, m), grid), math.inf)


def test_tube_ratio_arc_counts_match_the_dense_oracle(monkeypatch):
    # Every axis of the default sweep: the per-(arc, ring) node counts that
    # the standard rows read, nearest arcs plus second arcs, equal the dense
    # masks' counts.
    seen = []
    select, count = experiments.arc_selections, experiments._arc_counts

    def select_spy(grid, axis, width):
        seen.append([grid, axis, width, 0])
        return select(grid, axis, width)

    def count_spy(ring, ids, n_phi):
        counts = count(ring, ids, n_phi)
        seen[-1][-1] = seen[-1][-1] + counts
        return counts

    monkeypatch.setattr(experiments, "arc_selections", select_spy)
    monkeypatch.setattr(experiments, "_arc_counts", count_spy)
    tube_ratio_experiment([8, 16, 32, 64], oversample=2.0)
    assert len(seen) == 65 + 65 + 129 + 257
    for grid, axis, width, counts in seen:
        assert counts.shape == (8, grid.n_phi)
        assert np.array_equal(counts, dense_arc_masks(grid, axis, width).sum(axis=2))


def test_tube_ratio_arc_masses_match_per_point_oracle():
    # The sweep sums standard members by per-ring point counts; the oracle
    # sums every field point by point over dense arc masks of the same axes.
    k = 8
    res = tube_ratio_experiment([k], oversample=2.0)
    grid = build_grid(k, 2.0)
    width = math.sqrt(k * (k + 1)) ** -0.5
    axes = np.vstack([[[0.0, 0.0, 1.0]], fibonacci_axes(64)])
    sels = [dense_arc_masks(grid, axis, width) for axis in axes]
    fields = [coefficient_field(k, _one_hot(k, m), grid) for m in range(k + 1)]
    fields.append(beam_field(k, np.ones(3) / math.sqrt(3.0), grid))
    for row, f in zip(res.rows, fields):
        dens = grid.ring_weight[:, None] * np.abs(f.values) ** 2
        oracle = max(dens[sel].sum() for masks in sels for sel in masks)
        assert row["sup_arc_mass"] == pytest.approx(oracle, rel=1e-12)


# `tube-ratio` at its defaults (k = 8, 16, 32, 64): (k, label, l4, sup_arc_mass,
# ratio), the floats as hex literals recorded when every arc was a dense
# (n_arcs, n_phi, n_theta) mask over the whole grid.  The beam_tilted
# sup_arc_mass at k = 8 and 64 was re-recorded when the beam's arc masses
# became bincounts over the arc ids: it moved by 2.0e-16 and 4.2e-16 relative
# from those dense-mask pairwise sums, the last bit or two.  The twelve
# beam_tilted cells were re-recorded when the beam became its closed-form
# density c_k^2 (1 - (x . a)^2)^k instead of a sampled complex field; each
# moved toward the two oracles test_tube_ratio_beam_l4_is_rotation_invariant
# and test_tube_ratio_beam_density_matches_mpmath, by at most 4.2e-15 relative
# (old -> new mantissa tails, exponents unchanged):
#   k = 8:  l4 ...1f1a -> ...1f18, sup_arc_mass ...7694 -> ...7693, ratio ...387f -> ...387d
#   k = 16: l4 ...e4b0 -> ...e4ac, sup_arc_mass ...3eaa -> ...3ea3, ratio ...e841 -> ...e83e
#   k = 32: l4 ...20d0 -> ...20c7, sup_arc_mass ...8046 -> ...8043, ratio ...c8e5 -> ...c8dd
#   k = 64: l4 ...7e7d -> ...7e70, sup_arc_mass ...a61b -> ...a607, ratio ...23cc -> ...23c1
TUBE_RATIO_FROZEN = [
    (8, "m=0", "0x1.633d5f370f38bp-1", "0x1.33cf888a9b456p-3", "0x1.4fd579cd6514cp-2"),
    (8, "m=1", "0x1.47eedec3a529bp-1", "0x1.212f45b0921d0p-3", "0x1.36de910f7cea3p-2"),
    (8, "m=2", "0x1.3e2dad703bf20p-1", "0x1.1213c3e662242p-3", "0x1.2e54f1520acbap-2"),
    (8, "m=3", "0x1.3917eca49d858p-1", "0x1.8d51f00366774p-4", "0x1.2db0c309f8070p-2"),
    (8, "m=4", "0x1.36be993adc112p-1", "0x1.4a472c131e51ep-4", "0x1.2dd13f6730e8bp-2"),
    (8, "m=5", "0x1.36bc723017a0cp-1", "0x1.3914247e31ce0p-4", "0x1.2e8048715c8a8p-2"),
    (8, "m=6", "0x1.3973c1907aa57p-1", "0x1.438d94d303a2ap-4", "0x1.30b737d68280ap-2"),
    (8, "m=7", "0x1.408c1ac8609aep-1", "0x1.78ed07c5124c7p-4", "0x1.3593638dd3c59p-2"),
    (8, "m=8", "0x1.52efff1aa1f18p-1", "0x1.2c1708426113fp-3", "0x1.40c7a6b821055p-2"),
    (8, "beam_tilted", "0x1.52efff1aa1f18p-1", "0x1.193d9691e7693p-3", "0x1.41b18b7d4387dp-2"),
    (16, "m=0", "0x1.6f04f3af79c0bp-1", "0x1.fc653003d6385p-4", "0x1.4eb75027c246ep-2"),
    (16, "m=1", "0x1.5657c3c32177bp-1", "0x1.ea0348cd57aefp-4", "0x1.38bb97a76fed8p-2"),
    (16, "m=2", "0x1.4d1abc08145f0p-1", "0x1.e322bf8755f0cp-4", "0x1.307cf73372e0ep-2"),
    (16, "m=3", "0x1.47835bde8be45p-1", "0x1.b1c403f3986c6p-4", "0x1.2cd67dd13735ap-2"),
    (16, "m=4", "0x1.43b1f1c85d77cp-1", "0x1.579be62cb758bp-4", "0x1.2c74725a2a6cep-2"),
    (16, "m=5", "0x1.4101912d24a9fp-1", "0x1.43fcf509225a2p-4", "0x1.2abdd0e75e99ap-2"),
    (16, "m=6", "0x1.3f28a04a54b5cp-1", "0x1.2c9b9bba5c11cp-4", "0x1.2a037e1bce092p-2"),
    (16, "m=7", "0x1.3e0390a700947p-1", "0x1.1e8bb052a6ca6p-4", "0x1.2993ab343d12fp-2"),
    (16, "m=8", "0x1.3d835d86fcb3fp-1", "0x1.1956b900b79e7p-4", "0x1.2959901adfe17p-2"),
    (16, "m=9", "0x1.3da764a698ffbp-1", "0x1.17bd451f03878p-4", "0x1.298e8afa0631fp-2"),
    (16, "m=10", "0x1.3e7c788f10917p-1", "0x1.0e7583cfdce07p-4", "0x1.2ac84dcaef7cap-2"),
    (16, "m=11", "0x1.402013d615e90p-1", "0x1.0b0f7f456ab7cp-4", "0x1.2c7cf7627308dp-2"),
    (16, "m=12", "0x1.42c990f793489p-1", "0x1.0a9e7197e39c7p-4", "0x1.2f0253f739bbfp-2"),
    (16, "m=13", "0x1.46e093c0300cfp-1", "0x1.0d23c09c71f9dp-4", "0x1.32b87fc0217f1p-2"),
    (16, "m=14", "0x1.4d3930732e706p-1", "0x1.1d14d277063fep-4", "0x1.37e1349be4d3dp-2"),
    (16, "m=15", "0x1.57e12ef5a085ep-1", "0x1.4d76f2834468ap-4", "0x1.3f9e0f81b54c3p-2"),
    (16, "m=16", "0x1.6e99f1c94e4aep-1", "0x1.133052f7cf1c0p-3", "0x1.4d21f209938c0p-2"),
    (16, "beam_tilted", "0x1.6e99f1c94e4acp-1", "0x1.0f48b0cab3ea3p-3", "0x1.4d595e095e83ep-2"),
    (32, "m=0", "0x1.79f10ca854634p-1", "0x1.9752d60c4f6f0p-4", "0x1.4c48e51295f2fp-2"),
    (32, "m=1", "0x1.638815df2dbc9p-1", "0x1.94c4f024429e2p-4", "0x1.38ac7ce2f9ab2p-2"),
    (32, "m=2", "0x1.5b1cb1bb67c28p-1", "0x1.8edfdf244c226p-4", "0x1.317a73bc6a75cp-2"),
    (32, "m=3", "0x1.55d8e6a4993c4p-1", "0x1.7f2870194d039p-4", "0x1.2d68d1e3eae02p-2"),
    (32, "m=4", "0x1.520800b0fea48p-1", "0x1.75ad502dd04acp-4", "0x1.2a6491d50a39bp-2"),
    (32, "m=5", "0x1.4f12563e58f25p-1", "0x1.40c7019270682p-4", "0x1.29e2355a9c8d0p-2"),
    (32, "m=6", "0x1.4cb1207eb7337p-1", "0x1.2a4fb8241377ep-4", "0x1.28c3314ad0a9dp-2"),
    (32, "m=7", "0x1.4abd9be343fb3p-1", "0x1.16ad752bd3866p-4", "0x1.27f314593e828p-2"),
    (32, "m=8", "0x1.4920565c9323dp-1", "0x1.09fc3c11211a4p-4", "0x1.272326aab8e93p-2"),
    (32, "m=9", "0x1.47ca2f3a866fap-1", "0x1.00637967e2a7ap-4", "0x1.266f76ff49090p-2"),
    (32, "m=10", "0x1.46b0faf0513a4p-1", "0x1.f3de7de809f42p-5", "0x1.25cace96ed9b6p-2"),
    (32, "m=11", "0x1.45cdbd1e25a29p-1", "0x1.e629a03707d1cp-5", "0x1.255e1a7aa78b2p-2"),
    (32, "m=12", "0x1.451ba8608e2b9p-1", "0x1.dc12d1a698456p-5", "0x1.2505c29ef30e3p-2"),
    (32, "m=13", "0x1.44978742ea0cdp-1", "0x1.d3504b9f2b4a8p-5", "0x1.24ce59aba20c0p-2"),
    (32, "m=14", "0x1.443f61963391cp-1", "0x1.d155fb8c2a946p-5", "0x1.248d5d0957b50p-2"),
    (32, "m=15", "0x1.44124746d69cbp-1", "0x1.c2c94b5171bf5p-5", "0x1.24d1711f3a6c2p-2"),
    (32, "m=16", "0x1.441034b045e12p-1", "0x1.b415591ec49b4p-5", "0x1.2541242663f27p-2"),
    (32, "m=17", "0x1.443a0a667fe77p-1", "0x1.ae1dc9bfeae8fp-5", "0x1.259638427c984p-2"),
    (32, "m=18", "0x1.4491962c25862p-1", "0x1.ba053a38647fbp-5", "0x1.2587d4cc99444p-2"),
    (32, "m=19", "0x1.4519adac24154p-1", "0x1.bc74f41da83fap-5", "0x1.25f0058dfdebep-2"),
    (32, "m=20", "0x1.45d65e710a07ep-1", "0x1.c110ece512ef6p-5", "0x1.26771909d1725p-2"),
    (32, "m=21", "0x1.46cd3a4ef9aa1p-1", "0x1.c27eae6436e96p-5", "0x1.274b37f02f8b0p-2"),
    (32, "m=22", "0x1.4805cd332b9eep-1", "0x1.bf1859690cb72p-5", "0x1.287fea759b7e7p-2"),
    (32, "m=23", "0x1.498a53255a852p-1", "0x1.b5a84718ae91dp-5", "0x1.2a29691f630dep-2"),
    (32, "m=24", "0x1.4b68d77f3f30cp-1", "0x1.ab11b6b9589f5p-5", "0x1.2c30292795316p-2"),
    (32, "m=25", "0x1.4db50a664749ap-1", "0x1.a8fd9ba752b75p-5", "0x1.2e5628c97eebbp-2"),
    (32, "m=26", "0x1.508b6621637a1p-1", "0x1.c2943eb40dbc8p-5", "0x1.3018413e8d2bap-2"),
    (32, "m=27", "0x1.5416eee9e113fp-1", "0x1.d855de62c8302p-5", "0x1.32a2d7f7fa86ep-2"),
    (32, "m=28", "0x1.589c9ee756a12p-1", "0x1.f48b3288370bap-5", "0x1.35e38be86bf2cp-2"),
    (32, "m=29", "0x1.5e94d03c613fbp-1", "0x1.06247195c76c3p-4", "0x1.3a96432d0d301p-2"),
    (32, "m=30", "0x1.66edc8aae78d4p-1", "0x1.0c87710659db7p-4", "0x1.41b8a6902d4abp-2"),
    (32, "m=31", "0x1.73ed2ab092f38p-1", "0x1.438d416ee5594p-4", "0x1.4a842b2eb4a5ep-2"),
    (32, "m=32", "0x1.8e172e8b120c2p-1", "0x1.1469ec4078eb8p-3", "0x1.5903e176203b5p-2"),
    (32, "beam_tilted", "0x1.8e172e8b120c7p-1", "0x1.0783be9698043p-3", "0x1.59cb41bf0c8ddp-2"),
    (64, "m=0", "0x1.8415b38ace1edp-1", "0x1.4307f3031eb0cp-4", "0x1.489153f0568f7p-2"),
    (64, "m=1", "0x1.6f90317126683p-1", "0x1.3ef60418854e2p-4", "0x1.37620ceeae67fp-2"),
    (64, "m=2", "0x1.67ea47eed6563p-1", "0x1.3f10f986b1b98p-4", "0x1.30e62870dfd89p-2"),
    (64, "m=3", "0x1.631ba7c591e53p-1", "0x1.39ce227c56bf2p-4", "0x1.2d112836048d5p-2"),
    (64, "m=4", "0x1.5f9408e3cc926p-1", "0x1.35b8319d13ea4p-4", "0x1.2a43107514123p-2"),
    (64, "m=5", "0x1.5cc8fae68f62bp-1", "0x1.2c09e4078ca10p-4", "0x1.2857e56def73ep-2"),
    (64, "m=6", "0x1.5a79f75a67853p-1", "0x1.2547a2b8efe69p-4", "0x1.26b40e8a197f0p-2"),
    (64, "m=7", "0x1.588391969c3f5p-1", "0x1.0cd459bdd68f1p-4", "0x1.2641a61fa9578p-2"),
    (64, "m=8", "0x1.56d031c969187p-1", "0x1.f6d7da4fcda43p-5", "0x1.25bd797d0eccap-2"),
    (64, "m=9", "0x1.5551afd4201cfp-1", "0x1.de766a8989a42p-5", "0x1.2527033e0cd92p-2"),
    (64, "m=10", "0x1.53fe40d7286e5p-1", "0x1.cd847cfe91e9dp-5", "0x1.2483ab8a5dbe7p-2"),
    (64, "m=11", "0x1.52ced6401af69p-1", "0x1.c1ce66173d427p-5", "0x1.23d9b778fb2afp-2"),
    (64, "m=12", "0x1.51be2f9ebc68bp-1", "0x1.b5b509c9c6daep-5", "0x1.234f36a3805c6p-2"),
    (64, "m=13", "0x1.50c84a65aa645p-1", "0x1.acd79f551b2fep-5", "0x1.22c33f01e1079p-2"),
    (64, "m=14", "0x1.4fea0654eba79p-1", "0x1.a699c58f34cb2p-5", "0x1.2236e89a8b4ecp-2"),
    (64, "m=15", "0x1.4f20e907678ccp-1", "0x1.9ea77371d0082p-5", "0x1.21cbc3c485791p-2"),
    (64, "m=16", "0x1.4e6af4bd0e1b6p-1", "0x1.9935210086288p-5", "0x1.215cbaa4da2dfp-2"),
    (64, "m=17", "0x1.4dc68b7b10478p-1", "0x1.94aa70a3d81a6p-5", "0x1.20f57c683b781p-2"),
    (64, "m=18", "0x1.4d325a5725344p-1", "0x1.8e4cf1cb7d04cp-5", "0x1.20ac879e4f5b1p-2"),
    (64, "m=19", "0x1.4cad4a52964fap-1", "0x1.89426983e0cb6p-5", "0x1.2065a493fc446p-2"),
    (64, "m=20", "0x1.4c3675170a2cdp-1", "0x1.865ab3d462c58p-5", "0x1.20186fe79fb7fp-2"),
    (64, "m=21", "0x1.4bcd1c78925f7p-1", "0x1.82c40d8fb1864p-5", "0x1.1fdd31229b443p-2"),
    (64, "m=22", "0x1.4b70a3fc73adfp-1", "0x1.7e91bd300bf00p-5", "0x1.1fb2dc983cf0bp-2"),
    (64, "m=23", "0x1.4b208bdfc1559p-1", "0x1.7aabf0dd742bep-5", "0x1.1f90e104f33c1p-2"),
    (64, "m=24", "0x1.4adc6d407eca3p-1", "0x1.77b53acca4056p-5", "0x1.1f70f8e650df1p-2"),
    (64, "m=25", "0x1.4aa3f726df30dp-1", "0x1.744f57be3d74ap-5", "0x1.1f5f69b326db9p-2"),
    (64, "m=26", "0x1.4a76ec3edf22cp-1", "0x1.73342cd986c98p-5", "0x1.1f4292c2f8dadp-2"),
    (64, "m=27", "0x1.4a55211fa977ap-1", "0x1.7171abafbf27dp-5", "0x1.1f35a7f936ab2p-2"),
    (64, "m=28", "0x1.4a3e7b07c6575p-1", "0x1.6f08e30df3e1cp-5", "0x1.1f389ea8eaf27p-2"),
    (64, "m=29", "0x1.4a32eefc2aaebp-1", "0x1.6f564f3554fc4p-5", "0x1.1f2bb9abf2131p-2"),
    (64, "m=30", "0x1.4a32813da8657p-1", "0x1.693dda823252ep-5", "0x1.1f654ae12e94cp-2"),
    (64, "m=31", "0x1.4a3d450c89724p-1", "0x1.668cc24997786p-5", "0x1.1f88911803a5dp-2"),
    (64, "m=32", "0x1.4a535cb5ade19p-1", "0x1.67cf38182dd4ep-5", "0x1.1f8fa7115c912p-2"),
    (64, "m=33", "0x1.4a74f9e7a2988p-1", "0x1.670f27ed1cb7fp-5", "0x1.1fb4262f3fe96p-2"),
    (64, "m=34", "0x1.4aa25e5110aa0p-1", "0x1.672ea0e5d74aep-5", "0x1.1fda7b49f046ep-2"),
    (64, "m=35", "0x1.4adbdc8cd100cp-1", "0x1.67caa374ac754p-5", "0x1.2006a732e8cdep-2"),
    (64, "m=36", "0x1.4b21d96311530p-1", "0x1.65c911e9f27eep-5", "0x1.2056ffc2a3b5ap-2"),
    (64, "m=37", "0x1.4b74cd6a8601bp-1", "0x1.63214d6208c76p-5", "0x1.20b9216ed5396p-2"),
    (64, "m=38", "0x1.4bd54718e257cp-1", "0x1.58f719a67af5fp-5", "0x1.217243f3f57f3p-2"),
    (64, "m=39", "0x1.4c43ed571123ep-1", "0x1.5b179eae8e91ap-5", "0x1.21bd59e9b355fp-2"),
    (64, "m=40", "0x1.4cc182b4598cbp-1", "0x1.618bbce930464p-5", "0x1.21ea8cd63eb18p-2"),
    (64, "m=41", "0x1.4d4ee95c57a8cp-1", "0x1.69194b0a8e0cep-5", "0x1.221bd90466d88p-2"),
    (64, "m=42", "0x1.4ded27ff4ce40p-1", "0x1.6cc87d4273326p-5", "0x1.22820896422c8p-2"),
    (64, "m=43", "0x1.4e9d6febff5a8p-1", "0x1.6b94d8972d614p-5", "0x1.2326f8fc66ffdp-2"),
    (64, "m=44", "0x1.4f6124aff0342p-1", "0x1.7029e4950ee36p-5", "0x1.23a536ae108c5p-2"),
    (64, "m=45", "0x1.5039e5b0c7e05p-1", "0x1.6c1a04b8b8ee2p-5", "0x1.2488d149e380bp-2"),
    (64, "m=46", "0x1.51299a5c7fe0dp-1", "0x1.633e5bbc6264ap-5", "0x1.25b077871bc39p-2"),
    (64, "m=47", "0x1.523281cb55272p-1", "0x1.59d9d549dc7e5p-5", "0x1.26f6492ecb7f2p-2"),
    (64, "m=48", "0x1.53574708e2503p-1", "0x1.6668e2793c062p-5", "0x1.2776a76df235bp-2"),
    (64, "m=49", "0x1.549b1bc10f815p-1", "0x1.76d0bb777ebdap-5", "0x1.27f0c36146122p-2"),
    (64, "m=50", "0x1.5601dbdcb022ap-1", "0x1.7ec881e838a25p-5", "0x1.28dd0f040ae88p-2"),
    (64, "m=51", "0x1.57903ddea8b1fp-1", "0x1.7f0b37b353cbap-5", "0x1.2a3467e82aeefp-2"),
    (64, "m=52", "0x1.594c15de75120p-1", "0x1.8770e3f264112p-5", "0x1.2b672ea2ef304p-2"),
    (64, "m=53", "0x1.5b3cb46432513p-1", "0x1.8f9b5e6b03377p-5", "0x1.2ccaae9fbe208p-2"),
    (64, "m=54", "0x1.5d6b7047076edp-1", "0x1.8fac5a69be1a6p-5", "0x1.2eae12e4201cdp-2"),
    (64, "m=55", "0x1.5fe47532ca16bp-1", "0x1.8d5eddf73b61ap-5", "0x1.30e7b7fab033ep-2"),
    (64, "m=56", "0x1.62b80441123a3p-1", "0x1.88d4cd742cd9ap-5", "0x1.33855c7cb41dbp-2"),
    (64, "m=57", "0x1.65fc7b6b16b85p-1", "0x1.a1904170a34aep-5", "0x1.357596df2872ap-2"),
    (64, "m=58", "0x1.69d1cc5acf426p-1", "0x1.ba827985eb45ep-5", "0x1.37ea20276b375p-2"),
    (64, "m=59", "0x1.6e67cce0811f3p-1", "0x1.ccbf411742184p-5", "0x1.3b4364c839fc9p-2"),
    (64, "m=60", "0x1.740abd5133a26p-1", "0x1.dd62ebfc6b02cp-5", "0x1.3f92e9b7114f2p-2"),
    (64, "m=61", "0x1.7b3f1fa4d766bp-1", "0x1.f815fefe2b1e6p-5", "0x1.44eb7d43cd4e8p-2"),
    (64, "m=62", "0x1.850a8eb1b29eep-1", "0x1.07199728154a1p-4", "0x1.4ca144ac171bbp-2"),
    (64, "m=63", "0x1.93ea55ea1b80ep-1", "0x1.40a1ed67295e3p-4", "0x1.5617cd4ac669cp-2"),
    (64, "m=64", "0x1.b12f626517e6dp-1", "0x1.108da1e01b5e8p-3", "0x1.658fc8905ee73p-2"),
    (64, "beam_tilted", "0x1.b12f626517e70p-1", "0x1.11847b04ca607p-3", "0x1.657ff682523c1p-2"),
]


@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_tube_ratio_beam_l4_is_rotation_invariant(k):
    # The tilted beam is Q_k turned to (1, 1, 1)/sqrt(3), so its L^4 norm is the
    # m = k row's; one oracle of the beam_tilted re-pin.
    rows = {row["label"]: row for row in tube_ratio_experiment([k]).rows}
    assert abs(rows["beam_tilted"]["l4"] / rows[f"m={k}"]["l4"] - 1.0) <= 1e-15


@pytest.mark.parametrize("k", [8, 32])
def test_tube_ratio_beam_density_matches_mpmath(k, monkeypatch):
    # The other oracle of the beam_tilted re-pin: on the nodes of the sup arc
    # the sweep's beam density is c_k^2 (1 - d^2)^k in mpmath, with the
    # package's c_k and d the double x . a at each node (the rounding of d
    # itself moves any evaluation by up to 2k|d| ulps, so it is left out).
    # The sweep squares the density once, for the l4 integral, and sqrt of a
    # rounded square is the double itself.
    seen = []
    integrate = QuadratureGrid.integrate

    def spy(grid, values):
        seen.append(np.sqrt(values))
        return integrate(grid, values)

    monkeypatch.setattr(QuadratureGrid, "integrate", spy)
    row = tube_ratio_experiment([k]).rows[-1]
    (dens,) = seen
    grid = build_grid(k, 2.0)
    dots = grid.points() @ (np.ones(3) / math.sqrt(3.0))
    width = math.sqrt(k * (k + 1)) ** -0.5
    weighted = dens * grid.ring_weight[:, None]
    arcs = []
    for axis in np.vstack([[[0.0, 0.0, 1.0]], fibonacci_axes(max(64, 4 * k))]):
        ring, col, ids = arc_selections(grid, axis, width)
        arcs += [(ring[on], col[on]) for on in ((ids == j).any(axis=0) for j in range(8))]
    ring, col = max(arcs, key=lambda nodes: weighted[nodes].sum())
    assert abs(weighted[ring, col].sum() / row["sup_arc_mass"] - 1.0) <= 1e-14
    with mpmath.workdps(40):
        c2 = mpmath.exp(2 * mpmath.mpf(_sectoral_log(k)))
        for d, got in zip(dots[ring, col], dens[ring, col]):
            exact = c2 * (1 - mpmath.mpf(float(d)) ** 2) ** k
            assert abs(got - exact) <= 1e-15 * exact


def test_tube_ratio_rows_are_frozen_bitwise():
    # The standard rows read exact integer node counts per arc and ring, so
    # they keep the dense masks' bits; the beam row sums its nodes by bincount.
    res = tube_ratio_experiment([8, 16, 32, 64])
    got = [
        (row["k"], row["label"], row["l4"].hex(), row["sup_arc_mass"].hex(), row["ratio"].hex())
        for row in res.rows
    ]
    assert got == TUBE_RATIO_FROZEN


def test_superlevel_experiment_limits():
    res = superlevel_experiment([16], c_grid=(1e-6, 50.0))
    rows = {row["c"]: row for row in res.rows}
    assert tuple(res.rows[0].keys()) == SUPERLEVEL_COLUMNS
    # a tiny threshold captures the whole sphere
    assert rows[1e-6]["measure"] == pytest.approx(4 * math.pi, rel=1e-12)
    # a huge threshold captures nothing
    assert rows[50.0]["measure"] == 0.0
    lam = math.sqrt(16 * 17)
    assert rows[1e-6]["threshold"] == pytest.approx(1e-6 * math.sqrt(lam), rel=1e-12)
    assert rows[1e-6]["scaled_measure"] == pytest.approx(
        math.sqrt(lam) * 4 * math.pi, rel=1e-12
    )


# One complex band-512 field: 1025 x 2049 nodes of 16 bytes, 32 MiB.
_BAND_512_FIELD_BYTES = 1025 * 2049 * 16


@pytest.mark.parametrize(
    "run",
    [
        lambda: norms_experiment(256, (4.0, 8.0, math.inf)),
        lambda: scaling_experiment("zonal", math.inf, [64, 128, 256, 512]),
        lambda: superlevel_experiment([512]),
    ],
    ids=["norms", "scaling", "superlevel"],
)
def test_profile_experiments_build_no_full_grid_field(run):
    # |Y_km| and the ell^4 sum are read as ring profiles, so each run stays
    # below the memory of one complex field on its largest grid.
    assert _traced_peak(run) < _BAND_512_FIELD_BYTES


def test_tube_ratio_working_set_is_bounded():
    # The tilted beam's real density is built in place in one grid array, the
    # node tests reuse their buffers, and each axis's tube is freed before the
    # next is selected: 6.27 MB at k = 64 in a fresh process, against 8.27 MB
    # with the last axis's tube held during the next selection, 8.53 MB with
    # the beam a sampled complex field built ring block by ring block, and
    # 15.8 MB with a one-shot complex beam and out-of-place node tests.
    assert _traced_peak(lambda: tube_ratio_experiment([64])) < 6_500_000


def test_pointwise_envelope_holds_one_legendre_table():
    # ell_p_profile takes |N| and |N|^p in place on the fresh table: 14.3 MB
    # at k = 4096 in a fresh process, against 27.3 MB with |N| and |N|^p
    # held side by side.
    assert _traced_peak(lambda: pointwise_envelope_experiment([4096])) <= 16_000_000


def _traced_peak(run):
    """Peak bytes tracemalloc sees while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_identity_suite_small():
    run = exact_identity_suite(k_max=8, points=40, seed=1)
    report = run.outputs
    assert report["passed"]
    assert set(report["checks"]) == set(IDENTITY_CHECKS)
    for name, entry in report["checks"].items():
        assert entry["passed"], name
        assert entry["max_error"] <= entry["tolerance"]
        assert 0 <= entry["worst_k"] <= 8
    assert run.rows == [{"check": name, **entry} for name, entry in report["checks"].items()]
    assert [passed for passed, _ in run.gates] == [True] * len(IDENTITY_CHECKS)


def _ring_by_ring_gram(k, grid):
    n = 2 * k + 1
    fields = np.array([coefficient_field(k, row, grid).values for row in np.eye(n)])
    gram = np.zeros((n, n), dtype=complex)
    for weight, ring in zip(grid.ring_weight, fields.transpose(1, 0, 2)):
        gram += weight * (ring @ ring.conj().T)
    return gram


@pytest.mark.parametrize("k", [1, 7, 32])
def test_identity_gram_matches_the_ring_by_ring_sum(k):
    grid = build_grid(k)
    gram = _identity_gram(k, grid)
    assert np.abs(gram - _ring_by_ring_gram(k, grid)).max() <= 1e-14
    assert np.abs(gram - np.eye(2 * k + 1)).max() <= 1e-12


def test_gram_check_fails_on_a_perturbed_table_column(monkeypatch):
    table = experiments.signed_order_table

    def perturbed(k, t):
        out = table(k, t)
        out[:, 0] *= 1.0 + 1e-9
        return out

    report = exact_identity_suite(k_max=4, points=5, seed=0).outputs
    assert report["checks"]["gram_identity"]["passed"]
    monkeypatch.setattr(experiments, "signed_order_table", perturbed)
    report = exact_identity_suite(k_max=4, points=5, seed=0).outputs
    assert not report["checks"]["gram_identity"]["passed"]
    assert not report["passed"]


def test_exact_identity_suite_worst_degrees_at_seed_zero():
    # `verify --k-max 64 --seed 0` (100 points): the degrees where each check is worst
    report = exact_identity_suite(k_max=64, points=100, seed=0).outputs
    assert [entry["worst_k"] for entry in report["checks"].values()] == [52, 50, 51, 61]


def test_exact_identity_suite_bench_run_pins_at_seed_zero():
    # `verify --k-max 64 --points 200 --seed 0`, the benchmark's run: every
    # worst error and its degree, to the bit.
    rows = exact_identity_suite(k_max=64, points=200, seed=0).rows
    assert [(row["check"], row["max_error"].hex(), row["worst_k"]) for row in rows] == [
        ("l2_identity", "0x1.a3e34a2b10bf6p-47", 53),
        ("addition_theorem", "0x1.c9400000a13e0p-41", 63),
        ("theta_identity", "0x1.59297e9d24b31p-42", 53),
        ("gram_identity", "0x1.fe80000000000p-42", 61),
    ]


def test_exact_identity_suite_calls_each_kernel_entry_point_once_per_pass(monkeypatch):
    # The bulk pass reads theta_integral on all its points, the spot pass
    # reads theta_integral and projection_kernel on all its pairs.
    calls = []
    theta, kernel = experiments.theta_integral, experiments.projection_kernel

    def theta_spy(k, t):
        calls.append(("theta_integral", k, len(t)))
        return theta(k, t)

    def kernel_spy(k, x, y):
        calls.append(("projection_kernel", k, len(x)))
        return kernel(k, x, y)

    monkeypatch.setattr(experiments, "theta_integral", theta_spy)
    monkeypatch.setattr(experiments, "projection_kernel", kernel_spy)
    spot = experiments._SPOT_POINTS
    assert exact_identity_suite(k_max=4, points=7, seed=0).outputs["passed"]
    per_degree = [("theta_integral", 7), ("projection_kernel", spot), ("theta_integral", spot)]
    assert calls == [(name, k, size) for k in range(1, 5) for name, size in per_degree]


def test_seeded_experiments_reject_negative_seeds():
    with pytest.raises(ValueError, match="seed must be a non-negative int, got -1"):
        exact_identity_suite(k_max=2, points=2, seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        exact_identity_suite(k_max=2, points=2, seed=np.random.default_rng(0))


def test_exact_identity_suite_rejects_bad_ranges_up_front():
    start = time.perf_counter()
    with pytest.raises(ValueError):
        exact_identity_suite(k_max=1025)
    with pytest.raises(ValueError):
        exact_identity_suite(k_max=0)
    with pytest.raises(ValueError):
        exact_identity_suite(k_max=4, points=0)
    assert time.perf_counter() - start < 1.0


def _retention_rows(*entries):
    return [{"k": k, "J": j, "delta": delta, "min_ret": ret} for k, j, delta, ret in entries]


def test_retention_falling_with_delta_warns():
    rows = _retention_rows((8, 4, 0.5, 0.9), (8, 4, 0.1, 0.7), (8, 4, 0.3, 0.8), (8, 4, 0.7, 0.6))
    fall = r"retention fell from 0\.9.* to 0\.6.* between delta 0\.5 and 0\.7 at \(k, J\) = \(8, 4\)"
    with pytest.warns(UserWarning, match=fall):
        experiments._warn_on_nonmonotone(rows)


def test_retention_rising_with_delta_does_not_warn():
    # Rows out of delta order, a fall across (k, J) groups and a fall inside
    # the 1e-9 slack are all monotone at fixed (k, J).
    rows = _retention_rows(
        (8, 4, 0.5, 0.9), (8, 4, 0.1, 0.7), (8, 6, 0.1, 0.5), (16, 4, 0.7, 0.2),
        (16, 4, 0.9, 0.2 - 5e-10),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        experiments._warn_on_nonmonotone(rows)
