import json
import math
import time

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
    ExperimentRecord,
    _identity_gram,
    average_l4_experiment,
    exact_identity_suite,
    fit_power_law,
    norms_experiment,
    pointwise_envelope_experiment,
    scaling_experiment,
    scaling_target,
    superlevel_experiment,
    timed,
    tube_ratio_experiment,
    write_csv,
    write_json,
)
from spherelab.harmonics import beam_field, standard_field, synthesize_rings
from spherelab.legendre import _zonal_3j_squares, normalized_legendre_table
from spherelab.quadrature import arc_tube_masses, build_grid, lp_norm
from spherelab.sphere import fibonacci_axes


def test_fit_power_law_exact_recovery():
    ks = np.array([4, 8, 16, 32, 64])
    values = 3.0 * ks**0.7
    fit = fit_power_law(ks, values, q=4.0, target=0.7)
    assert fit.exponent == pytest.approx(0.7, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.k_range == (4, 64)
    assert fit.target == 0.7
    # the lambda = sqrt(k(k+1)) refit shifts the exponent a little at low k
    assert fit.exponent_lambda == pytest.approx(0.7, abs=0.05)
    assert fit.residual_rms_lambda < 0.01
    d = fit.to_dict()
    assert d["exponent"] == fit.exponent
    with pytest.raises(ValueError):
        fit_power_law([4], [1.0])


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
    fit = scaling_experiment("highest_weight", 4, (8, 16, 32, 64))
    assert abs(fit.exponent - 1 / 8) < 0.04
    assert fit.certificate["bands"] == {8: 8, 16: 16, 32: 32, 64: 64}
    assert len(fit.certificate["norms"]) == 4


def test_average_l4_degree_one_closed_form():
    res = average_l4_experiment([1])
    # (||Y_10||_4^4 + 2 ||Y_11||_4^4) / 3 with the elementary degree-1 values
    expect = (9 / (20 * math.pi) + 2 * 3 / (10 * math.pi)) / 3
    assert res.rows[0]["a_k"] == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(7 / (20 * math.pi), rel=1e-15)
    assert math.isnan(res.rows[0]["a_k_over_log_k"])


def test_average_l4_growth():
    res = average_l4_experiment([8, 16, 32])
    assert [row["k"] for row in res.rows] == [8, 16, 32]
    assert tuple(res.rows[0].keys()) == AVERAGE_L4_COLUMNS
    assert res.strictly_increasing
    assert res.band_spread >= 1.0
    low, high = res.ratio_band
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
    assert len(res.rows) == 8 and res.strictly_increasing
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
    assert res.band_spread >= 1.0
    for row in res.rows:
        assert 0 < row["sup_ratio"] < 1.0
        assert 0 <= row["argmax_r"] <= math.pi / 2
        expect_pole = math.sqrt((2 * row["k"] + 1) / (4 * math.pi)) / math.sqrt(row["k"])
        assert row["pole_ratio"] == pytest.approx(expect_pole, rel=1e-12)
        assert row["sup_ratio"] >= row["pole_ratio"] - 1e-12


def test_tube_ratio_experiment_rows():
    res = tube_ratio_experiment([8], oversample=2.0, n_axes=64)
    labels = [row["label"] for row in res.rows]
    assert labels.count("beam_tilted") == 1
    assert len(labels) == 8 + 2  # orders m = 0..k plus the tilted beam
    assert tuple(res.rows[0].keys()) == TUBE_RATIO_COLUMNS
    for row in res.rows:
        assert row["lam"] == pytest.approx(math.sqrt(8 * 9), rel=1e-12)
        assert row["l4"] > 0
        assert row["sup_arc_mass"] > 0
        assert 0 < row["ratio"] < 1.0
    assert res.max_ratio == pytest.approx(max(row["ratio"] for row in res.rows))


def test_norms_rows_share_one_table_per_grid_bitwise():
    # `norms --k 64 --q 4 --q inf --m 5`: reading Z, Q and Y columns from one
    # signed table per grid must give the per-field values bit for bit.  The
    # hex literals were recorded when each field built its own table.
    frozen = [
        ("Z_64", 4.0, "0x1.8415b38ae3af2p-1"),
        ("Q_64", 4.0, "0x1.b12f626517e33p-1"),
        ("Y_64_5", 4.0, "0x1.5cc8fae68f693p-1"),
        ("Z_64", math.inf, "0x1.13b30dcb6f1ffp+1"),
        ("Q_64", math.inf, "0x1.b336e6807933ap-1"),
        ("Y_64_5", math.inf, "0x1.2242105210cc5p+0"),
    ]
    res = norms_experiment(64, (4.0, math.inf), 5)
    assert [(row["label"], row["q"], row["norm"].hex()) for row in res.rows] == frozen
    grid = build_grid(64)
    for row, m in zip(res.rows, (0, 64, 5)):
        assert row["norm"] == lp_norm(standard_field(64, m, grid), 4.0)
    with pytest.raises(ValueError, match="order 65"):
        norms_experiment(64, (4.0,), 65)


def test_tube_ratio_arc_masses_match_per_point_oracle():
    # The sweep sums standard members by per-ring point counts; the oracle
    # sums every field point by point with arc_tube_masses over the same axes.
    k = 8
    res = tube_ratio_experiment([k], oversample=2.0, n_axes=16)
    grid = build_grid(k, 2.0)
    width = math.sqrt(k * (k + 1)) ** -0.5
    axes = np.vstack([[[0.0, 0.0, 1.0]], fibonacci_axes(16)])
    fields = [standard_field(k, m, grid) for m in range(k + 1)]
    fields.append(beam_field(k, np.ones(3) / math.sqrt(3.0), grid))
    for row, f in zip(res.rows, fields):
        oracle = max(arc_tube_masses(f, axis, width).max() for axis in axes)
        assert row["sup_arc_mass"] == pytest.approx(oracle, rel=1e-12)


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


def test_exact_identity_suite_small():
    report = exact_identity_suite(k_max=8, points=40, seed=1)
    assert report["passed"]
    assert set(report["checks"]) == set(IDENTITY_CHECKS)
    for name, entry in report["checks"].items():
        assert entry["passed"], name
        assert entry["max_error"] <= entry["tolerance"]
        assert 0 <= entry["worst_k"] <= 8


def _ring_by_ring_gram(k, grid):
    n = 2 * k + 1
    gram = np.zeros((n, n), dtype=complex)
    for weight, ring in zip(grid.ring_weight, synthesize_rings(k, np.eye(n), grid)):
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

    assert exact_identity_suite(k_max=4, points=5, seed=0)["checks"]["gram_identity"]["passed"]
    monkeypatch.setattr(experiments, "signed_order_table", perturbed)
    report = exact_identity_suite(k_max=4, points=5, seed=0)
    assert not report["checks"]["gram_identity"]["passed"]
    assert not report["passed"]


def test_exact_identity_suite_worst_degrees_at_seed_zero():
    # `verify --k-max 64 --seed 0` (100 points): the degrees where each check is worst
    report = exact_identity_suite(k_max=64, points=100, seed=0)
    assert [entry["worst_k"] for entry in report["checks"].values()] == [52, 50, 51, 61]


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


def test_write_csv_deterministic(tmp_path):
    rows = [
        {"k": 4, "value": 0.1 + 0.2, "flag": True},
        {"k": np.int64(8), "value": np.float64(1.5), "flag": False},
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, ("k", "value", "flag"), rows)
    write_csv(p2, ("k", "value", "flag"), rows)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "k,value,flag"
    assert lines[1] == "4,0.30000000000000004,true"
    assert lines[2] == "8,1.5,false"


def test_write_json_round_trip(tmp_path):
    record = ExperimentRecord(
        name="demo",
        params={"k": np.int64(4), "q": 4.0},
        grid={"band": 4},
        seed=0,
        outputs={"value": np.float64(2.5), "flags": np.array([1, 2])},
        wall_clock_s=0.5,
    )
    path = tmp_path / "out.json"
    write_json(path, record, ("k", "value"), [{"k": 4, "value": 1.25}])
    loaded = json.loads(path.read_text())
    assert loaded["record"]["name"] == "demo"
    assert loaded["record"]["params"]["k"] == 4
    assert loaded["record"]["outputs"]["value"] == 2.5
    assert loaded["record"]["outputs"]["flags"] == [1, 2]
    assert loaded["columns"] == ["k", "value"]
    assert loaded["rows"] == [{"k": 4, "value": 1.25}]
    # serialization is stable
    text1 = record.to_json()
    text2 = record.to_json()
    assert text1 == text2
    assert json.loads(text1)["version"]


def test_write_json_matches_a_json_round_trip_of_the_record(tmp_path):
    # integer keys sort numerically before conversion and as text after it;
    # the file must carry the order a json round trip of the record gives
    record = ExperimentRecord(
        name="scaling",
        params={"ks": [8, 16, 32]},
        grid={"bands": {8: 8, 16: 16, 32: 32}, "norms": {8: 0.5, 16: 0.25, 32: 0.125}},
        seed=None,
        outputs={"k_range": (8, 32), "value": np.float64(2.5), "nan": float("nan")},
        wall_clock_s=0.25,
    )
    path = tmp_path / "out.json"
    write_json(path, record, ("k",), [{"k": 8}])
    payload = {
        "record": json.loads(record.to_json()),
        "columns": ["k"],
        "rows": [{"k": 8}],
    }
    assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"
    assert record.to_dict()["grid"]["bands"] == {"8": 8, "16": 16, "32": 32}


def test_timed_returns_result_and_duration():
    result, seconds = timed(sum, [1, 2, 3])
    assert result == 6
    assert seconds >= 0.0
