"""End-to-end acceptance gates for the whole laboratory.

Each test prints one PASS/FAIL line (to the real stdout, so the lines show
up under pytest's capture as well) and then asserts the same condition, so a
red gate is visible both in the text log and in the pytest summary.

Run with `pytest tests/test_acceptance.py -v`; the criterion lines appear
interleaved with the verbose test names.
"""

import math
import sys
import time

import numpy as np
import pytest

from spherelab import experiments
from spherelab.beams import (
    beam_coefficients,
    orthonormalize,
    place_separated_axes,
)
from spherelab.experiments import (
    AVERAGE_L4_MAX_SPREAD,
    ENVELOPE_MAX_SPREAD,
    HAAR_RATIO_BAND,
    SCALING_EXPONENT_TOLERANCE,
    SCALING_MAX_RESIDUAL_RMS,
    SUPERLEVEL_MAX_SCALED,
    TUBE_RATIO_MAX,
    average_l4_experiment,
    beam_experiment,
    exact_identity_suite,
    monte_carlo_lambda4,
    norms_experiment,
    pointwise_envelope_experiment,
    scaling_experiment,
    superlevel_experiment,
    tube_ratio_experiment,
)
from spherelab.harmonics import beam_field, coefficient_field
from spherelab.legendre import _sectoral_log
from spherelab.quadrature import arc_selections, build_grid
from spherelab.random_bases import CoefficientBasis, gaussian_limit_check, lambda4, quartic_norms
from test_beams import beam_overlap
from test_legendre import wallis_integral


def _report(number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    print(line, file=sys.__stdout__)
    return ok


def test_criterion_1_exact_identities():
    start = time.monotonic()
    report = exact_identity_suite(k_max=64, points=200, seed=0).outputs
    elapsed = time.monotonic() - start
    checks = report["checks"]
    ok = report["passed"] and elapsed <= 120.0
    detail = (
        f"l2 {checks['l2_identity']['max_error']:.2e}, "
        f"addition {checks['addition_theorem']['max_error']:.2e}, "
        f"theta {checks['theta_identity']['max_error']:.2e}, "
        f"gram {checks['gram_identity']['max_error']:.2e}, "
        f"{elapsed:.1f}s"
    )
    assert _report(1, "exact identities k<=64", ok, detail)
    assert checks["l2_identity"]["tolerance"] == 1e-10
    assert checks["addition_theorem"]["tolerance"] == 1e-10
    assert checks["theta_identity"]["tolerance"] == 1e-10
    assert checks["gram_identity"]["tolerance"] == 1e-11


def _wallis_by_recursion(n):
    # independent oracle: W_0 = pi, W_1 = 2, W_n = (n-1)/n W_{n-2}
    if n == 0:
        return math.pi
    if n == 1:
        return 2.0
    return (n - 1) / n * _wallis_by_recursion(n - 2)


def test_criterion_2_closed_form_norms():
    # oracle values first, straight from the recursion
    w5 = _wallis_by_recursion(5)
    assert w5 == pytest.approx(wallis_integral(5), rel=1e-14, abs=0)
    c1 = math.exp(_sectoral_log(1))  # amplitude of the degree-1 sectoral element
    q1_oracle = 2 * math.pi * c1**4 * w5
    assert q1_oracle == pytest.approx(3 / (10 * math.pi), rel=1e-14, abs=0)
    # cos^4 sin = (1 - sin^2)^2 sin expands to odd Wallis integrals
    cos4_moment = (
        _wallis_by_recursion(1) - 2 * _wallis_by_recursion(3) + _wallis_by_recursion(5)
    )
    z1_oracle = 2 * math.pi * (3 / (4 * math.pi)) ** 2 * cos4_moment
    assert z1_oracle == pytest.approx(9 / (20 * math.pi), rel=1e-13, abs=0)

    grid = build_grid(1)
    z1, q1 = (row["norm"] ** 4 for row in norms_experiment(1, (4.0,)).rows)
    lam1 = lambda4(CoefficientBasis.identity(1), grid)
    errs = (
        abs(q1 - 3 / (10 * math.pi)),
        abs(z1 - 9 / (20 * math.pi)),
        abs(lam1 - 21 / (20 * math.pi)),
    )
    ok = max(errs) <= 1e-11
    detail = f"|dQ1| {errs[0]:.2e}, |dY10| {errs[1]:.2e}, |dSum| {errs[2]:.2e}"
    assert _report(2, "closed-form degree-1 norms", ok, detail)


def test_criterion_3_average_l4_band():
    start = time.monotonic()
    res = average_l4_experiment([8, 16, 32, 64, 128, 256]).outputs
    elapsed = time.monotonic() - start
    ok = res["strictly_increasing"] and res["band_spread"] <= 5.0 and elapsed <= 600.0
    detail = (
        f"band spread {res['band_spread']:.3f} (<= 5), "
        f"increasing {res['strictly_increasing']}, {elapsed:.1f}s"
    )
    assert _report(3, "average fourth-power growth", ok, detail)
    # the command-line gate reads the shared constant; pin it to the literal above
    assert AVERAGE_L4_MAX_SPREAD == 5.0


def test_criterion_4_scaling_exponents():
    start = time.monotonic()
    ks = (16, 32, 64, 128, 256)
    fit_q4 = scaling_experiment("highest_weight", 4, ks).outputs
    fit_zinf = scaling_experiment("zonal", math.inf, ks).outputs
    fit_q8 = scaling_experiment("highest_weight", 8, ks).outputs
    elapsed = time.monotonic() - start
    checks = (
        abs(fit_q4["exponent"] - 1 / 8) <= 0.02 and fit_q4["residual_rms"] <= 0.05,
        abs(fit_zinf["exponent"] - 1 / 2) <= 0.02,
        abs(fit_q8["exponent"] - 3 / 16) <= 0.02,
    )
    ok = all(checks) and elapsed <= 300.0
    detail = (
        f"beam q4 {fit_q4['exponent']:.4f} (1/8), "
        f"zonal sup {fit_zinf['exponent']:.4f} (1/2), "
        f"beam q8 {fit_q8['exponent']:.4f} (3/16), "
        f"rms {fit_q4['residual_rms']:.4f}, {elapsed:.1f}s"
    )
    assert _report(4, "growth exponents", ok, detail)
    assert SCALING_EXPONENT_TOLERANCE == 0.02
    assert SCALING_MAX_RESIDUAL_RMS == 0.05


def test_criterion_5_random_onb_mean():
    start = time.monotonic()
    run = monte_carlo_lambda4(32, trials=200, seed=0)
    elapsed = time.monotonic() - start
    # bitwise determinism of per-trial values, including under subsetting
    values = [row["lambda4"] for row in run.rows]
    again = [row["lambda4"] for row in monte_carlo_lambda4(32, trials=200, seed=0).rows]
    head = [row["lambda4"] for row in monte_carlo_lambda4(32, trials=50, seed=0).rows]
    bitwise = np.array_equal(values, again) and np.array_equal(head, values[:50])
    res = run.outputs
    ok = 0.9 <= res["ratio"] <= 1.1 and bitwise and elapsed <= 900.0
    detail = (
        f"mean/benchmark {res['ratio']:.6f} in [0.9, 1.1], "
        f"stderr {res['ratio_stderr']:.2e}, bitwise {bitwise}, {elapsed:.1f}s"
    )
    assert _report(5, "random ONB fourth-power mean", ok, detail)
    assert HAAR_RATIO_BAND == (0.9, 1.1)


def test_criterion_6_entry_moments():
    start = time.monotonic()
    report = gaussian_limit_check(32, samples=100000, seed=0)
    elapsed = time.monotonic() - start
    m2_ok = abs(report.second_moment - 1.0) <= 3 * report.second_stderr
    m4_ok = abs(report.fourth_moment - 2.0) <= 0.1
    ok = m2_ok and m4_ok and elapsed <= 300.0
    detail = (
        f"E|u|^2 {report.second_moment:.5f} +- {report.second_stderr:.5f}, "
        f"E|u|^4 {report.fourth_moment:.5f} (|d| <= 0.1), {elapsed:.1f}s"
    )
    assert _report(6, "scaled entry moments N=65", ok, detail)


def test_criterion_7_tube_masses():
    start = time.monotonic()
    target = math.erf(1.0)
    equator = [0.0, 0.0, 1.0]  # the axis of the equator

    def node_mass(f, width):
        ring, col, _ = arc_selections(f.grid, equator, width)
        return float((f.grid.ring_weight[ring] * np.abs(f.values[ring, col]) ** 2).sum())

    masses = {}
    for k in (64, 256):
        grid = build_grid(k, oversample=2.0)
        f = beam_field(k, [0.0, 0.0, 1.0], grid)
        masses[k] = node_mass(f, k**-0.5)
    gz = build_grid(256, oversample=2.0)
    z_mass = node_mass(coefficient_field(256, np.eye(513)[256], gz), 256**-0.5)
    elapsed = time.monotonic() - start
    beam_ok = all(abs(masses[k] - target) <= 0.02 for k in (64, 256))
    ok = beam_ok and z_mass <= 0.15 and elapsed <= 120.0
    detail = (
        f"beam64 {masses[64]:.4f}, beam256 {masses[256]:.4f} "
        f"(erf(1) = {target:.4f} +- 0.02), zonal256 {z_mass:.4f} (<= 0.15), {elapsed:.1f}s"
    )
    assert _report(7, "tube concentration", ok, detail)


def test_criterion_8_envelope_superlevel_tube_ratio():
    start = time.monotonic()
    env = pointwise_envelope_experiment([8, 16, 32, 64, 128, 256])
    sup_env = superlevel_experiment([16, 32, 64, 128, 256], c_grid=(1.0,))
    scaled = [row["scaled_measure"] for row in sup_env.rows]
    tube = tube_ratio_experiment([8, 16, 32, 64])
    elapsed = time.monotonic() - start
    env_ok = env.outputs["band_spread"] <= 3.0
    sup_ok = max(scaled) <= 1.0
    tube_ok = tube.outputs["max_ratio"] <= 1.0
    ok = env_ok and sup_ok and tube_ok and elapsed <= 900.0
    detail = (
        f"envelope spread {env.outputs['band_spread']:.3f} (<= 3), "
        f"superlevel C=1 max {max(scaled):.3f} (<= 1), "
        f"tube ratio max {tube.outputs['max_ratio']:.3f} (<= 1), {elapsed:.1f}s"
    )
    assert _report(8, "envelope / superlevel / tube-ratio gates", ok, detail)
    assert ENVELOPE_MAX_SPREAD == 3.0
    assert SUPERLEVEL_MAX_SCALED == 1.0
    assert TUBE_RATIO_MAX == 1.0


@experiments._one_blas_thread()
def test_criterion_9_beam_machinery():
    start = time.monotonic()
    # round-trip through the coefficient expansion
    rng = np.random.default_rng(123)
    round_trip_err = 0.0
    for k in (16, 64):
        grid = build_grid(k)
        axis = rng.standard_normal(3)
        c = beam_coefficients(k, axis, grid)
        rebuilt = coefficient_field(k, c, grid)
        direct = beam_field(k, axis, grid)
        round_trip_err = max(round_trip_err, float(np.max(np.abs(rebuilt.values - direct.values))))

    # overlap doubling identity at alpha = pi/4
    alpha = math.pi / 4
    a1 = [0.0, 0.0, 1.0]
    a2 = [math.sin(alpha), 0.0, math.cos(alpha)]
    o1 = abs(beam_overlap(32, a1, a2))
    o2 = abs(beam_overlap(64, a1, a2))
    doubling_err = abs(o2 - o1**2)

    # two orthogonal-axis beams barely interact
    grid = build_grid(64)
    rows = np.array([beam_coefficients(64, a) for a in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])])
    basis, _ = orthonormalize(64, rows)
    retention = quartic_norms(64, basis.matrix, grid) / quartic_norms(64, rows, grid)

    # permutation equivariance of the symmetric orthonormalization
    axes = place_separated_axes(5, 0.5)
    perm = np.array([3, 0, 4, 1, 2])
    b1, _ = orthonormalize(12, np.array([beam_coefficients(12, a) for a in axes]))
    b2, _ = orthonormalize(12, np.array([beam_coefficients(12, a) for a in axes[perm]]))
    equivariance_err = float(np.max(np.abs(b2.matrix - b1.matrix[perm])))

    # the open packing question ships as a sweep table, not a gate
    sweep = beam_experiment([16], deltas=(0.5, 0.35), seed=0).rows
    elapsed = time.monotonic() - start

    ok = (
        round_trip_err <= 1e-10
        and doubling_err <= 1e-8
        and retention.min() >= 0.99
        and equivariance_err <= 1e-12
        and len(sweep) == 2
        and elapsed <= 600.0
    )
    detail = (
        f"round-trip {round_trip_err:.2e}, doubling {doubling_err:.2e}, "
        f"retention {retention.min():.4f} (>= 0.99), "
        f"equivariance {equivariance_err:.2e}, {elapsed:.1f}s"
    )
    assert _report(9, "beam machinery", ok, detail)
