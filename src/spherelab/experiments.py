"""The named experiments: identity suite, norms, scaling fits, the log-k average,
envelopes, Haar Monte Carlo, beam retention, tubes and superlevel sets.

Every experiment here reports raw numbers next to any fitted summary, embeds
the quadrature exactness certificate it ran under, and uses ordinary least
squares on log-log data with the residual RMS exposed.  Gates built on these
sweeps read both the fitted value and the residual; a slope with a bad
residual is not a pass.

Every experiment the command line runs returns one result shape,
``ExperimentRun``: ``rows`` (the row table), ``certificate`` (the record's
``grid`` block), ``outputs`` (the record's ``outputs`` block), ``gates``
(``(passed, text)`` pairs) and ``summary`` (lines printed after the table).
Each experiment's row columns, and each gate threshold, are module constants
defined beside it; the acceptance tests pin the thresholds to their literal
values.

Thread count.  Every experiment here runs on one OpenBLAS thread, grid builds
included (``@_one_blas_thread()``).  Their products are too small for a
second thread, whose idle worker spins while Python runs between them, and
OpenBLAS rounds some (the QR and the ring products at k = 64) differently at
different counts, so one thread makes the rows the same on every core count.
"""

import contextlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    _phases,
    _polar,
    _signed_orders,
    ell_p_profile,
    ell_p_sum,
    eval_basis_row,
    pointwise_envelope,
    projection_kernel,
    signed_order_table,
    theta_integral,
)
from .legendre import (
    _UPWARD_MAX_DEGREE,
    _sectoral_log,
    _upward_degree_table,
    _zonal_3j_squares,
    legendre_p,
    normalized_legendre_table,
    zonal_sup_coefficient,
)
from .beams import (_check_method, beam_coefficients, orthonormalize, packing_bound,
                    place_separated_axes)
from .quadrature import (
    _ARC_LENGTH,
    _N_ARCS,
    MAX_GRID_POINTS,
    _grid_size,
    _norm_exponent,
    _openblas,
    arc_selections,
    build_grid,
    profile_norm,
    superlevel_measure,
)
from .random_bases import (
    CoefficientBasis,
    _check_seed,
    _mean_stderr,
    lambda4,
    quartic_norms,
    sample_haar_unitary,
    trial_rng,
)
from .sphere import fibonacci_axes

__all__ = [
    "ExperimentRun",
    "fit_power_law",
    "scaling_target",
    "SCALING_COLUMNS",
    "scaling_experiment",
    "NORM_COLUMNS",
    "norms_experiment",
    "IDENTITY_CHECKS",
    "VERIFY_COLUMNS",
    "exact_identity_suite",
    "AVERAGE_L4_COLUMNS",
    "average_l4_experiment",
    "ENVELOPE_COLUMNS",
    "pointwise_envelope_experiment",
    "MONTE_CARLO_COLUMNS",
    "monte_carlo_lambda4",
    "BEAM_EXPERIMENT_COLUMNS",
    "beam_experiment",
    "TUBE_RATIO_COLUMNS",
    "tube_ratio_experiment",
    "SUPERLEVEL_COLUMNS",
    "superlevel_experiment",
]


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block (or, as ``@_one_blas_thread()``, each call) on one OpenBLAS thread.

    The count it had is restored afterwards, also when the block raises.
    The library is looked up on first use, not at import.  Where no OpenBLAS
    thread control is found (another BLAS, or no /proc), the block runs at
    whatever thread count the BLAS has, and products that BLAS splits across
    threads may round differently on different core counts.
    """
    set_threads, get_threads, _ = _openblas()
    if set_threads is None:
        yield
        return
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


# Scaling gate: the fitted exponent lies within this distance of its target,
# and the log-log residual RMS stays at or below the second bound.
SCALING_EXPONENT_TOLERANCE = 0.02
SCALING_MAX_RESIDUAL_RMS = 0.05


@dataclass
class ExperimentRun:
    """The result shape of every experiment the command line runs."""

    rows: list
    certificate: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    gates: list = field(default_factory=list)
    summary: tuple = ()


def _ols_loglog(x, y):
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(slope), float(intercept), rms


def fit_power_law(ks, values) -> dict:
    """Least-squares power law through (k, value) pairs, fitted in log-log.

    Returns a plain dict: ``exponent``, ``intercept``, ``residual_rms``,
    ``k_range`` (the lowest and highest degree), ``exponent_lambda`` and
    ``residual_rms_lambda``, the last two from a refit against lambda =
    sqrt(k(k+1)).  For k >= 8 the two exponents differ by less than the gate
    tolerances; both are reported because the growth laws are quoted in
    either variable depending on context.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if ks.size < 2:
        raise ValueError("need at least two points to fit")
    for name, array in (("degree", ks), ("value", values)):
        if not (array > 0.0).all():
            raise ValueError(f"a log-log fit needs positive degrees and values, "
                             f"got {name} {array.min():g}")
    slope, intercept, rms = _ols_loglog(ks, values)
    lams = np.sqrt(ks * (ks + 1.0))
    slope_lam, _, rms_lam = _ols_loglog(lams, values)
    return {"exponent": slope, "intercept": intercept, "residual_rms": rms,
            "k_range": (int(ks.min()), int(ks.max())), "exponent_lambda": slope_lam,
            "residual_rms_lambda": rms_lam}


_SCALING_FAMILIES = ("zonal", "highest_weight")


def scaling_target(family: str, q) -> float:
    """Predicted growth exponent of ||family_k||_q in k.

    The zonal family grows on the branch 2(1/2 - 1/q) - 1/2 and the highest
    weight family on the branch (1/2)(1/2 - 1/q); their max over the two
    families is the sharp exponent for the whole eigenspace.
    """
    if family not in _SCALING_FAMILIES:
        raise ValueError(f"family must be one of {_SCALING_FAMILIES}")
    q = float(q)
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    if family == "zonal":
        return 2.0 * (0.5 - inv_q) - 0.5
    return 0.5 * (0.5 - inv_q)


def _exact_band(k: int, q: float) -> int:
    """ceil(q k / 4): the grid band that integrates |Y_km|^q exactly for even q; k for q = inf."""
    band = k if math.isinf(q) else q * k / 4.0
    if not math.isfinite(band):
        raise ValueError(f"--q {q:g} is out of range: the band q k / 4 overflows at degree {k}")
    return int(math.ceil(band))


def _check_q(q, band, oversample, log_sup, label):
    """Refuse a q whose grid or integral is out of range, before any grid is built.

    A large q's rule takes seconds.  The integral of |f|^q is at most
    4 pi sup|f|^q, with log sup|f| = log_sup; widened by e^(1e-6 q + 1), far
    beyond rounding, a bound below the normal range means profile_norm refuses q.
    """
    _grid_size(band, oversample)
    log_bound = math.log(4.0 * math.pi) + q * (log_sup + 1e-6) + 1.0
    if math.isfinite(q) and log_bound < math.log(np.finfo(float).tiny):
        raise ValueError(f"norm exponent q = {q:g} is out of range: the integral of |{label}|^q "
                         f"is below e^{log_bound:.0f}, outside the normal double range")


SCALING_COLUMNS = ("k", "band", "norm")


@_one_blas_thread()
def scaling_experiment(family: str, q, ks, oversample: float = 1.0) -> ExperimentRun:
    """Fit the growth exponent of ||family_k||_q against its predicted branch.

    The zonal family realizes the upper branch 2(1/2 - 1/q) - 1/2 of the
    growth exponent and has a kink artifact near q = 6, so it is only
    accepted for q >= 8 or q = inf; the highest weight family realizes the
    lower branch (1/2)(1/2 - 1/q) for every q >= 2.  Each row reads the
    family's Legendre column on the band-ceil(q k / 4) grid (band k for
    q = inf), which makes the integral exact for even q, through
    ``profile_norm``.  The rows are the norm table; the outputs are the fit,
    q, the target exponent and the certificate.  Runs on one OpenBLAS thread.
    """
    q = float(q)
    if q < 2.0:
        raise ValueError("q must be >= 2")
    target = scaling_target(family, q)
    if family == "zonal" and not (math.isinf(q) or q >= 8.0):
        raise ValueError("zonal fits need q >= 8 or q = inf (kink at q = 6)")
    ks = [int(k) for k in ks]
    if len(ks) < 4:
        raise ValueError("need a k-range of at least 4 degrees")
    for k in ks:
        if family == "zonal":
            _check_q(q, _exact_band(k, q), oversample, math.log(zonal_sup_coefficient(k)), f"Z_{k}")
        else:
            _check_q(q, _exact_band(k, q), oversample, _sectoral_log(k), f"Q_{k}")
    rows = []
    for k in ks:
        band = _exact_band(k, q)
        grid = build_grid(band, oversample)
        column = normalized_legendre_table(k, grid.t)[:, 0 if family == "zonal" else k]
        rows.append({"k": k, "band": band, "norm": profile_norm(grid, column, q)})
    certificate = {
        "integrand_exact": math.isinf(q) or (q == int(q) and int(q) % 2 == 0),
        "bands": {row["k"]: row["band"] for row in rows},
        "norms": {row["k"]: row["norm"] for row in rows},
        "oversample": oversample,
        "note": "sup norms read the grid max, a lower bound on the true sup",
    }
    fit = fit_power_law(ks, [row["norm"] for row in rows])
    miss, rms = abs(fit["exponent"] - target), fit["residual_rms"]
    gates = [
        (miss <= SCALING_EXPONENT_TOLERANCE,
         f"|exponent - target| = {miss:.4f} <= {SCALING_EXPONENT_TOLERANCE:g}"),
        (rms <= SCALING_MAX_RESIDUAL_RMS,
         f"log-log residual rms {rms:.2e} <= {SCALING_MAX_RESIDUAL_RMS:g}"),
    ]
    summary = (
        f"fit: exponent {fit['exponent']:.6f} (target {target:.6f}), "
        f"residual rms {rms:.2e}, lambda-variable exponent {fit['exponent_lambda']:.6f}",
    )
    outputs = {**fit, "q": q, "target": target, "certificate": certificate}
    return ExperimentRun(rows, certificate, outputs, gates, summary)


NORM_COLUMNS = ("label", "q", "band", "norm")


@_one_blas_thread()
def norms_experiment(k: int, qs=(4.0,), m: int = None, oversample: float = 1.0) -> ExperimentRun:
    """L^q norms of Z_k, Q_k and, when ``m`` is given, Y_km, for each exponent q.

    |Y_km| = |N(k, m, t)| depends on colatitude only, so each norm reads one
    column of the unsigned Legendre table through ``profile_norm``.  Each q
    reads a grid at band max(k, ceil(q k / 4)), which makes the integral
    exact for even q; q = inf is the max over the band-k grid's nodes of
    |N(k, m, t_i)|.  One table per grid serves every order on it.  The
    certificate lists the bands used.  There is no gate.  Runs on one
    OpenBLAS thread.
    """
    k = int(k)
    orders = [(0, f"Z_{k}"), (k, f"Q_{k}")]
    if m is not None:
        m = int(m)
        if abs(m) > k:
            raise ValueError(f"order {m} out of range for degree {k}")
        orders.append((m, f"Y_{k}_{m}"))
    # Every q is checked with the Q_k row's sup, e^_sectoral_log(k), before any grid.
    for q in qs:
        q = _norm_exponent(q)
        _check_q(q, max(k, _exact_band(k, q)), oversample, _sectoral_log(k), f"Q_{k}")
    rows = []
    grids = {}
    for q in qs:
        band = max(k, _exact_band(k, q))
        if band not in grids:
            grid = build_grid(band, oversample)
            grids[band] = (grid, normalized_legendre_table(k, grid.t))
        grid, table = grids[band]
        for order, label in orders:
            norm = profile_norm(grid, table[:, abs(order)], q)
            rows.append({"label": label, "q": float(q), "band": band, "norm": norm})
    return ExperimentRun(rows, certificate={"bands": sorted(grids)})


# Average-L4 gate: max/min of A_k / log k over the sweep stays at or below this.
AVERAGE_L4_MAX_SPREAD = 5.0

AVERAGE_L4_COLUMNS = ("k", "a_k", "a_k_over_log_k")


# Largest degree avg-l4 accepts.  The sum holds k + 1 terms, so the cap bounds
# its memory (tens of MB at the cap).
AVERAGE_L4_MAX_DEGREE = 2**20


@_one_blas_thread()
def average_l4_experiment(ks) -> ExperimentRun:
    """A_k = (2k+1)^(-1) sum_m ||Y_km||_4^4 for each k, with A_k / log k.

    By the Gaunt expansion of |Y_km|^2 and sum_m (k k L; m -m 0)^2 = 1/(2L+1),

        A_k = ((2k+1)/4pi) sum_{s=0..k} (k k 2s; 0 0 0)^2,

    an O(k) sum with no grid and no Legendre table.  The terms come from
    their exact ratio recurrence and are summed exactly (``math.fsum``), so
    A_k carries rounding error only, about 1e-16 relative against 40-digit
    sums for k up to 1024.  Degrees lie in 0..AVERAGE_L4_MAX_DEGREE; any
    other degree is a ValueError before the sweep starts.  The log ratio is
    reported for k >= 2; the outputs hold its band [min, max], the band's
    spread max/min and whether A_k strictly increases across the sweep.  Runs
    on one OpenBLAS thread.
    """
    ks = [int(k) for k in ks]
    for k in ks:
        if not 0 <= k <= AVERAGE_L4_MAX_DEGREE:
            digits = len(str(abs(k)))  # a long degree is named by its length
            got = k if digits <= 20 else f"a {digits}-digit degree"
            raise ValueError(
                f"avg-l4 degrees must lie in 0..{AVERAGE_L4_MAX_DEGREE} "
                f"(AVERAGE_L4_MAX_DEGREE), got {got}"
            )
    rows = []
    a_values = []
    for k in ks:
        a_k = (2 * k + 1) / (4.0 * math.pi) * math.fsum(_zonal_3j_squares(k))
        a_values.append(a_k)
        ratio = a_k / math.log(k) if k >= 2 else float("nan")
        rows.append({"k": k, "a_k": float(a_k), "a_k_over_log_k": float(ratio)})
    increasing = all(b > a for a, b in zip(a_values, a_values[1:]))
    ratios = [row["a_k_over_log_k"] for row in rows if row["k"] >= 2]
    low, high = (min(ratios), max(ratios)) if ratios else (float("nan"), float("nan"))
    spread = high / low
    certificate = {
        "integrand_exact": True,
        "method": "gaunt_sum",
        "note": "A_k = ((2k+1)/4pi) sum_s (k k 2s; 0 0 0)^2, summed exactly; no quadrature",
    }
    gates = [
        (
            spread <= AVERAGE_L4_MAX_SPREAD,
            f"A_k/log k in [{low:.6g}, {high:.6g}], spread {spread:.4g} "
            f"<= {AVERAGE_L4_MAX_SPREAD:g}",
        ),
        (increasing, "A_k strictly increasing across the sweep"),
    ]
    outputs = {"ratio_band": [low, high], "strictly_increasing": increasing, "band_spread": spread}
    return ExperimentRun(rows, certificate, outputs, gates)


# Envelope gate: max/min of the per-degree sup ratios stays at or below this.
ENVELOPE_MAX_SPREAD = 3.0

ENVELOPE_COLUMNS = ("k", "sup_ratio", "argmax_r", "pole_ratio")


# Polar distances scanned per degree by the envelope sweep, before the pole
# and branch points (2.0 / k and pi / 2) are added.
_ENVELOPE_COLATITUDES = 400


@_one_blas_thread()
def pointwise_envelope_experiment(ks) -> ExperimentRun:
    """Scan the envelope constant over polar distances for each degree.

    The scan uses a colatitude grid that is geometric near the pole (to
    resolve the r ~ 1/k caps) plus uniform coverage out to the equator, and
    adds the exact pole value; a flat per-k sup across the sweep is the
    sharpness evidence for the envelope.  The outputs hold the spread
    max/min of the per-k sups.  A degree whose (402, k+1) Legendre table
    would hold more than MAX_GRID_POINTS entries is a ValueError before any
    table is built.  Runs on one OpenBLAS thread.
    """
    ks = [int(k) for k in ks]
    for k in ks:
        if k < 2:
            raise ValueError(f"the pointwise envelope needs degrees k >= 2, got k = {k}")
        entries = (_ENVELOPE_COLATITUDES + 2) * (float(k) + 1.0)
        if entries > MAX_GRID_POINTS:
            raise ValueError(
                f"pointwise envelope table would need {entries:.6g} entries, cap is "
                f"{MAX_GRID_POINTS} (MAX_GRID_POINTS): degrees above "
                f"{MAX_GRID_POINTS // (_ENVELOPE_COLATITUDES + 2) - 1} are refused"
            )
    rows = []
    sups = []
    for k in ks:
        fine = np.geomspace(1e-3 / k, math.pi / 2.0, int(0.7 * _ENVELOPE_COLATITUDES))
        coarse = np.linspace(0.3, math.pi / 2.0, _ENVELOPE_COLATITUDES - fine.size)
        r_values = np.unique(np.concatenate([fine, coarse, [2.0 / k, math.pi / 2.0]]))
        ell4 = ell_p_profile(k, np.cos(r_values), 4.0)
        envelopes = np.array([pointwise_envelope(k, float(r)) for r in r_values])
        ratios = ell4 / envelopes
        idx = int(np.argmax(ratios))
        pole_ratio = zonal_sup_coefficient(k) / math.sqrt(k)
        sup_ratio = max(float(ratios[idx]), pole_ratio)
        argmax_r = 0.0 if pole_ratio >= float(ratios[idx]) else float(r_values[idx])
        sups.append(sup_ratio)
        rows.append(
            {
                "k": k,
                "sup_ratio": sup_ratio,
                "argmax_r": argmax_r,
                "pole_ratio": pole_ratio,
            }
        )
    spread = float(max(sups) / min(sups)) if sups else float("nan")
    gate = (
        spread <= ENVELOPE_MAX_SPREAD,
        f"per-k sup ratios stay within a factor {spread:.4g} <= {ENVELOPE_MAX_SPREAD:g} band",
    )
    return ExperimentRun(rows, outputs={"band_spread": spread}, gates=[gate])


MONTE_CARLO_COLUMNS = ("trial", "k", "lambda4", "seed")

# Random-ONB gate: the mean/benchmark ratio lies in this closed interval.
# The band is asymptotic: the exact Haar mean of the ratio is n/(n+1) with
# n = 2k+1, below 0.9 for k <= 3 and exactly 0.9 at k = 4, so the gate fails
# there by design (at k = 0 the ratio is exactly 1/2).
HAAR_RATIO_BAND = (0.9, 1.1)


@_one_blas_thread()
def monte_carlo_lambda4(k: int, trials: int, seed: int) -> ExperimentRun:
    """Monte Carlo estimate of the Haar average of the lambda4 functional.

    Each trial applies an independent Haar unitary to the standard basis and
    evaluates lambda4 on one shared band-k grid, which is exact for it.
    Trials draw from per-trial streams and run on one OpenBLAS thread, so
    the rows are bitwise reproducible for a fixed master seed under any
    execution order and on any core count (from about k = 64 on, only where
    ``_one_blas_thread`` finds its thread control).  The outputs hold the
    mean and its standard error in the geometric normalization of lambda4,
    the asymptotic benchmark (2k+1)/(2 pi) in that normalization (see
    ``random_bases``), and ``ratio`` = mean / benchmark with its standard
    error, the quantity expected to drift toward 1 as k grows.  The
    certificate describes the grid.
    """
    k = int(k)
    trials = int(trials)
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    grid = build_grid(k)
    values = np.empty(trials)
    for trial in range(trials):
        u = sample_haar_unitary(2 * k + 1, trial_rng(seed, trial))
        values[trial] = lambda4(CoefficientBasis(k, u), grid)
    seed = int(seed)
    mean, stderr = _mean_stderr(values)
    benchmark = (2 * k + 1) / (2.0 * math.pi)
    ratio, ratio_stderr = mean / benchmark, stderr / benchmark
    rows = [{"trial": i, "k": k, "lambda4": float(v), "seed": seed} for i, v in enumerate(values)]
    low, high = HAAR_RATIO_BAND
    gate = (low <= ratio <= high, f"mean/benchmark ratio {ratio:.4f} in [{low:g}, {high:g}]")
    summary = (
        f"k={k} trials={trials} seed={seed}",
        f"mean lambda4 {mean:.8f} +- {stderr:.8f} (geometric measure)",
        f"benchmark (2k+1)/(2pi) = {benchmark:.8f}",
        f"ratio {ratio:.6f} +- {ratio_stderr:.6f}",
    )
    outputs = {"mean": mean, "stderr": stderr, "benchmark": benchmark, "ratio": ratio,
               "ratio_stderr": ratio_stderr}
    return ExperimentRun(rows, grid.describe(), outputs, [gate], summary)


BEAM_EXPERIMENT_COLUMNS = (
    "k",
    "J",
    "delta",
    "method",
    "seed",
    "min_ret",
    "mean_ret",
    "gram_cond",
    "sum_l4",
)


@_one_blas_thread()
def beam_experiment(
    ks, deltas, j=None, exponent=None, method: str = "symmetric", seed: int = 0
) -> ExperimentRun:
    """Retention sweep over degrees and separation values; one row per (k, delta).

    The beam count is ``j`` when given (a fixed count, >= 1), else the
    exponent rule floor(k^(1 - exponent)) clamped to at least 1, with
    ``exponent`` in [0, 1] and 1/2 when not given; giving both is a
    ValueError, raised before any grid is built, as is an unknown ``method``
    or a separation outside ``packing_bound``'s range.
    Requested counts are clamped to packing_bound(delta) // 2, which the
    greedy axis placement cannot always reach: J = 40 at delta =
    0.316 (so the default count from k = 1600 at that delta) raises
    PackingInfeasibleError.  Each family's beam coefficient rows are
    orthonormalized by ``beams.orthonormalize``; retention is each row's
    fourth-power norm after orthonormalization over its norm before, both
    on the band-k grid.  Row columns follow BEAM_EXPERIMENT_COLUMNS; sum_l4
    is the family total of fourth-power norms after orthonormalization, to
    be read against the k log k growth of the standard full basis.
    ``seed`` is a non-negative int that only labels rows: delta number i
    reads seed + i in the seed column, and the deterministic axis placement
    reads no seed.  The one gate: every configuration
    orthonormalized, with a finite Gram condition number and a positive
    minimum retention.
    """
    _check_seed(seed)
    _check_method(method)
    if j is not None and exponent is not None:
        raise ValueError("give a fixed beam count j or a count exponent, not both")
    if j is not None and int(j) < 1:
        raise ValueError(f"a fixed beam count must be >= 1, got {int(j)}")
    exponent = 0.5 if exponent is None else float(exponent)
    if not 0.0 <= exponent <= 1.0:
        raise ValueError("beam-count exponent must lie in [0, 1]")
    deltas = [float(delta) for delta in deltas]
    bounds = [packing_bound(delta) for delta in deltas]
    rows = []
    for k in ks:
        k = int(k)
        grid = build_grid(k)
        j_req = int(j) if j is not None else max(1, int(math.floor(k ** (1.0 - exponent))))
        for idx, (delta, bound) in enumerate(zip(deltas, bounds)):
            count = min(j_req, max(1, bound // 2))
            axes = place_separated_axes(count, delta)
            coefficients = np.array([beam_coefficients(k, axis) for axis in axes])
            if count == 1:
                # One beam is already orthonormal; a 1 x 1 orthonormalization would only round.
                min_ret = mean_ret = gram_cond = 1.0
                sum_l4 = float(quartic_norms(k, coefficients, grid).sum())
            else:
                basis, gram_cond = orthonormalize(k, coefficients, method)
                l44_after = quartic_norms(k, basis.matrix, grid)
                retention = l44_after / quartic_norms(k, coefficients, grid)
                min_ret, mean_ret = float(retention.min()), float(retention.mean())
                sum_l4 = float(l44_after.sum())
            rows.append(
                {
                    "k": k,
                    "J": count,
                    "delta": delta,
                    "method": method,
                    "seed": int(seed) + idx,
                    "min_ret": min_ret,
                    "mean_ret": mean_ret,
                    "gram_cond": gram_cond,
                    "sum_l4": sum_l4,
                }
            )
    _warn_on_nonmonotone(rows)
    done = all(math.isfinite(row["gram_cond"]) and row["min_ret"] > 0.0 for row in rows)
    gate = (done, "orthonormalization completed for every configuration")
    return ExperimentRun(rows, outputs={"rows": len(rows)}, gates=[gate])


def _warn_on_nonmonotone(rows):
    """Smoke check: at fixed (k, J), retention should not fall as delta grows."""
    groups = {}
    for row in rows:
        groups.setdefault((row["k"], row["J"]), []).append(row)
    for key, group in groups.items():
        group = sorted(group, key=lambda r: r["delta"])
        for a, b in zip(group, group[1:]):
            if b["min_ret"] < a["min_ret"] - 1e-9:
                warnings.warn(
                    f"retention fell from {a['min_ret']:.6f} to {b['min_ret']:.6f} "
                    f"between delta {a['delta']} and {b['delta']} at (k, J) = {key}",
                    UserWarning,
                )


# Tube-ratio gate: every concentration ratio stays at or below this.
TUBE_RATIO_MAX = 1.0

TUBE_RATIO_COLUMNS = ("k", "label", "lam", "l4", "sup_arc_mass", "ratio")


def _arc_counts(ring, ids, n_phi):
    """Tube nodes per arc and ring, shape (_N_ARCS, n_phi), of the nodes with arc ``ids``."""
    keys = np.multiply(ids, n_phi, dtype=np.intp) + ring
    return np.bincount(keys, minlength=_N_ARCS * n_phi).reshape(_N_ARCS, n_phi)


@_one_blas_thread()
def tube_ratio_experiment(ks, oversample: float = 2.0) -> ExperimentRun:
    """Concentration-functional ratios across one eigenspace per degree.

    For each basis member (orders m >= 0; negative orders share the modulus)
    and one obliquely tilted beam, computes

        ratio = ||f||_4 / (lam^(1/8) * (sup tube-arc L2 norm)^(1/6) + 1)

    where the sup runs over width lam^(-1/2) tubes around a sampled set of
    great circles (equator axis plus a Fibonacci family of max(64, 4k) axes)
    cut into eight unit-length arcs.  The sampled sup can only undershoot the
    true one, which makes a boundedness gate on the ratio conservative.  The
    outputs hold the largest ratio.

    The tilted beam is Q_k turned to a = (1, 1, 1)/sqrt(3), read in closed
    form as c_k^2 (1 - (x . a)^2)^k, so its ``l4`` equals the ``m=k`` row's:
    a rotation-invariance check.
    """
    ks = [int(k) for k in ks]
    if ks and min(ks) < 1:
        raise ValueError(f"the tube ratio needs degrees k >= 1, got k = {min(ks)}")
    rows = []
    max_ratio = 0.0
    for k in ks:
        grid = build_grid(k, oversample)
        lam = math.sqrt(k * (k + 1))
        width = lam**-0.5
        axes = np.vstack([[[0.0, 0.0, 1.0]], fibonacci_axes(max(64, 4 * k))])

        table = normalized_legendre_table(k, grid.t)
        profiles = table**2
        labels = [f"m={m}" for m in range(k + 1)] + ["beam_tilted"]
        l4_norms = [profile_norm(grid, table[:, m], 4.0) for m in range(k + 1)]
        # c_k^2 (1 - (x . a)^2)^k in place; the clamp keeps a node at +-a from a NaN.
        beam_dens = grid.points() @ (np.ones(3) / math.sqrt(3.0))
        beam_dens *= beam_dens
        np.minimum(beam_dens, 1.0, out=beam_dens)
        np.log1p(np.negative(beam_dens, out=beam_dens), out=beam_dens)
        beam_dens *= k
        beam_dens += 2.0 * _sectoral_log(k)
        np.exp(beam_dens, out=beam_dens)
        l4_norms.append(grid.integrate(beam_dens * beam_dens) ** 0.25)
        beam_dens *= grid.ring_weight[:, None]

        # Standard members are longitude-independent, so an arc's mass needs
        # only its per-ring point counts; the tilted beam is summed per point.
        sup_mass = np.zeros(k + 2)
        for axis in axes:
            ring, col, (near, second) = arc_selections(grid, axis, width)
            both = np.flatnonzero(second >= 0)  # the nodes in two arcs
            counts = _arc_counts(ring, near, grid.n_phi)
            counts += _arc_counts(ring[both], second[both], grid.n_phi)
            tube_dens = beam_dens.ravel().take(ring * grid.n_theta + col)
            beam_mass = np.bincount(near, tube_dens, _N_ARCS)
            beam_mass += np.bincount(second[both], tube_dens[both], _N_ARCS)
            masses = np.column_stack([(grid.ring_weight * counts) @ profiles, beam_mass])
            np.maximum(sup_mass, masses.max(axis=0), out=sup_mass)
            # Free this axis's tube before the next one is selected.
            del ring, col, near, second, both, counts, tube_dens
        for label, l4, mass in zip(labels, l4_norms, sup_mass):
            denom = lam**0.125 * mass ** (1.0 / 12.0) + 1.0
            ratio = float(l4 / denom)
            max_ratio = max(max_ratio, ratio)
            rows.append(
                {
                    "k": k,
                    "label": label,
                    "lam": float(lam),
                    "l4": float(l4),
                    "sup_arc_mass": float(mass),
                    "ratio": ratio,
                }
            )
    certificate = {
        "integrand_exact": True,
        "oversample": oversample,
        "tube_width": "lam^(-1/2)",
        "arcs_per_circle": _N_ARCS,
        "arc_length": _ARC_LENGTH,
        "axis_sampling": "equator + fibonacci(max(64, 4k))",
    }
    max_ratio = float(max_ratio)
    gate = (
        max_ratio <= TUBE_RATIO_MAX,
        f"max concentration ratio {max_ratio:.4f} <= {TUBE_RATIO_MAX:.1f}",
    )
    return ExperimentRun(rows, certificate, {"max_ratio": max_ratio}, [gate])


# Superlevel gate: at the largest threshold constant C, the scaled measure
# stays at or below this.
SUPERLEVEL_MAX_SCALED = 1.0

SUPERLEVEL_COLUMNS = ("k", "c", "threshold", "measure", "scaled_measure")


@_one_blas_thread()
def superlevel_experiment(ks, c_grid=(0.25, 0.5, 1.0), oversample: float = 1.0) -> ExperimentRun:
    """Measure of {x : ell^4 sum >= C lam^(1/2)} scaled by lam^(1/2), per (k, C).

    The ell^4 sum depends on colatitude only, so each level set is read from
    the ring profile ``ell_p_profile(k, grid.t, 4)``.  The measure of a level
    set is a discretization, not a band-limited integral, so the certificate
    records the grid resolution instead of an exactness claim; the
    boundedness gate, on the largest C, tolerates the ring-width error.  A
    negative C is a ValueError before any grid is built.  Runs on one
    OpenBLAS thread.
    """
    c_grid = [float(c) for c in c_grid]
    if min(c_grid, default=0.0) < 0.0:
        raise ValueError(f"threshold constant C must be >= 0, got {min(c_grid):g}")
    rows = []
    grids = {}
    for k in ks:
        k = int(k)
        grid = build_grid(k, oversample)
        grids[k] = grid.describe()
        profile = ell_p_profile(k, grid.t, 4.0)
        sqrt_lam = math.sqrt(math.sqrt(k * (k + 1)))  # lam^(1/2), lam = sqrt(k(k+1))
        for c in c_grid:
            threshold = c * sqrt_lam
            measure = superlevel_measure(grid, profile, threshold)
            rows.append(
                {
                    "k": k,
                    "c": c,
                    "threshold": float(threshold),
                    "measure": float(measure),
                    "scaled_measure": float(sqrt_lam * measure),
                }
            )
    certificate = {
        "integrand_exact": False,
        "note": "level-set boundaries are resolved to one colatitude ring",
        "oversample": oversample,
        "grids": grids,
    }
    c_top = max(c_grid, default=math.nan)
    top = max((row["scaled_measure"] for row in rows if row["c"] == c_top), default=math.nan)
    gate = (
        top <= SUPERLEVEL_MAX_SCALED,
        f"scaled superlevel measure at C={c_top:g} bounded: max {top:.4g} "
        f"<= {SUPERLEVEL_MAX_SCALED:.1f}",
    )
    return ExperimentRun(rows, certificate, {"max_scaled_at_top_c": top}, [gate])


IDENTITY_CHECKS = ("l2_identity", "addition_theorem", "theta_identity", "gram_identity")

VERIFY_COLUMNS = ("check", "max_error", "tolerance", "worst_k", "passed")

_IDENTITY_TOLERANCES = {
    "l2_identity": 1e-10,
    "addition_theorem": 1e-10,
    "theta_identity": 1e-10,
    "gram_identity": 1e-11,
}


def _random_points(rng, count):
    xyz = rng.standard_normal((count, 3))
    return xyz / np.linalg.norm(xyz, axis=1, keepdims=True)


# Random point pairs per degree for the identity suite's per-point pass.
_SPOT_POINTS = 10


def _identity_gram(k: int, grid) -> np.ndarray:
    """Quadrature Gram matrix of the standard basis Y_k,-k..Y_kk on ``grid``.

    Synthesizing the identity coefficients gives ring i the values
    diag(R_i) Phi, with R = ``signed_order_table(k, grid.t)`` and
    Phi[m, j] = exp(i m theta_j), so the weighted sum of ring products
    sum_i w_i diag(R_i) Phi Phi^H diag(R_i) factors exactly into the
    entrywise product (Phi Phi^H) o (R^T diag(w) R): two O(k^3) products
    instead of one O(k^3) product per ring.
    """
    table = signed_order_table(k, grid.t)
    phases = _phases(k, grid.theta)
    return (phases @ phases.conj().T) * (table.T @ (grid.ring_weight[:, None] * table))


@_one_blas_thread()
def exact_identity_suite(k_max: int = 32, points: int = 100, seed: int = 0) -> ExperimentRun:
    """Worst-case errors of the four exact identities over random points.

    Per degree k = 1..k_max, at ``points`` random points each:

    * l2_identity: |sum_m |Y_km|^2 - (2k+1)/4pi| / (2k+1)
    * addition_theorem: |row(x) . conj(row(y)) - kernel(x, y)|, absolute
    * theta_identity: |2pi (ell4 norm)^4 - theta integral|, relative
    * gram_identity: max |Gram - I| over the full basis on the band-k grid

    The bulk sweep builds its colatitude tables with a second algorithm, the
    upward recurrence in degree; a second pass at ``_SPOT_POINTS`` pairs per
    degree runs the one-point entry points ell_p_sum and eval_basis_row,
    which use the downward recurrence in order, and folds into the same
    maxima.  Each pass reads theta_integral and projection_kernel once on all
    its points.  The Gram check integrates the
    standard basis against itself on the band-k grid, from the signed order
    table and the longitude phases that ``coefficient_field`` combines.  Each
    ring of the identity synthesis is diag(R_i) Phi, so the Gram matrix is
    (Phi Phi^H) o (R^T diag(w) R), an entrywise product of two O(k^3) matrix
    products, where the ring-by-ring sum costs O(k^4) per degree.  ``seed``
    is a non-negative int.  k_max is capped by the upward sweep's range
    (1024).  One row and one gate per check; the outputs hold the inputs,
    the checks by name and whether all passed.
    """
    _check_seed(seed)
    k_max = int(k_max)
    if not 1 <= k_max <= _UPWARD_MAX_DEGREE:
        raise ValueError(f"k_max must lie in 1..{_UPWARD_MAX_DEGREE}, the upward sweep's range")
    if int(points) < 1:
        raise ValueError("points must be >= 1")
    rng = np.random.default_rng(seed)
    worst = {name: (0.0, None) for name in IDENTITY_CHECKS}

    def update(name, err, k):
        if err > worst[name][0]:
            worst[name] = (float(err), int(k))

    for k in range(1, k_max + 1):
        n = 2 * k + 1
        diag = n / (4.0 * np.pi)
        x = _random_points(rng, points)
        y = _random_points(rng, points)
        # One sweep over both point sets: each point's column is independent.
        radial = _signed_orders(k, _upward_degree_table(k, np.concatenate([x[:, 2], y[:, 2]])))
        radial_x, radial_y = radial[:points], radial[points:]
        theta_x = np.arctan2(x[:, 1], x[:, 0])
        theta_y = np.arctan2(y[:, 1], y[:, 0])
        orders = np.arange(-k, k + 1)
        rows_x = radial_x * np.exp(1j * np.outer(theta_x, orders))
        rows_y = radial_y * np.exp(1j * np.outer(theta_y, orders))

        s2 = (radial_x**2).sum(axis=1)
        update("l2_identity", np.abs(s2 - diag).max() / n, k)

        inner = (rows_x * rows_y.conj()).sum(axis=1)
        kern = diag * legendre_p(k, (x * y).sum(axis=1))
        update("addition_theorem", np.abs(inner - kern).max(), k)

        lhs = 2.0 * np.pi * (radial_x**4).sum(axis=1)
        rhs = theta_integral(k, x[:, 2])
        update("theta_identity", (np.abs(lhs - rhs) / rhs).max(), k)

        # Pairs drawn one at a time; each entry point normalizes the rows itself.
        pts_a, pts_b = zip(*(_random_points(rng, 2) for _ in range(_SPOT_POINTS)))
        kern_spot = projection_kernel(k, pts_a, pts_b)
        theta_spot = theta_integral(k, [math.cos(_polar(pt)[0]) for pt in pts_a])
        for pt_a, pt_b, kern_ab, rhs_pt in zip(pts_a, pts_b, kern_spot, theta_spot):
            s2_pt = ell_p_sum(k, pt_a, 2.0) ** 2
            update("l2_identity", abs(s2_pt - diag) / n, k)
            err = abs(np.vdot(eval_basis_row(k, pt_b), eval_basis_row(k, pt_a)) - kern_ab)
            update("addition_theorem", err, k)
            lhs_pt = 2.0 * np.pi * ell_p_sum(k, pt_a, 4.0) ** 4
            update("theta_identity", abs(lhs_pt - rhs_pt) / rhs_pt, k)

        gram = _identity_gram(k, build_grid(k))
        update("gram_identity", np.abs(gram - np.eye(n)).max(), k)

    checks = {}
    for name in IDENTITY_CHECKS:
        err, at_k = worst[name]
        tol = _IDENTITY_TOLERANCES[name]
        checks[name] = {
            "max_error": err,
            "tolerance": tol,
            "worst_k": at_k,
            "passed": err <= tol,
        }
    rows = [{"check": name, **info} for name, info in checks.items()]
    gates = [
        (
            info["passed"],
            f"{name}: max error {info['max_error']:.3e} <= {info['tolerance']:.0e} "
            f"(worst at k={info['worst_k']})",
        )
        for name, info in checks.items()
    ]
    outputs = {
        "k_max": k_max,
        "points": int(points),
        "seed": int(seed),
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }
    return ExperimentRun(rows, outputs=outputs, gates=gates)
