"""Command line front end: one subcommand per experiment family, with gates.

Every subcommand prints its numbers and, where the quantity has a pinned
expectation, one [PASS]/[FAIL] line per gate.  Exit status: 0 when every
gate passed, 1 when a gate failed, 2 for usage errors (bad flags, or domain
errors the library raises before a sweep starts).
"""

import argparse
import math
import sys
import time

from . import experiments as xp
from ._version import __version__
from .beams import (
    BEAM_EXPERIMENT_COLUMNS,
    PackingInfeasibleError,
    RankDeficiencyError,
    beam_count_rule,
    beam_experiment,
)
from .harmonics import highest_weight_field, standard_field, zonal_field
from .quadrature import GridResolutionError, build_grid, lp_norm
from .random_bases import MONTE_CARLO_COLUMNS, monte_carlo_lambda4

NORM_COLUMNS = ("label", "q", "band", "norm")
SCALING_COLUMNS = ("k", "band", "norm")
VERIFY_COLUMNS = ("check", "max_error", "tolerance", "worst_k", "passed")

_USAGE_ERRORS = (
    ValueError,
    GridResolutionError,
    PackingInfeasibleError,
    RankDeficiencyError,
)

_PRINT_LIMIT = 24


def _parse_q(text: str) -> float:
    """argparse type for norm exponents: 'inf' is allowed, nan is a usage error."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for float flags: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _doubling_ks(k_min: int, k_max: int) -> list:
    """Degrees k_min, 2 k_min, 4 k_min, ... up to k_max."""
    k_min = int(k_min)
    k_max = int(k_max)
    if k_min < 1:
        raise ValueError("--k-min must be >= 1")
    if k_max < k_min:
        raise ValueError("--k-max must be >= --k-min")
    ks = [k_min]
    while ks[-1] * 2 <= k_max:
        ks.append(ks[-1] * 2)
    return ks


def _gate(ok: bool, text: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    return bool(ok)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _print_rows(columns, rows) -> None:
    print(",".join(columns))
    for row in rows[:_PRINT_LIMIT]:
        print(",".join(_cell(row[col]) for col in columns))
    if len(rows) > _PRINT_LIMIT:
        print(f"... {len(rows) - _PRINT_LIMIT} more rows (use --out to keep them all)")


def _emit(args, name, params, grid_info, seed, outputs, columns, rows, elapsed) -> None:
    if not getattr(args, "out", None):
        return
    if args.format == "csv":
        xp.write_csv(args.out, columns, rows)
    else:
        record = xp.ExperimentRecord(
            name=name,
            params=params,
            grid=grid_info or {},
            seed=seed,
            outputs=outputs,
            wall_clock_s=round(elapsed, 3),
        )
        xp.write_json(args.out, record, columns, rows)
    print(f"wrote {args.out}")


def cmd_norms(args) -> int:
    k = int(args.k)
    qs = args.q or [4.0]
    start = time.perf_counter()
    rows = []
    grids = {}
    for q in qs:
        band = k if math.isinf(q) else max(k, int(math.ceil(q * k / 4.0)))
        if band not in grids:
            grids[band] = build_grid(band, args.oversample)
        grid = grids[band]
        fields = [zonal_field(k, grid), highest_weight_field(k, grid)]
        if args.m is not None:
            fields.append(standard_field(k, args.m, grid))
        for f in fields:
            rows.append({"label": f.label, "q": float(q), "band": band, "norm": lp_norm(f, q)})
    _print_rows(NORM_COLUMNS, rows)
    _emit(
        args,
        "norms",
        {"k": k, "m": args.m, "q": [float(q) for q in qs], "oversample": args.oversample},
        {"bands": sorted(grids)},
        None,
        {},
        NORM_COLUMNS,
        rows,
        time.perf_counter() - start,
    )
    return 0


def cmd_avg_l4(args) -> int:
    ks = _doubling_ks(args.k_min, args.k_max)
    if ks[-1] < 2:
        raise ValueError("avg-l4 needs some k >= 2 for the A_k/log k band; raise --k-max")
    result, elapsed = xp.timed(xp.average_l4_experiment, ks, args.oversample)
    _print_rows(xp.AVERAGE_L4_COLUMNS, result.rows)
    lo, hi = result.ratio_band
    ok = _gate(
        result.band_spread <= 5.0,
        f"A_k/log k in [{lo:.6g}, {hi:.6g}], spread {result.band_spread:.4g} <= 5",
    )
    ok &= _gate(result.strictly_increasing, "A_k strictly increasing across the sweep")
    _emit(
        args,
        "avg-l4",
        {"ks": ks, "oversample": args.oversample},
        result.certificate,
        None,
        {"ratio_band": list(result.ratio_band), "strictly_increasing": result.strictly_increasing},
        xp.AVERAGE_L4_COLUMNS,
        result.rows,
        elapsed,
    )
    return 0 if ok else 1


def cmd_scaling(args) -> int:
    family = args.family.replace("-", "_")
    ks = _doubling_ks(args.k_min, args.k_max)
    fit, elapsed = xp.timed(xp.scaling_experiment, family, args.q, ks, args.oversample)
    rows = [
        {"k": k, "band": fit.certificate["bands"][k], "norm": fit.certificate["norms"][k]}
        for k in ks
    ]
    _print_rows(SCALING_COLUMNS, rows)
    print(
        f"fit: exponent {fit.exponent:.6f} (target {fit.target:.6f}), "
        f"residual rms {fit.residual_rms:.2e}, lambda-variable exponent "
        f"{fit.exponent_lambda:.6f}"
    )
    ok = _gate(
        abs(fit.exponent - fit.target) <= 0.02,
        f"|exponent - target| = {abs(fit.exponent - fit.target):.4f} <= 0.02",
    )
    ok &= _gate(fit.residual_rms <= 0.05, f"log-log residual rms {fit.residual_rms:.2e} <= 0.05")
    _emit(
        args,
        "scaling",
        {"family": family, "q": float(args.q), "ks": ks, "oversample": args.oversample},
        fit.certificate,
        None,
        fit.to_dict(),
        SCALING_COLUMNS,
        rows,
        elapsed,
    )
    return 0 if ok else 1


def cmd_pointwise(args) -> int:
    ks = _doubling_ks(args.k_min, args.k_max)
    result, elapsed = xp.timed(xp.pointwise_envelope_experiment, ks)
    _print_rows(xp.ENVELOPE_COLUMNS, result.rows)
    ok = _gate(
        result.band_spread <= 3.0,
        f"per-k sup ratios stay within a factor {result.band_spread:.4g} <= 3 band",
    )
    _emit(
        args,
        "pointwise",
        {"ks": ks},
        {},
        None,
        {"band_spread": result.band_spread},
        xp.ENVELOPE_COLUMNS,
        result.rows,
        elapsed,
    )
    return 0 if ok else 1


def cmd_random_onb(args) -> int:
    result, elapsed = xp.timed(
        monte_carlo_lambda4, args.k, args.trials, args.seed, None, args.oversample
    )
    print(f"k={result.k} trials={result.trials} seed={result.seed}")
    print(f"mean lambda4 {result.mean:.8f} +- {result.stderr:.8f} (geometric measure)")
    print(f"benchmark (2k+1)/(2pi) = {result.benchmark:.8f}")
    print(f"ratio {result.ratio:.6f} +- {result.ratio_stderr:.6f}")
    ok = _gate(0.9 <= result.ratio <= 1.1, f"mean/benchmark ratio {result.ratio:.4f} in [0.9, 1.1]")
    _emit(
        args,
        "random-onb",
        {"k": result.k, "trials": result.trials, "oversample": args.oversample},
        build_grid(result.k, args.oversample).describe(),
        result.seed,
        {
            "mean": result.mean,
            "stderr": result.stderr,
            "benchmark": result.benchmark,
            "ratio": result.ratio,
            "ratio_stderr": result.ratio_stderr,
        },
        MONTE_CARLO_COLUMNS,
        result.rows(),
        elapsed,
    )
    return 0 if ok else 1


def cmd_beams(args) -> int:
    if args.k_min is not None:
        ks = _doubling_ks(args.k_min, args.k_max if args.k_max is not None else args.k_min)
    else:
        ks = [int(args.k)]
    deltas = args.delta or [0.5, 0.35, 0.25]
    if args.j is not None and args.exponent is not None:
        raise ValueError("--j and --exponent are mutually exclusive")
    if args.j is not None:
        j_rule = int(args.j)
    elif args.exponent is not None:
        j_rule = beam_count_rule(args.exponent)
    else:
        j_rule = None
    start = time.perf_counter()
    rows = []
    for k in ks:
        rows.extend(beam_experiment(k, deltas, j_rule=j_rule, method=args.method, seed=args.seed))
    elapsed = time.perf_counter() - start
    _print_rows(BEAM_EXPERIMENT_COLUMNS, rows)
    ok = _gate(
        all(math.isfinite(row["gram_cond"]) and row["min_ret"] > 0.0 for row in rows),
        "orthonormalization completed for every configuration",
    )
    _emit(
        args,
        "beams",
        {
            "ks": ks,
            "deltas": [float(d) for d in deltas],
            "method": args.method,
            "j": args.j,
            "exponent": args.exponent,
        },
        {},
        args.seed,
        {"rows": len(rows)},
        BEAM_EXPERIMENT_COLUMNS,
        rows,
        elapsed,
    )
    return 0 if ok else 1


def cmd_tube_ratio(args) -> int:
    ks = _doubling_ks(args.k_min, args.k_max)
    result, elapsed = xp.timed(xp.tube_ratio_experiment, ks, args.oversample)
    _print_rows(xp.TUBE_RATIO_COLUMNS, result.rows)
    ok = _gate(result.max_ratio <= 1.0, f"max concentration ratio {result.max_ratio:.4f} <= 1.0")
    _emit(
        args,
        "tube-ratio",
        {"ks": ks, "oversample": args.oversample},
        result.certificate,
        None,
        {"max_ratio": result.max_ratio},
        xp.TUBE_RATIO_COLUMNS,
        result.rows,
        elapsed,
    )
    return 0 if ok else 1


def cmd_superlevel(args) -> int:
    ks = _doubling_ks(args.k_min, args.k_max)
    cs = sorted(float(c) for c in (args.c or [0.25, 0.5, 1.0]))
    result, elapsed = xp.timed(xp.superlevel_experiment, ks, cs, args.oversample)
    _print_rows(xp.SUPERLEVEL_COLUMNS, result.rows)
    c_top = max(cs)
    top = [row["scaled_measure"] for row in result.rows if row["c"] == c_top]
    ok = _gate(
        max(top) <= 1.0,
        f"scaled superlevel measure at C={c_top:g} bounded: max {max(top):.4g} <= 1.0",
    )
    _emit(
        args,
        "superlevel",
        {"ks": ks, "c_grid": cs, "oversample": args.oversample},
        result.certificate,
        None,
        {"max_scaled_at_top_c": max(top)},
        xp.SUPERLEVEL_COLUMNS,
        result.rows,
        elapsed,
    )
    return 0 if ok else 1


def cmd_verify(args) -> int:
    suite, elapsed = xp.timed(xp.exact_identity_suite, args.k_max, args.points, args.seed)
    rows = [{"check": name, **info} for name, info in suite["checks"].items()]
    ok = True
    for row in rows:
        ok &= _gate(
            row["passed"],
            f"{row['check']}: max error {row['max_error']:.3e} <= {row['tolerance']:.0e} "
            f"(worst at k={row['worst_k']})",
        )
    _emit(
        args,
        "verify",
        {"k_max": args.k_max, "points": args.points},
        {},
        args.seed,
        suite,
        VERIFY_COLUMNS,
        rows,
        elapsed,
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelab",
        description="Numerical laboratory for fourth-power norms of spherical harmonics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_output(p):
        p.add_argument("--out", help="write the row table to this path")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="format for --out; json wraps the rows in the run record",
        )

    def add_oversample(p, default=1.0):
        p.add_argument(
            "--oversample",
            type=_finite_float,
            default=default,
            help=f"grid oversampling factor (default {default})",
        )

    def add_krange(p, k_min, k_max):
        p.add_argument("--k-min", type=int, default=k_min, help=f"lowest degree (default {k_min})")
        p.add_argument(
            "--k-max",
            type=int,
            default=k_max,
            help=f"highest degree, swept by doubling (default {k_max})",
        )

    p = sub.add_parser("norms", help="L^q norms of the zonal / highest-weight / standard fields")
    p.add_argument("--k", type=int, required=True, help="degree")
    p.add_argument("--m", type=int, default=None, help="also include the order-m element")
    p.add_argument(
        "--q",
        action="append",
        type=_parse_q,
        help="norm exponent, repeatable, 'inf' allowed (default 4)",
    )
    add_oversample(p)
    add_output(p)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("avg-l4", help="eigenspace-averaged fourth-power norms against log k")
    add_krange(p, 8, 256)
    add_oversample(p)
    add_output(p)
    p.set_defaults(func=cmd_avg_l4)

    p = sub.add_parser("scaling", help="growth exponent fit for one family of harmonics")
    p.add_argument(
        "--family",
        choices=("zonal", "highest-weight"),
        default="highest-weight",
        help="which family to fit",
    )
    p.add_argument("--q", type=_parse_q, default=4.0, help="norm exponent ('inf' allowed)")
    add_krange(p, 16, 256)
    add_oversample(p)
    add_output(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("pointwise", help="sharpness sweep of the pointwise ell^4 envelope")
    add_krange(p, 8, 256)
    add_output(p)
    p.set_defaults(func=cmd_pointwise)

    p = sub.add_parser("random-onb", help="Monte Carlo fourth-power functional of Haar bases")
    p.add_argument("--k", type=int, default=32, help="degree (default 32)")
    p.add_argument("--trials", type=int, default=200, help="number of Haar trials (default 200)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    add_oversample(p)
    add_output(p)
    p.set_defaults(func=cmd_random_onb)

    p = sub.add_parser("beams", help="separated-beam families and orthonormalization retention")
    p.add_argument("--k", type=int, default=64, help="degree when no sweep range is given")
    p.add_argument("--k-min", type=int, default=None, help="sweep start (doubling)")
    p.add_argument("--k-max", type=int, default=None, help="sweep end")
    p.add_argument(
        "--delta", action="append", type=_finite_float, help="separation angle, repeatable"
    )
    p.add_argument("--j", type=int, default=None, help="fixed beam count request")
    p.add_argument(
        "--exponent",
        type=_finite_float,
        default=None,
        help="beam-count rule J = k^(1 - exponent) instead of a fixed count",
    )
    p.add_argument(
        "--method",
        choices=("symmetric", "sequential"),
        default="symmetric",
        help="orthonormalization method",
    )
    p.add_argument("--seed", type=int, default=0, help="axis placement seed")
    add_output(p)
    p.set_defaults(func=cmd_beams)

    p = sub.add_parser("tube-ratio", help="tube concentration functional across eigenspaces")
    add_krange(p, 8, 64)
    add_oversample(p, default=2.0)
    add_output(p)
    p.set_defaults(func=cmd_tube_ratio)

    p = sub.add_parser("superlevel", help="measures of ell^4-sum superlevel sets")
    add_krange(p, 16, 256)
    p.add_argument(
        "--c",
        action="append",
        type=_finite_float,
        help="threshold constant C (repeatable; default 0.25 0.5 1.0)",
    )
    add_oversample(p)
    add_output(p)
    p.set_defaults(func=cmd_superlevel)

    p = sub.add_parser("verify", help="run the exact-identity suite")
    p.add_argument("--k-max", type=int, default=32, help="check all degrees up to this (default 32)")
    p.add_argument("--points", type=int, default=100, help="random points per degree (default 100)")
    p.add_argument("--seed", type=int, default=0, help="random point seed")
    add_output(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
