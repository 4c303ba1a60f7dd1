"""Command line front end: a table of subcommands, one per experiment family.

Each table entry declares its flags and maps the parsed flags to one call of
an ``experiments`` function, which returns an ``experiments.ExperimentRun``,
and to the record's parameters and seed.  One generic path then prints the
run's rows and summary, one [PASS]/[FAIL] line per gate of the run, and
writes --out, the rows as CSV or inside the run record as JSON; this module
is the only one that writes a file.  Row columns, gates and thresholds all
come from ``experiments``; none is defined here.  Exit status: 0
when every gate passed, 1 when a gate failed, 2 for usage errors (bad
flags, or domain errors the library raises before a sweep starts).
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import experiments as xp
from ._version import __version__

# A refused allocation (say, --trials far beyond memory) and a degree beyond the
# double range are reported like a bad flag; the library's own refusals
# (grid, packing, rank) are ValueErrors.
_USAGE_ERRORS = (ValueError, MemoryError, OverflowError)

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


def _csv_cell(value) -> str:
    """One CSV cell: true/false, integers, shortest round-trip floats, else str."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _plain_json(obj):
    """obj with numpy scalars and arrays as Python values and non-str keys as json.dumps(key)."""
    if isinstance(obj, dict):
        return {
            key if isinstance(key, str) else json.dumps(key): _plain_json(val)
            for key, val in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_plain_json(val) for val in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain_json(val) for val in obj.tolist()]
    return obj


def _emit(args, columns, run, params, seed, elapsed) -> None:
    """Write --out: the rows as CSV, or the rows inside the run record as JSON."""
    if not args.out:
        return
    with open(args.out, "w") as fh:
        if args.format == "csv":
            fh.write(",".join(columns) + "\n")
            for row in run.rows:
                fh.write(",".join(_csv_cell(row[col]) for col in columns) + "\n")
        else:
            record = {"name": args.command, "params": params, "grid": run.certificate,
                      "seed": seed, "outputs": run.outputs,
                      "wall_clock_s": round(elapsed, 3), "version": __version__}
            payload = {"record": record, "columns": columns,
                       "rows": [{col: row[col] for col in columns} for row in run.rows]}
            json.dump(_plain_json(payload), fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(f"wrote {args.out}")


@dataclass(frozen=True)
class _Subcommand:
    help: str
    flags: tuple  # _flag pairs, added before the shared _OUTPUT_FLAGS
    run: Callable  # parsed flags -> (ExperimentRun, params, seed)
    columns: tuple
    print_rows: bool


# The subcommand table, in help order.  Each entry's run function maps the
# parsed flags to one experiment call and returns (run, params, seed).
_SUBCOMMANDS = {}


def _subcommand(name, help_text, columns, *flags, print_rows=True):
    def register(run):
        _SUBCOMMANDS[name] = _Subcommand(help_text, flags, run, columns, print_rows)
        return run

    return register


def _flag(name, help_text, **kwargs):
    """One (flag, add_argument keyword arguments) pair of a subcommand's flag list."""
    return name, dict(help=help_text, **kwargs)


_OUTPUT_FLAGS = (
    _flag("--out", "write the row table to this path"),
    _flag("--format", "format for --out; json wraps the rows in the run record",
          choices=("csv", "json"), default="csv"),
)


def _oversample(default=1.0):
    return _flag("--oversample", f"grid oversampling factor (default {default})",
                 type=_finite_float, default=default)


def _krange(k_min, k_max):
    return (
        _flag("--k-min", f"lowest degree (default {k_min})", type=int, default=k_min),
        _flag("--k-max", f"highest degree, swept by doubling (default {k_max})",
              type=int, default=k_max),
    )


@_subcommand(
    "norms", "L^q norms of the zonal / highest-weight / standard fields", xp.NORM_COLUMNS,
    _flag("--k", "degree", type=int, required=True),
    _flag("--m", "also include the order-m element", type=int, default=None),
    _flag("--q", "norm exponent, repeatable, 'inf' allowed (default 4)",
          action="append", type=_parse_q),
    _oversample(),
)
def _run_norms(args):
    qs = args.q or [4.0]
    params = {"k": args.k, "m": args.m, "q": [float(q) for q in qs], "oversample": args.oversample}
    return xp.norms_experiment(args.k, qs, args.m, args.oversample), params, None


@_subcommand(
    "avg-l4", "eigenspace-averaged fourth-power norms against log k", xp.AVERAGE_L4_COLUMNS,
    *_krange(8, 256),
)
def _run_avg_l4(args):
    ks = _doubling_ks(args.k_min, args.k_max)
    if ks[-1] < 2:
        raise ValueError("avg-l4 needs some k >= 2 for the A_k/log k band; raise --k-max")
    return xp.average_l4_experiment(ks), {"ks": ks}, None


@_subcommand(
    "scaling", "growth exponent fit for one family of harmonics", xp.SCALING_COLUMNS,
    _flag("--family", "which family to fit",
          choices=("zonal", "highest-weight"), default="highest-weight"),
    _flag("--q", "norm exponent ('inf' allowed)", type=_parse_q, default=4.0),
    *_krange(16, 256), _oversample(),
)
def _run_scaling(args):
    family = args.family.replace("-", "_")
    ks = _doubling_ks(args.k_min, args.k_max)
    params = {"family": family, "q": float(args.q), "ks": ks, "oversample": args.oversample}
    return xp.scaling_experiment(family, args.q, ks, args.oversample), params, None


@_subcommand(
    "pointwise", "sharpness sweep of the pointwise ell^4 envelope", xp.ENVELOPE_COLUMNS,
    *_krange(8, 256),
)
def _run_pointwise(args):
    ks = _doubling_ks(args.k_min, args.k_max)
    return xp.pointwise_envelope_experiment(ks), {"ks": ks}, None


@_subcommand(
    "random-onb", "Monte Carlo fourth-power functional of Haar bases", xp.MONTE_CARLO_COLUMNS,
    _flag("--k", "degree (default 32)", type=int, default=32),
    _flag("--trials", "number of Haar trials (default 200)", type=int, default=200),
    _flag("--seed", "master seed (default 0)", type=int, default=0),
    print_rows=False,
)
def _run_random_onb(args):
    run = xp.monte_carlo_lambda4(args.k, args.trials, args.seed)
    return run, {"k": args.k, "trials": args.trials}, args.seed


@_subcommand(
    "beams", "separated-beam families and orthonormalization retention",
    xp.BEAM_EXPERIMENT_COLUMNS,
    _flag("--k", "degree when no sweep range is given", type=int, default=64),
    _flag("--k-min", "sweep start (doubling)", type=int, default=None),
    _flag("--k-max", "sweep end", type=int, default=None),
    _flag("--delta", "separation angle, repeatable", action="append", type=_finite_float),
    _flag("--j", "fixed beam count request", type=int, default=None),
    _flag("--exponent", "beam-count rule J = k^(1 - exponent) instead of a fixed count",
          type=_finite_float, default=None),
    _flag("--method", "orthonormalization method",
          choices=("symmetric", "sequential"), default="symmetric"),
    _flag("--seed", "axis placement seed", type=int, default=0),
)
def _run_beams(args):
    if args.k_min is not None:
        ks = _doubling_ks(args.k_min, args.k_max if args.k_max is not None else args.k_min)
    elif args.k_max is not None:
        raise ValueError("--k-max needs --k-min; use --k for a single degree")
    else:
        ks = [args.k]
    deltas = args.delta or [0.5, 0.35, 0.25]
    run = xp.beam_experiment(ks, deltas, j=args.j, exponent=args.exponent,
                             method=args.method, seed=args.seed)
    params = {"ks": ks, "deltas": [float(d) for d in deltas], "method": args.method,
              "j": args.j, "exponent": args.exponent}
    return run, params, args.seed


@_subcommand(
    "tube-ratio", "tube concentration functional across eigenspaces", xp.TUBE_RATIO_COLUMNS,
    *_krange(8, 64), _oversample(default=2.0),
)
def _run_tube_ratio(args):
    ks = _doubling_ks(args.k_min, args.k_max)
    params = {"ks": ks, "oversample": args.oversample}
    return xp.tube_ratio_experiment(ks, args.oversample), params, None


@_subcommand(
    "superlevel", "measures of ell^4-sum superlevel sets", xp.SUPERLEVEL_COLUMNS,
    *_krange(16, 256),
    _flag("--c", "threshold constant C (repeatable; default 0.25 0.5 1.0)",
          action="append", type=_finite_float),
    _oversample(),
)
def _run_superlevel(args):
    ks = _doubling_ks(args.k_min, args.k_max)
    cs = sorted(float(c) for c in (args.c or [0.25, 0.5, 1.0]))
    params = {"ks": ks, "c_grid": cs, "oversample": args.oversample}
    return xp.superlevel_experiment(ks, cs, args.oversample), params, None


@_subcommand(
    "verify", "run the exact-identity suite", xp.VERIFY_COLUMNS,
    _flag("--k-max", "check all degrees up to this (default 32)", type=int, default=32),
    _flag("--points", "random points per degree (default 100)", type=int, default=100),
    _flag("--seed", "random point seed", type=int, default=0),
    print_rows=False,
)
def _run_verify(args):
    run = xp.exact_identity_suite(args.k_max, args.points, args.seed)
    return run, {"k_max": args.k_max, "points": args.points}, args.seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelab",
        description="Numerical laboratory for fourth-power norms of spherical harmonics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.flags + _OUTPUT_FLAGS:
            p.add_argument(flag, **kwargs)
    return parser


def _check_degrees(args) -> None:
    """Refuse a degree flag beyond the double range and a negative --k, naming the flag.

    A negative --k-min is refused by ``_doubling_ks``.
    """
    for name in ("k", "k_min", "k_max"):
        value = getattr(args, name, None)
        if value is not None and abs(value) > sys.float_info.max:
            raise ValueError(f"--{name.replace('_', '-')} is beyond the double range: "
                             f"a {len(str(abs(value)))}-digit degree")
    if getattr(args, "k", None) is not None and args.k < 0:
        raise ValueError("--k must be >= 0")


def _check_out(args) -> None:
    """Refuse an --out path that cannot be written before the experiment runs."""
    if not args.out:
        return
    if os.path.isdir(args.out):
        raise ValueError(f"--out {args.out} is a directory")
    folder = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ValueError(f"--out {args.out} cannot be written: no writable directory {folder}")


def _run(args) -> int:
    """Run one subcommand: print its rows, summary and gates, then write --out."""
    _check_degrees(args)
    _check_out(args)
    command = _SUBCOMMANDS[args.command]
    start = time.perf_counter()
    run, params, seed = command.run(args)
    elapsed = time.perf_counter() - start
    if command.print_rows:
        _print_rows(command.columns, run.rows)
    for line in run.summary:
        print(line)
    for passed, text in run.gates:
        print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    _emit(args, command.columns, run, params, seed, elapsed)
    return 0 if all(passed for passed, _ in run.gates) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
