"""One pass of one benchmark workload, in a fresh Python process.

Run by ``bench/run.py``; prints one JSON report as its last stdout line.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --work-dir DIR
    python3 bench/worker.py --setup-only

The pass times the import of ``spherelab.cli`` (set-up), then runs the
workload's jobs through ``spherelab.cli.main(argv)`` (and one direct library
call on ``haar_mc``), timing them as one block.  After the timed block, with
tracing off, it checks every output: the CLI's own [PASS]/[FAIL] gates,
independent oracles, and the rows against ``bench/reference.json``.  Only
the standard library is imported before the timed import.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

GAUSSIAN_K = 32
GAUSSIAN_SAMPLES = 5000

# Jobs per workload: (label, argv).  ``{seed}`` is replaced by the benchmark
# seed; every job also gets --out <file> --format json.  argv None is the
# direct gaussian_limit_check call, which takes the seed as well.
WORKLOADS = {
    "growth_sweep": [
        ("avg-l4", ["avg-l4", "--k-max", "1024"]),
        ("verify", ["verify", "--k-max", "64", "--seed", "{seed}"]),
        ("superlevel", ["superlevel", "--k-max", "512"]),
        ("pointwise", ["pointwise", "--k-max", "1024"]),
        ("scaling", ["scaling", "--family", "zonal", "--q", "inf", "--k-max", "512"]),
        ("norms", ["norms", "--k", "256", "--q", "4", "--q", "8", "--q", "inf"]),
    ],
    "haar_mc": [
        ("random-onb-32", ["random-onb", "--k", "32", "--trials", "200", "--seed", "{seed}"]),
        ("random-onb-64", ["random-onb", "--k", "64", "--trials", "40", "--seed", "{seed}"]),
        ("gaussian-limit", None),
    ],
    "beams_tubes": [
        ("beams", ["beams", "--k-min", "64", "--k-max", "128", "--seed", "{seed}"]),
        ("tube-ratio", ["tube-ratio"]),
    ],
}

IDENTITY_TOLERANCES = {
    "l2_identity": 1e-10,
    "addition_theorem": 1e-10,
    "theta_identity": 1e-10,
    "gram_identity": 1e-11,
}
CLOSED_FORM_RTOL = 1e-10
ROUND_TRIP_TOL = 1e-10
STDERR_WIDTH = 4.0


class Checks:
    """Counts operations and failures; keeps the worst oracle error and reference drift."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.oracle_err = 0.0
        self.ref_dev = 0.0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def oracle(self, err, tol, what):
        """An oracle passes when err <= tol; oracle_err keeps the worst err / tol."""
        if tol > 0.0 and math.isfinite(err):
            ratio = err / tol
        else:
            ratio = 0.0 if err == 0.0 else math.inf
        self.oracle_err = max(self.oracle_err, ratio)
        return self.record(ratio <= 1.0, f"{what}: error {err:.3e} > {tol:.1e}")


def _log_a(k):
    """log of the sectoral amplitude sqrt((2k+1)!/(4 pi)) / (2^k k!)."""
    return 0.5 * (math.lgamma(2 * k + 2) - math.log(4.0 * math.pi)) - k * math.log(2.0) - math.lgamma(k + 1)


def _log_wallis(n):
    """log of the integral of sin^n over [0, pi]."""
    return 0.5 * math.log(math.pi) + math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0 + 1.0)


def check_norms(checks, out, seed):
    for row in out["rows"]:
        if not row["label"].startswith("Q_") or row["q"] not in (4.0, 8.0):
            continue
        k = int(row["label"][2:])
        q = int(row["q"])
        oracle = 2.0 * math.pi * math.exp(q * _log_a(k) + _log_wallis(q * k + 1))
        checks.oracle(abs(row["norm"] ** q - oracle) / oracle, CLOSED_FORM_RTOL,
                      f"norms Q_{k} q={q} against the Wallis closed form")


def check_verify(checks, out, seed):
    found = {row["check"]: row for row in out["rows"]}
    checks.record(set(found) == set(IDENTITY_TOLERANCES), "verify: identity checks missing")
    for name, tol in IDENTITY_TOLERANCES.items():
        if name in found:
            checks.oracle(found[name]["max_error"], tol, f"verify {name}")


def check_avg_l4(checks, out, seed):
    import spherelab.quadrature as quadrature
    import spherelab.random_bases as random_bases

    k = 32
    row = next(r for r in out["rows"] if r["k"] == k)
    direct = random_bases.lambda4(random_bases.CoefficientBasis.identity(k), quadrature.build_grid(k))
    checks.oracle(abs(direct - (2 * k + 1) * row["a_k"]) / direct, CLOSED_FORM_RTOL,
                  "lambda4 of the identity basis at k=32 against (2k+1) A_32")


def check_random_onb(checks, out, seed):
    o = out["record"]["outputs"]
    n = 2 * out["record"]["params"]["k"] + 1
    checks.oracle(abs(o["ratio"] - n / (n + 1.0)), STDERR_WIDTH * o["ratio_stderr"],
                  f"random-onb n={n}: Haar mean ratio against n/(n+1)")


def check_gaussian(checks, out, seed):
    (r,) = out["rows"]
    n = 2 * r["k"] + 1
    checks.oracle(abs(r["second_moment"] - 1.0), STDERR_WIDTH * r["second_stderr"],
                  "gaussian-limit: E n|u11|^2 against 1")
    checks.oracle(abs(r["fourth_moment"] - 2.0 * n / (n + 1.0)), STDERR_WIDTH * r["fourth_stderr"],
                  "gaussian-limit: E (n|u11|^2)^2 against 2n/(n+1)")


def check_beams(checks, out, seed):
    import numpy as np
    import spherelab.beams as beams
    import spherelab.harmonics as harmonics
    import spherelab.quadrature as quadrature

    k = max(row["k"] for row in out["rows"])
    grid = quadrature.build_grid(k)
    axis = np.random.default_rng(seed).standard_normal(3)
    rebuilt = harmonics.coefficient_field(k, beams.beam_coefficients(k, axis, grid), grid)
    direct = harmonics.beam_field(k, axis, grid)
    err = float(np.max(np.abs(rebuilt.values - direct.values)))
    checks.oracle(err, ROUND_TRIP_TOL, f"beam round trip at k={k}")


def check_tube_ratio(checks, out, seed):
    worst = max(row["ratio"] for row in out["rows"])
    checks.oracle(worst, 1.0, "tube-ratio maximum against 1")


ORACLES = {
    "norms": check_norms,
    "verify": check_verify,
    "avg-l4": check_avg_l4,
    "random-onb-32": check_random_onb,
    "random-onb-64": check_random_onb,
    "gaussian-limit": check_gaussian,
    "beams": check_beams,
    "tube-ratio": check_tube_ratio,
}


def compare_rows(checks, label, rows, ref_rows):
    """Rows must match the reference in shape, labels and integers; floats report drift."""
    ok = len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        if set(row) != set(ref):
            ok = False
            break
        for key, want in ref.items():
            got = row[key]
            if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
                if math.isnan(want) or math.isnan(got):
                    ok &= math.isnan(want) and math.isnan(got)
                else:
                    drift = abs(got - want) / abs(want) if want else abs(got)
                    checks.ref_dev = max(checks.ref_dev, drift)
            else:
                ok &= got == want
    checks.record(ok, f"{label}: rows differ from the reference in shape or exact fields")


def run_jobs(workload, seed, work_dir, cli, random_bases, recorder):
    """Run the workload's jobs; returns (per-job results, wall seconds, cpu seconds)."""
    results = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for index, (label, argv) in enumerate(WORKLOADS[workload]):
        recorder.run_id = f"{workload}/{index}/{label}"
        out_path = os.path.join(work_dir, f"{label}.json")
        stdout = io.StringIO()
        status, report = None, None
        job_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                if argv is None:
                    report = random_bases.gaussian_limit_check(GAUSSIAN_K, GAUSSIAN_SAMPLES, seed)
                    status = 0
                else:
                    full = [a.format(seed=seed) for a in argv] + ["--out", out_path, "--format", "json"]
                    status = cli.main(full)
        except SystemExit as exc:
            status = exc.code
        except Exception:
            stdout.write(traceback.format_exc())
            status = "exception"
        results.append({"label": label, "status": status, "wall_s": time.perf_counter() - job_start,
                        "text": stdout.getvalue(),
                        "path": None if argv is None else out_path, "report": report})
    return results, time.perf_counter() - wall0, time.process_time() - cpu0


def check_jobs(workload, seed, results, checks, reference):
    """Every job is one operation; every gate line, oracle and reference comparison one more."""
    ref_jobs = reference.get(workload, {})
    out_bytes = 0
    rows_by_label = {}
    for res in results:
        label = res["label"]
        if not checks.record(res["status"] == 0, f"{label}: exit status {res['status']}"):
            sys.stderr.write(res["text"][-4000:])
            continue
        for line in res["text"].splitlines():
            if line.startswith("[PASS]") or line.startswith("[FAIL]"):
                checks.record(line.startswith("[PASS]"), f"{label}: {line}")
        if res["path"] is None:
            out = {"rows": [res["report"].to_dict()]}
        else:
            out_bytes += os.path.getsize(res["path"])
            with open(res["path"]) as fh:
                out = json.load(fh)
        rows_by_label[label] = out["rows"]
        try:
            if label in ORACLES:
                ORACLES[label](checks, out, seed)
        except Exception:
            sys.stderr.write(traceback.format_exc())
            checks.record(False, f"{label}: oracle raised")
        ref = ref_jobs.get(label)
        if ref is not None and (not ref["seeded"] or seed == reference["seed"]):
            compare_rows(checks, label, out["rows"], ref["rows"])
    return out_bytes, rows_by_label


def seeded(argv):
    """Whether a job's output depends on the benchmark seed."""
    return argv is None or "{seed}" in argv


def haar_trials(workload):
    """Haar unitaries drawn by one pass: random-onb trials plus Gaussian-check samples."""
    total = 0
    for label, argv in WORKLOADS[workload]:
        if argv is None:
            total += GAUSSIAN_SAMPLES
        elif argv[0] == "random-onb":
            total += int(argv[argv.index("--trials") + 1])
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--layer-metrics", default="", help="comma-separated per-layer names")
    parser.add_argument("--spans-out", help="write the traced spans here")
    parser.add_argument("--rows", action="store_true",
                        help="record mode: report the output rows, skip the reference comparison")
    parser.add_argument("--setup-only", action="store_true", help="time the import and exit")
    args = parser.parse_args()

    start = time.perf_counter()
    import spherelab.cli as cli
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spherelab.random_bases as random_bases
    from spans import SpanRecorder, layer_metrics

    recorder = SpanRecorder()
    if args.trace:
        recorder.install()
        recorder.on = True
    os.makedirs(args.work_dir, exist_ok=True)
    results, wall_s, cpu_s = run_jobs(args.workload, args.seed, args.work_dir, cli, random_bases,
                                      recorder)
    recorder.on = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {}
    if not args.rows:
        with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
            reference = json.load(fh)
    checks = Checks()
    out_bytes, rows = check_jobs(args.workload, args.seed, results, checks, reference)

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "job_wall_s": {res["label"]: res["wall_s"] for res in results},
        "oracle_err": checks.oracle_err,
        "ref_dev": checks.ref_dev,
        "out_bytes": out_bytes,
        "haar_trials": haar_trials(args.workload),
        "facts": machine_facts(),
    }
    if args.trace:
        names = [n for n in args.layer_metrics.split(",") if n]
        report["layers"] = layer_metrics(recorder.spans, names)
        report["spans"] = len(recorder.spans)
        if args.spans_out:
            recorder.dump(args.spans_out)
    if args.rows:
        report["rows"] = rows
    print(json.dumps(report))
    return 0


def machine_facts():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


if __name__ == "__main__":
    sys.exit(main())
