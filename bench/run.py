"""spherelab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload growth_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads, metric names and units are those
of ``BENCHMARK.json``; ``bench/NOTES.md`` says why each workload exists.

Every measurement happens in a fresh Python process (``bench/worker.py``)
with ``src`` on ``PYTHONPATH`` and the BLAS thread count pinned to at most
the number of usable cores.  One untimed import warms the bytecode cache.
Then whole passes of the workload run, each in its own process, until
``--seconds`` have gone by (at least one pass); before each pass
``SETUP_SAMPLES_PER_PASS`` processes only time ``import spherelab.cli``.
End-to-end values are medians over passes, set-up the median over every
timed import, the passes' own included.

With ``--trace 1`` the passes alternate untraced and traced (at least one
of each); the per-layer metrics are medians over the traced passes and
``trace.overhead_s`` is the traced minus the untraced median wall time.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds the machine facts; the full
record, with every pass, goes to ``bench/out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES_PER_PASS = 3
# A run must end within 180 s: no pass starts that would be expected to end
# after RUN_BUDGET_S, and a pass still running then is killed.
RUN_BUDGET_S = 165.0


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class Runner:
    """Starts worker processes one at a time and stops each before the next."""

    def __init__(self, env, started):
        self.env = env
        self.started = started

    def worker(self, extra):
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 0:
            return None, "run budget exhausted"
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + extra
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            return None, f"worker killed after {remaining:.0f} s"
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"worker exited with status {proc.returncode}"
        return json.loads(lines[-1]), None


def time_setup(runner):
    """Seconds a fresh process takes to import spherelab.cli; exits if it cannot."""
    report, error = runner.worker(["--setup-only"])
    if error:
        fail(f"cannot import spherelab: {error}")
    return report["setup_s"]


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"no BENCHMARK.json in {ROOT}")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "spherelab", "cli.py")):
        fail(f"no spherelab sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        threads = min(nproc, int(env.get("OPENBLAS_NUM_THREADS", nproc)))
    except ValueError:
        threads = nproc
    threads = max(1, threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    # Time imports from cached bytecode, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    runner = Runner(env, started)

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        time_setup(runner)
        setup = []

        layer_names = ",".join(m["name"] for m in spec["per_layer"])
        passes, lost = [], []
        measure_start = time.monotonic()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            index = len(passes) + len(lost)
            extra = ["--workload", args.workload, "--seed", str(args.seed),
                     "--trace", str(int(traced)), "--work-dir", work_dir]
            if traced:
                extra += ["--layer-metrics", layer_names,
                          "--spans-out", os.path.join(OUT_DIR, f"{tag}-pass{index}-spans.json")]
            setup += [time_setup(runner) for _ in range(SETUP_SAMPLES_PER_PASS)]
            pass_start = time.monotonic()
            report, error = runner.worker(extra)
            if error:
                lost.append(error)
                print(f"error: pass {index}: {error}", file=sys.stderr)
                break
            report["traced"] = traced
            passes.append(report)
            now = time.monotonic()
            need_both = args.trace == 1 and len(passes) < 2
            if now - measure_start >= args.seconds and not need_both:
                break
            if now - started + (now - pass_start) > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        fail("no complete pass; see the errors above")
    setup += [p["setup_s"] for p in passes]
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)

    wall = median([p["wall_s"] for p in plain])
    values = {
        "setup_s": median(setup),
        "wall_s": wall,
        "cpu_s": median([p["cpu_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    if args.trace:
        for name in traced[0]["layers"]:
            values[name] = median([p["layers"][name] for p in traced])
        values["trace.wall_s"] = median([p["wall_s"] for p in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        values["random_bases.trials_per_s"] = plain[0]["haar_trials"] / wall
        values["cli.out_bytes"] = median([p["out_bytes"] for p in passes])
    values["health.oracle_err"] = max(p["oracle_err"] for p in passes)
    values["health.ref_dev"] = max(p["ref_dev"] for p in passes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {', '.join(missing)}")

    attempted = sum(p["attempted"] for p in passes) + len(lost)
    failed = sum(p["failed"] for p in passes) + len(lost)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": cpu_model(),
        "blas_threads": threads,
        "git_commit": git_commit(),
        **passes[0]["facts"],
        "passes": len(passes),
        "setup_samples": len(setup),
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"facts": facts, "result": result, "all_values": values, "setup": setup,
                   "passes": passes, "lost": lost}, fh, indent=1)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
