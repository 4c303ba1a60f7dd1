"""Record bench/reference.json: every workload's output rows at seed 0.

    python3 bench/record_reference.py

Run from the repository root, on the commit whose outputs become the
reference.  The benchmark compares later outputs against these rows: exact
for row counts, labels and integers, as a reported drift for floats.
"""

import json
import os
import subprocess
import sys

from worker import BENCH_DIR, WORKLOADS, seeded

SEED = 0


def main():
    root = os.path.dirname(BENCH_DIR)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    work_dir = os.path.join(BENCH_DIR, "out", "record")
    reference = {"seed": SEED}
    for workload, jobs in WORKLOADS.items():
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
               "--seed", str(SEED), "--work-dir", work_dir, "--rows"]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if report["failed"]:
            sys.exit(f"{workload}: {report['failures']}")
        reference[workload] = {
            label: {"seeded": seeded(argv), "rows": report["rows"][label]} for label, argv in jobs
        }
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
