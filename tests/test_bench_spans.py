"""The traced benchmark wraps spherelab callables by name; keep those names alive."""

import os
import subprocess
import sys
from pathlib import Path

import spherelab

BENCH = Path(__file__).resolve().parents[1] / "bench"

_SCRIPT = """
import spherelab.cli as cli
from spans import SpanRecorder

rec = SpanRecorder()
rec.install()
rec.on = True
assert cli.main(["norms", "--k", "4"]) == 0
names = {span[0] for span in rec.spans}
assert "cli._emit" in names, sorted(names)
"""


def test_span_recorder_installs_on_the_cli():
    src = str(Path(spherelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), src]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
