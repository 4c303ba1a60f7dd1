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


# The traced haar_mc layers: each Haar trial's lambda4 calls quartic_norms,
# which builds its one unsigned Legendre table inside its own span.
_HAAR_SCRIPT = """
import spherelab.cli
import spherelab.experiments as xp
from spans import SpanRecorder

rec = SpanRecorder()
rec.install()
rec.on = True
xp.monte_carlo_lambda4(3, trials=2, seed=0)
names = [span[0] for span in rec.spans]
for name in ("random_bases.lambda4", "random_bases.quartic_norms",
             "legendre.normalized_legendre_table"):
    assert names.count(name) == 2, (name, names)
for span in rec.spans:
    if span[0] == "legendre.normalized_legendre_table":
        assert rec.spans[span[3]][0] == "random_bases.quartic_norms", names
    if span[0] == "random_bases.quartic_norms":
        assert rec.spans[span[3]][0] == "random_bases.lambda4", names
"""


def _run_traced(script):
    src = str(Path(spherelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), src]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_span_recorder_installs_on_the_cli():
    _run_traced(_SCRIPT)


def test_span_recorder_traces_the_haar_layers():
    _run_traced(_HAAR_SCRIPT)
