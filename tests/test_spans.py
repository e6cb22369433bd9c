"""Guard on the benchmark's span list: every function the traced run wraps
must still exist under the name it is looked up by."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# evaluate no longer calls mcmc_predict_batch; the benchmark still lists its span
KNOWN_ABSENT = ["mcmc.mcmc_predict_batch"]


def test_only_the_known_span_is_absent():
    # Tracer.install patches bpmf modules process-wide, so it runs in a child
    script = ("import json, spans; tracer = spans.Tracer(); tracer.install(); "
              "print(json.dumps(tracer.absent))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "benchmarks",
                         env={**os.environ, "PYTHONPATH": path}, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == KNOWN_ABSENT
