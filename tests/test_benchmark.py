"""The benchmark harness's own selftest passes against the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """Traced and untraced ops print the same bytes, spans nest, and the
    tracer's hooks (on ``_glue``, ``vertex_raw`` and ``TSeries.__mul__``
    among others) install and come off cleanly."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
