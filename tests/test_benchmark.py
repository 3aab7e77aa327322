"""The benchmark harness's own selftest passes against the package, and
every name its tracer looks up exists in the package."""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402


def test_benchmark_selftest_passes():
    """Traced and untraced ops print the same bytes, spans nest, and the
    tracer's hooks (on ``_glue``, ``vertex_raw`` and ``TSeries.__mul__``
    among others) install and come off cleanly."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_names_exist_in_their_layers():
    """A renamed function or class would otherwise leave its span or
    counter silently at zero."""
    names = [tuple(key.split(".", 1)) for key in tracer.HOOKS]
    names += list(tracer.EXTRA_SPANS) + list(tracer.CLASS_SPANS)
    names += list(tracer.UNTRACED)
    for layer, attr in names:
        assert layer in tracer.LAYERS, layer
        module = importlib.import_module("crepant." + layer)
        assert hasattr(module, attr), f"crepant.{layer}.{attr}"
    for layer, name in tracer.CLASS_SPANS:
        cls = getattr(importlib.import_module("crepant." + layer), name)
        for dunder in tracer.CLASS_DUNDERS:
            assert dunder in vars(cls), f"crepant.{layer}.{name}.{dunder}"
