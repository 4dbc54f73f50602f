"""Import hygiene: what ``import stochwave`` loads, and that the entry
points load nothing more once it has."""

import os
import subprocess
import sys

import stochwave as sw

PROBE = """
import os, sys, tempfile
import stochwave as sw
from stochwave.experiments import emit_study
before = set(sys.modules)
with tempfile.TemporaryDirectory() as d:
    reports = sw.run_convergence(sw.ExperimentConfig(
        preset=2, methods=("hr_lri", "stm"), n_samples=2, levels=(2**-3, 2**-4),
        n_workers=2))
    emit_study(reports, os.path.join(d, "study"))
    sw.run_single(sw.ExperimentConfig(preset=1, tau=2**-4, snapshot_stride=2,
                                      out_dir=os.path.join(d, "run")))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def run_python(code):
    """stdout of ``code`` in a fresh interpreter that imports this stochwave."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_scipy():
    loaded = run_python("import sys, stochwave; print(' '.join(sys.modules))")
    assert "stochwave.noise" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_entry_points_import_nothing_more():
    # numpy 2 loads numpy.fft and numpy.random on first use; the package
    # imports both itself, so that cost falls on import, not inside a call
    assert run_python(PROBE) == []
