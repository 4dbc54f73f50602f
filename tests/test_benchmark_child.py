"""The benchmark's child process against this package.

``perfbench/child.py`` is the one process that times stochwave for the
benchmark: it imports the package, resolves generated key=value configs,
calls ``run_convergence`` or ``run_single`` and, when tracing, wraps the
package's public functions by name.  Here it runs unchanged, in a process
of its own, on tiny configs, so that a change which breaks what it calls
fails the tests and not only the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochwave as sw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# span names the tracer expects but finds no longer measurable: layers that
# refactors removed (spectral.diff_norm, spectral.project_band and the two
# kernels) and integrators.run, whose result no longer carries steps and a
# wall time
STALE = {"spectral.diff_norm", "spectral.project_band", "kernels.weighted_norm_sq",
         "kernels.propagate", "integrators.run"}

# the step layers the traced study must pass through, and its exact counts:
# 46 steps on the chunk (32 at tau_ref = 2^-7, then 2, 4 and 8 at the levels;
# hr_lri and stm share them), each one inverse and one forward transform and
# one 2x2 pass, plus the study's one exact flow
STEP_LAYERS = ("spectral.inverse.s", "spectral.forward.s",
               "spectral.pseudospectral_apply.self_s", "semigroup.apply.s")
STUDY_COUNTS = {"spectral.fft.calls": 92, "semigroup.apply.calls": 47}

CONFIGS = {
    "study": [{"dim": "1", "preset": "2", "gamma": "0.5", "methods": "hr_lri,stm",
               "levels": "0.125,0.0625,0.03125", "n_samples": "2", "n_workers": "1"}],
    "single": [{"dim": "1", "preset": "1", "methods": "hr_lri", "tau": "0.0625",
                "sample_index": "0"}],
}


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_child_runs_the_package(tmp_path, kind, trace):
    configs = []
    for i, mapping in enumerate(CONFIGS[kind]):
        path = tmp_path / f"{i}.cfg"
        mapping = dict(mapping, seed="0", out_dir=str(tmp_path / f"out{i}"))
        path.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()), encoding="utf-8")
        configs.append(str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    spec = {"kind": kind, "src": src, "configs": configs, "n_workers": 1, "trace": trace,
            "result": str(tmp_path / "result.json"), "spans": str(tmp_path / "spans.tsv")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(spec_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["problems"] == []
    assert result["attempted"] > 0 and result["failed"] == 0
    assert result["digest"] and result["rows"]
    if trace:
        assert set(result["absent"]) <= STALE, result["absent"]
        assert result["layers"]
        layers = result["layers"]
        if kind == "study":
            assert all(layers[name] > 0 for name in STEP_LAYERS), layers
            assert {name: layers[name] for name in STUDY_COUNTS} == STUDY_COUNTS
        else:
            # the plot files are written through write_plot_data, by name
            assert layers["experiments.write_plot_data.s"] > 0
            sizes = [p.stat().st_size for p in (tmp_path / "out0").glob("snap_*.txt")]
            assert sizes and layers["experiments.emit.bytes"] == sum(sizes)
