"""The benchmark's recorded numbers, recomputed in process.

``perfbench/recorded.json`` holds, per workload and seed, the rows that
``perfbench/run.py`` requires every timed call to reproduce: (method, tau,
rms error) for a study and (sample index, final pair norm) for a single
run.  Here each workload's config from ``perfbench/workloads.json`` runs at
seed 0 and its rows are compared at the benchmark's relative tolerance, so
a change that moves an output fails the tests, not only the benchmark.
Neither file is written.
"""

import json
from pathlib import Path

import pytest

from stochwave import experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RTOL = 1e-12   # perfbench/run.py's tolerance on the recorded values

WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
RECORDED = json.loads((PERFBENCH / "recorded.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_rows_at_seed_0(name, tmp_path):
    workload = WORKLOADS[name]
    mapping = dict(workload["config"], seed="0", out_dir=str(tmp_path))
    want = {tuple(row[:-1]): row[-1] for row in RECORDED[name]["0"]}
    if workload["entry"] == "run_convergence":
        config = experiments.resolve_config(experiments.config_from_mapping(mapping))
        reports = experiments.run_convergence(config)
        got = {(m, row.tau): row.rms_error for m, rep in reports.items() for row in rep.rows}
    else:
        # the first sample index alone; the others are the same path code
        index = workload["sample_indices"][0]
        config = experiments.resolve_config(experiments.config_from_mapping(
            dict(mapping, sample_index=str(index))))
        got = {(index,): experiments.run_single(config)["final_norm_pair"]}
        want = {key: want[key] for key in got}
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=RTOL, abs=0), key
