"""stochwave benchmark: coupled-study throughput, set-up time and memory.

Usage (from the repository root):

    python3 perfbench/run.py --workload rough_1d --seed 0 --seconds 10 --trace 0

Every timed call runs in a fresh child process (perfbench/child.py) that
imports stochwave from ./src, so the table caches a study fills are paid on
every call, as users pay them.  Workload configs live in
perfbench/workloads.json; the seed becomes the study seed and only the
generated key=value config reaches the program.

--trace 0 alternates n_workers=1 and n_workers=2 calls for --seconds (at
least MIN_PAIRS of each) and reports the end-to-end metrics of
BENCHMARK.json: the two throughputs over all calls of their kind, set-up
time and peak RSS as medians over the calls.  --trace 1 alternates untraced
and traced n_workers=1 calls and reports the per-layer metrics from the
traced ones (perfbench/tracing.py), plus the tracing overhead.

The shared host's speed moves by tens of percent within seconds and drifts
over minutes, more than a run can average out.  So the parent times a fixed
numpy kernel (Calibration) before the first call and after every call, and
the two throughputs are scaled to a host on which that kernel takes
REF_CAL_S: each call's time is multiplied by REF_CAL_S / (the mean of the
kernel times around it).  The wall-clock throughputs are printed beside
them.

Both modes check the outputs: every call of a run must give identical
bytes (convergence.csv, or the snapshot files and final norm), each row
must match the values recorded in perfbench/recorded.json for the seed to
RTOL relative when the seed has recorded values, SWV1 files must read back,
and traced counts must repeat exactly.  A failed check is named on stderr
and the command exits 1 after printing its result line.  Exit 2 means the
program could not be run at all; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RTOL = 1e-12          # the last-bit drift a reordered error sum may cause
MIN_PAIRS = 2         # fewest calls of each of the two kinds in one run
CHILD_TIMEOUT = 60    # seconds; a call takes a few
CAL_SIZE = 2**19      # entries of the calibration arrays, as rough_1d's full band
CAL_REPS = 6
REF_CAL_S = 0.26      # the kernel's median time on the 2-vCPU Xeon the bounds were set on


class Unavailable(RuntimeError):
    """The program could not be imported or a child process broke."""


def _load(name: str):
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


def _write_config(path: Path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in mapping.items())


def _child(kind: str, configs: list[Path], n_workers: int, trace: bool,
           workdir: Path, tag: str) -> dict:
    spec = {"kind": kind, "src": str(ROOT / "src"), "configs": [str(p) for p in configs],
            "n_workers": n_workers, "trace": trace,
            "result": str(workdir / f"{tag}.result.json"),
            "spans": str(OUT / f"{workdir.name}.spans.tsv")}
    spec_path = workdir / f"{tag}.spec.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [spec["src"]] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise Unavailable(f"{tag}: child process exceeded {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise Unavailable(f"{tag}: child exited {proc.returncode}\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return _load(spec["result"])


class Run:
    """The child calls of one benchmark run of one workload."""

    def __init__(self, name: str, workload: dict, seed: int):
        self.name = name
        self.kind = "study" if workload["entry"] == "run_convergence" else "single"
        self.workload = workload
        self.seed = seed
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.calls = 0
        self.units = (int(workload["config"]["n_samples"]) if self.kind == "study"
                      else len(workload["sample_indices"]))

    def call(self, n_workers: int, trace: bool) -> dict:
        """One fresh-process call; its outputs are deleted once checked."""
        self.calls += 1
        tag = f"call{self.calls:03d}"
        out_dir = self.dir / tag
        base = dict(self.workload["config"], seed=str(self.seed))
        configs = []
        if self.kind == "study":
            path = self.dir / f"{tag}.cfg"
            _write_config(path, dict(base, n_workers=str(n_workers), out_dir=str(out_dir)))
            configs.append(path)
        else:
            for index in self.workload["sample_indices"]:
                path = self.dir / f"{tag}.{index}.cfg"
                _write_config(path, dict(base, sample_index=str(index),
                                         out_dir=str(out_dir / f"path{index}")))
                configs.append(path)
        result = _child(self.kind, configs, n_workers, trace, self.dir, tag)
        shutil.rmtree(out_dir, ignore_errors=True)
        result.update(n_workers=n_workers, trace=trace)
        return result


class Calibration:
    """A fixed numpy kernel (FFT round trips and a weighted norm on
    2^19-entry arrays, the operations that dominate the studies) whose time
    tracks the speed the host gives the benchmark at the moment."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal(CAL_SIZE) + 1j * rng.standard_normal(CAL_SIZE)
        self.weights = rng.random(CAL_SIZE)
        self.times = []

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(CAL_REPS):
            y = np.fft.ifft(np.fft.fft(self.x))
            np.sum(self.weights * (y.real**2 + y.imag**2))
        self.times.append(time.perf_counter() - start)
        return self.times[-1]


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """(value, percentile rank): the highest percentile with at least ten
    samples beyond it; the maximum (rank 100) when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1], 100.0) if ordered else (0.0, 0.0)
    return ordered[n - 11], 100.0 * (n - 10) / n


def check(results: list[dict], recorded, trace: bool) -> list[str]:
    """Names (with details) of the correctness checks that failed."""
    failures = []
    for r in results:
        failures += [f"entry_point: {p}" for p in r["problems"]]
    digests = {r.get("digest") for r in results}
    if len(digests) != 1 or None in digests:
        kinds = sorted({f"workers={r['n_workers']} traced={r['trace']}" for r in results})
        failures.append(f"identical_outputs: {len(digests)} distinct outputs over {kinds}")
    if recorded is not None:
        for r in results:
            if "rows" not in r:
                continue
            got = {tuple(row[:-1]): row[-1] for row in r["rows"]}
            want = {tuple(row[:-1]): row[-1] for row in recorded}
            if got.keys() != want.keys():
                failures.append(f"recorded_values: rows {sorted(got)} != recorded {sorted(want)}")
                break
            bad = [k for k in want if abs(got[k] - want[k]) > RTOL * abs(want[k])]
            if bad:
                failures.append("recorded_values: " + ", ".join(
                    f"{k}: {got[k]!r} vs recorded {want[k]!r}" for k in bad))
                break
    if trace:
        traced = [r for r in results if r["trace"] and "layers" in r]
        for name in COUNTS:
            seen = {r["layers"][name] for r in traced}
            if len(seen) > 1:
                failures.append(f"counts_repeat: {name} took values {sorted(seen)}")
    return failures


def end_to_end(run: Run, results: list[dict]) -> tuple[dict, dict]:
    """The metric values, and a line of detail on each."""
    values, detail = {}, {}
    for name, workers in (("samples_per_s", 1), ("samples_per_s_w2", 2)):
        calls = [r for r in results if r["n_workers"] == workers]
        units = run.units * len(calls)
        values[name] = units / sum(r["call_s"] * REF_CAL_S / r["cal_s"] for r in calls)
        detail[name] = (f"{len(calls)} calls; wall clock "
                        f"{units / sum(r['call_s'] for r in calls):.5g}")
    for name, vals in (("setup_s", [r["setup_s"] for r in results]),
                       ("peak_rss_mb", [r["peak_rss_mb"] for r in results
                                        if r["n_workers"] == 1])):
        q1, _, q3 = statistics.quantiles(vals, n=4)
        values[name] = _median(vals)
        detail[name] = f"median of {len(vals)}; q1 {q1:.5g} q3 {q3:.5g}"
    return values, detail


def per_layer(results: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in results if r["trace"]]
    plain = [r for r in results if not r["trace"]]
    values = {name: _median([r["layers"][name] for r in traced])
              for name in traced[0]["layers"]}
    samples = [ms for r in traced for ms in r["sample_ms"]]
    tail, rank = _tail(samples)
    base = _median([r["call_s"] for r in plain])
    with_trace = _median([r["call_s"] for r in traced])
    values.update({
        "experiments.sample_ms.p50": _median(samples),
        "experiments.sample_ms.tail": tail,
        "experiments.sample_ms.tail_rank": rank,
        "experiments.sample_ms.count": len(samples),
        "trace.untraced_s": base,
        "trace.traced_s": with_trace,
        "trace.overhead_frac": (with_trace - base) / base,
    })
    return values, traced[-1]["absent"]


def main() -> int:
    bench = _load(ROOT / "BENCHMARK.json")
    spec = _load(HERE / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")
    trace = bool(args.trace)

    run = Run(args.workload, spec["workloads"][args.workload], args.seed)
    # (n_workers, traced) of the two calls of each pair
    pair = ((1, False), (1, True)) if trace else ((1, False), (2, False))
    results = []
    calibrate = Calibration()
    start = time.perf_counter()
    try:
        calibrate()
        # whole pairs only, and none that would end past --seconds
        while True:
            elapsed = time.perf_counter() - start
            pairs = len(results) // 2
            if pairs >= MIN_PAIRS and elapsed * (pairs + 1) / pairs > args.seconds:
                break
            for kind in pair:
                results.append(run.call(*kind))
                before = calibrate.times[-1]
                results[-1]["cal_s"] = (before + calibrate()) / 2
    except Unavailable as exc:
        print(f"perfbench: cannot run {args.workload}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    recorded = _load(HERE / "recorded.json").get(args.workload, {}).get(str(args.seed))
    failures = check(results, recorded, trace)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    import scipy
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(results)} calls in {elapsed:.1f} s  python {platform.python_version()}  "
          f"numpy {np.__version__}  scipy {scipy.__version__}  nproc {os.cpu_count()}")
    print(f"calibration kernel: median {_median(calibrate.times):.4g} s over "
          f"{len(calibrate.times)} (REF_CAL_S {REF_CAL_S} s)")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} runs)  "
          f"recorded values: {'checked' if recorded is not None else 'none for this seed'}")
    metrics = {}
    if trace:
        values, absent = per_layer(results)
        for m in bench["per_layer"]:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
        if absent:
            print(f"absent or unmeasured layers (reported as 0): {', '.join(absent)}")
    else:
        values, detail = end_to_end(run, results)
        for m in bench["end_to_end"]:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<18} {value:>10.5g} {m['unit']:<5} {detail[m['name']]}")
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
