"""One timed call of a stochwave entry point in a fresh process.

Usage: python perfbench/child.py SPEC.json

SPEC names the generated config files (flat key=value, the format the
program reads), whether to trace, and where to write the result.  The
process times its own set-up (import, config resolution, grid and shared
initial state, all through public calls), then one call of the workload's
entry point, then checks the outputs it can only check here (SWV1
read-back).  The result goes to SPEC["result"] as JSON.  Exit code 3 means
stochwave could not be imported from SPEC["src"].
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _check_snapshots(summary, tau: float, load_snapshot, digest) -> list[str]:
    """Read every SWV1 file back; returns the problems found."""
    problems = []
    paths = summary["snapshots"]
    if not paths:
        problems.append("no snapshots written")
    for path in paths:
        try:
            step = int(os.path.basename(path)[len("snap_"):-len(".swv")])
            dim, points, t, u, v = load_snapshot(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: {exc}")
            continue
        if (dim != 1 or u.shape != (points,) or v.shape != (points,)
                or t != step * tau):
            problems.append(f"{path}: header dim={dim} points={points} t={t!r}")
        elif not (abs(u).max() < float("inf") and abs(v).max() < float("inf")):
            problems.append(f"{path}: non-finite samples")
        for name in (path, path[:-len(".swv")] + ".txt"):
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return problems


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    try:
        from stochwave import experiments
        from stochwave.integrators import NumericalError
        from stochwave.problems import build_initial, preset_problem
        from stochwave.spectral import load_snapshot, make_grid
    except ImportError as exc:
        print(f"cannot import stochwave: {exc}", file=sys.stderr)
        return 3
    if not os.path.abspath(experiments.__file__).startswith(spec["src"] + os.sep):
        print(f"stochwave imported from {experiments.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 3
    configs = [experiments.resolve_config(experiments.config_from_mapping(
        experiments.parse_config_file(path))) for path in spec["configs"]]
    cfg = configs[0]
    study = spec["kind"] == "study"
    dim, _, problem = preset_problem(cfg.preset, cfg.gamma, cfg.seed)
    n_cut = experiments.default_n_cut(cfg.tau_ref if study else cfg.tau)
    build_initial(problem.initial, make_grid(dim, n_cut, cfg.alpha))
    setup_s = time.perf_counter() - start

    tracer = absent = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        absent = tracer.install()

    out = {"setup_s": setup_s, "attempted": 0, "failed": 0, "problems": []}
    failure = (experiments.NumericalFailure, NumericalError)
    completed = False
    t0 = time.perf_counter()
    try:
        if study:
            out["attempted"] = cfg.n_samples * len(cfg.methods) * len(cfg.levels)
            reports = experiments.run_convergence(cfg)
            csv_path = experiments.emit_study(reports, cfg.out_dir)
        else:
            out["attempted"] = len(configs)
            with ThreadPoolExecutor(max_workers=spec["n_workers"]) as pool:
                summaries = list(pool.map(experiments.run_single, configs))
        completed = True
    except failure as exc:
        out["problems"].append(f"entry point raised {type(exc).__name__}: {exc}")
    except Exception:  # a defect in the program: report it at this boundary
        traceback.print_exc()
        out["problems"].append("entry point raised:\n" + traceback.format_exc())
    out["call_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_rss_mb()
    spans = tracer.spans() if tracer else None

    if not completed:
        out["failed"] = out["attempted"]
    elif study:
        with open(csv_path, "rb") as fh:
            out["digest"] = hashlib.sha256(fh.read()).hexdigest()
        out["failed"] = sum(row.excluded for rep in reports.values() for row in rep.rows)
        out["rows"] = [[m, row.tau, row.rms_error]
                       for m, rep in reports.items() for row in rep.rows]
    else:
        digest = hashlib.sha256()
        for c, summary in zip(configs, summaries):
            out["problems"] += _check_snapshots(summary, c.tau, load_snapshot, digest)
            digest.update(repr(summary["final_norm_pair"]).encode())
        out["digest"] = digest.hexdigest()
        out["rows"] = [[c.sample_index, s["final_norm_pair"]]
                       for c, s in zip(configs, summaries)]

    if tracer is not None:
        from tracing import layer_metrics
        root = "experiments.run_convergence" if study else "experiments.run_single"
        ref_tau = cfg.tau_ref if study else None
        ref_cut = experiments.default_n_cut(cfg.tau_ref) if study else None
        metrics, sample_ms = layer_metrics(spans, root, ref_tau, ref_cut)
        out.update(layers=metrics, sample_ms=sample_ms,
                   absent=absent + sorted(tracer.unmeasured))
        tracer.write_spans(spec["spans"])

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
