"""Record the values perfbench/run.py checks each workload's output against.

Usage (from the repository root):

    python3 perfbench/record.py            # seeds 0-9
    python3 perfbench/record.py 0 7 42     # the given seeds

Runs one n_workers=1 call of every workload per seed and writes
perfbench/recorded.json: per workload and seed, the rms_error of every
(method, tau) row of convergence.csv, or for snapshots_1d the final pair
norm of every path.  Recording replaces the gate, so record only from a
commit whose results are trusted.
"""

from __future__ import annotations

import json
import sys

from run import HERE, Run, _load


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]] or list(range(10))
    workloads = _load(HERE / "workloads.json")["workloads"]
    recorded = {}
    for name, workload in workloads.items():
        for seed in seeds:
            result = Run(name, workload, seed).call(1, False)
            if result["problems"] or result["failed"]:
                print(f"{name} seed {seed}: {result['problems']}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = result["rows"]
            print(f"{name} seed {seed}: {len(result['rows'])} rows")
    with open(HERE / "recorded.json", "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
