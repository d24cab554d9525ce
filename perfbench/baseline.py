"""Summarise the run records under .perfbench/results into one baseline.

    python3 perfbench/baseline.py > perfbench/baseline.json

For every workload it gives each end-to-end metric's median and quartiles
over the untraced runs, and each per-layer metric's median over the traced
runs, together with the seeds, the run count and the environment of the
runs (which must all come from one commit).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

STATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench")


def summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main() -> int:
    records = []
    for path in sorted(glob.glob(os.path.join(STATE, "results", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        print("no run records under .perfbench/results", file=sys.stderr)
        return 1
    shas = {r["env"]["git_sha"] for r in records}
    if len(shas) != 1:
        print(f"records come from several commits: {sorted(shas)}", file=sys.stderr)
        return 1
    env = {k: v for k, v in records[-1]["env"].items() if k not in ("seed", "argv")}
    out = {"env": env, "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            names = runs[0]["metrics"]
            entry[key] = {
                "runs": len(runs),
                "seeds": sorted(r["env"]["seed"] for r in runs),
                "all_correct": all(r["correct"] for r in runs),
                "metrics": {name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                                       unit=names[name]["unit"]) for name in names},
            }
        out["workloads"][workload] = entry
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
