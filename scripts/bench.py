#!/usr/bin/env python3
"""Size ladder: wall time, peak RSS and Q of fixed mlmod runs.

Runs each row below as one ``mlmod`` command in a fresh Python process, so
that the process's peak RSS (``ru_maxrss``) is the row's own, and writes
``BENCH_<label>.json`` at the repository root.  Each row records the git
SHA of the checkout (with ``-dirty`` when tracked files differ from it),
the workload, the supra size, the seed, the wall time of the command
after ``import mlmod`` (input reading, detection and writing), the
process's peak RSS and the ``q_total`` of its result documents (their
mean for ``compare``).

Rows:
    karate-compare        compare on the ten-layer karate replica
    karate-replica-detect mspec detect at 10 and 15 layers (supra 340 and
                          510, the dense path)
    synth-detect          mspec detect on two layers of G(N, 8/N) from
                          ``perfbench/workloads.synth_edges`` at supra 512,
                          1k, 2k, 4k, 8k and 16k, rho = 0.5 couplings

Every row uses seed 3006.

Usage:
    python scripts/bench.py LABEL

Set ``OPENBLAS_NUM_THREADS=1`` as the benchmark host does; the value in
effect is recorded in the file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from mlmod.io import load_result  # noqa: E402
from workloads import (  # noqa: E402
    SYNTH_GAMMA, SYNTH_OMEGA, synth_coupled_nodes, synth_edges,
)

SEED = 3006
SYNTH_SIZES = (512, 1024, 2048, 4096, 8192, 16384)  # supra sizes, two layers each

# The measured process: time one CLI call after imports, report its own peak RSS.
CHILD = """
import json, resource, sys, time
from mlmod.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "wall_s": time.perf_counter() - start,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def git_sha() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_synth(directory: str, supra: int, seed: int) -> list[str]:
    """Edge, layer and coupling files of a two-layer synthetic instance;
    the ``detect`` arguments that read them."""
    n = supra // 2
    paths = [os.path.join(directory, f"synth.{name}") for name in ("edges", "layers", "couplings")]
    rows = ["# layerId nodeId nodeId"]
    for layer, (i, j) in enumerate(synth_edges(n, seed), start=1):
        rows += [f"{layer} {a} {b}" for a, b in zip((i + 1).tolist(), (j + 1).tolist())]
    texts = [rows, ["# layerId aspectId label", "1 1 x", "2 1 y"],
             ["# nodeId layerA aspectA layerB aspectB"]
             + [f"{node} 1 1 2 1" for node in (synth_coupled_nodes(n, seed) + 1).tolist()]]
    for path, lines in zip(paths, texts):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return ["detect", "--input", paths[0], "--layers-file", paths[1],
            "--couplings-file", paths[2], "--nodes", str(n), "--gamma", repr(SYNTH_GAMMA),
            "--omega", repr(SYNTH_OMEGA), "--algorithm", "mspec", "--seed", str(seed)]


def rows(work: str, seed: int):
    """(workload, supra size, CLI arguments without --out) of every row."""
    yield ("karate-compare", 340, ["compare", "--dataset", "karate-replica", "--layers", "10",
                                   "--omega", "1.0", "--seed", str(seed)])
    for layers in (10, 15):
        yield ("karate-replica-detect", 34 * layers,
               ["detect", "--dataset", "karate-replica", "--layers", str(layers),
                "--omega", "1.0", "--algorithm", "mspec", "--seed", str(seed)])
    for supra in SYNTH_SIZES:
        directory = os.path.join(work, f"synth{supra}")
        os.makedirs(directory)
        yield ("synth-detect", supra, write_synth(directory, supra, seed))


def run_row(argv: list[str], out: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", out],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"row {' '.join(argv)} failed:\n{proc.stderr}")
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    if measured.pop("code") != 0:
        raise SystemExit(f"row {' '.join(argv)} exited non-zero:\n{proc.stderr}")
    documents = sorted(glob.glob(os.path.join(out, "**", "*.txt"), recursive=True))
    qs = [load_result(path)[0].q_total for path in documents
          if os.path.basename(path).startswith(("result_", "compare_rho"))]
    return dict(measured, q_total=statistics.fmean(qs), documents=len(qs))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    args = parser.parse_args()
    sha = git_sha()
    table = []
    with tempfile.TemporaryDirectory(prefix="mlmod-bench-") as work:
        for k, (workload, size, argv) in enumerate(rows(work, SEED)):
            row = {"git_sha": sha, "workload": workload, "size": size, "seed": SEED,
                   **run_row(argv, os.path.join(work, f"out{k}"))}
            print(json.dumps(row), flush=True)
            table.append(row)
    record = {
        "label": args.label,
        "env": {"python": platform.python_version(), "machine": platform.machine(),
                "nproc": os.cpu_count(),
                "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "rows": table,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
