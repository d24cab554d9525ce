#!/usr/bin/env python3
"""The check set: fixed mlmod runs whose documents must stay byte-identical.

``write`` runs every command of the check set, each in a fresh Python
process with one BLAS thread, and records ``CHECKSET.json`` at the
repository root.  For every file a run writes it stores the SHA-256 of its
bytes; for a result document also a digest of its soft labels, of its
divisions' beta values and of its labels, and its ``q_total`` as written.

``verify`` runs the same commands and lists every document that moved,
with the fields that moved, in the order bytes, soft labels, beta, labels,
q_total: a document whose labels or ``q_total`` moved is a changed result,
one where only bytes, soft labels or beta moved changed at the rounding
level.  It exits 1 when anything moved or is missing, else 0.

The runs:
    compare-<seed>   compare on the ten-layer karate replica, omega 1.0,
                     seeds 3006..3011 (the karate-compare workload)
    synth-<seed>     mspec detect on synth-4096 instances 3672..3677 and
                     33, with the arguments of perfbench/workloads.py
    sweep-7          sweep --seed 7 (the ten-layer replica, default omegas)
    compare-signed   compare on the four-layer replica, signed, normalized,
                     two repeats, seed 11
    convert          convert of a #dims 2 3 grid and its couplings

Usage:
    python scripts/checkset.py write [--rev REV] [--only RUN ...] [--file PATH]
    python scripts/checkset.py verify [--rev REV] [--only RUN ...] [--file PATH]

With ``--rev REV`` the commands run on commit REV, extracted with
``git archive``, instead of the checkout; ``--only`` restricts both
commands to the named runs, and ``verify`` then checks only theirs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

from bench import ROOT, extract, git_sha
from workloads import WORKLOADS

CHECKSET = os.path.join(ROOT, "CHECKSET.json")
# each recorded field and its name in a report, in the order they are reported
FIELDS = {"sha256": "bytes", "soft_labels": "soft labels", "beta": "beta",
          "labels": "labels", "q_total": "q_total"}
CHILD = "import sys; from mlmod.cli import main; sys.exit(main(sys.argv[1:]))"


def write_grid(directory: str) -> list[str]:
    """A seeded #dims 2 3 grid of 12 nodes, weighted, with couplings; the
    ``convert`` arguments that read it."""
    rng = np.random.default_rng(23)
    dims, n = (2, 3), 12
    edges, couplings = ["#dims 2 3", "# c1,c2 nodeId nodeId weight"], []
    for a in range(1, dims[0] + 1):
        for b in range(1, dims[1] + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if rng.random() < 0.3:
                        edges.append(f"{a},{b} {i} {j} {rng.integers(1, 4)}")
    for node in range(1, n + 1):
        couplings += [f"{node} 1,{b} 2,{b}" for b in range(1, dims[1] + 1) if rng.random() < 0.5]
    paths = [os.path.join(directory, name) for name in ("grid.txt", "gridc.txt")]
    for path, lines in zip(paths, (edges, couplings)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return ["convert", "--input", paths[0], "--grid-couplings", paths[1]]


def runs(inputs: str):
    """(name, CLI arguments without --out) of every run; input files go
    under ``inputs``."""
    for seed in range(3006, 3012):
        yield f"compare-{seed}", WORKLOADS["karate-compare"].args(inputs, seed)
    for seed in (*range(3672, 3678), 33):
        yield f"synth-{seed}", WORKLOADS["synth-4096"].args(os.path.join(inputs, str(seed)), seed)
    yield "sweep-7", ["sweep", "--seed", "7"]
    yield "compare-signed", ["compare", "--dataset", "karate-replica", "--layers", "4",
                             "--signed", "--normalized", "--repeats", "2", "--seed", "11"]
    os.makedirs(os.path.join(inputs, "grid"))
    yield "convert", write_grid(os.path.join(inputs, "grid"))


def _digest(tokens) -> str:
    return hashlib.sha256("\n".join(tokens).encode()).hexdigest()


def describe(path: str) -> dict:
    """The recorded fields of one written file."""
    with open(path, "rb") as fh:
        data = fh.read()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    lines = data.decode("utf-8").splitlines()
    if lines[:1] != ["#mlmod-result v1"]:
        return entry
    start = next(k for k, line in enumerate(lines) if line.startswith("#cells")) + 1
    cells = [line.split() for line in lines[start:] if line.strip()]
    entry.update(
        soft_labels=_digest(row[4] for row in cells),
        beta=_digest(line.split()[3] for line in lines if line.startswith("#division ")),
        labels=_digest(row[3] for row in cells),
        q_total=next(line.split()[2] for line in lines if line.startswith("#meta q_total ")),
    )
    return entry


def run_all(source: str, only: set[str] | None) -> dict[str, dict]:
    """Every written file of the selected runs on the ``src`` of ``source``,
    keyed ``<run>/<path in its --out directory>``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(source, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    documents = {}
    with tempfile.TemporaryDirectory(prefix="mlmod-checkset-") as work:
        for name, argv in runs(os.path.join(work, "inputs")):
            if only and name not in only:
                continue
            out = os.path.join(work, name)
            proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", out],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"run {name} ({' '.join(argv)}) failed:\n{proc.stderr}")
            for directory, _, files in os.walk(out):
                for file in files:
                    path = os.path.join(directory, file)
                    documents[f"{name}/{os.path.relpath(path, out)}"] = describe(path)
            print(f"{name}: {sum(key.startswith(name + '/') for key in documents)} files",
                  file=sys.stderr, flush=True)
    return dict(sorted(documents.items()))


def moved(want: dict, got: dict) -> list[str]:
    return [name for field, name in FIELDS.items() if want.get(field) != got.get(field)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("command", choices=("write", "verify"))
    parser.add_argument("--rev", help="run commit REV instead of the checkout")
    parser.add_argument("--only", nargs="+", metavar="RUN", help="run only these runs")
    parser.add_argument("--file", default=CHECKSET, help="the record (default: %(default)s)")
    args = parser.parse_args()
    only = set(args.only) if args.only else None
    with tempfile.TemporaryDirectory(prefix="mlmod-checkset-src-") as tree:
        source, sha = (tree, extract(args.rev, tree)) if args.rev else (ROOT, git_sha())
        documents = run_all(source, only)
    if args.command == "write":
        record = {
            "git_sha": sha,
            "env": {"python": platform.python_version(), "machine": platform.machine(),
                    "numpy": np.__version__, "openblas_num_threads": "1"},
            "documents": documents,
        }
        with open(args.file, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(documents)} files of {sha} to {args.file}")
        return 0
    with open(args.file, encoding="utf-8") as fh:
        record = json.load(fh)
    want = {key: entry for key, entry in record["documents"].items()
            if not only or key.split("/", 1)[0] in only}
    failures = 0
    for key in sorted(want.keys() | documents.keys()):
        if key not in documents:
            print(f"missing  {key}")
        elif key not in want:
            print(f"new      {key}")
        elif fields := moved(want[key], documents[key]):
            print(f"moved    {key}: {', '.join(fields)}")
        else:
            continue
        failures += 1
    print(f"{sha} against {record['git_sha']}: {len(documents)} files, {failures} moved "
          "or missing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
