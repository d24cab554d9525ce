#!/usr/bin/env python3
"""Fixed mlmod runs: the size ladder and the check set.

Every run is one ``mlmod`` command in a fresh Python process with one BLAS
thread, on the ``src`` directory of the checkout or of a commit extracted
with ``git archive``.  The process reports the wall time of the command
after ``import mlmod`` (input reading, detection and writing) and its own
peak RSS; then every file the command wrote is described: the SHA-256 of
its bytes and, for a result document, a digest of its soft labels, of its
divisions' beta values and of its labels, and its ``q_total`` as written.

The size ladder, ``bench.py LABEL [--against REV]``, runs the ladder's rows
and writes ``BENCH_<label>.json`` at the repository root.  Each row records
the git SHA of the source it ran (with ``-dirty`` when tracked files differ
from the checkout's HEAD), the workload, the supra size, the seed, the wall
time, the peak RSS and the mean ``q_total`` of its result documents.  With
``--against REV`` every row also runs on commit REV, in alternation: the
checkout first on even rows, REV first on odd ones.  The host's speed
drifts by tens of percent between runs, so only such pairs compare two
commits.

The check set, ``bench.py write|verify [--rev REV] [--only RUN ...]
[--file PATH]``, holds runs whose documents must stay byte-identical.
``write`` records what its runs write in ``CHECKSET.json`` at the
repository root.  ``verify`` runs them again and lists every document that
moved, with the fields that moved, in the order bytes, soft labels, beta,
labels, q_total: a document whose labels or ``q_total`` moved is a changed
result, one where only bytes, soft labels or beta moved changed at the
rounding level.  Its last line counts the two kinds apart, so that a run
under another BLAS kernel (``OPENBLAS_CORETYPE``) shows how many results
the kernel changed.  It exits 1 when anything moved or is missing, else 0.
``--rev REV`` runs commit REV instead of the checkout; ``--only`` restricts
both commands to the named runs, and ``verify`` then checks only theirs; a
name that is no run exits 2 with the list of runs.

Ladder rows:
    karate-compare        compare on the ten-layer karate replica, seed 3006
    karate-sweep          mspec sweep over the default omegas on the
                          ten-layer karate replica, seed 7
    karate-replica-detect mspec detect at 10 and 15 layers (supra 340 and
                          510, the dense path), seed 3006
    synth-detect          mspec detect on two layers of G(N, 8/N) from
                          ``perfbench/workloads.synth_edges`` at supra 512,
                          1k, 2k, 4k, 8k, 16k, 32k and 64k, rho = 0.5
                          couplings, seed 3006
    layers-detect-uniform, layers-detect-temporal
                          mspec detect on 16, 64, 128 and 256 one-aspect
                          layers of 256 nodes (supra 4k, 16k, 32k and 64k)
                          under the uniform or the temporal strategy, with
                          no coupling file, seed 3006; each layer is its
                          own G(256, 8/256) from ``synth_edges``, seeded
                          with 3006 plus its layer index

Check-set runs:
    compare-<seed>   the karate-compare command at seeds 3006..3011
    synth-<seed>     mspec detect on synth-4096 instances 3672..3677 and 33,
                     with the arguments of perfbench/workloads.py
    sweep-7          the karate-sweep command
    compare-signed   compare on the four-layer replica, signed, normalized,
                     two repeats, seed 11
    grid             mspec detect on a #dims 2 3 grid and its couplings
    closeness        mspec detect on the four-layer replica under the
                     closeness strategy, its matrix named by a parameter
                     file, seed 11
    temporal         the same under the temporal strategy
    explicit         the same under the explicit strategy, with a coupling
                     file whose lines carry magnitudes
    karate           mspec detect on the bundled karate club, seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import (  # noqa: E402
    SYNTH_GAMMA, SYNTH_NODES, SYNTH_OMEGA, synth_coupled_nodes, synth_edges,
)

CHECKSET = os.path.join(ROOT, "CHECKSET.json")
SEED, SWEEP_SEED = 3006, 7
# supra sizes, two layers each
SYNTH_SIZES = (512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)
COMPARE = ["compare", "--dataset", "karate-replica", "--layers", "10", "--omega", "1.0",
           "--seed"]
SWEEP = ["sweep", "--dataset", "karate-replica", "--layers", "10", "--seed", str(SWEEP_SEED)]
# each recorded field and its name in a report, in the order they are reported
FIELDS = {"sha256": "bytes", "soft_labels": "soft labels", "beta": "beta",
          "labels": "labels", "q_total": "q_total"}

# The measured process: time one CLI call after imports, report its own peak
# RSS.  On Linux that is VmHWM, the high-water mark of the process's own
# memory map: ru_maxrss also counts the RSS of the parent at the fork, which
# exec carries over, and this script's own RSS reaches 121 MB once it has
# written the supra-65536 inputs.
CHILD = """
import json, resource, sys, time
from mlmod.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
wall_s = time.perf_counter() - start
if code:
    sys.exit(code)
try:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"wall_s": wall_s, "peak_rss_mb": kb / 1024.0}))
"""


def git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True,
                          **kwargs).stdout


def source(rev: str | None, directory: str) -> tuple[str, str]:
    """The tree to run and its SHA: the checkout (with ``-dirty`` when
    tracked files differ from HEAD), or the files of commit ``rev``
    extracted into ``directory``."""
    if rev is None:
        try:
            dirty = git("status", "--porcelain", "--untracked-files=no", text=True).strip()
            return ROOT, git("rev-parse", "HEAD", text=True).strip() + ("-dirty" if dirty else "")
        except (OSError, subprocess.CalledProcessError):
            return ROOT, "unknown"
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(directory, filter="data")
    return directory, sha


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def synth(directory: str, supra: int, seed: int) -> list[str]:
    """Edge, layer and coupling files of a two-layer synthetic instance;
    the ``detect`` arguments that read them."""
    n = supra // 2
    os.makedirs(directory)
    paths = [os.path.join(directory, f"synth.{name}") for name in ("edges", "layers", "couplings")]
    rows = ["# layerId nodeId nodeId"]
    for layer, (i, j) in enumerate(synth_edges(n, seed), start=1):
        rows += [f"{layer} {a} {b}" for a, b in zip((i + 1).tolist(), (j + 1).tolist())]
    texts = [rows, ["# layerId aspectId label", "1 1 x", "2 1 y"],
             ["# nodeId layerA aspectA layerB aspectB"]
             + [f"{node} 1 1 2 1" for node in (synth_coupled_nodes(n, seed) + 1).tolist()]]
    for path, lines in zip(paths, texts):
        write_lines(path, lines)
    return ["detect", "--input", paths[0], "--layers-file", paths[1],
            "--couplings-file", paths[2], "--nodes", str(n), "--gamma", repr(SYNTH_GAMMA),
            "--omega", repr(SYNTH_OMEGA), "--algorithm", "mspec", "--seed", str(seed)]


def stacked_layers(directory: str, n_nodes: int, n_cells: int, seed: int) -> list[str]:
    """Edge and layer files of ``n_cells`` one-aspect layers, each the first
    layer of ``synth_edges(n_nodes, seed + layer)``; the ``detect``
    arguments that read them, without a coupling strategy."""
    os.makedirs(directory)
    paths = [os.path.join(directory, name) for name in ("layers.edges", "layers.layers")]
    rows = ["# layerId nodeId nodeId"]
    for layer in range(1, n_cells + 1):
        i, j = synth_edges(n_nodes, seed + layer)[0]
        rows += [f"{layer} {a} {b}" for a, b in zip((i + 1).tolist(), (j + 1).tolist())]
    write_lines(paths[0], rows)
    write_lines(paths[1], ["# layerId aspectId label"]
                + [f"{layer} 1 l{layer}" for layer in range(1, n_cells + 1)])
    return ["detect", "--input", paths[0], "--layers-file", paths[1], "--nodes",
            str(n_nodes), "--algorithm", "mspec", "--seed", str(seed)]


def grid(directory: str) -> list[str]:
    """A seeded #dims 2 3 grid of 12 nodes, weighted, with couplings; the
    ``detect`` arguments that read it."""
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
    os.makedirs(directory)
    paths = [os.path.join(directory, name) for name in ("grid.txt", "gridc.txt")]
    for path, lines in zip(paths, (edges, couplings)):
        write_lines(path, lines)
    return ["detect", "--input", paths[0], "--couplings-file", paths[1]]


def strategies(directory: str):
    """(name, CLI arguments) of a detect run on the four-layer karate replica
    under each coupling strategy but the uniform one; the closeness run
    reads a parameter file, the explicit one a seeded coupling file with
    magnitudes."""
    rng = np.random.default_rng(24)
    os.makedirs(directory)
    paths = [os.path.join(directory, name) for name in ("p.txt", "closeness.txt", "c.txt")]
    texts = [["# four layer cells", "closeness.file = closeness.txt"],
             ["0 1 0.5 0.25", "1 0 1 0.5", "0.5 1 0 1", "0.25 0.5 1 0"],
             ["# nodeId layerA aspectA layerB aspectB magnitude"]
             + [f"{node} {a} 1 {a + 1} 1 {rng.integers(1, 5) / 4}"
                for node in range(1, 35) for a in range(1, 4) if rng.random() < 0.6]]
    for path, lines in zip(paths, texts):
        write_lines(path, lines)
    replica = ["detect", "--dataset", "karate-replica", "--layers", "4", "--seed", "11"]
    yield "closeness", replica + ["--coupling-strategy", "closeness", "--omega", "0.5",
                                  "--gamma", "1", "--params-file", paths[0]]
    yield "temporal", replica + ["--coupling-strategy", "temporal", "--gamma", "1"]
    yield "explicit", replica + ["--coupling-strategy", "explicit", "--couplings-file", paths[2],
                                 "--gamma", "1"]


def ladder(inputs: str):
    """(workload, supra size, seed, CLI arguments without --out) of every
    ladder row; input files go under ``inputs``."""
    yield "karate-compare", 340, SEED, COMPARE + [str(SEED)]
    yield "karate-sweep", 340, SWEEP_SEED, SWEEP
    for layers in (10, 15):
        yield ("karate-replica-detect", 34 * layers, SEED,
               ["detect", "--dataset", "karate-replica", "--layers", str(layers),
                "--omega", "1.0", "--algorithm", "mspec", "--seed", str(SEED)])
    for supra in SYNTH_SIZES:
        yield "synth-detect", supra, SEED, synth(os.path.join(inputs, str(supra)), supra, SEED)
    stacks = {n_cells: stacked_layers(os.path.join(inputs, f"layers{n_cells}"), 256, n_cells, SEED)
              for n_cells in (16, 64, 128, 256)}
    # strategy-major, so that each strategy's rows alternate which tree runs first
    for strategy in ("uniform", "temporal"):
        for n_cells, argv in stacks.items():
            yield (f"layers-detect-{strategy}", 256 * n_cells, SEED,
                   argv + ["--coupling-strategy", strategy])


def checkset(inputs: str):
    """(name, CLI arguments without --out) of every check-set run; input
    files go under ``inputs``."""
    for seed in range(SEED, SEED + 6):
        yield f"compare-{seed}", COMPARE + [str(seed)]
    for seed in (*range(3672, 3678), 33):
        yield f"synth-{seed}", synth(os.path.join(inputs, str(seed)), 2 * SYNTH_NODES, seed)
    yield f"sweep-{SWEEP_SEED}", SWEEP
    yield "compare-signed", ["compare", "--dataset", "karate-replica", "--layers", "4",
                             "--signed", "--normalized", "--repeats", "2", "--seed", "11"]
    yield "grid", grid(os.path.join(inputs, "grid"))
    yield from strategies(os.path.join(inputs, "strategies"))
    yield "karate", ["detect", "--dataset", "karate", "--seed", "0"]


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


def run(argv: list[str], tree: str, out: str) -> tuple[dict, dict[str, dict]]:
    """Run one command on the ``src`` of ``tree``, writing under ``out``: its
    wall time and peak RSS, and every file it wrote, described and keyed by
    its path in ``out``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", out],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    files = {}
    for directory, _, names in os.walk(out):
        for name in names:
            path = os.path.join(directory, name)
            files[os.path.relpath(path, out)] = describe(path)
    return json.loads(proc.stdout.strip().splitlines()[-1]), files


def dump(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def run_ladder(label: str, against: str | None) -> int:
    table = []
    with tempfile.TemporaryDirectory(prefix="mlmod-bench-") as work:
        trees = [source(None, work)]
        if against:
            trees.append(source(against, os.path.join(work, "against")))
        for k, (workload, size, seed, argv) in enumerate(ladder(os.path.join(work, "inputs"))):
            for j, (tree, sha) in enumerate(trees if k % 2 == 0 else trees[::-1]):
                measured, files = run(argv, tree, os.path.join(work, f"out{k}-{j}"))
                qs = [float(entry["q_total"]) for entry in files.values() if "q_total" in entry]
                row = {"git_sha": sha, "workload": workload, "size": size, "seed": seed,
                       **measured, "q_total": statistics.fmean(qs), "documents": len(qs)}
                print(json.dumps(row), flush=True)
                table.append(row)
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    dump(path, {"label": label, "against": against,
                "env": {"python": platform.python_version(), "machine": platform.machine(),
                        "nproc": os.cpu_count(), "openblas_num_threads": "1"},
                "rows": table})
    print(f"wrote {path}")
    return 0


def run_checkset(command: str, rev: str | None, only: list[str] | None, path: str) -> int:
    documents = {}
    with tempfile.TemporaryDirectory(prefix="mlmod-checkset-") as work:
        runs = dict(checkset(os.path.join(work, "inputs")))
        if unknown := sorted(set(only or ()) - runs.keys()):
            print(f"unknown check-set run {', '.join(unknown)}; the runs are {' '.join(runs)}",
                  file=sys.stderr)
            return 2
        tree, sha = source(rev, os.path.join(work, "src"))
        for name, argv in runs.items():
            if only and name not in only:
                continue
            files = run(argv, tree, os.path.join(work, name))[1]
            documents.update((f"{name}/{key}", entry) for key, entry in files.items())
            print(f"{name}: {len(files)} files", file=sys.stderr, flush=True)
    documents = dict(sorted(documents.items()))
    if command == "write":
        dump(path, {"git_sha": sha,
                    "env": {"python": platform.python_version(), "machine": platform.machine(),
                            "numpy": np.__version__, "openblas_num_threads": "1"},
                    "documents": documents})
        print(f"wrote {len(documents)} files of {sha} to {path}")
        return 0
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    want = {key: entry for key, entry in record["documents"].items()
            if not only or key.split("/", 1)[0] in only}
    failures, results = 0, []  # per moved document: did its labels or q_total move
    for key in sorted(want.keys() | documents.keys()):
        if key not in documents:
            print(f"missing  {key}")
        elif key not in want:
            print(f"new      {key}")
        elif fields := [name for field, name in FIELDS.items()
                        if want[key].get(field) != documents[key].get(field)]:
            print(f"moved    {key}: {', '.join(fields)}")
            results.append("labels" in fields or "q_total" in fields)
        else:
            continue
        failures += 1
    print(f"{sha} against {record['git_sha']}: {len(documents)} files, {failures} moved "
          "or missing")
    print(f"{sum(results)} documents with labels or q_total moved, {len(results) - sum(results)} "
          "with only bytes, soft labels or beta moved")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.partition("\n")[0],
        usage="%(prog)s LABEL [--against REV]\n"
              "       %(prog)s {write,verify} [--rev REV] [--only RUN ...] [--file PATH]")
    parser.add_argument("command", metavar="LABEL|write|verify",
                        help="run the ladder into BENCH_<LABEL>.json, or write or verify "
                             "the check set")
    parser.add_argument("--against", metavar="REV",
                        help="ladder: also run every row on commit REV, in alternation")
    parser.add_argument("--rev", help="check set: run commit REV instead of the checkout")
    parser.add_argument("--only", nargs="+", metavar="RUN",
                        help="check set: run only these runs")
    parser.add_argument("--file", metavar="PATH", help=f"check set: the record (default: {CHECKSET})")
    args = parser.parse_args()
    if args.command not in ("write", "verify"):
        if args.rev or args.only or args.file:
            parser.error("--rev, --only and --file go with write and verify")
        return run_ladder(args.command, args.against)
    if args.against:
        parser.error("--against goes with a ladder LABEL")
    return run_checkset(args.command, args.rev, args.only, args.file or CHECKSET)


if __name__ == "__main__":
    sys.exit(main())
