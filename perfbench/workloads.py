"""The benchmark's workloads: inputs made from the seed, the command line
of one pass, and the result documents each pass must leave behind.

The program only ever sees what this module generates: the bundled karate
replica with a seed for its coupling draws, or synthetic input files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

KARATE_LAYERS = 10
COMPARE_RHOS = tuple(round(0.1 * i, 1) for i in range(11))
COMPARE_ALGORITHMS = ("mspec", "mlouv", "smean", "sfull")
COMPARE_OMEGA = 1.0
SWEEP_OMEGAS = (0.0, 0.01, 0.1, 1.0, 10.0)

SYNTH_NODES = 2048
SYNTH_LAYERS = 2
SYNTH_RHO = 0.5
SYNTH_OMEGA = 0.5
SYNTH_GAMMA = 1.0
_ROW_BLOCK = 128  # rows of the pair triangle drawn at once; bounds set-up memory

# Passes cycle through this many instances made from the run's seed, so a run's
# median spans several coupling draws or graphs instead of resting on one.
INSTANCES = 6


def instance_seed(seed: int, instance: int, instances: int) -> int:
    """Seed of one instance of a run; distinct for every (seed, instance)."""
    return seed * instances + instance


def synth_edges(n_nodes: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """0-based edge endpoints (i < j) of each layer of G(N, min(0.9, 8/N)).

    One uniform is drawn per node pair from PCG64(seed), in row-major
    (i, j > i) order and layer after layer.  That is the stream a double
    loop calling ``rng.random()`` once per pair consumes, so the instances
    are those of the criterion-8 generator, made without a Python loop per
    pair.  A layer that draws no edge gets the single edge (0, 1).
    """
    rng = np.random.default_rng(seed)
    p = min(0.9, 8.0 / n_nodes)
    layers = []
    for _ in range(SYNTH_LAYERS):
        heads, tails = [], []
        for lo in range(0, n_nodes, _ROW_BLOCK):
            rows = np.arange(lo, min(lo + _ROW_BLOCK, n_nodes))
            counts = n_nodes - 1 - rows
            starts = np.cumsum(counts) - counts
            hits = np.flatnonzero(rng.random(int(counts.sum())) < p)
            row = np.searchsorted(starts, hits, side="right") - 1
            heads.append(rows[row])
            tails.append(rows[row] + 1 + hits - starts[row])
        i, j = np.concatenate(heads), np.concatenate(tails)
        if i.size == 0:
            i, j = np.array([0]), np.array([1])
        layers.append((i, j))
    return layers


def synth_coupled_nodes(n_nodes: int, seed: int) -> np.ndarray:
    """0-based nodes whose two copies are coupled: each with probability rho,
    drawn from PCG64(seed + 1) as ``generate_couplings`` does."""
    draws = np.random.default_rng(seed + 1).random(n_nodes)
    return np.flatnonzero(draws < SYNTH_RHO)


def write_synth_inputs(directory: str, seed: int) -> dict[str, str]:
    """Write the synthetic instance as edge, layer and coupling files.

    The same seed gives byte-identical files.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, f"synth.{name}")
             for name in ("edges", "layers", "couplings")}
    lines = ["# layerId nodeId nodeId"]
    for layer, (i, j) in enumerate(synth_edges(SYNTH_NODES, seed), start=1):
        lines.extend(f"{layer} {a} {b}" for a, b in zip((i + 1).tolist(), (j + 1).tolist()))
    _write(paths["edges"], lines)
    _write(paths["layers"], ["# layerId aspectId label", "1 1 x", "2 1 y"])
    nodes = synth_coupled_nodes(SYNTH_NODES, seed) + 1
    _write(paths["couplings"], ["# nodeId layerA aspectA layerB aspectB"]
           + [f"{node} 1 1 2 1" for node in nodes.tolist()])
    return paths


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Workload:
    """One workload: why it is in the benchmark, how many instances a run
    cycles through, the CLI arguments of a pass on one instance (``args``
    gets the inputs directory and the instance seed, writes any input
    files there and leaves out ``--out``), and the result documents a pass
    writes, each with the index of the rho or omega it was computed at."""

    name: str
    why: str
    instances: int
    args: Callable[[str, int], list[str]]
    documents: tuple[tuple[str, int], ...]

    def prepare(self, inputs_dir: str, seed: int) -> list[list[str]]:
        """Make every instance of a run; the CLI arguments of each."""
        return [self.args(os.path.join(inputs_dir, str(k)),
                          instance_seed(seed, k, self.instances))
                for k in range(self.instances)]


def _compare_args(inputs_dir: str, seed: int) -> list[str]:
    return ["compare", "--dataset", "karate-replica", "--layers", str(KARATE_LAYERS),
            "--omega", repr(COMPARE_OMEGA), "--seed", str(seed)]


def _sweep_args(inputs_dir: str, seed: int) -> list[str]:
    return (["sweep", "--dataset", "karate-replica", "--layers", str(KARATE_LAYERS),
             "--algorithm", "mspec", "--seed", str(seed), "--omega"]
            + [repr(w) for w in SWEEP_OMEGAS])


def _synth_args(inputs_dir: str, seed: int) -> list[str]:
    paths = write_synth_inputs(inputs_dir, seed)
    return ["detect", "--input", paths["edges"], "--layers-file", paths["layers"],
            "--couplings-file", paths["couplings"], "--nodes", str(SYNTH_NODES),
            "--gamma", repr(SYNTH_GAMMA), "--omega", repr(SYNTH_OMEGA),
            "--algorithm", "mspec", "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "karate-compare",
        "the paper's comparison table: all four algorithms over rho 0..1 on the "
        "ten-layer karate replica; the only workload running the baselines and "
        "writing many result files",
        INSTANCES,
        _compare_args,
        tuple((f"runs/compare_rho{ri}_rep0_{name}.txt", ri)
              for ri in range(len(COMPARE_RHOS)) for name in COMPARE_ALGORITHMS),
    ),
    Workload(
        "karate-sweep",
        "the paper's parameter study: mspec over five coupling strengths at "
        "supra 340; small-n eigensolves and no baseline work",
        1,
        _sweep_args,
        tuple((f"runs/sweep_omega_{idx}.txt", idx) for idx in range(len(SWEEP_OMEGAS))),
    ),
    Workload(
        "synth-4096",
        "criterion-8 instances at supra 4096 read from input files: large-n mspec "
        "where the dense matrix, its copies and big eigensolves dominate",
        INSTANCES,
        _synth_args,
        (("result_mspec.txt", 0),),
    ),
)}
