"""Correctness check of the result documents a run leaves behind.

It runs after the measured process has exited, so the dense matrices it
builds count neither in that process's time nor in its peak memory.  Each
document is reloaded with ``load_result``; its partition must cover the
supra size, and its ``q_total`` must match Q recomputed independently of
the scorer, as the sum of ``build_modularity_matrix`` entries over
same-community pairs.  The instance behind each document is rebuilt here
from the run seed: coupling draws without the program's generator, and
synthetic graphs without its input parser.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
from mlmod import (Aspect, CouplingSpec, MlmodError, ModularityParams, MultilayerNetwork,
                   build_karate_replica, build_modularity_matrix, load_karate, load_result)

import workloads as wl

REL_TOL = 1e-9
SWEEP_GROUND_TRUTH_OMEGA = 1.0


def coupling_seed(base: int, *key: int) -> int:
    """Seed of one coupling realization, as documented for ``mlmod compare``."""
    return int(np.random.SeedSequence(entropy=base, spawn_key=key).generate_state(1)[0])


def random_couplings(n_nodes: int, n_cells: int, rho: float, seed: int) -> frozenset:
    """Each (node, cell_a < cell_b) present with probability rho, one PCG64
    uniform per candidate pair in (cell_a, cell_b, node) order."""
    rng = np.random.default_rng(seed)
    chosen = []
    for ca, cb in itertools.combinations(range(n_cells), 2):
        draws = rng.random(n_nodes)
        chosen.extend((int(node), ca, cb) for node in np.flatnonzero(draws < rho))
    return frozenset(chosen)


def pairwise_q(matrix: np.ndarray, labels: np.ndarray) -> float:
    """sum_xy D_xy [g_x = g_y], through the community indicator matrix."""
    _, compact = np.unique(labels, return_inverse=True)
    indicator = np.zeros((labels.size, int(compact.max()) + 1))
    indicator[np.arange(labels.size), compact] = 1.0
    return float(np.sum((matrix @ indicator) * indicator))


class Checker:
    """Checks the documents of one workload and run seed.  It keeps only the
    quality matrix of the last (instance, index) it saw, so documents are
    best checked grouped by that key."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self._key: tuple[int, int] | None = None
        self._matrix: np.ndarray | None = None
        self._truth: np.ndarray | None = None

    def _network(self, instance: int, index: int):
        seed = wl.instance_seed(self.seed, instance, wl.WORKLOADS[self.workload].instances)
        if self.workload == "synth-4096":
            edges = tuple(tuple((a, b, 1.0) for a, b in zip(i.tolist(), j.tolist()))
                          for i, j in wl.synth_edges(wl.SYNTH_NODES, seed))
            net = MultilayerNetwork(
                n_nodes=wl.SYNTH_NODES, aspects=(Aspect("a", ("x", "y")),),
                within_edges=edges,
                couplings=frozenset((int(node), 0, 1) for node in
                                    wl.synth_coupled_nodes(wl.SYNTH_NODES, seed)),
            )
            params = ModularityParams.for_network(net, gamma=wl.SYNTH_GAMMA)
            return net, CouplingSpec(omega=wl.SYNTH_OMEGA), params
        gammas = [round(0.1 * (s + 1), 10) for s in range(wl.KARATE_LAYERS)]
        net, params = build_karate_replica(wl.KARATE_LAYERS, gammas)
        if self.workload == "karate-sweep":
            return net, CouplingSpec(omega=wl.SWEEP_OMEGAS[index]), params
        couplings = random_couplings(net.n_nodes, net.n_cells, wl.COMPARE_RHOS[index],
                                     coupling_seed(seed, index, 0))
        return net.with_couplings(couplings), CouplingSpec(omega=wl.COMPARE_OMEGA), params

    def check(self, path: str, instance: int, index: int) -> tuple[float | None, str]:
        """(q_total or None, failure message or '') of the document at
        ``path``, computed on ``instance`` at rho or omega ``index``."""
        name = os.path.basename(path)
        try:
            result, _ = load_result(path)
        except MlmodError as exc:
            return None, f"{name}: cannot load: {exc}"
        if self._key != (instance, index):
            self._key, self._matrix = None, None  # free the old matrix before building
            self._matrix = build_modularity_matrix(*self._network(instance, index)).matrix
            self._key = (instance, index)
        matrix = self._matrix
        labels = result.partition.labels
        if labels.shape != (matrix.shape[0],):
            return None, (f"{name}: partition has {labels.size} cells, "
                          f"supra size is {matrix.shape[0]}")
        q = pairwise_q(matrix, labels)
        if abs(q - result.q_total) > REL_TOL * max(abs(result.q_total), 1.0):
            return None, f"{name}: q_total {result.q_total!r} but pairwise sum gives {q!r}"
        if (self.workload == "karate-sweep"
                and wl.SWEEP_OMEGAS[index] == SWEEP_GROUND_TRUTH_OMEGA):
            message = self._ground_truth(labels)
            if message:
                return None, f"{name}: {message}"
        return result.q_total, ""

    def _ground_truth(self, labels: np.ndarray) -> str:
        if self._truth is None:
            self._truth = load_karate()[1]
        grid = labels.reshape(wl.KARATE_LAYERS, -1)
        if not (grid == grid[0]).all():
            return "copies of a node disagree at omega = 1"
        found = np.where(grid[0] == grid[0][0], 1, 2)
        if len(np.unique(grid[0])) != 2 or not (
                (found == self._truth).all() or (found == 3 - self._truth).all()):
            return "omega = 1 split differs from the two-faction ground truth"
        return ""
