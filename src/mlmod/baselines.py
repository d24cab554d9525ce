"""Comparison algorithms: greedy agglomeration (mLouv) and the two
single-layer spectral baselines (sMeanSpec, sFullSpec).

All three report the same raw modularity as the shared scorer.  mLouv
merges greedily, as Clauset, Newman & Moore (2004) do, but on one dense
work matrix of between-community sums instead of their heaps: it joins
the pair with the largest positive gain until no merger improves Q,
then runs bounded Kernighan-Lin style relocation sweeps.  Lazily
tightened upper bounds on the row maxima find each pair without a full scan.
Randomness enters only through a fixed number of seeded restarts that
permute tie-breaking; the best run by Q is reported.  sMeanSpec and
sFullSpec read no couplings, only the layers, so ``mlmod compare``
partitions each once and scores that partition at every coupling density.
Each partitions its one-layer networks under the same resolutions, signed
ones included, that the multilayer scorer applies."""

from __future__ import annotations

import numpy as np

from .modularity import (
    ModularityParams,
    Partition,
    QualityMatrix,
    _score,
    modularity,
    quality_matrix,
)
from .mspec import _GAIN_EPS, DetectionResult, Division, kl_relocate, spectral_partition
from .network import Aspect, Edges, MultilayerNetwork, normalize_edges
from .params import CouplingSpec

__all__ = ["mlouv", "smean_spec", "sfull_spec"]

_RESTARTS = 5  # seeded restarts of mlouv
_SWEEPS = 10  # relocation sweeps after each restart's merge


def _greedy_merge(w: np.ndarray, q: float) -> tuple[np.ndarray, list[float]]:
    """Merge the best community pair while the gain is positive.

    ``w`` is the quality matrix, overwritten as the work matrix of
    between-community sums, and ``q`` its trace.  Returns final labels and
    the Q value after every merge.  ``ub`` holds upper bounds on the row
    maxima, left stale by merges and tightened only for the row on top.
    """
    # -inf on the diagonal and in dead columns keeps them out of the maximum,
    # and a merged row sums to -inf there by itself; a dead row is never read
    # again, since its bound stays -inf and row 0 never dies (a < b)
    np.fill_diagonal(w, -np.inf)
    ub = w.max(axis=1)
    # members of each row's community, its label first; None once merged away
    members: list[list[int] | None] = [[x] for x in range(len(w))]
    q_trace: list[float] = []
    while True:
        a = int(ub.argmax())
        row = w[a]
        b = int(row.argmax())
        m = row[b]
        if m < ub[a]:
            ub[a] = m
            continue
        # rows before a are bounded below m, so (a, b) is the row-major first
        # maximum, a < b by symmetry; a NaN fails both tests and stops
        gain = 2.0 * float(m)
        if not gain > _GAIN_EPS:
            break
        row += w[b]
        w[:, a] = row
        w[:, b] = -np.inf
        np.maximum(ub, row, out=ub)
        ub[a], ub[b] = row.max(), -np.inf
        members[a] += members[b]
        members[b] = None
        q += gain
        q_trace.append(q)
    labels = np.empty(len(w), dtype=int)
    for group in filter(None, members):
        labels[group] = group[0]
    return labels, q_trace


def mlouv(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams,
          seed: int = 0) -> DetectionResult:
    """Greedy agglomerative optimization of the supra-modularity matrix.

    Runs 5 restarts seeded from ``seed``; each permutes the vertex order
    (which permutes tie-breaking), merges greedily, then applies up to 10
    relocation sweeps.
    """
    qm, chi = quality_matrix(net, spec, params)
    n = qm.size
    best_labels: np.ndarray | None = None
    best_q = -np.inf
    best_trace: list[float] = []
    for r in range(_RESTARTS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, r))))
        perm = rng.permutation(n)
        pq = qm.take(perm)
        m = pq.dense()
        q0 = float(np.trace(m))
        labels, trace = _greedy_merge(m, q0)
        del m  # the next restart's work matrix is formed without this one
        q = trace[-1] if trace else q0
        labels, gain = kl_relocate(pq, labels, max_sweeps=_SWEEPS)
        q += gain
        trace = trace + [q]
        if q > best_q:
            best_labels = np.empty(n, dtype=int)
            best_labels[perm] = labels
            best_q = q
            best_trace = trace
    partition = Partition(best_labels).canonical()
    q_total = _score(qm, partition.labels, params.normalization)
    meta = {
        "algorithm": "mlouv",
        "seed": str(seed),
        "restarts": str(_RESTARTS),
        "kl_swap": "true",
        "chi": repr(chi),
        "q_trace": ",".join(repr(v) for v in best_trace),
        "normalization": params.normalization,
    }
    return DetectionResult(partition=partition, q_total=q_total, divisions=(),
                           soft_labels=None, meta=meta)


def _one_layer(n_nodes: int, edges, params: ModularityParams, pick) -> QualityMatrix:
    """Quality matrix of one layer with unit weight: Newman's modularity
    matrix, or in signed networks the form whose '+' and '-' edge subsets
    each have their own null model.  ``pick`` maps each per-cell resolution
    tuple of ``params`` (gamma, gamma_plus, gamma_minus) to the layer's."""
    net = MultilayerNetwork(n_nodes=n_nodes, aspects=(Aspect("layer", ("layer",)),),
                            within_edges=(edges,))
    gp, gm = params.gamma_signed()
    one = ModularityParams(gamma=pick(params.gamma), lam=(1.0,), signed=params.signed,
                           gamma_plus=pick(gp), gamma_minus=pick(gm))
    return quality_matrix(net, CouplingSpec(), one)[0]


def smean_spec(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams,
               refine: bool = True) -> DetectionResult:
    """Single-layer spectral recursion on the mean of all layer adjacencies.

    The per-node labels found on the mean network are broadcast to every
    cell of that node, then scored with the full multilayer modularity.
    The mean matrix uses the average of each per-layer resolution.
    """
    summed = normalize_edges(Edges(*(np.concatenate([getattr(e, c) for e in net.within_edges])
                                     for c in "ijw")), net.n_nodes)
    mean_edges = Edges(summed.i, summed.j, summed.w / net.n_cells)
    d = _one_layer(net.n_nodes, mean_edges, params, lambda g: (float(np.mean(g)),))
    node_labels, divisions, *_ = spectral_partition(d, refine=refine)
    partition = Partition.broadcast(net, node_labels).canonical()
    q_total = modularity(net, spec, params, partition)
    meta = {
        "algorithm": "smean",
        "mean_gamma": repr(float(np.mean(params.gamma))),
        "normalization": params.normalization,
    }
    return DetectionResult(partition=partition, q_total=q_total,
                           divisions=tuple(divisions), soft_labels=None, meta=meta)


def sfull_spec(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams,
               refine: bool = True) -> DetectionResult:
    """Independent single-layer spectral recursion per layer.

    Community ids are kept disjoint across layers (no reconciliation), so
    co-assignment of node copies never occurs in the scored partition.
    """
    labels = np.zeros(net.supra_size, dtype=int)
    divisions: list[Division] = []
    offset = 0
    for t in range(net.n_cells):
        d = _one_layer(net.n_nodes, net.within_edges[t], params, lambda g: (g[t],))
        layer_labels, divs, *_ = spectral_partition(d, refine=refine)
        labels[t * net.n_nodes:(t + 1) * net.n_nodes] = layer_labels + offset
        offset += int(layer_labels.max()) + 1
        divisions.extend(divs)
    partition = Partition(labels).canonical()
    q_total = modularity(net, spec, params, partition)
    meta = {"algorithm": "sfull", "normalization": params.normalization}
    return DetectionResult(partition=partition, q_total=q_total,
                           divisions=tuple(divisions), soft_labels=None, meta=meta)
