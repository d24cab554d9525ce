"""Multilayer modularity: scores, the supra-modularity matrix and the
Hamiltonian energy form.

Raw modularity of a partition g is the sum of supra-modularity matrix
entries over ordered same-community pairs (diagonal included):

    Q = sum_xy D_xy [g_x = g_y]

with within-layer entries ``lam * (A_ij - gamma * k_i k_j / 2m)`` and
node-copy entries equal to the signed coupling strengths.  The matrix is
never required to evaluate Q; the scorer aggregates edges, strengths and
couplings directly, which keeps the two code paths independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .network import LayerStats, MultilayerNetwork
from .params import CouplingSpec, ModularityParams

__all__ = [
    "Partition",
    "SupraModularityMatrix",
    "coupling_strength",
    "null_model_ng",
    "build_modularity_matrix",
    "modularity",
    "modularity_signed",
    "hamiltonian",
    "chi_value",
    "normalization_factor",
]


@dataclass(frozen=True)
class Partition:
    """Community labels per supra cell, aligned with the supra index order."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("partition labels must form a non-empty vector")
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError("partition labels must be integers")
        arr = arr.astype(np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @classmethod
    def from_cell_labels(cls, net: MultilayerNetwork, labels) -> "Partition":
        """Build from a mapping (i, s, v) 1-based -> label; every cell required."""
        from .network import node_index

        out = np.full(net.supra_size, -1, dtype=np.int64)
        for (i, s, v), label in labels.items():
            out[node_index(i, s, v, net) - 1] = int(label)
        if (out < 0).any():
            missing = int((out < 0).sum())
            raise DomainError(f"{missing} supra cells left unlabeled")
        return cls(out)

    @classmethod
    def broadcast(cls, net: MultilayerNetwork, node_labels) -> "Partition":
        """Give every copy of a node the node's label in all layer cells."""
        node_labels = np.asarray(node_labels, dtype=np.int64)
        if node_labels.shape != (net.n_nodes,):
            raise DomainError("need exactly one label per node")
        return cls(np.tile(node_labels, net.n_cells))

    @property
    def n_communities(self) -> int:
        return len(set(self.labels.tolist()))

    def canonical(self) -> "Partition":
        """Relabel to a contiguous 0..K-1 range in order of first appearance."""
        _, first, inverse = np.unique(self.labels, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        return Partition(rank[inverse])

    def cell_view(self, net: MultilayerNetwork) -> np.ndarray:
        """Labels reshaped to (n_cells, n_nodes), read-only."""
        view = self.labels.reshape(net.n_cells, net.n_nodes)
        view.setflags(write=False)
        return view


def _check_partition(net: MultilayerNetwork, partition: Partition) -> np.ndarray:
    if partition.labels.shape != (net.supra_size,):
        raise DomainError(
            f"partition labels {partition.labels.shape} do not cover the "
            f"supra size {net.supra_size}"
        )
    return partition.labels


def coupling_strength(spec: CouplingSpec, net: MultilayerNetwork, presence: int,
                      i: int, s: int, v: int, r: int, w: int) -> float:
    """Signed strength for node i between layers (s, v) and (r, w), 1-based.

    Returns ``e * (2 * presence - 1)`` with the amplitude taken from the
    coupling strategy; (s, v) must differ from (r, w).
    """
    if (s, v) == (r, w):
        raise DomainError("coupling strength requires two distinct layer cells")
    if presence not in (0, 1):
        raise DomainError(f"presence must be 0 or 1, got {presence}")
    ca = net.cell_index(s - 1, v - 1)
    cb = net.cell_index(r - 1, w - 1)
    return spec.strength(net, i - 1, ca, cb, bool(presence))


def null_model_ng(stats: LayerStats, i: int, j: int) -> float:
    """Newman-Girvan null model weight for 1-based nodes i and j."""
    n = stats.strengths.shape[0]
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"node ids ({i}, {j}) out of range 1..{n}")
    return stats.null_model(i - 1, j - 1)


def _warn_empty(kind: str, cell: int):
    warnings.warn(
        f"layer cell {cell} has no {kind} edges; its within-layer term is 0",
        RuntimeWarning,
        stacklevel=3,
    )


def _layer_terms(net: MultilayerNetwork, params: ModularityParams, cell: int):
    """Yield (stats, gamma, weight_sign) pieces of one layer's within term.

    Unsigned networks yield one piece; signed ones yield the '+' piece and
    the '-' piece with weight_sign -1.
    """
    if not params.signed:
        stats = net.layer_stats(cell)
        yield stats, params.gamma[cell], 1.0
        return
    gp, gm = params.gamma_signed()
    sp = net.layer_stats(cell, "+")
    sm = net.layer_stats(cell, "-")
    yield sp, gp[cell], 1.0
    yield sm, gm[cell], -1.0


def _require_sign_consistency(net: MultilayerNetwork, params: ModularityParams):
    if net.has_negative_edges and not params.signed:
        raise DomainError(
            "network has negative edge weights; use signed modularity parameters"
        )


def _within_q(net: MultilayerNetwork, params: ModularityParams, cells_labels: np.ndarray,
              warn: bool = True) -> float:
    """Within-layer part of raw Q over ordered pairs, diagonal included."""
    total = 0.0
    for t in range(net.n_cells):
        lam = params.lam[t]
        if lam == 0.0:
            continue
        labels = cells_labels[t]
        for stats, gamma, sign in _layer_terms(net, params, t):
            if stats.total_weight <= 0:
                if warn and not params.signed:
                    _warn_empty("any", t)
                continue
            edge_part = 0.0
            for i, j, w in net.within_edges[t]:
                if params.signed:
                    if sign > 0 and w <= 0:
                        continue
                    if sign < 0 and w >= 0:
                        continue
                    weight = abs(w)
                else:
                    weight = w
                if labels[i] == labels[j]:
                    edge_part += 2.0 * weight
            group_strengths: dict[int, float] = {}
            for i, k in enumerate(stats.strengths):
                lab = int(labels[i])
                group_strengths[lab] = group_strengths.get(lab, 0.0) + float(k)
            null_part = sum(v * v for v in group_strengths.values())
            null_part *= gamma / (2.0 * stats.total_weight)
            total += sign * lam * (edge_part - null_part)
    return total


def _coupling_q(net: MultilayerNetwork, spec: CouplingSpec,
                cells_labels: np.ndarray) -> float:
    """Coupling part of raw Q: ordered co-assigned node-copy pairs."""
    total = 0.0
    for node, ca, cb in net.candidate_pairs():
        if cells_labels[ca, node] != cells_labels[cb, node]:
            continue
        present = (node, ca, cb) in net.couplings
        total += 2.0 * spec.strength(net, node, ca, cb, present)
    return total


def modularity(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams,
               partition: Partition) -> float:
    """Multilayer modularity of a partition.

    Raw mode returns the plain ordered-pair sum; normalized mode divides by
    ``mu = sum_t 2 m_t + sum |C~|``, a convention documented as ours.
    """
    if params.signed:
        return modularity_signed(net, spec, params, partition)
    _require_sign_consistency(net, params)
    labels = _check_partition(net, partition)
    cells = labels.reshape(net.n_cells, net.n_nodes)
    q = _within_q(net, params, cells) + _coupling_q(net, spec, cells)
    if params.normalization == "normalized":
        mu = normalization_factor(net, spec, params)
        return q / mu if mu > 0 else 0.0
    return q


def modularity_signed(net: MultilayerNetwork, spec: CouplingSpec,
                      params: ModularityParams, partition: Partition) -> float:
    """Signed-network modularity: positive and negative edge subsets get
    separate null models and the negative one enters with opposite sign."""
    if not params.signed:
        raise DomainError("modularity_signed requires params.signed")
    labels = _check_partition(net, partition)
    cells = labels.reshape(net.n_cells, net.n_nodes)
    for t in range(net.n_cells):
        if net.layer_stats(t, "+").total_weight <= 0:
            _warn_empty("positive", t)
        if net.layer_stats(t, "-").total_weight <= 0:
            _warn_empty("negative", t)
    q = _within_q(net, params, cells, warn=False) + _coupling_q(net, spec, cells)
    if params.normalization == "normalized":
        mu = normalization_factor(net, spec, params)
        return q / mu if mu > 0 else 0.0
    return q


def hamiltonian(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams,
                partition: Partition) -> float:
    """Energy of a partition: existing within-community structure is rewarded
    and missing structure penalised through the (2 delta - 1) form.

    Computed directly from its own definition rather than from Q, so it can
    serve as an independent cross-check: ``-H/2 - Q_raw`` is a partition
    independent constant equal to ``-chi/2``.
    """
    if not params.signed:
        _require_sign_consistency(net, params)
    _check_partition(net, partition)
    cells = partition.labels.reshape(net.n_cells, net.n_nodes)
    h = 0.0
    for t in range(net.n_cells):
        lam = params.lam[t]
        if lam == 0.0:
            continue
        labels = cells[t]
        same = (labels[:, None] == labels[None, :])
        sign_matrix = np.where(same, 1.0, -1.0)
        for stats, gamma, sign in _layer_terms(net, params, t):
            if stats.total_weight <= 0:
                if not params.signed:
                    _warn_empty("any", t)
                continue
            if params.signed:
                a = net.adjacency_dense(t)
                a = np.clip(a, 0, None) if sign > 0 else np.clip(-a, 0, None)
            else:
                a = net.adjacency_dense(t)
            k = stats.strengths
            null = gamma * np.outer(k, k) / (2.0 * stats.total_weight)
            h -= sign * lam * float(((a - null) * sign_matrix).sum())
    for node, ca, cb in net.candidate_pairs():
        present = (node, ca, cb) in net.couplings
        ctil = spec.strength(net, node, ca, cb, present)
        delta_sign = 1.0 if cells[ca, node] == cells[cb, node] else -1.0
        h -= 2.0 * ctil * delta_sign
    return h


def chi_value(net: MultilayerNetwork, spec: CouplingSpec,
              params: ModularityParams) -> float:
    """Sum of all supra-modularity matrix entries, computed analytically:
    ``sum_t lam * (1 - gamma) * 2 m_t`` plus the ordered coupling strengths."""
    total = 0.0
    for t in range(net.n_cells):
        lam = params.lam[t]
        for stats, gamma, sign in _layer_terms(net, params, t):
            total += sign * lam * (1.0 - gamma) * 2.0 * stats.total_weight
    for node, ca, cb in net.candidate_pairs():
        present = (node, ca, cb) in net.couplings
        total += 2.0 * spec.strength(net, node, ca, cb, present)
    return total


def normalization_factor(net: MultilayerNetwork, spec: CouplingSpec,
                         params: ModularityParams) -> float:
    """mu = sum_t 2 m_t + sum over ordered pairs of |C~| (our convention)."""
    mu = 0.0
    for t in range(net.n_cells):
        if params.signed:
            mu += 2.0 * (net.layer_stats(t, "+").total_weight
                         + net.layer_stats(t, "-").total_weight)
        else:
            mu += 2.0 * net.layer_stats(t).total_weight
    for node, ca, cb in net.candidate_pairs():
        mu += 2.0 * spec.amplitude(net, node, ca, cb)
    return mu


@dataclass(frozen=True)
class SupraModularityMatrix:
    """Dense symmetric supra-modularity matrix with its entry-sum constant.

    ``chi`` splits into the within-layer bias and the coupling strength sum,
    kept as diagnostics.
    """

    matrix: np.ndarray
    chi: float
    within_bias: float
    coupling_sum: float
    n_nodes: int
    n_cells: int

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build_modularity_matrix(net: MultilayerNetwork, spec: CouplingSpec,
                            params: ModularityParams) -> SupraModularityMatrix:
    """Assemble the dense supra-modularity matrix D.

    Within-layer blocks carry ``lam * (A - gamma * k k^T / 2m)`` including
    the diagonal, signed networks use the two-subset decomposition, and
    node-copy entries carry the signed coupling strengths.
    """
    if not params.signed:
        _require_sign_consistency(net, params)
    if len(params.gamma) != net.n_cells:
        raise DomainError("params do not match the network's layer cells")
    n = net.supra_size
    N = net.n_nodes
    out = np.zeros((n, n))
    within_bias = 0.0
    for t in range(net.n_cells):
        lam = params.lam[t]
        block = np.zeros((N, N))
        for stats, gamma, sign in _layer_terms(net, params, t):
            if stats.total_weight <= 0:
                if not params.signed:
                    _warn_empty("any", t)
                continue
            if params.signed:
                a = net.adjacency_dense(t)
                a = np.clip(a, 0, None) if sign > 0 else np.clip(-a, 0, None)
            else:
                a = net.adjacency_dense(t)
            k = stats.strengths
            block += sign * (a - gamma * np.outer(k, k) / (2.0 * stats.total_weight))
            within_bias += sign * lam * (1.0 - gamma) * 2.0 * stats.total_weight
        out[t * N:(t + 1) * N, t * N:(t + 1) * N] = lam * block
    coupling_sum = 0.0
    for node, ca, cb in net.candidate_pairs():
        present = (node, ca, cb) in net.couplings
        ctil = spec.strength(net, node, ca, cb, present)
        coupling_sum += 2.0 * ctil
        if ctil != 0.0:
            x = ca * N + node
            y = cb * N + node
            out[x, y] = ctil
            out[y, x] = ctil
    out.setflags(write=False)
    return SupraModularityMatrix(
        matrix=out,
        chi=within_bias + coupling_sum,
        within_bias=within_bias,
        coupling_sum=coupling_sum,
        n_nodes=N,
        n_cells=net.n_cells,
    )
