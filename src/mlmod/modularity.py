"""Multilayer modularity: scores, the supra-modularity matrix and the
Hamiltonian energy form.

Raw modularity of a partition g is the sum of supra-modularity matrix
entries over ordered same-community pairs (diagonal included):

    Q = sum_xy D_xy [g_x = g_y]

with within-layer entries ``lam * (A_ij - gamma * k_i k_j / 2m)`` and
node-copy entries equal to the signed coupling strengths.  The matrix is
never required to evaluate Q; the scorer aggregates edges, strengths and
couplings directly, which keeps the two code paths independent.

D is sparse plus one rank-one null term per layer and null piece, so the
optimizers work on ``QualityMatrix``, a factored form whose memory and
products cost O(nnz + N L^2); ``build_modularity_matrix`` assembles the
dense (N L)^2 array and serves as the small-n reference.
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
    "QualityMatrix",
    "Subdivision",
    "quality_matrix",
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


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """(indptr, indices, data) of the n x n matrix with the given entries,
    rows in order and entries kept in their given order within a row."""
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return indptr, cols[order], vals[order]


@dataclass(frozen=True)
class QualityMatrix:
    """The supra-modularity matrix D in factored form, O(nnz + N L^2) memory.

    ``indptr``, ``indices`` and ``data`` hold a symmetric CSR matrix B with
    the within-layer blocks ``lam_t A_t`` and the signed coupling
    strengths; its diagonal is zero, since layers have no self-loops and
    couplings join distinct cells.  ``cells`` gives the layer cell of every
    supra index.  Null piece p contributes a strength vector
    ``strengths[p]`` and one coefficient per cell,
    ``coefs[p, t] = sign * lam_t * gamma_t / 2 m_t``, so that

        D_xy = B_xy - coefs[p, t] * strengths[p, x] * strengths[p, y]

    summed over the pieces p for x and y in the same cell t, and
    ``D_xy = B_xy`` across cells.  Unsigned networks have one piece; signed
    ones have the '+' piece and the '-' piece, whose coefficients are <= 0.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    cells: np.ndarray
    strengths: np.ndarray
    coefs: np.ndarray

    @property
    def size(self) -> int:
        return self.cells.size

    def take(self, idx) -> "QualityMatrix":
        """Rows and columns ``idx`` of D, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        pos = np.full(self.size, -1)
        pos[idx] = np.arange(idx.size)
        lo = self.indptr[idx]
        lengths = self.indptr[idx + 1] - lo
        # positions in indices/data of the entries of rows idx, row after row
        at = np.repeat(lo - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        cols = pos[self.indices[at]]
        keep = cols >= 0
        rows = np.repeat(np.arange(idx.size), lengths)[keep]
        return QualityMatrix(*_csr(rows, cols[keep], self.data[at][keep], idx.size),
                             self.cells[idx], self.strengths[:, idx], self.coefs)

    def dense(self) -> np.ndarray:
        """D as an n x n array, for small n."""
        out = np.zeros((self.size, self.size))
        out[np.repeat(np.arange(self.size), np.diff(self.indptr)), self.indices] = self.data
        for t in np.unique(self.cells):
            idx = np.flatnonzero(self.cells == t)
            for k, c in zip(self.strengths[:, idx], self.coefs[:, t]):
                out[np.ix_(idx, idx)] -= c * np.outer(k, k)
        return out


class Subdivision:
    """Subdivision matrix of D over members g in factored form:
    ``M = D_gg - diag(D_gg 1)``, so every row of M sums to zero.

    A product costs O(nnz(B_gg) + |g|): the sparse part, one per-cell sum
    per null piece, and the row-sum shift (Newman, PNAS 103:8577, 2006).
    """

    def __init__(self, matrix: QualityMatrix, members):
        sub = matrix.take(members)
        m = sub.size
        self.shape = (m, m)
        self.indptr, self.cols, self.vals = sub.indptr, sub.indices, sub.data
        self.rows = np.repeat(np.arange(m), np.diff(sub.indptr))
        self.cells = sub.cells
        self.k = sub.strengths
        self.c = sub.coefs[:, sub.cells]  # coefficient of each member's cell
        self.n_cells = sub.coefs.shape[1]
        self.rowsum = np.bincount(self.rows, weights=self.vals, minlength=m) - self._null(np.ones(m))
        self.null_diag = (self.c * (self.k * self.k)).sum(axis=0)

    def _null(self, x: np.ndarray) -> np.ndarray:
        """Product of the same-cell null terms with x."""
        return sum(c * (k * np.bincount(self.cells, weights=k * x,
                                        minlength=self.n_cells)[self.cells])
                   for k, c in zip(self.k, self.c))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return (np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.shape[0])
                - self._null(x) - self.rowsum * x)

    def __matmul__(self, x):
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        return -self.null_diag - self.rowsum

    def column(self, j: int) -> np.ndarray:
        """Column j of M as a dense vector: row j of the symmetric B plus
        the null terms of j's cell."""
        col = np.zeros(self.shape[0])
        lo, hi = self.indptr[j], self.indptr[j + 1]
        col[self.cols[lo:hi]] = self.vals[lo:hi]
        same = self.cells == self.cells[j]
        for k, c in zip(self.k, self.c):
            col[same] -= c[j] * (k[j] * k[same])
        col[j] -= self.rowsum[j]
        return col

    def asymmetry(self) -> float:
        """Largest |M_xy - M_yx|; the null terms are symmetric by construction."""
        m = self.shape[0]
        keys = np.concatenate((self.rows * m + self.cols, self.cols * m + self.rows))
        _, pair = np.unique(keys, return_inverse=True)
        diff = np.bincount(pair, weights=np.concatenate((self.vals, -self.vals)))
        return float(np.abs(diff).max(initial=0.0))

    def norm_inf(self) -> float:
        """Exact max absolute row sum of M, without forming M."""
        rows, cols, m = self.rows, self.cols, self.shape[0]
        same = self.cells[rows] == self.cells[cols]
        null_nz = sum(c[rows] * (k[rows] * k[cols]) for k, c in zip(self.k, self.c)) * same
        # entries where B is non-zero replace their null-only contribution
        fix = np.bincount(rows, weights=np.abs(self.vals - null_nz) - np.abs(null_nz),
                          minlength=m)
        return float((self._null_abs_rowsums() - np.abs(self.null_diag) + fix
                      + np.abs(self.diagonal())).max())

    def _null_abs_rowsums(self) -> np.ndarray:
        """sum_j |N_xj| over x's cell, diagonal included, N the null part."""
        if len(self.k) == 1:
            c, k = self.c[0], self.k[0]
            totals = np.bincount(self.cells, weights=k, minlength=self.n_cells)
            return np.abs(c) * k * totals[self.cells]
        # Signed: N_xj = a_x p_j - b_x q_j with a, b >= 0 is positive exactly
        # when q_j / p_j < a_x / b_x, so sort each cell by q/p and split the
        # prefix sums of p and q at that threshold.
        p, q = self.k
        a, b = self.c[0] * p, -self.c[1] * q
        out = np.zeros(self.shape[0])
        for t in np.unique(self.cells):
            idx = np.flatnonzero(self.cells == t)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(p[idx] > 0, q[idx] / p[idx], np.inf)
                theta = np.where(b[idx] > 0, a[idx] / b[idx], np.inf)
            order = np.argsort(ratio, kind="stable")
            cum_p = np.concatenate(([0.0], np.cumsum(p[idx][order])))
            cum_q = np.concatenate(([0.0], np.cumsum(q[idx][order])))
            split = np.searchsorted(ratio[order], theta)
            out[idx] = (a[idx] * (2.0 * cum_p[split] - cum_p[-1])
                        - b[idx] * (2.0 * cum_q[split] - cum_q[-1]))
        return out


def quality_matrix(net: MultilayerNetwork, spec: CouplingSpec,
                   params: ModularityParams) -> tuple[QualityMatrix, float]:
    """D in factored form, and chi, the sum of its entries.

    chi is summed in the order ``build_modularity_matrix`` uses, so both
    report the same float.
    """
    if not params.signed:
        _require_sign_consistency(net, params)
    if len(params.gamma) != net.n_cells:
        raise DomainError("params do not match the network's layer cells")
    N, n = net.n_nodes, net.supra_size
    strengths = np.zeros((2 if params.signed else 1, n))
    coefs = np.zeros((strengths.shape[0], net.n_cells))
    entries = []  # (row, col, value) blocks of the upper triangle of B
    within_bias = 0.0
    for t in range(net.n_cells):
        lam = params.lam[t]
        edges = np.array(net.within_edges[t], dtype=float).reshape(-1, 3)
        entries.append(edges * (1.0, 1.0, lam) + (t * N, t * N, 0.0))
        for p, (stats, gamma, sign) in enumerate(_layer_terms(net, params, t)):
            if stats.total_weight <= 0:
                if not params.signed:
                    _warn_empty("any", t)
                continue
            strengths[p, t * N:(t + 1) * N] = stats.strengths
            coefs[p, t] = sign * lam * gamma / (2.0 * stats.total_weight)
            within_bias += sign * lam * (1.0 - gamma) * 2.0 * stats.total_weight
    coupling_sum = 0.0
    pairs = []
    for node, ca, cb in net.candidate_pairs():
        present = (node, ca, cb) in net.couplings
        ctil = spec.strength(net, node, ca, cb, present)
        coupling_sum += 2.0 * ctil
        pairs.append((ca * N + node, cb * N + node, ctil))
    entries.append(np.array(pairs, dtype=float).reshape(-1, 3))
    upper = np.concatenate(entries)
    upper = upper[upper[:, 2] != 0.0]
    heads, tails = upper[:, 0].astype(np.intp), upper[:, 1].astype(np.intp)
    b = _csr(np.concatenate((heads, tails)), np.concatenate((tails, heads)),
             np.concatenate((upper[:, 2], upper[:, 2])), n)
    cells = np.repeat(np.arange(net.n_cells), N)
    return QualityMatrix(*b, cells, strengths, coefs), within_bias + coupling_sum
