"""Multilayer modularity: the supra-modularity matrix D and the score.

Raw modularity of a partition g is the sum of supra-modularity matrix
entries over ordered same-community pairs (diagonal included):

    Q = sum_xy D_xy [g_x = g_y]

with within-layer entries ``lam * (A_ij - gamma * k_i k_j / 2m)`` and
node-copy entries equal to the signed coupling strengths.  The sum of all
entries is chi; the Hamiltonian of the static derivation is
``H = -sum_xy D_xy (2 [g_x = g_y] - 1) = chi - 2 Q``.

``quality_matrix`` is the only code that builds D, and the only code that
sums each layer's strengths k and total weight m for it.  It holds D in
factored form, a sparse matrix plus one rank-one null term per layer and
null piece, built in O(edges + live coupling entries + L^2) and held and
applied in O(nnz + N L); the optimizers and the scorer work on it, and
``build_modularity_matrix`` assembles the dense (N L)^2 array for small n.
The independent check of D, Q and H is ``tests/oracles.py``, built entry
by entry from the definitions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .network import MultilayerNetwork
from .params import CouplingSpec, ModularityParams, check_closeness

_ENTRIES = 1 << 13  # per row block of the scans over the entries of B

__all__ = [
    "Partition",
    "SupraModularityMatrix",
    "QualityMatrix",
    "Subdivision",
    "quality_matrix",
    "build_modularity_matrix",
    "modularity",
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


def modularity(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams,
               partition: Partition) -> float:
    """Multilayer modularity of a partition, signed or unsigned.

    Raw mode returns the sum of D over same-community pairs; normalized
    mode divides it by ``mu = sum_t 2 m_t + sum |C~|`` over ordered pairs,
    a convention documented as ours.
    """
    labels = partition.labels
    if labels.shape != (net.supra_size,):
        raise DomainError(
            f"partition labels {labels.shape} do not cover the "
            f"supra size {net.supra_size}"
        )
    return _score(quality_matrix(net, spec, params)[0], labels, params.normalization)


def _score(qm: QualityMatrix, labels: np.ndarray, normalization: str) -> float:
    """``modularity`` on a built quality matrix.

    Evaluated on the factored D, over blocks of rows: per cell, the
    same-community entries of B less ``coefs[p, t]`` times the summed
    squared community strength totals of each null piece; the
    same-community coupling entries are added last.
    """
    L = qm.coefs.shape[1]
    # B over same-community pairs: a slot per cell, couplings in L, summed in CSR order
    part, cross_abs = np.zeros(L + 1), []
    for lo, hi, span in _row_blocks(qm.indptr):
        rows = np.repeat(np.arange(lo, hi), np.diff(qm.indptr[lo:hi + 1]))
        cols, data = qm.indices[span], qm.data[span]
        cross = qm.cells[rows] != qm.cells[cols]
        same = labels[rows] == labels[cols]
        np.add.at(part, np.where(cross, L, qm.cells[rows])[same], data[same])
        cross_abs.append(np.abs(data[cross]))
    _, comm = np.unique(labels, return_inverse=True)
    k_max = int(comm.max()) + 1
    squares = [(np.bincount(qm.cells * k_max + comm, weights=k, minlength=L * k_max)
                .reshape(L, k_max) ** 2).sum(axis=1) for k in qm.strengths]
    per_cell = part[:L] - (qm.coefs * np.array(squares)).sum(axis=0)
    q = float(np.cumsum(per_cell)[-1] + part[L])
    if normalization == "normalized":
        mu = float(qm.strengths.sum() + np.concatenate(cross_abs).sum())
        return q / mu if mu > 0 else 0.0
    return q


@dataclass(frozen=True)
class SupraModularityMatrix:
    """Dense symmetric supra-modularity matrix with chi, the sum of its entries."""

    matrix: np.ndarray
    chi: float


def build_modularity_matrix(net: MultilayerNetwork, spec: CouplingSpec,
                            params: ModularityParams) -> SupraModularityMatrix:
    """D as a dense (N L)^2 array, assembled from ``quality_matrix``;
    for small n only."""
    qm, chi = quality_matrix(net, spec, params)
    return SupraModularityMatrix(matrix=qm.dense(), chi=chi)


def _row_blocks(indptr: np.ndarray):
    """(first row, end row, entry slice) of CSR row blocks of about ``_ENTRIES`` entries."""
    cuts = np.searchsorted(indptr, np.arange(0, indptr[-1], _ENTRIES), side="right") - 1
    cuts = np.unique(np.concatenate(([0], cuts, [indptr.size - 1])))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        yield lo, hi, slice(indptr[lo], indptr[hi])


@dataclass(frozen=True)
class QualityMatrix:
    """The supra-modularity matrix D in factored form, O(nnz + N L) memory.

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

    def __post_init__(self):
        for a in (self.indptr, self.indices, self.data, self.cells, self.strengths, self.coefs):
            a.flags.writeable = False  # takes share them

    @property
    def size(self) -> int:
        return self.cells.size

    def take(self, idx) -> "QualityMatrix":
        """Rows and columns ``idx`` of D, in that order (D itself for all, in order)."""
        idx = np.asarray(idx, dtype=np.intp)
        if np.array_equal(idx, np.arange(self.size)):
            return self
        pos = np.full(self.size, -1)
        pos[idx] = np.arange(idx.size)
        lo = self.indptr[idx]
        lengths = self.indptr[idx + 1] - lo
        # positions in indices/data of the entries of rows idx, row after row
        at = np.repeat(lo - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        cols = pos[self.indices[at]]
        keep = cols >= 0
        # rows come out in order, so no sort: each row's count of kept entries
        indptr = np.concatenate(([0], np.cumsum(keep)))[np.concatenate(([0], np.cumsum(lengths)))]
        return QualityMatrix(indptr, cols[keep], self.data[at[keep]],
                             self.cells[idx], self.strengths[:, idx], self.coefs)

    def dense(self) -> np.ndarray:
        """D as an n x n array, for small n."""
        out = np.zeros((self.size, self.size))
        out[np.repeat(np.arange(self.size), np.diff(self.indptr)), self.indices] = self.data
        for t in np.unique(self.cells):
            idx = np.flatnonzero(self.cells == t)
            lo, hi = idx[0], idx[-1] + 1
            # cells run in supra order, so a cell of a sorted take is one slice
            block = np.s_[lo:hi, lo:hi] if hi - lo == idx.size else np.ix_(idx, idx)
            for k, c in zip(self.strengths[:, idx], self.coefs[:, t]):
                out[block] -= c * np.outer(k, k)
        return out


class Subdivision:
    """Subdivision matrix of D over members g in factored form:
    ``M = D_gg - diag(D_gg 1)``, so every row of M sums to zero.

    A product costs O(nnz(B_gg) + |g|): the sparse part through scipy's
    CSR kernel, one per-cell sum per null piece, and the row-sum shift
    (Newman, PNAS 103:8577, 2006).  It holds no array of one value per
    entry beyond its take of D, which is D itself for all of D.  M is
    symmetric by construction, so it is not checked here: ``quality_matrix``
    writes both ends of every entry of B from one value, and a take maps
    rows and columns through one index.
    """

    def __init__(self, matrix: QualityMatrix, members):
        # Imported here: only the matrix-free path needs it, and ARPACK's
        # import loads it there anyway.
        from scipy.sparse import csr_array

        sub = matrix.take(members)
        m = sub.size
        self.shape = (m, m)
        self.indptr, self.cols, self.vals = sub.indptr, sub.indices, sub.data
        self.b = csr_array((sub.data, sub.indices, sub.indptr), shape=self.shape)
        self.cells = sub.cells
        self.k = sub.strengths
        self.c = sub.coefs[:, sub.cells]  # coefficient of each member's cell
        self.n_cells = sub.coefs.shape[1]
        # scipy's CSR kernel sums each row's entries in order, from 0.0, as
        # a bincount over them does
        self.rowsum = self.b @ np.ones(m) - self._null(np.ones(m))
        self.null_diag = (self.c * (self.k * self.k)).sum(axis=0)

    def _null(self, x: np.ndarray) -> np.ndarray:
        """Product of the same-cell null terms with x."""
        return sum(c * (k * np.bincount(self.cells, weights=k * x,
                                        minlength=self.n_cells)[self.cells])
                   for k, c in zip(self.k, self.c))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.b @ x - self._null(x) - self.rowsum * x

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

    def norm_inf(self) -> float:
        """Exact max absolute row sum of M, without forming M."""
        fix = np.empty(self.shape[0])
        for lo, hi, span in _row_blocks(self.indptr):
            rows = np.repeat(np.arange(lo, hi), np.diff(self.indptr[lo:hi + 1]))
            cols = self.cols[span]
            same = self.cells[rows] == self.cells[cols]
            null_nz = sum(c[rows] * (k[rows] * k[cols]) for k, c in zip(self.k, self.c)) * same
            # entries where B is non-zero replace their null-only contribution
            fix[lo:hi] = np.bincount(rows - lo, minlength=hi - lo,
                                     weights=np.abs(self.vals[span] - null_nz) - np.abs(null_nz))
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


def _coupling_entries(net: MultilayerNetwork, spec: CouplingSpec):
    """B's coupling entries above its diagonal, (rows, cols, values), for the
    node-copy pairs whose amplitude e can be non-zero: ``+e`` where the
    coupling is present and ``-e`` where it is absent.  They come in
    candidate order: cell pairs (a, b), a < b, in ``itertools.combinations``
    order, then nodes.  The strategy gives e once per cell pair (see
    ``CouplingSpec``); the explicit one gives each listed coupling its
    magnitude, and 0 to every other pair.
    """
    L, N = net.n_cells, net.n_nodes
    node, a, b = net.couplings.rows.T
    if spec.strategy == "explicit":
        order, mag = np.lexsort((node, b, a)), net.couplings.magnitude
        return (a[order] * N + node[order], b[order] * N + node[order],
                np.zeros(order.size) if mag is None else mag[order])
    ca, cb = np.triu_indices(L, 1)
    if spec.strategy == "uniform":
        e = np.full(ca.size, spec.omega, dtype=float)
    elif spec.strategy == "closeness":
        m = check_closeness(spec.closeness, L)
        e = spec.omega * m[ca, cb] / m.max()
    else:  # temporal: consecutive layers of one aspect
        if net.dims is not None and len(net.dims) > 1:
            raise DomainError(
                f"temporal coupling on a {'x'.join(map(str, net.dims))} grid would couple "
                "row-major neighbours; couple its aspects with closeness or explicit")
        aspect = np.repeat(np.arange(len(net.aspects)), net.aspect_sizes)
        e = np.where((cb - ca == 1) & (aspect[ca] == aspect[cb]), spec.omega, 0.0)
    live = np.flatnonzero(e)
    rank = np.full(e.size, -1)  # of each live cell pair among the live ones
    rank[live] = np.arange(live.size)
    at = rank[a * (2 * L - a - 1) // 2 + b - a - 1]  # rank of each coupling's cell pair, or -1
    vals = np.repeat(-e[live], N)
    vals[at[at >= 0] * N + node[at >= 0]] *= -1.0
    heads, tails = (c[live, None] * N + np.arange(N) for c in (ca, cb))
    return heads.ravel(), tails.ravel(), vals


def quality_matrix(net: MultilayerNetwork, spec: CouplingSpec,
                   params: ModularityParams) -> tuple[QualityMatrix, float]:
    """D in factored form, and chi, the sum of its entries.

    The null model comes from every cell's edges stacked once: each null
    piece's strengths and each cell's total weight are sums over them, edge
    by edge in table order (an edge adds to k_i, then k_j).  A layer cell,
    or in signed networks its '+' or '-' edge subset, with no edges warns
    and gets no null term.
    """
    N, n, L = net.n_nodes, net.supra_size, net.n_cells
    cell = np.repeat(np.arange(L), [len(e) for e in net.within_edges])
    heads, tails, w = (np.concatenate([getattr(e, a) for e in net.within_edges]) for a in "ijw")
    heads += cell * N
    tails += cell * N
    if (w < 0).any() and not params.signed:
        raise DomainError(
            "network has negative edge weights; use signed modularity parameters"
        )
    if len(params.gamma) != L:
        raise DomainError("params do not match the network's layer cells")
    if params.signed:
        sign, gamma = np.array([[1.0], [-1.0]]), params.gamma_signed()
        kinds = ("positive edges", "negative edges")
        pieces = (np.where(w > 0, w, 0.0), np.where(w < 0, -w, 0.0))
    else:
        sign, gamma, kinds, pieces = np.ones((1, 1)), (params.gamma,), ("edges",), (w,)
    lam, gamma = np.asarray(params.lam, dtype=float), np.array(gamma)
    ends = np.column_stack((heads, tails)).ravel()
    strengths = np.array([np.bincount(ends, weights=np.repeat(k, 2), minlength=n)
                          for k in pieces])
    m = np.array([np.bincount(cell, weights=k, minlength=L) for k in pieces])
    full = m > 0
    coefs = np.divide(sign * lam * gamma, 2.0 * m, out=np.zeros(m.shape), where=full)
    # one running sum from 0.0, cell-major and piece-minor, over the non-empty pairs
    bias = (sign * lam * (1.0 - gamma) * 2.0 * m).T[full.T]
    within_bias = float(np.cumsum(np.r_[0.0, bias])[-1])
    for t, p in zip(*np.nonzero(~full.T)):  # cell by cell, then piece by piece
        warnings.warn(f"layer cell {t} has no {kinds[p]}; its within-layer term is 0",
                      RuntimeWarning, stacklevel=2)
    # (rows, cols, values) blocks of B's upper triangle; the stacked edges are
    # the first, and nothing else of them is held through the CSR build
    entries = [(heads, tails, w * lam[cell])]
    del heads, tails, w, cell, ends, pieces
    entries.append(_coupling_entries(net, spec))
    # one pair at a time in candidate order (a running sum, not np.sum's pairwise one)
    coupling_sum = float(np.cumsum(np.r_[0.0, 2.0 * entries[1][2]])[-1])
    heads, tails, vals = (np.concatenate(block) for block in zip(*entries))
    del entries
    keep = slice(None) if vals.all() else vals != 0.0
    rows, vals = np.concatenate((heads[keep], tails[keep])), vals[keep]
    del heads, tails
    # rows in stable-sort order, which products sum in; k ± e is entry k's other end
    order, e = np.argsort(rows, kind="stable"), vals.size
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    order += e
    np.subtract(order, 2 * e, out=order, where=order >= 2 * e)
    indices = rows[order]
    del rows
    np.subtract(order, e, out=order, where=order >= e)
    cells = np.repeat(np.arange(L), N)
    return (QualityMatrix(indptr, indices, vals[order], cells, strengths, coefs),
            within_bias + coupling_sum)
