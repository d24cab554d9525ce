"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles (literal
pairwise sums, complete enumeration, dense eigendecompositions) and
deliberately shares no code with the package's production paths.  The
line-by-line readers and builders at the end are the package's loaders
as they were before they read files in bulk; the bulk ones are checked
against them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mlmod import (
    CouplingSpec,
    Aspect,
    DomainError,
    ModularityParams,
    MultilayerNetwork,
    ParseError,
    Partition,
    generate_couplings,
)
from mlmod.eigen import leading_eigenpair
from mlmod.io import _load_layer_table


def dense_adjacency(net: MultilayerNetwork, cell: int) -> np.ndarray:
    """Symmetric adjacency of one layer cell, from its edge list."""
    a = np.zeros((net.n_nodes, net.n_nodes))
    for i, j, w in net.within_edges[cell]:
        a[i, j] += w
        a[j, i] += w
    return a


def coupling_amplitude(spec: CouplingSpec, net: MultilayerNetwork, node: int,
                       ca: int, cb: int) -> float:
    """Amplitude e >= 0 of node's copies in cells ca < cb, per strategy."""
    if spec.strategy == "uniform":
        return spec.omega
    if spec.strategy == "closeness":
        m = np.asarray(spec.closeness, dtype=float)
        return spec.omega * float(m[ca, cb]) / float(m.max())
    if spec.strategy == "temporal":
        place = [(v, s) for v, aspect in enumerate(net.aspects)
                 for s in range(len(aspect.layers))]
        (va, sa), (vb, sb) = place[ca], place[cb]
        return spec.omega if va == vb and abs(sa - sb) == 1 else 0.0
    magnitude = net.couplings.magnitude
    if magnitude is None:
        return 0.0
    return dict(zip(net.couplings, magnitude.tolist())).get((node, ca, cb), 0.0)


def _edge_subsets(params: ModularityParams):
    """(sign, per-cell gammas, weight map) of each edge subset of a layer:
    all edges when unsigned; for signed networks the positive edges and,
    entering with sign -1, the absolute weights of the negative ones."""
    if not params.signed:
        return [(1.0, params.gamma, lambda w: w)]
    gp = params.gamma_plus if params.gamma_plus is not None else params.gamma
    gm = params.gamma_minus if params.gamma_minus is not None else params.gamma
    return [(1.0, gp, lambda w: max(w, 0.0)), (-1.0, gm, lambda w: max(-w, 0.0))]


def oracle_matrix(net: MultilayerNetwork, spec: CouplingSpec,
                  params: ModularityParams) -> np.ndarray:
    """The supra-modularity matrix D, entry by entry from its definition.

    Two copies in one cell t: ``lam_t * sum_s sign_s (A^s_ij - gamma^s_t
    k^s_i k^s_j / 2 m^s)`` over the edge subsets s that have edges.  Copies
    of one node in two cells: +e if the coupling is present, -e if absent.
    Anything else: 0.
    """
    n_nodes = net.n_nodes
    n_cells = sum(len(aspect.layers) for aspect in net.aspects)
    layers = []  # per cell: (sign, gamma, A^s, k^s, 2 m^s) of each subset
    for t in range(n_cells):
        subsets = []
        for sign, gamma, weight in _edge_subsets(params):
            a = np.zeros((n_nodes, n_nodes))
            for i, j, w in net.within_edges[t]:
                a[i, j] += weight(w)
                a[j, i] += weight(w)
            k = a.sum(axis=1)
            subsets.append((sign, gamma[t], a, k, float(k.sum())))
        layers.append(subsets)
    n = n_nodes * n_cells
    d = np.zeros((n, n))
    for x in range(n):
        tx, i = divmod(x, n_nodes)
        for y in range(n):
            ty, j = divmod(y, n_nodes)
            if tx == ty:
                d[x, y] = params.lam[tx] * sum(
                    sign * (a[i, j] - gamma * k[i] * k[j] / two_m)
                    for sign, gamma, a, k, two_m in layers[tx] if two_m > 0)
            elif i == j:
                ca, cb = min(tx, ty), max(tx, ty)
                e = coupling_amplitude(spec, net, i, ca, cb)
                d[x, y] = e if (i, ca, cb) in net.couplings else -e
    return d


def oracle_hamiltonian(matrix: np.ndarray, labels) -> float:
    """H = -sum_xy D_xy (2 delta(g_x, g_y) - 1)."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return -float((matrix * np.where(same, 1.0, -1.0)).sum())


def oracle_mu(net: MultilayerNetwork, spec: CouplingSpec) -> float:
    """Normalization factor: sum_t 2 m_t, counting |w| for every edge, plus
    the amplitudes of all ordered candidate pairs."""
    n_cells = sum(len(aspect.layers) for aspect in net.aspects)
    mu = sum(2.0 * abs(w) for edges in net.within_edges for _, _, w in edges)
    for ca in range(n_cells):
        for cb in range(ca + 1, n_cells):
            for node in range(net.n_nodes):
                mu += 2.0 * coupling_amplitude(spec, net, node, ca, cb)
    return mu


def q_pairwise(matrix: np.ndarray, labels) -> float:
    """Literal ordered-pair sum of same-community matrix entries."""
    labels = list(labels)
    n = matrix.shape[0]
    total = 0.0
    for x in range(n):
        for y in range(n):
            if labels[x] == labels[y]:
                total += float(matrix[x, y])
    return total


def enumerate_max_q(matrix: np.ndarray) -> float:
    """Exhaustive maximum of q_pairwise over all set partitions (small n)."""
    n = matrix.shape[0]
    best = -np.inf
    labels = [0] * n

    def rec(i: int, kmax: int):
        nonlocal best
        if i == n:
            q = q_pairwise(matrix, labels)
            if q > best:
                best = q
            return
        for c in range(kmax + 1):
            labels[i] = c
            rec(i + 1, max(kmax, c + 1))

    rec(0, 0)
    return float(best)


def max_partition_q(matrix: np.ndarray) -> float:
    """Exact maximum of q_pairwise over all set partitions via subset DP.

    Enumerates every block containing the lowest unassigned element, so it
    covers exactly the set partitions; O(3^n) time, O(n 2^n) space.
    """
    n = matrix.shape[0]
    full = 1 << n
    rowsum = [[0.0] * full for _ in range(n)]
    for i in range(n):
        ri = matrix[i].tolist()
        rs = rowsum[i]
        for mask in range(1, full):
            lowbit = mask & -mask
            rs[mask] = rs[mask ^ lowbit] + ri[lowbit.bit_length() - 1]
    w = [0.0] * full
    diag = np.diagonal(matrix).tolist()
    for mask in range(1, full):
        lowbit = mask & -mask
        low = lowbit.bit_length() - 1
        rest = mask ^ lowbit
        w[mask] = w[rest] + 2.0 * rowsum[low][rest] + diag[low]
    opt = [0.0] * full
    for mask in range(1, full):
        lowbit = mask & -mask
        rest = mask ^ lowbit
        best = -np.inf
        sub = rest
        while True:
            block = sub | lowbit
            cand = w[block] + opt[mask ^ block]
            if cand > best:
                best = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
        opt[mask] = best
    return float(opt[full - 1])


def best_bipartition(matrix: np.ndarray):
    """Brute force over the 2^(n-1) bipartitions.

    Returns (best_gain, best_z) where the gain is
    (z' M z - sum(M)) / 2, i.e. q_pairwise(split) - q_pairwise(together).
    """
    n = matrix.shape[0]
    total = float(matrix.sum())
    best_gain = -np.inf
    best_z = None
    for bits in range(1 << (n - 1)):
        z = np.ones(n)
        for b in range(n - 1):
            if bits >> b & 1:
                z[b + 1] = -1.0
        gain = 0.5 * (float(z @ matrix @ z) - total)
        if gain > best_gain:
            best_gain = gain
            best_z = z
    return best_gain, best_z


def dense_subdivision(matrix: np.ndarray, members) -> np.ndarray:
    """Dense restriction to members, diagonal reduced by the row sums."""
    sub = np.array(matrix[np.ix_(members, members)], dtype=float)
    sub[np.diag_indices_from(sub)] -= sub.sum(axis=1)
    return sub


def bit_symmetric(indptr, indices, data) -> bool:
    """Whether a CSR matrix equals its transpose bit for bit: its entries,
    as a set of (row, column, value bits), are their own mirror image."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    entries = set(zip(rows.tolist(), np.asarray(indices).tolist(),
                      np.asarray(data, dtype=float).view(np.uint64).tolist()))
    return entries == {(col, row, bits) for row, col, bits in entries}


def _stable_csr(rows, cols, vals, n: int):
    """(indptr, indices, data) with the entries ordered by a stable sort
    of their rows, so each row keeps its entries in their given order."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return indptr, np.asarray(cols, dtype=np.int64)[order], np.asarray(vals, dtype=float)[order]


def csr_reference(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams):
    """The sparse part B of the factored D as (indptr, indices, data), in
    the entry order its CSR products sum each row in: every cell's edges in
    table order, then each candidate coupling (cell pair, then node), each
    non-zero entry once from its head and once from its tail, and the rows
    ordered by a stable sort."""
    n_nodes, entries = net.n_nodes, []
    for t, edges in enumerate(net.within_edges):
        entries += [(t * n_nodes + i, t * n_nodes + j, w * params.lam[t]) for i, j, w in edges]
    n_cells = len(net.within_edges)
    for ca, cb in itertools.combinations(range(n_cells), 2):
        for node in range(n_nodes):
            e = coupling_amplitude(spec, net, node, ca, cb)
            entries.append((ca * n_nodes + node, cb * n_nodes + node,
                            e if (node, ca, cb) in net.couplings else -e))
    heads, tails, vals = (list(c) for c in zip(*entries)) if entries else ([], [], [])
    kept = [k for k, v in enumerate(vals) if v != 0.0]
    heads, tails, vals = ([a[k] for k in kept] for a in (heads, tails, vals))
    return _stable_csr(heads + tails, tails + heads, vals + vals, n_nodes * n_cells)


def take_reference(matrix, idx):
    """(indptr, indices, data) of rows and columns ``idx`` of a factored D,
    by a stable sort of the gathered entries' new rows."""
    idx = np.asarray(idx, dtype=np.int64)
    pos = {int(x): k for k, x in enumerate(idx)}
    rows, cols, vals = [], [], []
    for r, x in enumerate(idx.tolist()):
        for at in range(matrix.indptr[x], matrix.indptr[x + 1]):
            y = int(matrix.indices[at])
            if y in pos:
                rows.append(r)
                cols.append(pos[y])
                vals.append(matrix.data[at])
    return _stable_csr(rows, cols, vals, idx.size)


def dense_leading_eigenpair(matrix: np.ndarray):
    """Full dense symmetric eigendecomposition oracle."""
    vals, vecs = np.linalg.eigh(matrix)
    return float(vals[-1]), vecs[:, -1]


def random_instance(seed: int, max_supra: int = 12):
    """Random small multilayer instance with mixed parameters.

    Guarantees at least one edge per layer.  Returns (net, spec, params).
    """
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(2, 4))
    n_nodes = int(rng.integers(2, max(3, max_supra // n_cells + 1)))
    n_nodes = max(2, min(n_nodes, max_supra // n_cells))
    layers = []
    for _ in range(n_cells):
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.5:
                    edges.append((i, j, float(rng.integers(1, 4))))
        if not edges:
            i, j = sorted(rng.choice(n_nodes, size=2, replace=False).tolist())
            edges.append((int(i), int(j), 1.0))
        layers.append(tuple(edges))
    if n_cells >= 3 and rng.random() < 0.5:
        aspects = (
            Aspect("a", tuple(f"l{t}" for t in range(n_cells - 1))),
            Aspect("b", ("m0",)),
        )
    else:
        aspects = (Aspect("a", tuple(f"l{t}" for t in range(n_cells))),)
    net = MultilayerNetwork(
        n_nodes=n_nodes, aspects=aspects, within_edges=tuple(layers)
    )
    rho = float(rng.choice([0.0, 0.5, 1.0]))
    net = net.with_couplings(generate_couplings(net, rho, int(rng.integers(1 << 30))))
    gamma = tuple(float(rng.choice([0.5, 1.0])) for _ in range(n_cells))
    omega = float(rng.choice([0.0, 0.5, 1.0]))
    spec = CouplingSpec(strategy="uniform", omega=omega)
    params = ModularityParams.for_network(net, gamma=gamma)
    return net, spec, params


def random_partition(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    k = k or int(rng.integers(1, n + 1))
    return rng.integers(0, k, size=n)


def relocate_reference(matrix, labels, max_sweeps: int = 10):
    """Relocation sweeps one vertex at a time: ``kl_relocate`` as it was
    before it evaluated blocks of vertices, kept as its reference.

    Each vertex moves to the community, a fresh one included, with the
    largest gain above 1e-12 (first index on ties); the community totals
    are updated after every move.  Returns (compacted labels, summed gain).
    """
    labels = np.asarray(labels, dtype=int).copy()
    n = matrix.size
    indptr, indices, data = matrix.indptr.tolist(), matrix.indices, matrix.data
    cells, k = matrix.cells.tolist(), matrix.strengths
    ck = matrix.coefs[:, matrix.cells] * k
    self_entry = (-(ck * k).sum(axis=0)).tolist()
    ck = ck.T.tolist()
    slots = matrix.cells * (n + 1)
    gain = 0.0
    for _ in range(max_sweeps):
        moved = False
        totals = [np.bincount(slots + labels, weights=kp,
                              minlength=matrix.coefs.shape[1] * (n + 1)).reshape(-1, n + 1)
                  for kp in k]
        sizes = np.bincount(labels, minlength=n + 1)
        top = int(labels.max()) + 1
        for x in range(n):
            a, t = labels[x], cells[x]
            lo, hi = indptr[x], indptr[x + 1]
            sums = np.bincount(labels[indices[lo:hi]], weights=data[lo:hi], minlength=top + 1)
            for c, tot in zip(ck[x], totals):
                sums = sums - c * tot[t, :top + 1]
            gains = 2.0 * (sums - (sums[a] - self_entry[x]))
            gains[a] = 0.0
            best = int(gains.argmax())
            if gains[best] > 1e-12:
                labels[x] = best
                moved = True
                gain += float(gains[best])
                for kp, tot in zip(k, totals):
                    tot[t, a] -= kp[x]
                    tot[t, best] += kp[x]
                sizes[a] -= 1
                sizes[best] += 1
                top = max(top, best + 1)
                while sizes[top - 1] == 0:
                    top -= 1
        _, labels = np.unique(labels, return_inverse=True)
        if not moved:
            break
    return labels, gain


def greedy_merge_reference(matrix: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Greedy merging by a scan of the whole work matrix, the reference for
    ``baselines._greedy_merge``, which finds the same pair from bounds on
    the row maxima.

    Every merge takes the row-major first argmax over the whole work
    matrix and relabels all n labels.  Returns (labels, Q after every
    merge), starting from Q = trace(matrix).
    """
    n = matrix.shape[0]
    labels = np.arange(n)
    w = matrix.copy()
    alive = np.ones(n, dtype=bool)
    q_trace: list[float] = []
    q = float(np.trace(matrix))
    work = w.copy()
    np.fill_diagonal(work, -np.inf)
    while True:
        a, b = divmod(int(np.argmax(work)), n)
        gain = 2.0 * float(work[a, b])
        if not np.isfinite(gain) or gain <= 1e-12:
            break
        merged = w[a] + w[b]
        w[a, :] = merged
        w[:, a] = merged
        alive[b] = False
        work[a, :] = np.where(alive, merged, -np.inf)
        work[:, a] = work[a, :]
        work[b, :] = -np.inf
        work[:, b] = -np.inf
        work[a, a] = -np.inf
        labels[labels == b] = a
        q += gain
        q_trace.append(q)
    return labels, q_trace


def bisect(matrix: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Sign-rule bisection of a symmetric matrix by its leading eigenpair.

    Returns ``(z, delta_q, beta)``: the +-1 assignment (non-negative
    eigenvector entries go to +1), the gain ``(z' M z - sum(M)) / 2`` of
    the split and the leading eigenvalue.
    """
    beta, u = leading_eigenpair(matrix)
    z = np.where(u >= 0.0, 1.0, -1.0)
    return z, 0.5 * float(z @ (matrix @ z) - matrix.sum()), beta


def node_index(i: int, s: int, v: int, net: MultilayerNetwork) -> int:
    """Supra index of node i in layer s of aspect v, all ids 1-based, by
    walking the aspects."""
    if not (1 <= v <= len(net.aspects)):
        raise DomainError(f"aspect id {v} out of range")
    if not (1 <= s <= len(net.aspects[v - 1].layers)):
        raise DomainError(f"layer id {s} out of range for aspect {v}")
    if not (1 <= i <= net.n_nodes):
        raise DomainError(f"node id {i} out of range")
    cell = sum(len(aspect.layers) for aspect in net.aspects[:v - 1]) + s - 1
    return cell * net.n_nodes + i


def partition_from_cell_labels(net: MultilayerNetwork, labels) -> Partition:
    """Partition from a mapping (i, s, v) 1-based -> label; every cell required."""
    out = np.full(net.supra_size, -1, dtype=np.int64)
    for (i, s, v), label in labels.items():
        out[node_index(i, s, v, net) - 1] = int(label)
    if (out < 0).any():
        raise DomainError(f"{int((out < 0).sum())} supra cells left unlabeled")
    return Partition(out)


def inverse_node_index(x: int, net: MultilayerNetwork) -> tuple[int, int, int]:
    """Supra index -> (i, s, v), all ids 1-based, by walking the aspects."""
    if not (1 <= x <= net.supra_size):
        raise DomainError(f"supra index {x} out of range")
    cell, i0 = divmod(x - 1, net.n_nodes)
    for v, aspect in enumerate(net.aspects):
        if cell < len(aspect.layers):
            return i0 + 1, cell + 1, v + 1
        cell -= len(aspect.layers)
    raise DomainError(f"supra index {x} out of range")


# -- line-by-line references of the loaders and builders ---------------------

def _data_lines(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def _parse_int(token: str, what: str, path: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", path, lineno) from None


def _parse_float(token: str, what: str, path: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected number {what}, got {token!r}", path, lineno) from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"non-finite {what}", path, lineno)
    return value


def normalize_edges_reference(raw, n_nodes: int) -> tuple:
    """0-based, i < j, duplicates summed in input order through a dict, sorted."""
    acc: dict[tuple[int, int], float] = {}
    for i, j, w in raw:
        if i == j:
            raise DomainError(f"self-loop on node {i + 1} rejected")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise DomainError(f"edge ({i + 1}, {j + 1}) out of node range 1..{n_nodes}")
        key = (i, j) if i < j else (j, i)
        acc[key] = acc.get(key, 0.0) + float(w)
    return tuple(sorted((i, j, w) for (i, j), w in acc.items()))


def generate_couplings_reference(net: MultilayerNetwork, rho: float, seed: int) -> frozenset:
    """One ``rng.random(N)`` call per cell pair in combinations order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = []
    for ca, cb in itertools.combinations(range(net.n_cells), 2):
        draws = rng.random(net.n_nodes)
        for node in np.nonzero(draws < rho)[0]:
            chosen.append((int(node), ca, cb))
    return frozenset(chosen)


def _cell_index_reference(net: MultilayerNetwork, layer: int, aspect: int) -> int:
    """Global 0-based cell of 0-based (layer, aspect), by walking the aspects."""
    if not (0 <= aspect < len(net.aspects)):
        raise DomainError(f"aspect index {aspect} out of range")
    if not (0 <= layer < len(net.aspects[aspect].layers)):
        raise DomainError(f"layer index {layer} out of range for aspect {aspect}")
    return sum(len(a.layers) for a in net.aspects[:aspect]) + layer


def load_couplings_reference(path: str, net: MultilayerNetwork, n_nodes: int):
    """(frozenset of coupling triples, dict of magnitudes or None), line by line."""
    couplings = set()
    magnitudes: dict[tuple[int, int, int], float] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) not in (5, 6):
            raise ParseError(
                "expected: nodeId layerA aspectA layerB aspectB [magnitude]", path, lineno
            )
        node = _parse_int(parts[0], "node id", path, lineno)
        sa = _parse_int(parts[1], "layer id", path, lineno)
        va = _parse_int(parts[2], "aspect id", path, lineno)
        sb = _parse_int(parts[3], "layer id", path, lineno)
        vb = _parse_int(parts[4], "aspect id", path, lineno)
        magnitude = (_parse_float(parts[5], "magnitude", path, lineno)
                     if len(parts) == 6 else None)
        if not (1 <= node <= n_nodes):
            raise DomainError(f"{path}:{lineno}: node id {node} out of range 1..{n_nodes}")
        try:
            ca = _cell_index_reference(net, sa - 1, va - 1)
            cb = _cell_index_reference(net, sb - 1, vb - 1)
        except DomainError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        if ca == cb:
            raise DomainError(f"{path}:{lineno}: coupling links a layer with itself")
        key = (node - 1, min(ca, cb), max(ca, cb))
        couplings.add(key)
        if magnitude is not None:
            if magnitude < 0:
                raise DomainError(f"{path}:{lineno}: magnitude must be >= 0, got {magnitude}")
            magnitudes[key] = magnitude
    return frozenset(couplings), (magnitudes or None)


def load_multiplex_reference(edge_path: str, layer_path: str | None = None,
                             n_nodes: int | None = None) -> MultilayerNetwork:
    """The edge (and layer) file read line by line, edges built as tuples."""
    if n_nodes is not None and n_nodes < 1:
        raise DomainError("declared node count must be >= 1")
    if layer_path is not None:  # read first: an undeclared layer id is a row's last rule
        aspects, declared, cells = _load_layer_table(layer_path)
        cell_of_layer_id = dict(zip(declared.tolist(), cells.tolist()))
    records = []
    for lineno, line in _data_lines(edge_path):
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError("expected: layerId nodeId nodeId [weight]", edge_path, lineno)
        layer_id = _parse_int(parts[0], "layer id", edge_path, lineno)
        i = _parse_int(parts[1], "node id", edge_path, lineno)
        j = _parse_int(parts[2], "node id", edge_path, lineno)
        w = (_parse_float(parts[3], "edge weight", edge_path, lineno)
             if len(parts) == 4 else 1.0)
        if i < 1 or j < 1:
            raise ParseError(f"node ids must be >= 1, got ({i}, {j})", edge_path, lineno)
        if layer_id < 1:
            raise ParseError(f"layer id must be >= 1, got {layer_id}", edge_path, lineno)
        if i == j:
            raise DomainError(f"{edge_path}:{lineno}: self-loop on node {i} rejected")
        if n_nodes is not None and max(i, j) > n_nodes:
            raise DomainError(
                f"{edge_path}:{lineno}: node id {max(i, j)} exceeds declared count {n_nodes}")
        if layer_path is not None and layer_id not in cell_of_layer_id:
            raise ParseError(f"layer id {layer_id} not declared in {layer_path}",
                             edge_path, lineno)
        records.append((lineno, layer_id, i, j, w))
    if layer_path is None:
        layer_ids = sorted({rec[1] for rec in records})
        if not layer_ids:
            raise ParseError("edge file has no edges and no layer file was given", edge_path)
        if layer_ids != list(range(1, len(layer_ids) + 1)):
            raise ParseError(
                f"layer ids must be contiguous from 1 without a layer file, got {layer_ids}",
                edge_path,
            )
        aspects = (Aspect(name="aspect-1", layers=tuple(f"layer-{i}" for i in layer_ids)),)
        cell_of_layer_id = {lid: lid - 1 for lid in layer_ids}
    seen = {i for _, _, i, _, _ in records} | {j for _, _, _, j, _ in records}
    if n_nodes is None:
        if not seen:
            raise ParseError("cannot infer node count from an empty edge file; "
                             "declare it explicitly", edge_path)
        n_nodes = max(seen)
        missing = set(range(1, n_nodes + 1)) - seen
        if missing:
            raise ParseError(
                f"node ids have gaps (missing {sorted(missing)[:5]}...); "
                "declare the node count explicitly instead of compacting",
                edge_path,
            )
    per_cell = [[] for _ in range(sum(len(a.layers) for a in aspects))]
    for _, layer_id, i, j, w in records:
        per_cell[cell_of_layer_id[layer_id]].append((i - 1, j - 1, w))
    return MultilayerNetwork(n_nodes=n_nodes, aspects=aspects, within_edges=tuple(
        normalize_edges_reference(cell, n_nodes) for cell in per_cell))


def write_multiplex(net: MultilayerNetwork, edge_path: str, layer_path: str,
                    coupling_path: str | None = None) -> None:
    """Write ``net`` as the edge, layer and coupling files ``load_multiplex``
    reads, with each coupling's magnitude where the network has them."""
    def write(path, lines):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))

    write(edge_path, [f"{t + 1} {i + 1} {j + 1} {w!r}"
                      for t, edges in enumerate(net.within_edges) for i, j, w in edges])
    layers = [(v + 1, label) for v, aspect in enumerate(net.aspects) for label in aspect.layers]
    write(layer_path, [f"{t + 1} {v} {label}" for t, (v, label) in enumerate(layers)])
    if coupling_path is not None:  # a coupling names (layer in its aspect, aspect)
        ids = [f"{s + 1} {v + 1}" for v, size in enumerate(net.aspect_sizes) for s in range(size)]
        magnitude = net.couplings.magnitude
        write(coupling_path, [
            f"{node + 1} {ids[ca]} {ids[cb]}"
            + ("" if magnitude is None else f" {float(magnitude[k])!r}")
            for k, (node, ca, cb) in enumerate(net.couplings)])


def layer_stats_reference(net: MultilayerNetwork, cell: int, sign: str | None = None):
    """(strengths, total weight) of one layer or its '+' / '-' subset, one
    edge at a time: k_i, then k_j, then m."""
    k = np.zeros(net.n_nodes)
    m = 0.0
    for i, j, w in net.within_edges[cell]:
        if (sign == "+" and w <= 0) or (sign == "-" and w >= 0):
            continue
        w = -w if sign == "-" else w
        k[i] += w
        k[j] += w
        m += w
    return k, m
