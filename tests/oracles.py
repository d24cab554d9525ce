"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles (literal
pairwise sums, complete enumeration, dense eigendecompositions) and
deliberately shares no code with the package's production paths.
"""

from __future__ import annotations

import numpy as np

from mlmod import (
    CouplingSpec,
    Aspect,
    ModularityParams,
    MultilayerNetwork,
    generate_couplings,
)


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
    return float(spec.explicit.get((node, ca, cb), 0.0))


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
