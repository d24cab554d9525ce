"""Recursive spectral bisection of the supra-modularity matrix.

Every community, the full vertex set included, is bisected through its
subdivision matrix: the restriction of D to the community with each
diagonal entry reduced by its row sum over the community.  For any label
vector z in {-1, +1}^C the modularity gain of the corresponding split is
``dq = 0.5 * z' M z`` because the subdivision matrix M has zero row sums;
the split is applied only when the gain is strictly positive and both
sides respect the minimum community size.

By default each accepted cut is polished by single-cell moves across the
cut while the gain improves, and a final relocation pass sweeps cells
between the finished communities; both stages are disabled by
``refine=False``, which leaves the pure sign-rule recursion.

D is held as ``modularity.QualityMatrix`` (sparse part plus per-layer
rank-one null terms), and every subdivision is formed from it: densely
when D has at most ``_DENSE_MAX`` rows or the subdivision at most
``_FORM_MAX`` members, and LAPACK then works in that one array; a larger
one stays matrix-free in both the eigensolve and cut refinement, so no
|g|^2 array is made for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .eigen import leading_eigenpair
from .modularity import (
    ModularityParams,
    Partition,
    QualityMatrix,
    Subdivision,
    _score,
    quality_matrix,
)
from .network import MultilayerNetwork
from .params import CouplingSpec

__all__ = [
    "Division",
    "DetectionResult",
    "subdivision_matrix",
    "refine_cut",
    "kl_relocate",
    "spectral_partition",
    "mspec_detect",
]

_GAIN_EPS = 1e-12
# Largest D whose subdivisions are all formed densely, so that LAPACK solves
# them.  Forming each by take(members).dense(), not as a slice of a D formed
# once, keeps one n x n array instead of two (karate replica: a detection's
# tracemalloc peak 2.25 -> 1.41 x 8 n^2 bytes) at about the same CPU: 11
# karate-replica detections (rho 0..1, omega 1, 130 subdivisions) formed
# theirs in 0.033-0.040 s, against 0.029-0.042 s by slicing, the one dense D
# included (best of 7 in each of six runs, 2 vCPUs).
_DENSE_MAX = 512
# Largest subdivision of a factored D formed densely: forming, solving and
# refining subsets of synth-4096 communities took 2.2/7.3 ms dense/matrix-free
# at 128 rows, 9.5/9.2 at 320, 12.9/9.9 at 384, 25.8/10.2 at 512 (2 vCPUs).
# The benchmark reaches both sides: of synth-4096 instances 0-89, 9 form a
# subdivision at or below it (instance 33: 152, 274 and 318 rows) and 52
# more have their smallest between 321 and 437 rows (instance 3677: 350).
# A run cycles six instances, so about half of all runs reach this branch.
_FORM_MAX = 320
# vertices per relocation block, and a cap on its (vertex, community) gains
_BLOCK_MIN, _BLOCK_MAX, _BLOCK_ENTRIES = 16, 512, 1 << 14


@dataclass(frozen=True)
class Division:
    """One bisection attempt: which community, the gain, the leading
    eigenvalue of the bisected matrix, and whether the split was applied."""

    community: int
    delta_q: float
    beta: float
    applied: bool


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a community detection run."""

    partition: Partition
    q_total: float
    divisions: tuple[Division, ...]
    soft_labels: np.ndarray | None = None
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def n_communities(self) -> int:
        return self.partition.n_communities


def subdivision_matrix(matrix: QualityMatrix, members) -> np.ndarray | Subdivision:
    """Restriction of D to ``members`` with the diagonal reduced by
    within-community row sums; every row then sums to zero.

    Formed densely when it has at most ``_FORM_MAX`` members or D at most
    ``_DENSE_MAX`` rows, and a matrix-free ``Subdivision`` otherwise.
    """
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        raise DomainError("subdivision matrix of an empty member set")
    if members.size > _FORM_MAX and matrix.size > _DENSE_MAX:
        return Subdivision(matrix, members)
    sub = matrix.take(members).dense()
    sub[np.diag_indices_from(sub)] -= sub.sum(axis=1)
    return sub


def _sign_split(u: np.ndarray) -> np.ndarray:
    """Sign rule: non-negative entries go to +1."""
    return np.where(u >= 0.0, 1.0, -1.0)


def refine_cut(matrix: np.ndarray | Subdivision, z: np.ndarray) -> np.ndarray:
    """Move single cells across the cut while the gain strictly improves.

    Greedy: repeatedly flips the single best cell with positive gain; the
    quadratic form is updated incrementally, one column per flip.
    Deterministic (first best index wins).
    """
    z = z.astype(float).copy()
    mz = matrix @ z
    diag = matrix.diagonal()
    column = matrix.column if isinstance(matrix, Subdivision) else lambda j: matrix[:, j]
    for _ in range(4 * len(z) * len(z) + 8):
        gains = 2.0 * (diag - z * mz)
        best = int(gains.argmax())
        if gains[best] <= _GAIN_EPS:
            break
        z[best] = -z[best]
        mz += 2.0 * z[best] * column(best)
    return z


def kl_relocate(matrix: QualityMatrix, labels: np.ndarray,
                max_sweeps: int = 10) -> tuple[np.ndarray, float]:
    """Greedy single-vertex relocations between communities.

    Sweeps vertices in index order, moving each to the community, a fresh
    singleton one included, with the largest strictly positive gain in raw
    Q, until a sweep moves nothing or after ``max_sweeps`` sweeps.  Returns
    the compacted labels and the summed gain.  Community strengths are kept
    per layer cell (Blondel et al., J. Stat. Mech. 2008, P10008).  Blocks of
    vertices are evaluated at once; those before a block's first mover see
    the state a one-at-a-time sweep shows them, so results are bit-identical.
    """
    labels = np.asarray(labels, dtype=int).copy()
    n = matrix.size
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    cells, k = matrix.cells, matrix.strengths
    ck = matrix.coefs[:, cells] * k
    self_entry = -(ck * k).sum(axis=0)  # D_xx; B has a zero diagonal
    gain, block = 0.0, _BLOCK_MIN
    for _ in range(max_sweeps):
        moved = False
        # totals[p][t, c]: strength of piece p over community c's cells in t
        totals = [np.bincount(cells * (n + 1) + labels, weights=kp,
                              minlength=matrix.coefs.shape[1] * (n + 1)).reshape(-1, n + 1)
                  for kp in k]
        sizes = np.bincount(labels, minlength=n + 1)
        top = int(labels.max()) + 1  # labels in use are below top; top is "new"
        x0 = 0
        while x0 < n:
            width = top + 1
            x1 = min(n, x0 + block, x0 + max(1, _BLOCK_ENTRIES // width))
            rows, t, own = np.arange(x1 - x0), cells[x0:x1], labels[x0:x1]
            # row r, column c: B summed over the neighbours of x0 + r in community c
            at = (rows * width).repeat(indptr[x0 + 1:x1 + 1] - indptr[x0:x1])
            span = slice(indptr[x0], indptr[x1])
            sums = np.bincount(at + labels[indices[span]], weights=data[span],
                               minlength=rows.size * width).reshape(rows.size, width)
            for c, tot in zip(ck[:, x0:x1, None], totals):
                sums = sums - c * tot[t, :width]
            gains = 2.0 * (sums - (sums[rows, own] - self_entry[x0:x1])[:, None])
            gains[rows, own] = 0.0
            best = gains.argmax(axis=1)
            movers = gains[rows, best] > _GAIN_EPS
            r = int(movers.argmax())
            if not movers[r]:
                block, x0 = min(2 * block, _BLOCK_MAX), x1
                continue
            x, a, b = x0 + r, int(own[r]), int(best[r])
            labels[x] = b
            moved = True
            gain += float(gains[r, b])
            for kp, tot in zip(k, totals):
                tot[t[r], a] -= kp[x]
                tot[t[r], b] += kp[x]
            sizes[a] -= 1
            sizes[b] += 1
            top = max(top, b + 1)
            while sizes[top - 1] == 0:
                top -= 1
            block, x0 = max(block // 2, _BLOCK_MIN), x + 1
        _, labels = np.unique(labels, return_inverse=True)
        if not moved:
            break
    return labels, gain


def spectral_partition(matrix: QualityMatrix, refine: bool = True,
                       min_community_size: int = 1,
                       ) -> tuple[np.ndarray, list[Division], np.ndarray | None, float]:
    """Recursive bisection engine over a quality matrix.

    Returns (labels, divisions, root_eigenvector, relocation_gain).  The
    final relocation pass runs only when ``refine`` is set; otherwise its
    gain is 0.
    """
    n = matrix.size
    if n == 0:
        raise DomainError("cannot partition an empty matrix")
    labels = np.zeros(n, dtype=int)
    divisions: list[Division] = []
    root_u: np.ndarray | None = None
    next_label = 1
    queue: list[tuple[int, np.ndarray]] = [(0, np.arange(n))]
    while queue:
        cid, members = queue.pop(0)
        if members.size < max(2, 2 * min_community_size):
            continue
        sub = subdivision_matrix(matrix, members)
        beta, u = leading_eigenpair(sub)
        if root_u is None:
            root_u = u
        z = _sign_split(u)
        if refine:
            z = refine_cut(sub, z)
        dq = 0.5 * float(z @ (sub @ z))
        del sub  # before the next subdivision is formed
        n_neg = int((z < 0).sum())
        n_pos = members.size - n_neg
        applied = (
            dq > _GAIN_EPS
            and min(n_pos, n_neg) >= min_community_size
            and n_pos > 0
            and n_neg > 0
        )
        divisions.append(Division(cid, dq, beta, applied))
        if applied:
            neg = members[z < 0]
            pos = members[z > 0]
            labels[neg] = next_label
            queue.append((cid, pos))
            queue.append((next_label, neg))
            next_label += 1
    relocation = 0.0
    if refine:
        labels, relocation = kl_relocate(matrix, labels)
    return labels, divisions, root_u, relocation


def mspec_detect(net: MultilayerNetwork, spec: CouplingSpec, params: ModularityParams,
                 min_community_size: int = 1, refine: bool = True) -> DetectionResult:
    """Detect communities by recursive spectral bisection of D.

    Starts from the whole supra vertex set and recursively bisects each
    community through its subdivision matrix until no community admits a
    strictly improving split.  The reported q_total is recomputed by the
    scorer from the final partition; in raw mode it equals the meta values
    ``q_spectral`` (chi plus the applied gains) plus ``q_relocation``.
    """
    if min_community_size < 1:
        raise DomainError("min_community_size must be >= 1")
    qm, chi = quality_matrix(net, spec, params)
    labels, divisions, root_u, relocation = spectral_partition(
        qm, refine=refine, min_community_size=min_community_size)
    partition = Partition(labels).canonical()
    q_total = _score(qm, partition.labels, params.normalization)
    q_spectral = chi + sum(d.delta_q for d in divisions if d.applied)
    meta = {
        "algorithm": "mspec",
        "refine": "true" if refine else "false",
        "chi": repr(chi),
        "q_spectral": repr(q_spectral),
        "q_relocation": repr(relocation),
        "normalization": params.normalization,
    }
    return DetectionResult(
        partition=partition,
        q_total=q_total,
        divisions=tuple(divisions),
        soft_labels=root_u,
        meta=meta,
    )
