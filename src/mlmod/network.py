"""Aspect-layer multilayer networks and their supra representation.

A network has N nodes shared by every layer.  Layers are grouped into
aspects; layer cell ``s`` of aspect ``v`` is addressed as (s, v) with
1-based ids at the API boundary and 0-based ids internally.  Cells are
enumerated aspect-major, so the supra index of node i in cell t is
``t * N + i`` (0-based), which matches the 1-based mapping

    x = i + (s - 1) * N + sum_{v' < v} V_{v'} * N.

Each layer cell holds its edges as arrays (``Edges``).  Couplings connect
a node only with its own copies in other cells and are held as an int
array of ``(node, cell_a, cell_b)`` rows with ``cell_a < cell_b``
(``Couplings``), which makes the stored set symmetric by construction.
The network holds edges only, not their sums: ``modularity.quality_matrix``
sums each layer's strengths and total weight.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DomainError

Edge = tuple[int, int, float]


def _frozen(a, dtype) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


class Edges:
    """Edges as arrays: node ids ``i`` and ``j`` and float64 weights ``w``.
    Reads as, and compares equal to, the sequence of its (i, j, w) triples."""

    def __init__(self, i, j, w):
        self.i, self.j, self.w = _frozen(i, np.int64), _frozen(j, np.int64), _frozen(w, float)

    def __len__(self) -> int:
        return self.w.size

    def __iter__(self):
        return zip(self.i.tolist(), self.j.tolist(), self.w.tolist())

    def __getitem__(self, k: int) -> Edge:
        return int(self.i[k]), int(self.j[k]), float(self.w[k])

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"Edges({tuple(self)!r})"


class Couplings:
    """Couplings as an int array of unique ``(node, cell_a, cell_b)`` rows
    in sorted order, with an optional float column of magnitudes (the
    amplitudes of the ``explicit`` coupling strategy).  Reads as, and
    compares equal to, the set of its (node, cell_a, cell_b) triples."""

    def __init__(self, rows, magnitude=None):
        rows, first = np.unique(np.asarray(rows, dtype=np.int64).reshape(-1, 3), axis=0,
                                return_index=True)
        self.rows = _frozen(rows, np.int64)
        self.magnitude = (None if magnitude is None
                          else _frozen(np.asarray(magnitude, dtype=float)[first], float))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(tuple, self.rows.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Couplings, set, frozenset)):
            return NotImplemented
        return frozenset(self) == frozenset(other)

    def __repr__(self) -> str:
        return f"Couplings({sorted(self)!r})"


def _as_edges(edges) -> Edges:
    """``edges`` as an Edges table, converted from (i, j, w) triples if need be."""
    if isinstance(edges, Edges):
        return edges
    arr = np.array(list(edges), dtype=float).reshape(-1, 3)
    return Edges(arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2])


def _as_couplings(couplings, n_nodes: int, n_cells: int) -> Couplings:
    """Validated Couplings from a table or from (node, cell_a, cell_b) triples."""
    if not isinstance(couplings, Couplings):
        couplings = Couplings([tuple(c) for c in couplings])
    node, a, b = couplings.rows.T
    bad = (node < 0) | (node >= n_nodes) | (a < 0) | (a >= b) | (b >= n_cells)
    if bad.any():
        node, ca, cb = couplings.rows[bad.argmax()].tolist()
        if not (0 <= node < n_nodes):
            raise DomainError(f"coupling node id {node + 1} out of range")
        raise DomainError(f"coupling cell pair ({ca}, {cb}) invalid")
    m = couplings.magnitude
    if m is not None and not (np.isfinite(m) & (m >= 0)).all():
        raise DomainError("coupling magnitudes must be finite and >= 0")
    return couplings


@dataclass(frozen=True)
class Aspect:
    """One aspect: a named group of layers."""

    name: str
    layers: tuple[str, ...]

    def __post_init__(self):
        if len(self.layers) == 0:
            raise DomainError(f"aspect {self.name!r} must contain at least one layer")


@dataclass(frozen=True)
class MultilayerNetwork:
    """Immutable aspect-layer multilayer network.

    within_edges holds one ``Edges`` table per layer cell (0-based node
    ids, i < j; rows sorted by (i, j) where built by the loaders or
    ``normalize_edges``), in global cell order; sequences of (i, j, w)
    triples are converted, and so are sets of coupling triples.  All
    layers share the same node set of size ``n_nodes``.  ``dims`` is the
    shape of the aspect grid whose cells, in row-major order, the layer
    cells are; None for a network not read from a grid.
    """

    n_nodes: int
    aspects: tuple[Aspect, ...]
    within_edges: tuple[Edges, ...]
    couplings: Couplings = field(default_factory=frozenset)
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise DomainError("network must have at least one node")
        if len(self.aspects) == 0:
            raise DomainError("network must have at least one aspect")
        n_cells = sum(len(a.layers) for a in self.aspects)
        if len(self.within_edges) != n_cells:
            raise DomainError(
                f"expected {n_cells} per-layer edge lists, got {len(self.within_edges)}"
            )
        if self.dims is not None and math.prod(self.dims) != n_cells:
            raise DomainError(f"grid dims {self.dims} do not hold {n_cells} layer cells")
        cells = tuple(_as_edges(e) for e in self.within_edges)
        for t, e in enumerate(cells):
            bad = (e.i < 0) | (e.i >= e.j) | (e.j >= self.n_nodes) | ~np.isfinite(e.w)
            if bad.any():
                i, j, _ = e[int(bad.argmax())]
                if i == j:
                    raise DomainError(f"self-loop on node {i + 1} in layer cell {t}")
                if not (0 <= i < j < self.n_nodes):
                    raise DomainError(
                        f"edge ({i + 1}, {j + 1}) out of range in layer cell {t}"
                    )
                raise DomainError(f"non-finite edge weight on ({i + 1}, {j + 1})")
        object.__setattr__(self, "within_edges", cells)
        object.__setattr__(self, "couplings",
                           _as_couplings(self.couplings, self.n_nodes, n_cells))

    # -- cell bookkeeping -------------------------------------------------

    @cached_property
    def aspect_sizes(self) -> tuple[int, ...]:
        return tuple(len(a.layers) for a in self.aspects)

    @cached_property
    def n_cells(self) -> int:
        return sum(self.aspect_sizes)

    @property
    def supra_size(self) -> int:
        return self.n_cells * self.n_nodes

    # -- derived structure -------------------------------------------------

    def with_couplings(self, couplings: Couplings | Iterable[tuple[int, int, int]]
                       ) -> "MultilayerNetwork":
        """Copy of the network with a replaced coupling set: a Couplings
        table, whose magnitude column comes along, or (node, cell_a, cell_b)
        triples, which carry no magnitudes; the edges are shared, not
        validated again."""
        net = copy.copy(self)
        object.__setattr__(net, "couplings",
                           _as_couplings(couplings, self.n_nodes, self.n_cells))
        return net


# -- construction helpers -----------------------------------------------------

def normalize_edges(raw, n_nodes: int) -> Edges:
    """Canonicalize edges (an Edges table or (i, j, w) triples): 0-based,
    i < j, duplicates summed in input order, rows sorted by (i, j)."""
    e = _as_edges(raw)
    lo, hi = np.minimum(e.i, e.j), np.maximum(e.i, e.j)
    bad = (lo == hi) | (lo < 0) | (hi >= n_nodes)
    if bad.any():
        i, j, _ = e[int(bad.argmax())]
        if i == j:
            raise DomainError(f"self-loop on node {i + 1} rejected")
        raise DomainError(f"edge ({i + 1}, {j + 1}) out of node range 1..{n_nodes}")
    key = lo * n_nodes + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.diff(key, prepend=-1) != 0  # keys are >= 0
    # bincount adds each key's weights one by one in input order, from 0.0
    w = np.bincount(np.cumsum(first) - 1, weights=e.w[order], minlength=int(first.sum()))
    order = order[first]
    return Edges(lo[order], hi[order], w)


def full_couplings(n_nodes: int, n_cells: int) -> Couplings:
    """Every node linked with all of its copies."""
    ca, cb = np.triu_indices(n_cells, 1)
    return Couplings(np.column_stack((np.tile(np.arange(n_nodes), ca.size),
                                      ca.repeat(n_nodes), cb.repeat(n_nodes))))


def generate_couplings(net: MultilayerNetwork, rho: float, seed: int) -> Couplings:
    """Random coupling table: each candidate pair present with probability rho.

    Draws come from a PCG64 generator seeded with ``seed``, consuming one
    uniform per candidate pair in canonical (cell_a, cell_b, node) order, so
    a given seed reproduces the same set on any platform.  ``rho=0`` yields
    the empty table and ``rho=1`` links every node with all of its copies.
    """
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"coupling density rho must lie in [0, 1], got {rho}")
    ca, cb = np.triu_indices(net.n_cells, 1)  # itertools.combinations order
    # one block of draws is the stream of one rng.random(N) call per cell pair
    draws = np.random.Generator(np.random.PCG64(seed)).random((ca.size, net.n_nodes))
    pair, node = np.nonzero(draws < rho)
    return Couplings(np.column_stack((node, ca[pair], cb[pair])))
