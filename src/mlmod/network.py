"""Aspect-layer multilayer networks and their supra representation.

A network has N nodes shared by every layer.  Layers are grouped into
aspects; layer cell ``s`` of aspect ``v`` is addressed as (s, v) with
1-based ids at the API boundary and 0-based ids internally.  Cells are
enumerated aspect-major, so the supra index of node i in cell t is
``t * N + i`` (0-based), which matches the 1-based mapping

    x = i + (s - 1) * N + sum_{v' < v} V_{v'} * N.

Couplings connect a node only with its own copies in other cells and are
stored as canonical ``(node, cell_a, cell_b)`` triples with
``cell_a < cell_b``, which makes the stored set symmetric by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

Edge = tuple[int, int, float]
Coupling = tuple[int, int, int]


@dataclass(frozen=True)
class Aspect:
    """One aspect: a named group of layers."""

    name: str
    layers: tuple[str, ...]

    def __post_init__(self):
        if len(self.layers) == 0:
            raise DomainError(f"aspect {self.name!r} must contain at least one layer")


@dataclass(frozen=True)
class LayerStats:
    """Within-layer node strengths k_i and total edge weight m.

    Each undirected edge is counted once in ``total_weight``, so the
    strengths always satisfy ``sum(k) == 2 * m``.
    """

    strengths: np.ndarray
    total_weight: float


@dataclass(frozen=True)
class MultilayerNetwork:
    """Immutable aspect-layer multilayer network.

    within_edges holds one sorted tuple of ``(i, j, w)`` edges per layer
    cell (0-based node ids, i < j), in global cell order.  All layers share
    the same node set of size ``n_nodes``.
    """

    n_nodes: int
    aspects: tuple[Aspect, ...]
    within_edges: tuple[tuple[Edge, ...], ...]
    couplings: frozenset[Coupling] = field(default_factory=frozenset)

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
        for t, edges in enumerate(self.within_edges):
            for i, j, w in edges:
                if i == j:
                    raise DomainError(f"self-loop on node {i + 1} in layer cell {t}")
                if not (0 <= i < j < self.n_nodes):
                    raise DomainError(
                        f"edge ({i + 1}, {j + 1}) out of range in layer cell {t}"
                    )
                if not np.isfinite(w):
                    raise DomainError(f"non-finite edge weight on ({i + 1}, {j + 1})")
        for node, ca, cb in self.couplings:
            if not (0 <= node < self.n_nodes):
                raise DomainError(f"coupling node id {node + 1} out of range")
            if not (0 <= ca < cb < n_cells):
                raise DomainError(f"coupling cell pair ({ca}, {cb}) invalid")

    # -- cell bookkeeping -------------------------------------------------

    @cached_property
    def aspect_sizes(self) -> tuple[int, ...]:
        return tuple(len(a.layers) for a in self.aspects)

    @cached_property
    def n_cells(self) -> int:
        return sum(self.aspect_sizes)

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        offs = [0]
        for size in self.aspect_sizes:
            offs.append(offs[-1] + size)
        return tuple(offs)

    @property
    def supra_size(self) -> int:
        return self.n_cells * self.n_nodes

    def cell_index(self, layer: int, aspect: int) -> int:
        """Global 0-based cell index of 0-based (layer, aspect)."""
        if not (0 <= aspect < len(self.aspects)):
            raise DomainError(f"aspect index {aspect} out of range")
        if not (0 <= layer < self.aspect_sizes[aspect]):
            raise DomainError(f"layer index {layer} out of range for aspect {aspect}")
        return self._offsets[aspect] + layer

    def cell_of(self, cell: int) -> tuple[int, int]:
        """Inverse of cell_index: 0-based (aspect, layer) of a global cell."""
        if not (0 <= cell < self.n_cells):
            raise DomainError(f"cell index {cell} out of range")
        for v, off in enumerate(self._offsets[1:]):
            if cell < off:
                return v, cell - self._offsets[v]
        raise DomainError(f"cell index {cell} out of range")

    # -- derived structure -------------------------------------------------

    @cached_property
    def has_negative_edges(self) -> bool:
        return any(w < 0 for edges in self.within_edges for _, _, w in edges)

    def layer_stats(self, cell: int, sign: str | None = None) -> LayerStats:
        """Stats of one layer; ``sign`` restricts to the '+' or '-' edge subset.

        For the '-' subset the strengths are computed on absolute weights.
        """
        if sign not in (None, "+", "-"):
            raise DomainError(f"sign must be None, '+' or '-', got {sign!r}")
        k = np.zeros(self.n_nodes)
        m = 0.0
        for i, j, w in self.within_edges[cell]:
            if sign == "+":
                if w <= 0:
                    continue
            elif sign == "-":
                if w >= 0:
                    continue
                w = -w
            k[i] += w
            k[j] += w
            m += w
        k.setflags(write=False)
        return LayerStats(strengths=k, total_weight=m)

    def with_couplings(self, couplings: Iterable[Coupling]) -> "MultilayerNetwork":
        """Copy of the network with a replaced coupling set."""
        return MultilayerNetwork(
            n_nodes=self.n_nodes,
            aspects=self.aspects,
            within_edges=self.within_edges,
            couplings=frozenset(couplings),
        )


# -- supra index mapping ----------------------------------------------------

def node_index(i: int, s: int, v: int, net: MultilayerNetwork) -> int:
    """Supra index of node i in layer s of aspect v, all ids 1-based."""
    if not (1 <= v <= len(net.aspects)):
        raise DomainError(f"aspect id {v} out of range")
    if not (1 <= s <= net.aspect_sizes[v - 1]):
        raise DomainError(f"layer id {s} out of range for aspect {v}")
    if not (1 <= i <= net.n_nodes):
        raise DomainError(f"node id {i} out of range")
    cell = net.cell_index(s - 1, v - 1)
    return cell * net.n_nodes + (i - 1) + 1


def inverse_node_index(x: int, net: MultilayerNetwork) -> tuple[int, int, int]:
    """Inverse of node_index: supra index -> (i, s, v), all ids 1-based."""
    if not (1 <= x <= net.supra_size):
        raise DomainError(f"supra index {x} out of range")
    cell, i0 = divmod(x - 1, net.n_nodes)
    v0, s0 = net.cell_of(cell)
    return i0 + 1, s0 + 1, v0 + 1


# -- construction helpers -----------------------------------------------------

def normalize_edges(raw: Iterable[tuple[int, int, float]], n_nodes: int,
                    allow_negative: bool = True) -> tuple[Edge, ...]:
    """Canonicalize an edge list: 0-based, i < j, duplicates summed, sorted."""
    acc: dict[tuple[int, int], float] = {}
    for i, j, w in raw:
        if i == j:
            raise DomainError(f"self-loop on node {i + 1} rejected")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise DomainError(f"edge ({i + 1}, {j + 1}) out of node range 1..{n_nodes}")
        if not allow_negative and w < 0:
            raise DomainError(f"negative weight on edge ({i + 1}, {j + 1})")
        key = (i, j) if i < j else (j, i)
        acc[key] = acc.get(key, 0.0) + float(w)
    return tuple(sorted((i, j, w) for (i, j), w in acc.items()))


def full_couplings(n_nodes: int, n_cells: int) -> frozenset[Coupling]:
    """Every node linked with all of its copies."""
    return frozenset(
        (node, ca, cb)
        for ca, cb in itertools.combinations(range(n_cells), 2)
        for node in range(n_nodes)
    )


def generate_couplings(net: MultilayerNetwork, rho: float, seed: int) -> frozenset[Coupling]:
    """Random coupling set: each candidate pair present with probability rho.

    Draws come from a PCG64 generator seeded with ``seed``, consuming one
    uniform per candidate pair in canonical (cell_a, cell_b, node) order, so
    a given seed reproduces the same set on any platform.  ``rho=0`` yields
    the empty set and ``rho=1`` links every node with all of its copies.
    """
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"coupling density rho must lie in [0, 1], got {rho}")
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = []
    for ca, cb in itertools.combinations(range(net.n_cells), 2):
        draws = rng.random(net.n_nodes)
        for node in np.nonzero(draws < rho)[0]:
            chosen.append((int(node), ca, cb))
    return frozenset(chosen)


# -- aspect-aspect grids ------------------------------------------------------

@dataclass(frozen=True)
class AspectGrid:
    """Aspect-aspect arrangement: a complete F-dimensional grid of layers.

    ``layer_edges`` maps 0-based coordinate tuples to edge lists;
    ``couplings`` holds (node, coord_a, coord_b) with coordinate tuples.
    Every coordinate in the hyper-rectangle spanned by ``dims`` must map to
    a layer (possibly edgeless); anything else is a ragged grid.
    """

    dims: tuple[int, ...]
    n_nodes: int
    layer_edges: Mapping[tuple[int, ...], tuple[Edge, ...]]
    couplings: frozenset[tuple[int, tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=frozenset
    )

    def __post_init__(self):
        if len(self.dims) == 0 or any(d < 1 for d in self.dims):
            raise DomainError("grid dims must be positive")
        expected = set(itertools.product(*(range(d) for d in self.dims)))
        got = set(self.layer_edges)
        if got != expected:
            raise DomainError(
                "ragged grid: layer coordinates do not fill the "
                f"{'x'.join(str(d) for d in self.dims)} hyper-rectangle"
            )
        for node, ca, cb in self.couplings:
            if ca not in expected or cb not in expected:
                raise DomainError(f"coupling coordinates {ca} / {cb} outside the grid")
            if not (0 <= node < self.n_nodes):
                raise DomainError(f"coupling node id {node + 1} out of range")
            if ca == cb:
                raise DomainError("coupling links a layer with itself")


def flatten_aspect_grid(grid: AspectGrid) -> tuple[MultilayerNetwork, dict[tuple[int, ...], tuple[int, int]]]:
    """Flatten an aspect-aspect grid into a single-aspect network.

    Layers are enumerated in row-major coordinate order.  Returns the
    network and a map from grid coordinates to 1-based (layer, aspect)
    cells of the flattened network.
    """
    coords = list(itertools.product(*(range(d) for d in grid.dims)))
    coord_to_cell = {c: t for t, c in enumerate(coords)}
    edges = tuple(
        normalize_edges(grid.layer_edges[c], grid.n_nodes) for c in coords
    )
    couplings = set()
    for node, ca, cb in grid.couplings:
        ta, tb = coord_to_cell[ca], coord_to_cell[cb]
        if ta > tb:
            ta, tb = tb, ta
        couplings.add((node, ta, tb))
    labels = tuple("L" + "-".join(str(c + 1) for c in coord) for coord in coords)
    net = MultilayerNetwork(
        n_nodes=grid.n_nodes,
        aspects=(Aspect(name="flattened", layers=labels),),
        within_edges=edges,
        couplings=frozenset(couplings),
    )
    location_map = {c: (t + 1, 1) for c, t in coord_to_cell.items()}
    return net, location_map
