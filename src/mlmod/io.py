"""File formats: multiplex edge lists, layer tables, coupling lists,
dataset manifests, parameter files, aspect-grid files (read straight into
the single-aspect network they flatten to, cells in row-major order) and
detection-result documents.

All node and layer ids in files are 1-based.  Lines starting with ``#``
are comments; blank lines are ignored.  Parse failures raise ParseError
with the path and 1-based line number.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .mspec import DetectionResult, Division
from .modularity import Partition
from .network import Aspect, Edges, MultilayerNetwork, normalize_edges

__all__ = [
    "DatasetManifest",
    "load_multiplex",
    "load_couplings",
    "save_multiplex",
    "load_manifest",
    "load_labels",
    "load_params_file",
    "load_closeness",
    "load_aspect_grid",
    "save_result",
    "load_result",
]


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc


def _data_lines(path: str, text: str | None = None):
    """(1-based line number, stripped line) of each line of the file (or of
    its ``text``) that is neither blank nor a ``#`` comment."""
    lines = (_read_text(path) if text is None else text).split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _bulk_table(text: str, n_int: int):
    """``_read_rows`` in one pass over the bytes of ``text``, or None when a
    line needs the line loop: text that is not ASCII, whitespace other than
    spaces and tabs, a row of another width, an integer that is not 1 to 18
    ASCII digits (which any conversion reads as ``int`` does), or a number
    ``float`` rejects."""
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = (b == 32) | (b == 9) | (b == 10)
    if ((b < 32) & ~space).any():
        return None
    edges = np.flatnonzero(np.concatenate(([True], space)) != np.concatenate((space, [True])))
    start, stop = edges[::2], edges[1::2]  # token spans
    line = np.cumsum(b == 10, dtype=np.int32)[start]
    lead = np.ones(start.size, dtype=bool)  # first token of its line
    lead[1:] = line[1:] != line[:-1]
    heads = np.flatnonzero(lead)  # a line whose first token starts with '#' is a comment
    keep = np.repeat(b[start[heads]] != ord("#"), np.diff(np.append(heads, start.size)))
    start, stop, lead = start[keep], stop[keep], lead[keep]
    heads = np.flatnonzero(lead)
    width = np.diff(np.append(heads, start.size))
    if not ((width == n_int) | (width == n_int + 1)).all():
        return None
    is_int = np.arange(start.size) - np.repeat(heads, width) < n_int
    lo, hi = start[is_int], stop[is_int]
    non_digit = np.concatenate(([0], np.cumsum((b < 48) | (b > 57), dtype=np.int32)))
    if ((hi - lo > 18) | (non_digit[hi] != non_digit[lo])).any():
        return None
    value = np.zeros(lo.size, dtype=np.int64)
    for k in range(int((hi - lo).max(initial=0))):  # Horner, digit by digit
        at = np.minimum(lo + k, hi - 1)
        value = np.where(lo + k < hi, value * 10 + (b[at] - 48), value)
    try:
        extra = np.array([float(text[i:j]) for i, j in
                          zip(start[~is_int].tolist(), stop[~is_int].tolist())])
    except ValueError:
        return None
    return line[heads] + 1, value.reshape(-1, n_int).T, width > n_int, extra


def _read_rows(path: str, n_int: int, check, row):
    """Data lines of ``n_int`` integers and an optional number: 1-based line
    numbers, (n_int, rows) int64 columns, the mask of rows with the number
    and those numbers.  One bulk pass reads them when it can and
    ``check(*result)`` holds; otherwise ``row(parts, path, lineno)`` parses
    line after line, returning the integers and the number or None, and
    raises at the first bad line."""
    text = _read_text(path)
    table = _bulk_table(text, n_int)
    if table is not None and check(*table):
        return table
    rows = np.array([(n, *row(line.split(), path, n)) for n, line in _data_lines(path, text)],
                    dtype=object).reshape(-1, n_int + 2)
    has = rows[:, -1] != None  # noqa: E711 (elementwise)
    return (rows[:, 0].astype(np.int64), rows[:, 1:-1].T.astype(np.int64), has,
            rows[has, -1].astype(float))


def _parse_int(token: str, what: str, path: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", path, lineno) from None
    if not -2**63 <= value < 2**63:  # ids and counts are held as int64
        raise ParseError(f"{what} out of range, got {token!r}", path, lineno)
    return value


def _parse_float(token: str, what: str, path: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected number {what}, got {token!r}", path, lineno) from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"non-finite {what}", path, lineno)
    return value


def _infer_node_count(ids, path: str, what: str) -> int:
    """Largest node id, provided every id below it appears (no silent gaps)."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    if ids.size == 0:
        raise ParseError(f"cannot infer node count from an empty {what} file; "
                         "declare it explicitly", path)
    n_nodes = int(ids[-1])
    # the k-th smallest id missing from 1..n_nodes is at most ids.size + k
    missing = np.setdiff1d(np.arange(1, min(n_nodes, ids.size + 5) + 1), ids)
    if missing.size:
        raise ParseError(
            f"node ids have gaps (missing {missing[:5].tolist()}...); "
            "declare the node count explicitly instead of compacting",
            path,
        )
    return n_nodes


def _load_layer_table(path: str) -> tuple[tuple[Aspect, ...], dict[int, int]]:
    """Parse ``layerId aspectId label`` lines.

    Returns aspects (layer order = file order within each aspect) and the
    map from the file's global layerId to the global cell index.
    """
    per_aspect: dict[int, list[tuple[int, str]]] = {}
    seen: set[int] = set()
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected: layerId aspectId label", path, lineno)
        layer_id = _parse_int(parts[0], "layer id", path, lineno)
        aspect_id = _parse_int(parts[1], "aspect id", path, lineno)
        if layer_id in seen:
            raise ParseError(f"duplicate layer id {layer_id}", path, lineno)
        seen.add(layer_id)
        per_aspect.setdefault(aspect_id, []).append((layer_id, parts[2]))
    if not per_aspect:
        raise ParseError("layer file declares no layers", path)
    aspect_ids = sorted(per_aspect)
    if aspect_ids != list(range(1, len(aspect_ids) + 1)):
        raise ParseError(f"aspect ids must be contiguous from 1, got {aspect_ids}", path)
    aspects = []
    cell_of_layer_id: dict[int, int] = {}
    cell = 0
    for aid in aspect_ids:
        labels = []
        for layer_id, label in per_aspect[aid]:
            labels.append(label)
            cell_of_layer_id[layer_id] = cell
            cell += 1
        aspects.append(Aspect(name=f"aspect-{aid}", layers=tuple(labels)))
    return tuple(aspects), cell_of_layer_id


def _edge_row(parts: list[str], path: str, lineno: int):
    """(layer id, i, j, weight or None) of one edge line, 1-based ids."""
    if len(parts) not in (3, 4):
        raise ParseError("expected: layerId nodeId nodeId [weight]", path, lineno)
    layer_id = _parse_int(parts[0], "layer id", path, lineno)
    i = _parse_int(parts[1], "node id", path, lineno)
    j = _parse_int(parts[2], "node id", path, lineno)
    w = _parse_float(parts[3], "edge weight", path, lineno) if len(parts) == 4 else None
    if i < 1 or j < 1:
        raise ParseError(f"node ids must be >= 1, got ({i}, {j})", path, lineno)
    if layer_id < 1:
        raise ParseError(f"layer id must be >= 1, got {layer_id}", path, lineno)
    if i == j:
        raise DomainError(f"{path}:{lineno}: self-loop on node {i} rejected")
    return layer_id, i, j, w


def _coupling_row(parts: list[str], path: str, lineno: int, net: MultilayerNetwork,
                  n_nodes: int):
    """(node, layer, aspect, layer, aspect, magnitude or None) of one
    coupling line, 1-based ids."""
    if len(parts) not in (5, 6):
        raise ParseError(
            "expected: nodeId layerA aspectA layerB aspectB [magnitude]", path, lineno
        )
    node = _parse_int(parts[0], "node id", path, lineno)
    sa = _parse_int(parts[1], "layer id", path, lineno)
    va = _parse_int(parts[2], "aspect id", path, lineno)
    sb = _parse_int(parts[3], "layer id", path, lineno)
    vb = _parse_int(parts[4], "aspect id", path, lineno)
    if not (1 <= node <= n_nodes):
        raise DomainError(f"{path}:{lineno}: node id {node} out of range 1..{n_nodes}")
    try:
        ca = net.cell_index(sa - 1, va - 1)
        cb = net.cell_index(sb - 1, vb - 1)
    except DomainError as exc:
        raise DomainError(f"{path}:{lineno}: {exc}") from exc
    if ca == cb:
        raise DomainError(f"{path}:{lineno}: coupling links a layer with itself")
    magnitude = None
    if len(parts) == 6:
        magnitude = _parse_float(parts[5], "magnitude", path, lineno)
        if magnitude < 0:
            raise DomainError(f"{path}:{lineno}: magnitude must be >= 0, got {magnitude}")
    return node, sa, va, sb, vb, magnitude


def load_couplings(path: str, net: MultilayerNetwork, n_nodes: int):
    """Parse ``nodeId layerA aspectA layerB aspectB [magnitude]`` lines
    against the layer cells of ``net``.

    Returns (frozenset of canonical coupling triples, dict of explicit
    magnitudes or None if no line carried one); of repeated lines, the
    last with a magnitude sets it.  ``net.with_couplings(*result)`` puts
    both on the network.
    """
    offsets, sizes = np.array(net._offsets), np.array(net.aspect_sizes)

    def cell(s, v):  # net.cell_index of 1-based ids, -1 where it raises
        v0 = np.clip(v - 1, 0, sizes.size - 1)
        return np.where((v >= 1) & (v <= sizes.size) & (s >= 1) & (s <= sizes[v0]),
                        offsets[v0] + s - 1, -1)

    def ok(_, cols, has_m, m):
        node, sa, va, sb, vb = cols
        ca, cb = cell(sa, va), cell(sb, vb)
        return bool(((node >= 1) & (node <= n_nodes) & (ca >= 0) & (cb >= 0) & (ca != cb)).all()
                    and (np.isfinite(m) & (m >= 0)).all())

    _, (node, sa, va, sb, vb), has_m, m = _read_rows(
        path, 5, ok, lambda parts, path, lineno: _coupling_row(parts, path, lineno, net, n_nodes))
    ca, cb = cell(sa, va), cell(sb, vb)
    triples = list(zip((node - 1).tolist(), np.minimum(ca, cb).tolist(),
                       np.maximum(ca, cb).tolist()))
    magnitudes = dict(zip(itertools.compress(triples, has_m.tolist()), m.tolist()))
    return frozenset(triples), (magnitudes or None)


def load_multiplex(edge_path: str, layer_path: str | None = None,
                   coupling_path: str | None = None,
                   n_nodes: int | None = None) -> MultilayerNetwork:
    """Load a multilayer network from whitespace-separated text files.

    Without a layer file all layers fall into one aspect, ordered by their
    ids, which must then be contiguous from 1.  Duplicate edges are summed.
    When ``n_nodes`` is not declared it is inferred as the largest node id,
    and every id below it must appear somewhere (no silent gaps).  Coupling
    magnitudes, when the coupling file has them, travel with the couplings.
    """
    lineno, (layer, i, j), has_w, extra = _read_rows(
        edge_path, 3, lambda _, c, has_w, w: bool(np.isfinite(w).all() and (
            (c >= 1).all() and (c[1] != c[2]).all())), _edge_row)
    w = np.ones(lineno.size)
    w[has_w] = extra
    if layer_path is not None:
        aspects, cell_of_layer_id = _load_layer_table(layer_path)
        declared = np.array(sorted(cell_of_layer_id), dtype=np.int64)
        at = np.minimum(np.searchsorted(declared, layer), declared.size - 1)
        unknown = declared[at] != layer
        if unknown.any():
            k = int(unknown.argmax())
            raise ParseError(f"layer id {layer[k]} not declared in {layer_path}",
                             edge_path, int(lineno[k]))
        cell = np.array([cell_of_layer_id[x] for x in declared.tolist()])[at]
    else:
        layer_ids = np.unique(layer).tolist()
        if not layer_ids:
            raise ParseError(
                "edge file has no edges and no layer file was given", edge_path
            )
        if layer_ids != list(range(1, len(layer_ids) + 1)):
            raise ParseError(
                f"layer ids must be contiguous from 1 without a layer file, got {layer_ids}",
                edge_path,
            )
        aspects = (Aspect(name="aspect-1",
                          layers=tuple(f"layer-{i}" for i in layer_ids)),)
        cell = layer - 1

    if n_nodes is None:
        n_nodes = _infer_node_count(np.concatenate((i, j)), edge_path, "edge")
    else:
        if n_nodes < 1:
            raise DomainError("declared node count must be >= 1")
        top = int(max(i.max(initial=0), j.max(initial=0)))
        if top > n_nodes:
            raise DomainError(
                f"{edge_path}: node id {top} exceeds declared count {n_nodes}"
            )

    n_cells = sum(len(a.layers) for a in aspects)
    order = np.argsort(cell, kind="stable")
    cuts = np.searchsorted(cell[order], np.arange(n_cells + 1))
    edges = tuple(normalize_edges(Edges(i[rows] - 1, j[rows] - 1, w[rows]), n_nodes)
                  for rows in (order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])))
    net = MultilayerNetwork(n_nodes=n_nodes, aspects=aspects, within_edges=edges)
    if coupling_path is not None:
        net = net.with_couplings(*load_couplings(coupling_path, net, n_nodes))
    return net


def save_multiplex(net: MultilayerNetwork, edge_path: str, layer_path: str,
                   coupling_path: str | None = None) -> None:
    """Write a network back in the loadable three-file format."""
    lines = ["# layerId nodeId nodeId weight"]
    for t in range(net.n_cells):
        for i, j, w in net.within_edges[t]:
            lines.append(f"{t + 1} {i + 1} {j + 1} {w!r}")
    _atomic_write(edge_path, "\n".join(lines) + "\n")
    lines = ["# layerId aspectId label"]
    layer_id = 1
    for v, aspect in enumerate(net.aspects):
        for label in aspect.layers:
            lines.append(f"{layer_id} {v + 1} {label}")
            layer_id += 1
    _atomic_write(layer_path, "\n".join(lines) + "\n")
    if coupling_path is not None:
        lines = ["# nodeId layerA aspectA layerB aspectB [magnitude]"]
        magnitude = net.couplings.magnitude
        for k, (node, ca, cb) in enumerate(net.couplings):  # sorted rows
            va, sa = net.cell_of(ca)
            vb, sb = net.cell_of(cb)
            tail = "" if magnitude is None else f" {float(magnitude[k])!r}"
            lines.append(f"{node + 1} {sa + 1} {va + 1} {sb + 1} {vb + 1}{tail}")
        _atomic_write(coupling_path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class DatasetManifest:
    """Dataset description: declared counts plus companion file names."""

    name: str
    n_nodes: int
    n_layers: int
    n_aspects: int
    edge_file: str
    layer_file: str | None = None
    coupling_file: str | None = None
    ground_truth: str | None = None
    n_edges: int | None = None


def load_manifest(path: str) -> DatasetManifest:
    """Parse a ``key = value`` manifest file."""
    values: dict[str, str] = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ParseError("expected key = value", path, lineno)
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    try:
        manifest = DatasetManifest(
            name=values.get("name", os.path.basename(path)),
            n_nodes=int(values["nodes"]),
            n_layers=int(values["layers"]),
            n_aspects=int(values.get("aspects", "1")),
            edge_file=values["edge_file"],
            layer_file=values.get("layer_file"),
            coupling_file=values.get("coupling_file"),
            ground_truth=values.get("ground_truth"),
            n_edges=int(values["edges"]) if "edges" in values else None,
        )
    except KeyError as exc:
        raise ParseError(f"manifest is missing required key {exc.args[0]!r}", path) from exc
    except ValueError as exc:
        raise ParseError(f"bad manifest value: {exc}", path) from exc
    return manifest


def load_dataset(manifest_path: str):
    """Load the network a manifest points to and validate declared counts.

    Returns (network, ground-truth labels or None); coupling magnitudes
    travel with the network's couplings.
    """
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(name):
        return None if name is None else os.path.join(base, name)

    net = load_multiplex(resolve(manifest.edge_file), resolve(manifest.layer_file),
                         resolve(manifest.coupling_file), n_nodes=manifest.n_nodes)
    if net.n_cells != manifest.n_layers:
        raise ParseError(
            f"manifest declares {manifest.n_layers} layers, files contain {net.n_cells}",
            manifest_path,
        )
    if len(net.aspects) != manifest.n_aspects:
        raise ParseError(
            f"manifest declares {manifest.n_aspects} aspects, files contain {len(net.aspects)}",
            manifest_path,
        )
    if manifest.n_edges is not None:
        total = sum(len(e) for e in net.within_edges)
        if total != manifest.n_edges:
            raise ParseError(
                f"manifest declares {manifest.n_edges} edges, files contain {total}",
                manifest_path,
            )
    truth = None
    if manifest.ground_truth is not None:
        truth = load_labels(resolve(manifest.ground_truth), manifest.n_nodes)
    return net, truth


def load_labels(path: str, n_nodes: int) -> np.ndarray:
    """Parse ``nodeId label`` ground-truth lines into a 0-based label array."""
    out = np.full(n_nodes, -1, dtype=int)
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected: nodeId label", path, lineno)
        node = _parse_int(parts[0], "node id", path, lineno)
        label = _parse_int(parts[1], "label", path, lineno)
        if not (1 <= node <= n_nodes):
            raise DomainError(f"{path}:{lineno}: node id {node} out of range")
        out[node - 1] = label
    if (out < 0).any():
        raise ParseError("ground truth does not label every node", path)
    return out


def load_params_file(path: str) -> dict[str, object]:
    """Parse a key-value parameter file.

    Recognised keys: ``gamma``, ``lambda`` (scalar or per-layer list),
    ``omega``, ``coupling.strategy``, ``closeness.file``, ``signed``,
    ``gamma.plus``, ``gamma.minus``, ``normalization``.  Returns a plain
    dict; unknown keys raise.
    """
    known = {"gamma", "lambda", "omega", "coupling.strategy", "closeness.file",
             "signed", "gamma.plus", "gamma.minus", "normalization"}
    out: dict[str, object] = {}
    base = os.path.dirname(os.path.abspath(path))
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ParseError("expected key = value", path, lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ParseError(f"unknown parameter key {key!r}", path, lineno)
        if key in ("gamma", "lambda", "gamma.plus", "gamma.minus"):
            vals = [_parse_float(tok, key, path, lineno) for tok in val.split()]
            out[key] = vals[0] if len(vals) == 1 else vals
        elif key == "omega":
            out[key] = _parse_float(val, key, path, lineno)
        elif key == "signed":
            if val.lower() not in ("true", "false"):
                raise ParseError("signed must be true or false", path, lineno)
            out[key] = val.lower() == "true"
        elif key == "closeness.file":
            out["closeness"] = load_closeness(os.path.join(base, val), path, lineno)
        else:
            out[key] = val
    return out


def load_closeness(path: str, source: str | None = None,
                   lineno: int | None = None) -> np.ndarray:
    """Read a dense closeness matrix; a failure raises ParseError at
    ``source``:``lineno`` when given, else at the matrix file."""
    try:
        return np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot load closeness matrix: {exc}", source or path,
                         lineno) from exc


def _grid_coord(token: str, path: str, lineno: int) -> tuple[int, ...]:
    """1-based grid coordinates ``c1,...,cF``."""
    return tuple(_parse_int(t, "grid coordinate", path, lineno) for t in token.split(","))


def _grid_cell(coord: tuple[int, ...], dims: tuple[int, ...], path: str, lineno: int) -> int:
    """Row-major 0-based cell of 1-based grid coordinates inside ``dims``."""
    if len(coord) != len(dims) or not all(1 <= c <= d for c, d in zip(coord, dims)):
        raise DomainError(f"{path}:{lineno}: coordinate {coord} "
                          f"outside the declared {'x'.join(map(str, dims))} grid")
    return int(np.ravel_multi_index(tuple(c - 1 for c in coord), dims))


def load_aspect_grid(path: str, n_nodes: int | None = None,
                     dims: tuple[int, ...] | None = None,
                     coupling_path: str | None = None,
                     ) -> tuple[MultilayerNetwork, dict[tuple[int, ...], tuple[int, int]]]:
    """Read an aspect-aspect grid (every combination of F aspects' layers is
    one cell) into the single-aspect network it flattens to.

    Edge lines read ``c1,...,cF nodeId nodeId [weight]`` with 1-based
    coordinates.  Dimensions come from a ``#dims d1 d2 ...`` directive
    line unless passed explicitly.  Coupling lines in the companion file
    read ``nodeId c1,...,cF d1,...,dF``.  Cells become the layers
    ``L<c1>-<c2>...`` of one aspect ``flattened``, in row-major coordinate
    order, edgeless where no line names them.  Returns the network and a
    map from 0-based grid coordinates to 1-based (layer, aspect) cells.
    """
    directive_dims: tuple[int, ...] | None = None
    records = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith("#dims"):
            toks = stripped.split()[1:]
            if not toks:
                raise ParseError("#dims directive needs dimensions", path, lineno)
            directive_dims = tuple(_parse_int(t, "grid dim", path, lineno) for t in toks)
            if min(directive_dims) < 1:
                raise ParseError("grid dims must be positive", path, lineno)
            continue
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (3, 4):
            raise ParseError("expected: c1,...,cF nodeId nodeId [weight]", path, lineno)
        coord = _grid_coord(parts[0], path, lineno)
        i = _parse_int(parts[1], "node id", path, lineno)
        j = _parse_int(parts[2], "node id", path, lineno)
        w = _parse_float(parts[3], "edge weight", path, lineno) if len(parts) == 4 else 1.0
        if i < 1 or j < 1:
            raise ParseError(f"node ids must be >= 1, got ({i}, {j})", path, lineno)
        if i == j:
            raise DomainError(f"{path}:{lineno}: self-loop on node {i} rejected")
        records.append((lineno, coord, i, j, w))
    dims = tuple(dims or directive_dims or ())
    if not dims:
        raise ParseError("grid dimensions unknown: add a #dims directive "
                         "or pass them explicitly", path)
    if min(dims) < 1:
        raise DomainError("grid dims must be positive")
    if n_nodes is None:
        n_nodes = _infer_node_count([x for _, _, i, j, _ in records for x in (i, j)], path,
                                    "grid")

    coords = list(itertools.product(*(range(d) for d in dims)))
    layer_edges = [[] for _ in coords]
    for lineno, coord, i, j, w in records:
        t = _grid_cell(coord, dims, path, lineno)
        if max(i, j) > n_nodes:
            raise ParseError(f"node id {max(i, j)} exceeds declared count {n_nodes}",
                             path, lineno)
        layer_edges[t].append((i - 1, j - 1, w))
    couplings = set()
    if coupling_path is not None:
        for lineno, line in _data_lines(coupling_path):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected: nodeId cA1,...,cAF cB1,...,cBF",
                                 coupling_path, lineno)
            node = _parse_int(parts[0], "node id", coupling_path, lineno)
            if not 1 <= node <= n_nodes:
                raise ParseError(f"node id {node} out of range 1..{n_nodes}",
                                 coupling_path, lineno)
            ta, tb = (_grid_cell(_grid_coord(tok, coupling_path, lineno), dims, coupling_path,
                                 lineno) for tok in parts[1:])
            if ta == tb:
                raise DomainError(f"{coupling_path}:{lineno}: coupling links a layer with itself")
            couplings.add((node - 1, min(ta, tb), max(ta, tb)))
    labels = tuple("L" + "-".join(str(c + 1) for c in coord) for coord in coords)
    net = MultilayerNetwork(
        n_nodes=n_nodes,
        aspects=(Aspect(name="flattened", layers=labels),),
        within_edges=tuple(normalize_edges(e, n_nodes) for e in layer_edges),
        couplings=frozenset(couplings),
    )
    return net, {c: (t + 1, 1) for t, c in enumerate(coords)}


# -- detection result documents ----------------------------------------------

_RESULT_HEADER = "#mlmod-result v1"


def _atomic_write(path: str, content: str) -> None:
    """Write the whole document or nothing; the directory must exist."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise DomainError(f"output directory does not exist: {directory}")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
    os.replace(tmp, path)


def save_result(result: DetectionResult, path: str, net: MultilayerNetwork) -> None:
    """Serialise a DetectionResult to the tabular text document.

    One data row per supra cell: ``nodeId layerId aspectId communityId
    softLabel`` (soft label ``-`` when absent).  Metadata and the division
    trace ride in ``#meta`` / ``#division`` lines.  Floats use repr, which
    round-trips exactly.
    """
    if result.partition.labels.shape != (net.supra_size,):
        raise DomainError("result partition does not match the network")
    for key, value in result.meta.items():
        if any(ch.isspace() for ch in key) or any(ch in value for ch in "\r\n"):
            raise DomainError(f"#meta {key!r} would not read back: keys must not "
                              "contain whitespace, values must not contain line breaks")
    lines = [_RESULT_HEADER]
    lines.append(f"#meta n_nodes {net.n_nodes}")
    lines.append("#meta aspects " + ",".join(str(s) for s in net.aspect_sizes))
    lines.append(f"#meta q_total {result.q_total!r}")
    for key in sorted(result.meta):
        lines.append(f"#meta {key} {result.meta[key]}")
    for div in result.divisions:
        lines.append(
            f"#division {div.community} {div.delta_q!r} {div.beta!r} "
            f"{'applied' if div.applied else 'rejected'}"
        )
    lines.append("#cells nodeId layerId aspectId communityId softLabel")
    labels = result.partition.labels
    soft = result.soft_labels
    idx = 0
    for v, aspect in enumerate(net.aspects):
        for s in range(len(aspect.layers)):
            for i in range(net.n_nodes):
                soft_txt = "-" if soft is None else repr(float(soft[idx]))
                lines.append(f"{i + 1} {s + 1} {v + 1} {labels[idx] + 1} {soft_txt}")
                idx += 1
    _atomic_write(path, "\n".join(lines) + "\n")


def load_result(path: str) -> tuple[DetectionResult, dict[str, object]]:
    """Parse a result document back.

    Returns the DetectionResult plus a shape dict with ``n_nodes`` and
    ``aspects`` (layer counts) for validation against a network.
    """
    raw = _read_text(path).split("\n")
    if raw[0].strip() != _RESULT_HEADER:
        raise ParseError("not a result document (bad header)", path, 1)
    meta: dict[str, str] = {}
    divisions: list[Division] = []
    n_nodes = None
    aspect_sizes: tuple[int, ...] | None = None
    q_total = None
    rows: list[tuple[int, int, int, int, float | None]] = []
    for lineno, line in enumerate(raw[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#meta "):
            parts = stripped.split(" ", 2)
            key = parts[1]
            value = parts[2] if len(parts) > 2 else ""
            if key == "n_nodes":
                n_nodes = _parse_int(value, "n_nodes", path, lineno)
            elif key == "aspects":
                aspect_sizes = tuple(
                    _parse_int(tok, "aspect size", path, lineno)
                    for tok in value.split(",")
                )
            elif key == "q_total":
                q_total = _parse_float(value, "q_total", path, lineno)
            else:
                meta[key] = value
            continue
        if stripped.startswith("#division "):
            parts = stripped.split()
            if len(parts) != 5 or parts[4] not in ("applied", "rejected"):
                raise ParseError("bad #division line", path, lineno)
            divisions.append(Division(
                community=_parse_int(parts[1], "community", path, lineno),
                delta_q=_parse_float(parts[2], "delta_q", path, lineno),
                beta=_parse_float(parts[3], "beta", path, lineno),
                applied=parts[4] == "applied",
            ))
            continue
        if stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise ParseError("expected: nodeId layerId aspectId communityId softLabel",
                             path, lineno)
        rows.append((
            _parse_int(parts[0], "node id", path, lineno),
            _parse_int(parts[1], "layer id", path, lineno),
            _parse_int(parts[2], "aspect id", path, lineno),
            _parse_int(parts[3], "community id", path, lineno),
            None if parts[4] == "-" else _parse_float(parts[4], "soft label", path, lineno),
        ))
    if n_nodes is None or aspect_sizes is None or q_total is None:
        raise ParseError("result document is missing required metadata", path)
    n_cells = sum(aspect_sizes)
    size = n_cells * n_nodes
    if len(rows) != size:
        raise ParseError(f"expected {size} cell rows, found {len(rows)}", path)
    offsets = [0]
    for s in aspect_sizes:
        offsets.append(offsets[-1] + s)
    labels = np.full(size, -1, dtype=int)
    soft = np.full(size, np.nan)
    any_soft = False
    for node, layer, aspect, community, soft_value in rows:
        if not (1 <= aspect <= len(aspect_sizes) and 1 <= layer <= aspect_sizes[aspect - 1]
                and 1 <= node <= n_nodes):
            raise ParseError(f"cell ({node}, {layer}, {aspect}) out of range", path)
        x = (offsets[aspect - 1] + layer - 1) * n_nodes + node - 1
        if labels[x] >= 0:
            raise ParseError(f"duplicate cell ({node}, {layer}, {aspect})", path)
        labels[x] = community - 1
        if soft_value is not None:
            soft[x] = soft_value
            any_soft = True
    if (labels < 0).any():
        raise ParseError("some supra cells are unlabeled", path)
    result = DetectionResult(
        partition=Partition(labels),
        q_total=q_total,
        divisions=tuple(divisions),
        soft_labels=soft if any_soft else None,
        meta=meta,
    )
    return result, {"n_nodes": n_nodes, "aspects": aspect_sizes}
