"""File formats: multiplex edge lists, layer tables, coupling lists,
dataset manifests, parameter files, aspect-grid descriptions and
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
from .network import Aspect, AspectGrid, MultilayerNetwork, normalize_edges

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


def _infer_node_count(ids: set[int], path: str, what: str) -> int:
    """Largest node id, provided every id below it appears (no silent gaps)."""
    if not ids:
        raise ParseError(f"cannot infer node count from an empty {what} file; "
                         "declare it explicitly", path)
    n_nodes = max(ids)
    missing = set(range(1, n_nodes + 1)) - ids
    if missing:
        raise ParseError(
            f"node ids have gaps (missing {sorted(missing)[:5]}...); "
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


def _parse_edge_file(path: str):
    """Yield (lineno, layer_id, i, j, weight) with 1-based ids."""
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError("expected: layerId nodeId nodeId [weight]", path, lineno)
        layer_id = _parse_int(parts[0], "layer id", path, lineno)
        i = _parse_int(parts[1], "node id", path, lineno)
        j = _parse_int(parts[2], "node id", path, lineno)
        w = _parse_float(parts[3], "edge weight", path, lineno) if len(parts) == 4 else 1.0
        if i < 1 or j < 1:
            raise ParseError(f"node ids must be >= 1, got ({i}, {j})", path, lineno)
        if layer_id < 1:
            raise ParseError(f"layer id must be >= 1, got {layer_id}", path, lineno)
        if i == j:
            raise DomainError(f"{path}:{lineno}: self-loop on node {i} rejected")
        yield lineno, layer_id, i, j, w


def load_couplings(path: str, net: MultilayerNetwork, n_nodes: int):
    """Parse ``nodeId layerA aspectA layerB aspectB [magnitude]`` lines
    against the layer cells of ``net``.

    Returns (frozenset of canonical coupling triples, dict of explicit
    magnitudes or None if no line carried one).
    """
    couplings = set()
    magnitudes: dict[tuple[int, int, int], float] = {}
    any_magnitude = False
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
        if not (1 <= node <= n_nodes):
            raise DomainError(f"{path}:{lineno}: node id {node} out of range 1..{n_nodes}")
        try:
            ca = net.cell_index(sa - 1, va - 1)
            cb = net.cell_index(sb - 1, vb - 1)
        except DomainError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        if ca == cb:
            raise DomainError(f"{path}:{lineno}: coupling links a layer with itself")
        key = (node - 1, min(ca, cb), max(ca, cb))
        couplings.add(key)
        if len(parts) == 6:
            any_magnitude = True
            magnitudes[key] = _parse_float(parts[5], "magnitude", path, lineno)
    return frozenset(couplings), (magnitudes if any_magnitude else None)


def load_multiplex(edge_path: str, layer_path: str | None = None,
                   coupling_path: str | None = None,
                   n_nodes: int | None = None) -> MultilayerNetwork:
    """Load a multilayer network from whitespace-separated text files.

    Without a layer file all layers fall into one aspect, ordered by their
    ids, which must then be contiguous from 1.  Duplicate edges are summed.
    When ``n_nodes`` is not declared it is inferred as the largest node id,
    and every id below it must appear somewhere (no silent gaps).
    """
    records = list(_parse_edge_file(edge_path))
    if layer_path is not None:
        aspects, cell_of_layer_id = _load_layer_table(layer_path)
        for lineno, layer_id, *_ in records:
            if layer_id not in cell_of_layer_id:
                raise ParseError(f"layer id {layer_id} not declared in {layer_path}",
                                 edge_path, lineno)
    else:
        layer_ids = sorted({rec[1] for rec in records})
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
        cell_of_layer_id = {lid: lid - 1 for lid in layer_ids}

    seen_nodes = {i for _, _, i, j, _ in records} | {j for _, _, i, j, _ in records}
    if n_nodes is None:
        n_nodes = _infer_node_count(seen_nodes, edge_path, "edge")
    else:
        if n_nodes < 1:
            raise DomainError("declared node count must be >= 1")
        over = [i for i in seen_nodes if i > n_nodes]
        if over:
            raise DomainError(
                f"{edge_path}: node id {max(over)} exceeds declared count {n_nodes}"
            )

    n_cells = sum(len(a.layers) for a in aspects)
    per_cell: list[list[tuple[int, int, float]]] = [[] for _ in range(n_cells)]
    for lineno, layer_id, i, j, w in records:
        per_cell[cell_of_layer_id[layer_id]].append((i - 1, j - 1, w))
    edges = tuple(normalize_edges(cell, n_nodes) for cell in per_cell)
    net = MultilayerNetwork(n_nodes=n_nodes, aspects=aspects, within_edges=edges)
    if coupling_path is not None:
        couplings, _ = load_couplings(coupling_path, net, n_nodes)
        net = net.with_couplings(couplings)
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
        lines = ["# nodeId layerA aspectA layerB aspectB"]
        for node, ca, cb in sorted(net.couplings):
            va, sa = net.cell_of(ca)
            vb, sb = net.cell_of(cb)
            lines.append(f"{node + 1} {sa + 1} {va + 1} {sb + 1} {vb + 1}")
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

    Returns (network, ground-truth labels or None, explicit coupling
    magnitudes or None), the last as ``load_couplings`` gives them.
    """
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(name):
        return None if name is None else os.path.join(base, name)

    net = load_multiplex(resolve(manifest.edge_file), resolve(manifest.layer_file),
                         n_nodes=manifest.n_nodes)
    magnitudes = None
    if manifest.coupling_file is not None:
        couplings, magnitudes = load_couplings(resolve(manifest.coupling_file), net,
                                               net.n_nodes)
        net = net.with_couplings(couplings)
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
    return net, truth, magnitudes


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


def load_aspect_grid(path: str, n_nodes: int | None = None,
                     dims: tuple[int, ...] | None = None,
                     coupling_path: str | None = None) -> AspectGrid:
    """Parse an aspect-aspect grid edge file.

    Edge lines read ``c1,...,cF nodeId nodeId [weight]`` with 1-based
    coordinates.  Dimensions come from a ``#dims d1 d2 ...`` directive
    line unless passed explicitly.  Coupling lines in the companion file
    read ``nodeId c1,...,cF d1,...,dF``.
    """
    directive_dims: tuple[int, ...] | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    records = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if stripped.startswith("#dims"):
            toks = stripped.split()[1:]
            if not toks:
                raise ParseError("#dims directive needs dimensions", path, lineno)
            directive_dims = tuple(_parse_int(t, "grid dim", path, lineno) for t in toks)
            continue
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (3, 4):
            raise ParseError("expected: c1,...,cF nodeId nodeId [weight]", path, lineno)
        coord = tuple(
            _parse_int(tok, "grid coordinate", path, lineno) - 1
            for tok in parts[0].split(",")
        )
        i = _parse_int(parts[1], "node id", path, lineno)
        j = _parse_int(parts[2], "node id", path, lineno)
        w = _parse_float(parts[3], "edge weight", path, lineno) if len(parts) == 4 else 1.0
        if i == j:
            raise DomainError(f"{path}:{lineno}: self-loop on node {i} rejected")
        records.append((lineno, coord, i, j, w))
    dims = dims or directive_dims
    if dims is None:
        raise ParseError("grid dimensions unknown: add a #dims directive "
                         "or pass them explicitly", path)
    if n_nodes is None:
        ids = {i for _, _, i, _, _ in records} | {j for _, _, _, j, _ in records}
        n_nodes = _infer_node_count(ids, path, "grid")

    layer_edges = {c: [] for c in itertools.product(*(range(d) for d in dims))}
    for lineno, coord, i, j, w in records:
        if len(coord) != len(dims) or coord not in layer_edges:
            raise DomainError(
                f"{path}:{lineno}: coordinate {tuple(c + 1 for c in coord)} "
                f"outside the declared {'x'.join(map(str, dims))} grid"
            )
        layer_edges[coord].append((i - 1, j - 1, w))
    couplings = set()
    if coupling_path is not None:
        for lineno, line in _data_lines(coupling_path):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected: nodeId cA1,...,cAF cB1,...,cBF",
                                 coupling_path, lineno)
            node = _parse_int(parts[0], "node id", coupling_path, lineno)
            ca = tuple(_parse_int(t, "coordinate", coupling_path, lineno) - 1
                       for t in parts[1].split(","))
            cb = tuple(_parse_int(t, "coordinate", coupling_path, lineno) - 1
                       for t in parts[2].split(","))
            couplings.add((node - 1, ca, cb))
    return AspectGrid(
        dims=tuple(dims),
        n_nodes=n_nodes,
        layer_edges={c: tuple(normalize_edges(e, n_nodes)) for c, e in layer_edges.items()},
        couplings=frozenset(couplings),
    )


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    if not raw or raw[0].strip() != _RESULT_HEADER:
        raise ParseError("not a result document (bad header)", path, 1)
    meta: dict[str, str] = {}
    divisions: list[Division] = []
    n_nodes = None
    aspect_sizes: tuple[int, ...] | None = None
    q_total = None
    rows: list[tuple[int, int, int, int, str]] = []
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
            parts[4],
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
    for node, layer, aspect, community, soft_txt in rows:
        if not (1 <= aspect <= len(aspect_sizes) and 1 <= layer <= aspect_sizes[aspect - 1]
                and 1 <= node <= n_nodes):
            raise ParseError(f"cell ({node}, {layer}, {aspect}) out of range", path)
        x = (offsets[aspect - 1] + layer - 1) * n_nodes + node - 1
        if labels[x] >= 0:
            raise ParseError(f"duplicate cell ({node}, {layer}, {aspect})", path)
        labels[x] = community - 1
        if soft_txt != "-":
            soft[x] = float(soft_txt)
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
