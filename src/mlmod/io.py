"""File formats: multiplex edge lists, layer tables, coupling lists,
dataset manifests, parameter files, aspect-grid files (edge lists whose
first column names a row-major cell of the single-aspect network they
flatten to) and detection-result documents.

All node and layer ids in files are 1-based.  Lines starting with ``#``
are comments; blank lines are ignored.  numpy's reader reads uniform
tables and a line loop the rest; parse failures raise ParseError with
the path and 1-based line number.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import warnings
from io import StringIO

import numpy as np

from .errors import DomainError, ParseError
from .mspec import DetectionResult, Division
from .modularity import Partition
from .network import Aspect, Couplings, Edges, MultilayerNetwork, normalize_edges
from .params import (
    check_closeness,
    check_normalization,
    check_omega,
    check_resolutions,
    check_strategy,
    check_weights,
)

__all__ = [
    "load_multiplex",
    "load_couplings",
    "save_multiplex",
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


def _comment_after_token(text: str) -> bool:
    """Whether a ``#`` follows a token on its line: numpy's reader would
    drop the rest of that line, where the line loop rejects it.  Only the
    first ``#`` of each line is visited."""
    at = text.find("#")
    while at >= 0:
        if text[text.rfind("\n", 0, at) + 1:at].strip():
            return True
        end = text.find("\n", at)
        at = -1 if end < 0 else text.find("#", end)
    return False


def _read_rows(path: str, n_int: int, check, row, text: str | None = None):
    """Data lines of ``n_int`` integers and an optional number: a lookup of
    row k's 1-based line number (counted only when asked), (n_int, rows)
    int64 columns, the mask of rows with the number and those numbers.
    With a ``check``, numpy's reader reads a table of the first data row's
    width if ``check(columns, mask, numbers)`` accepts it; otherwise
    ``row(parts, path, lineno)`` parses line after line, returning the
    integers and the number or None, and raises at the first bad line.
    ``text`` is the file's text when the caller has already read it."""
    text = _read_text(path) if text is None else text

    def lineno(k: int) -> int:
        return next(itertools.islice(_data_lines(path, text), k, None))[0]

    first = next(_data_lines(path, text), None)
    # numpy 2.4's reader can crash the process on characters beyond U+FFFF,
    # so only ASCII text reaches it
    if check and first is not None and text.isascii() and not _comment_after_token(text):
        has_number = len(first[1].split()) > n_int
        dtype = [(f"c{k}", np.int64) for k in range(n_int)] + [("x", float)] * has_number
        try:  # an older numpy reads '2.5' in an int column as 2 and only warns
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cols = np.loadtxt(StringIO(text), dtype=dtype, comments="#", ndmin=1, unpack=True)
        except (ValueError, Warning):  # a bad line, an int64 overflow, another width or spelling
            pass
        else:
            table = (np.array(cols[:n_int]), np.full(cols[0].size, has_number),
                     cols[n_int] if has_number else np.empty(0))
            if check(*table):
                return (lineno, *table)
    rows = np.array([row(line.split(), path, n) for n, line in _data_lines(path, text)],
                    dtype=object).reshape(-1, n_int + 1)
    has = rows[:, -1] != None  # noqa: E711 (elementwise)
    return lineno, rows[:, :-1].T.astype(np.int64), has, rows[has, -1].astype(float)


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


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``keys`` that an earlier entry already holds."""
    repeat = np.ones(keys.size, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _raise_first(path: str, lineno, checks) -> None:
    """Raise at the first of the rows read from ``path`` that fails one of
    ``checks``: (mask of failing rows, error class, message of row k)
    triples in the order a row is checked.  ``lineno(k)`` is row k's line;
    a DomainError carries the position in its message."""
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if bad.any():
        k = int(bad.argmax())
        cls, message = next((cls, message(k)) for mask, cls, message in checks if mask[k])
        if cls is ParseError:
            raise ParseError(message, path, lineno(k))
        raise cls(f"{path}:{lineno(k)}: {message}")


def _cells(sizes, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """0-based global cells of the 1-based layer ids ``s`` in the aspects
    ``v`` of a network with ``sizes`` layers per aspect, -1 where out of
    range."""
    sizes = np.asarray(sizes)
    v0 = np.clip(v - 1, 0, sizes.size - 1)
    inside = (v >= 1) & (v <= sizes.size) & (s >= 1) & (s <= sizes[v0])
    return np.where(inside, (np.cumsum(sizes) - sizes)[v0] + s - 1, -1)


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


def _edge_row(parts: list[str], path: str, lineno: int, dims: tuple[int, ...] | None = None):
    """(layer id, i, j, weight or None) of one edge line, 1-based ids; with
    grid ``dims`` the first column holds grid coordinates, read as the
    1-based row-major cell."""
    if len(parts) not in (3, 4):
        head = "layerId" if dims is None else "c1,...,cF"
        raise ParseError(f"expected: {head} nodeId nodeId [weight]", path, lineno)
    layer_id = (_parse_int(parts[0], "layer id", path, lineno) if dims is None
                else _grid_cell(parts[0], dims, path, lineno) + 1)
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


def _coupling_row(parts: list[str], path: str, lineno: int):
    """(node, layer, aspect, layer, aspect, magnitude or None) of one
    coupling line, 1-based ids."""
    if len(parts) not in (5, 6):
        raise ParseError(
            "expected: nodeId layerA aspectA layerB aspectB [magnitude]", path, lineno
        )
    ids = (_parse_int(tok, what, path, lineno) for tok, what in
           zip(parts, ("node id", "layer id", "aspect id", "layer id", "aspect id")))
    return (*ids, _parse_float(parts[5], "magnitude", path, lineno) if len(parts) == 6 else None)


def load_couplings(path: str, net: MultilayerNetwork, n_nodes: int):
    """Parse ``nodeId layerA aspectA layerB aspectB [magnitude]`` lines
    against the layer cells of ``net``.

    Returns ``(table, None)``: the Couplings table, with a magnitude column
    when some line carries a magnitude, and a None that keeps the pair
    shape callers unpack.  Of the lines that repeat a coupling, the last
    with a magnitude sets it; a coupling no such line names gets 0.
    ``net.with_couplings(table)`` puts it on the network.
    """
    lineno, (node, sa, va, sb, vb), has_m, m = _read_rows(
        path, 5, lambda c, has_m, m: bool(np.isfinite(m).all()), _coupling_row)
    ca, cb = _cells(net.aspect_sizes, sa, va), _cells(net.aspect_sizes, sb, vb)
    magnitude = np.zeros(node.size)
    magnitude[has_m] = m

    def cell_error(s, v):  # 0-based in the message
        return (f"aspect index {v - 1} out of range" if not 1 <= v <= len(net.aspects)
                else f"layer index {s - 1} out of range for aspect {v - 1}")

    _raise_first(path, lineno, [
        ((node < 1) | (node > n_nodes), DomainError,
         lambda k: f"node id {node[k]} out of range 1..{n_nodes}"),
        (ca < 0, DomainError, lambda k: cell_error(sa[k], va[k])),
        (cb < 0, DomainError, lambda k: cell_error(sb[k], vb[k])),
        (ca == cb, DomainError, lambda k: "coupling links a layer with itself"),
        (magnitude < 0, DomainError, lambda k: f"magnitude must be >= 0, got {magnitude[k]}"),
    ])
    # Couplings keeps each row's first occurrence: put the rows with a
    # magnitude first, last line first
    order = np.concatenate((np.flatnonzero(has_m)[::-1], np.flatnonzero(~has_m)))
    rows = np.column_stack((node - 1, np.minimum(ca, cb), np.maximum(ca, cb)))
    return Couplings(rows[order], magnitude[order] if has_m.any() else None), None


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
    table = _read_rows(edge_path, 3, lambda c, has_w, w: bool(np.isfinite(w).all() and (
        (c >= 1).all() and (c[1] != c[2]).all())), _edge_row)
    lineno, (layer, _, _), _, _ = table
    if layer_path is not None:
        aspects, cell_of_layer_id = _load_layer_table(layer_path)
        declared = np.array(sorted(cell_of_layer_id), dtype=np.int64)
        at = np.minimum(np.searchsorted(declared, layer), declared.size - 1)
        unknown = declared[at] != layer
        if unknown.any():
            k = int(unknown.argmax())
            raise ParseError(f"layer id {layer[k]} not declared in {layer_path}",
                             edge_path, lineno(k))
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
    net = _cells_network(edge_path, "edge", aspects, cell, table, n_nodes)
    if coupling_path is not None:
        net = net.with_couplings(load_couplings(coupling_path, net, net.n_nodes)[0])
    return net


def _cells_network(path: str, what: str, aspects: tuple[Aspect, ...], cell: np.ndarray,
                   table, n_nodes: int | None) -> MultilayerNetwork:
    """The network of the ``_read_rows`` edge ``table`` of ``path``, whose
    rows lie in the 0-based layer cells ``cell``: the node count inferred or
    checked, rows split by cell in input order, duplicates summed."""
    _, (_, i, j), has_w, extra = table
    w = np.ones(i.size)
    w[has_w] = extra
    if n_nodes is None:
        n_nodes = _infer_node_count(np.concatenate((i, j)), path, what)
    else:
        if n_nodes < 1:
            raise DomainError("declared node count must be >= 1")
        top = int(max(i.max(initial=0), j.max(initial=0)))
        if top > n_nodes:
            raise DomainError(
                f"{path}: node id {top} exceeds declared count {n_nodes}"
            )

    n_cells = sum(len(a.layers) for a in aspects)
    order = np.argsort(cell, kind="stable")
    cuts = np.searchsorted(cell[order], np.arange(n_cells + 1))
    edges = tuple(normalize_edges(Edges(i[rows] - 1, j[rows] - 1, w[rows]), n_nodes)
                  for rows in (order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])))
    return MultilayerNetwork(n_nodes=n_nodes, aspects=aspects, within_edges=edges)


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
        ids = [f"{s + 1} {v + 1}" for v, size in enumerate(net.aspect_sizes) for s in range(size)]
        for k, (node, ca, cb) in enumerate(net.couplings):  # sorted rows
            tail = "" if magnitude is None else f" {float(magnitude[k])!r}"
            lines.append(f"{node + 1} {ids[ca]} {ids[cb]}{tail}")
        _atomic_write(coupling_path, "\n".join(lines) + "\n")


def _key_values(path: str, what: str, known, parse=lambda key, value, lineno: value) -> dict:
    """The ``key = value`` lines of ``path``, split at the first ``=``, as a
    dict of each key's ``parse(key, value, lineno)``; the last line for a
    key wins.  A line without ``=``, with a key outside ``known``, or whose
    ``parse`` raises DomainError, raises at its line."""
    out: dict[str, object] = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ParseError("expected key = value", path, lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise ParseError(f"unknown {what} key {key!r}", path, lineno)
        try:
            out[key] = parse(key, value, lineno)
        except DomainError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from None
    return out


_MANIFEST_KEYS = ("name", "nodes", "layers", "aspects", "edges", "edge_file", "layer_file",
                  "coupling_file", "ground_truth")


def load_dataset(manifest_path: str):
    """Load the network a ``key = value`` manifest points to and validate
    declared counts.

    Keys: ``nodes``, ``layers`` and ``edge_file`` (required), ``aspects``
    (1 by default), ``edges``, ``layer_file``, ``coupling_file``,
    ``ground_truth`` and ``name`` (not read); file names are relative to
    the manifest.  Returns (network, ground-truth labels or None); coupling
    magnitudes travel with the network's couplings.
    """
    values = _key_values(manifest_path, "manifest", _MANIFEST_KEYS, lambda key, value, lineno: (
        _parse_int(value, key, manifest_path, lineno)
        if key in ("nodes", "layers", "aspects", "edges") else value))
    try:
        n_nodes, n_layers, edge_file = values["nodes"], values["layers"], values["edge_file"]
    except KeyError as exc:
        raise ParseError(f"manifest is missing required key {exc.args[0]!r}",
                         manifest_path) from exc
    n_aspects, n_edges = values.get("aspects", 1), values.get("edges")
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(name):
        return None if name is None else os.path.join(base, name)

    net = load_multiplex(resolve(edge_file), resolve(values.get("layer_file")),
                         resolve(values.get("coupling_file")), n_nodes=n_nodes)
    for what, declared, found in (
            ("layers", n_layers, net.n_cells),
            ("aspects", n_aspects, len(net.aspects)),
            ("edges", n_edges, sum(len(e) for e in net.within_edges))):
        if declared is not None and declared != found:
            raise ParseError(f"manifest declares {declared} {what}, files contain {found}",
                             manifest_path)
    truth = values.get("ground_truth")
    return net, None if truth is None else load_labels(resolve(truth), n_nodes)


def load_labels(path: str, n_nodes: int) -> np.ndarray:
    """Parse ``nodeId label`` ground-truth lines, one per node, into the
    array of labels (each >= 0) indexed by 0-based node."""
    def row(parts, path, lineno):
        if len(parts) != 2:
            raise ParseError("expected: nodeId label", path, lineno)
        return (_parse_int(parts[0], "node id", path, lineno),
                _parse_int(parts[1], "label", path, lineno), None)

    lineno, (node, label), _, _ = _read_rows(path, 2, lambda c, has, x: not has.any(), row)
    _raise_first(path, lineno, [
        ((node < 1) | (node > n_nodes), DomainError, lambda k: f"node id {node[k]} out of range"),
        (label < 0, ParseError, lambda k: f"label must be >= 0, got {label[k]}"),
        (_repeats(node), ParseError, lambda k: f"duplicate node id {node[k]}"),
    ])
    out = np.full(n_nodes, -1, dtype=int)
    out[node - 1] = label
    if (out < 0).any():
        raise ParseError("ground truth does not label every node "
                         f"(node {int((out < 0).argmax()) + 1} has no line)", path)
    return out


_PARAM_KEYS = ("gamma", "lambda", "omega", "coupling.strategy", "closeness.file", "signed",
               "gamma.plus", "gamma.minus", "normalization")


def load_params_file(path: str, n_cells: int) -> dict[str, object]:
    """Parse a key-value parameter file for a network of ``n_cells`` layer
    cells.

    Recognised keys: ``gamma``, ``lambda`` (scalar or per-layer list),
    ``omega``, ``coupling.strategy``, ``closeness.file``, ``signed``,
    ``gamma.plus``, ``gamma.minus``, ``normalization``.  Returns a plain
    dict, with the closeness matrix under ``closeness``.  Each value is
    checked by the rule of its setting in ``params``, a closeness matrix
    also against ``n_cells``, whichever strategy the run takes; unknown
    keys, a per-layer list of neither 1 nor ``n_cells`` values, and a value
    its rule rejects raise at their line.
    """
    base = os.path.dirname(os.path.abspath(path))

    def parse(key, val, lineno):
        if key in ("gamma", "lambda", "gamma.plus", "gamma.minus"):
            vals = [_parse_float(tok, key, path, lineno) for tok in val.split()]
            if len(vals) not in (1, n_cells):
                counts = "1" if n_cells == 1 else f"1 or {n_cells}"
                raise ParseError(f"expected {counts} {key} values, got {len(vals)}", path, lineno)
            if key == "lambda":
                check_weights(vals)
            elif key == "gamma":
                check_resolutions(vals)
            else:
                check_resolutions(vals, f"{key.replace('.', '_')} entries")
            return vals[0] if len(vals) == 1 else vals
        if key == "omega":
            omega = _parse_float(val, key, path, lineno)
            check_omega(omega)
            return omega
        if key == "signed":
            if val.lower() not in ("true", "false"):
                raise ParseError("signed must be true or false", path, lineno)
            return val.lower() == "true"
        if key == "closeness.file":
            return check_closeness(load_closeness(os.path.join(base, val), path, lineno), n_cells)
        if key == "coupling.strategy":
            check_strategy(val)
        else:
            check_normalization(val)
        return val

    out = _key_values(path, "parameter", _PARAM_KEYS, parse)
    if "closeness.file" in out:
        out["closeness"] = out.pop("closeness.file")
    return out


def load_closeness(path: str, source: str | None = None,
                   lineno: int | None = None) -> np.ndarray:
    """Read a dense closeness matrix; a failure or a non-finite entry
    raises ParseError at ``source``:``lineno`` when given, else at the
    matrix file."""
    try:
        m = np.loadtxt(path, ndmin=2)
        if not np.isfinite(m).all():
            raise ValueError("entries must be finite")
        return m
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot load closeness matrix: {exc}", source or path,
                         lineno) from exc


def _grid_cell(token: str, dims: tuple[int, ...], path: str, lineno: int) -> int:
    """Row-major 0-based cell of the 1-based grid coordinates ``c1,...,cF``
    inside ``dims``."""
    coord = tuple(_parse_int(t, "grid coordinate", path, lineno) for t in token.split(","))
    if len(coord) != len(dims) or not all(1 <= c <= d for c, d in zip(coord, dims)):
        raise DomainError(f"{path}:{lineno}: coordinate {coord} "
                          f"outside the declared {'x'.join(map(str, dims))} grid")
    return int(np.ravel_multi_index(tuple(c - 1 for c in coord), dims))


def load_aspect_grid(path: str, n_nodes: int | None = None,
                     coupling_path: str | None = None,
                     ) -> tuple[MultilayerNetwork, dict[tuple[int, ...], tuple[int, int]]]:
    """Read an aspect-aspect grid (every combination of F aspects' layers is
    one cell) into the single-aspect network it flattens to.

    Edge lines read ``c1,...,cF nodeId nodeId [weight]`` with 1-based
    coordinates.  Dimensions come from a ``#dims d1 d2 ...`` directive
    line, which the file must hold.  Coupling lines in the companion file
    read ``nodeId c1,...,cF d1,...,dF``.  Cells become the layers
    ``L<c1>-<c2>...`` of one aspect ``flattened``, in row-major coordinate
    order, edgeless where no line names them.  The edge-file reader reads
    the edge lines, their first column naming a cell, so the first bad line
    is the one reported.  Returns the network and a map from 0-based grid
    coordinates to 1-based (layer, aspect) cells.
    """
    dims: tuple[int, ...] | None = None
    text = _read_text(path)
    for lineno, line in enumerate(text.split("\n"), start=1):
        toks = line.split()
        if toks and toks[0].startswith("#dims"):
            if len(toks) == 1:
                raise ParseError("#dims directive needs dimensions", path, lineno)
            dims = tuple(_parse_int(t, "grid dim", path, lineno) for t in toks[1:])
            if min(dims) < 1:
                raise ParseError("grid dims must be positive", path, lineno)
    if dims is None:
        raise ParseError("grid dimensions unknown: add a #dims d1 ... dF line", path)

    def edge_row(parts, path, lineno):
        cell, i, j, w = _edge_row(parts, path, lineno, dims)
        if n_nodes is not None and max(i, j) > n_nodes:
            raise ParseError(f"node id {max(i, j)} exceeds declared count {n_nodes}",
                             path, lineno)
        return cell, i, j, w

    table = _read_rows(path, 3, None, edge_row, text)
    coords = list(itertools.product(*(range(d) for d in dims)))
    labels = tuple("L" + "-".join(str(c + 1) for c in coord) for coord in coords)
    net = _cells_network(path, "grid", (Aspect(name="flattened", layers=labels),),
                         table[1][0] - 1, table, n_nodes)
    if coupling_path is not None:
        n = net.n_nodes

        def coupling_row(parts, path, lineno):
            if len(parts) != 3:
                raise ParseError("expected: nodeId cA1,...,cAF cB1,...,cBF", path, lineno)
            node = _parse_int(parts[0], "node id", path, lineno)
            if not 1 <= node <= n:
                raise ParseError(f"node id {node} out of range 1..{n}", path, lineno)
            ta, tb = (_grid_cell(tok, dims, path, lineno) for tok in parts[1:])
            if ta == tb:
                raise DomainError(f"{path}:{lineno}: coupling links a layer with itself")
            return node, ta + 1, tb + 1, None

        _, (node, ta, tb), _, _ = _read_rows(coupling_path, 3, None, coupling_row)
        net = net.with_couplings(Couplings(np.column_stack(
            (node - 1, np.minimum(ta, tb) - 1, np.maximum(ta, tb) - 1))))
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
    soft = result.soft_labels
    if soft is not None and np.shape(soft) != (net.supra_size,):
        raise DomainError("result soft labels do not match the network")
    floats = [result.q_total] + [x for div in result.divisions for x in (div.delta_q, div.beta)]
    if not (np.isfinite(floats).all() and (soft is None or np.isfinite(soft).all())):
        raise DomainError("result would not read back: q_total, delta_q, beta and soft "
                          "labels must be finite")
    if (result.partition.labels < 0).any():
        raise DomainError("result would not read back: partition labels must be >= 0")
    for key, value in result.meta.items():
        if any(ch.isspace() for ch in key) or any(ch in value for ch in "\r\n"):
            raise DomainError(f"#meta {key!r} would not read back: keys must not "
                              "contain whitespace, values must not contain line breaks")
        if not key or key in ("n_nodes", "aspects", "q_total") or value != value.rstrip():
            raise DomainError(f"#meta {key!r} would not read back: keys must be non-empty "
                              "and not n_nodes, aspects or q_total, values must not end "
                              "in whitespace")
    lines = [_RESULT_HEADER]
    lines.append(f"#meta n_nodes {net.n_nodes}")
    lines.append("#meta aspects " + ",".join(str(s) for s in net.aspect_sizes))
    lines.append(f"#meta q_total {float(result.q_total)!r}")
    for key in sorted(result.meta):
        lines.append(f"#meta {key} {result.meta[key]}")
    for div in result.divisions:
        lines.append(
            f"#division {div.community} {float(div.delta_q)!r} {float(div.beta)!r} "
            f"{'applied' if div.applied else 'rejected'}"
        )
    lines.append("#cells nodeId layerId aspectId communityId softLabel")
    nodes = [str(i + 1) for i in range(net.n_nodes)]
    cells = [f"{s + 1} {v + 1}" for v, size in enumerate(net.aspect_sizes) for s in range(size)]
    lines += map(" ".join, zip(nodes * len(cells),
                               (cell for cell in cells for _ in nodes),
                               map(str, (result.partition.labels + 1).tolist()),
                               ["-"] * net.supra_size if soft is None
                               else map(repr, np.asarray(soft, dtype=float).tolist())))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_result(path: str) -> tuple[DetectionResult, dict[str, object]]:
    """Parse a result document back.

    Returns the DetectionResult plus a shape dict with ``n_nodes`` and
    ``aspects`` (layer counts) for validation against a network.  Soft
    labels are numbers on every cell row or ``-`` on every one, and
    community ids are >= 1.
    """
    text = _read_text(path)
    if text.partition("\n")[0].strip() != _RESULT_HEADER:
        raise ParseError("not a result document (bad header)", path, 1)
    meta: dict[str, str] = {}
    divisions: list[Division] = []
    n_nodes = aspect_sizes = q_total = None
    # directives may sit anywhere; searching for their text, not stripping
    # every line, keeps the cell rows out of a Python loop
    for found in re.finditer(r"#(?:meta|division) [^\n]*", text):
        start = text.rfind("\n", 0, found.start()) + 1
        lineno = text.count("\n", 0, start) + 1
        stripped = text[start:found.end()].strip()
        if stripped.startswith("#meta "):
            key, _, value = stripped[len("#meta "):].partition(" ")
            if key == "n_nodes":
                n_nodes = _parse_int(value, "n_nodes", path, lineno)
                if n_nodes < 1:
                    raise ParseError(f"n_nodes must be >= 1, got {n_nodes}", path, lineno)
            elif key == "aspects":
                aspect_sizes = tuple(
                    _parse_int(tok, "aspect size", path, lineno)
                    for tok in value.split(",")
                )
                if min(aspect_sizes) < 1:
                    raise ParseError(f"aspect size must be >= 1, got {min(aspect_sizes)}",
                                     path, lineno)
            elif key == "q_total":
                q_total = _parse_float(value, "q_total", path, lineno)
            else:
                meta[key] = value
        elif stripped.startswith("#division "):
            parts = stripped.split()
            if len(parts) != 5 or parts[4] not in ("applied", "rejected"):
                raise ParseError("bad #division line", path, lineno)
            divisions.append(Division(
                community=_parse_int(parts[1], "community", path, lineno),
                delta_q=_parse_float(parts[2], "delta_q", path, lineno),
                beta=_parse_float(parts[3], "beta", path, lineno),
                applied=parts[4] == "applied",
            ))

    def row(parts, path, lineno):
        if len(parts) != 5:
            raise ParseError("expected: nodeId layerId aspectId communityId softLabel",
                             path, lineno)
        ids = (_parse_int(tok, what, path, lineno) for tok, what in
               zip(parts, ("node id", "layer id", "aspect id", "community id")))
        return (*ids, None if parts[4] == "-" else
                _parse_float(parts[4], "soft label", path, lineno))

    lineno, (node, layer, aspect, community), has_soft, soft = _read_rows(
        path, 4, lambda c, has, x: bool(has.all() and np.isfinite(x).all()), row, text)
    if n_nodes is None or aspect_sizes is None or q_total is None:
        raise ParseError("result document is missing required metadata", path)
    size = sum(aspect_sizes) * n_nodes
    if node.size != size:
        raise ParseError(f"expected {size} cell rows, found {node.size}", path)
    cell = _cells(aspect_sizes, layer, aspect)
    inside = (cell >= 0) & (node >= 1) & (node <= n_nodes)
    x = np.where(inside, cell * n_nodes + node - 1, -1)

    def ids(k):
        return f"({node[k]}, {layer[k]}, {aspect[k]})"

    _raise_first(path, lineno, [
        (~inside, ParseError, lambda k: f"cell {ids(k)} out of range"),
        (_repeats(x), ParseError, lambda k: f"duplicate cell {ids(k)}"),
        (community < 1, ParseError, lambda k: f"community id must be >= 1, got {community[k]}"),
        (has_soft != has_soft[0], ParseError,
         lambda k: "soft labels must be numbers on every cell row or '-' on every one"),
    ])
    labels = np.empty(size, dtype=np.int64)
    labels[x] = community - 1
    soft_labels = None
    if has_soft[0]:
        soft_labels = np.empty(size)
        soft_labels[x] = soft
    result = DetectionResult(
        partition=Partition(labels),
        q_total=q_total,
        divisions=tuple(divisions),
        soft_labels=soft_labels,
        meta=meta,
    )
    return result, {"n_nodes": n_nodes, "aspects": aspect_sizes}
