"""File formats: multiplex edge lists (flat, or an aspect grid under a
``#dims`` line, whose first column names a row-major cell of the
single-aspect network it flattens to), layer tables, coupling lists,
dataset manifests, parameter files and detection-result documents.

All node and layer ids in files are 1-based.  Lines starting with ``#``
are comments; blank lines are ignored.  numpy's reader reads uniform
tables and a line loop the rest; one list of row rules per table is
checked on the rows either reads, and the first bad line raises with the
path and its 1-based line number.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import warnings
from io import BytesIO
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MlmodError, ParseError
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
    "load_labels",
    "load_params_file",
    "save_result",
    "load_result",
]


# a line whose first token is #dims makes an edge file a grid; #dims2 is a comment
_DIMS = re.compile(r"^[^\S\n]*#dims(?!\S)[^\n]*", re.MULTILINE)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc


def _data_lines(text: str):
    """(1-based line number, stripped line) of each line of a file's
    ``text`` that is neither blank nor a ``#`` comment."""
    for lineno, line in enumerate(text.split("\n"), start=1):
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


class _Table(NamedTuple):
    """A table's lines: the usage line that a line of a width outside
    ``widths`` raises, the name of each integer field (or a parser
    ``(token, path, lineno) -> int`` of a field numpy's reader cannot read)
    and the name of the number after them.  A row without the number leaves
    it out where ``widths`` allows that, and writes ``-`` where it does not."""
    usage: str
    widths: tuple[int, ...]
    fields: tuple
    number: str | None = None


def _read_rows(path: str, text: str, table: _Table, rules):
    """The data lines of ``table`` in ``path``'s ``text``: (fields, rows)
    int64 columns, the mask of rows with the number and the numbers, 0
    where a row has none.

    ``rules(*columns, mask, numbers)`` lists the row rules in the order a
    row is checked, after the rule that numbers are finite, as
    ``_raise_first`` takes them.  numpy's reader reads a table of the first
    data row's width when it can; otherwise ``_parse_row`` parses line
    after line, and the rules are applied to the rows before the first
    malformed line, so the first bad line is the one reported.  numpy's
    reader gets the text as bytes (a StringIO holds 4 bytes per character),
    and the integer columns are a view of the rows it reads."""
    n = len(table.fields)
    width = len(next(_data_lines(text), (0, ""))[1].split())  # 0: no data rows
    columns = error = None
    # numpy 2.4's reader can crash the process on characters beyond U+FFFF,
    # so only ASCII text reaches it
    if (width in table.widths and all(isinstance(f, str) for f in table.fields)
            and text.isascii() and not _comment_after_token(text)):
        dtype = [(f"c{k}", np.int64) for k in range(n)] + [("x", float)] * (width > n)
        try:  # an older numpy reads '2.5' in an int column as 2 and only warns
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                read = np.loadtxt(BytesIO(text.encode()), dtype=dtype, comments="#", ndmin=1)
        except (ValueError, Warning):  # a bad line, an int64 overflow, another width or spelling
            pass
        else:
            columns = (read.view(np.int64).reshape(read.size, -1)[:, :n].T,  # 8-byte fields
                       np.full(read.size, width > n),
                       read["x"] if width > n else np.broadcast_to(0.0, read.size))
    if columns is None:
        rows = []
        try:
            for lineno, line in _data_lines(text):
                rows.append(_parse_row(line.split(), path, lineno, table))
        except MlmodError as exc:  # raised once the rows before it pass the rules
            error = exc
        rows = np.array(rows, dtype=object).reshape(-1, n + 1)
        has = rows[:, -1] != None  # noqa: E711 (elementwise)
        rows[~has, -1] = 0.0
        columns = rows[:, :-1].T.astype(np.int64), has, rows[:, -1].astype(float)
    ints, has, x = columns
    _raise_first(path, text, [(~np.isfinite(x), ParseError,
                               lambda k: f"non-finite {table.number}"), *rules(*ints, has, x)])
    if error is not None:
        raise error
    return columns


def _parse_row(parts: list[str], path: str, lineno: int, table: _Table):
    """The integers of one line of ``table`` and its number, None where it
    has none; a line of another width or a token that does not parse raises
    at its line."""
    if len(parts) not in table.widths:
        raise ParseError(table.usage, path, lineno)
    ints = (f(tok, path, lineno) if callable(f) else _parse_int(tok, f, path, lineno)
            for f, tok in zip(table.fields, parts))
    n = len(table.fields)
    number = parts[n:]
    if not number or number == ["-"] and n not in table.widths:
        return (*ints, None)
    return (*ints, _parse_float(number[0], table.number, path, lineno, finite=False))


def _parse_int(token: str, what: str, path: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", path, lineno) from None
    if not -2**63 <= value < 2**63:  # ids and counts are held as int64
        raise ParseError(f"{what} out of range, got {token!r}", path, lineno)
    return value


def _parse_float(token: str, what: str, path: str, lineno: int, finite: bool = True) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected number {what}, got {token!r}", path, lineno) from None
    if finite and not math.isfinite(value):
        raise ParseError(f"non-finite {what}", path, lineno)
    return value


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``keys`` that an earlier entry already holds."""
    repeat = np.ones(keys.size, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _raise_first(path: str, text: str, checks) -> None:
    """Raise at the data line of ``path``'s ``text`` of the first row that
    fails one of ``checks``: (mask of failing rows, error class, message of
    row k) triples in the order a row is checked.  A DomainError carries the
    position in its message."""
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if bad.any():
        k = int(bad.argmax())
        cls, message = next((cls, message(k)) for mask, cls, message in checks if mask[k])
        lineno = next(itertools.islice(_data_lines(text), k, None))[0]
        if cls is ParseError:
            raise ParseError(message, path, lineno)
        raise cls(f"{path}:{lineno}: {message}")


def _cells(sizes, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """0-based global cells of the 1-based layer ids ``s`` in the aspects
    ``v`` of a network with ``sizes`` layers per aspect, -1 where out of
    range."""
    sizes = np.asarray(sizes)
    v0 = np.clip(v - 1, 0, sizes.size - 1)
    inside = (v >= 1) & (v <= sizes.size) & (s >= 1) & (s <= sizes[v0])
    return np.where(inside, (np.cumsum(sizes) - sizes)[v0] + s - 1, -1)


def _infer_node_count(columns, path: str) -> int:
    """Largest id in the node-id ``columns`` if every id below it appears (no silent gaps)."""
    ids = np.unique(np.concatenate([np.unique(c) for c in columns]).astype(np.int64))
    if ids.size == 0:
        raise ParseError("cannot infer node count from an empty edge file; "
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


def _load_layer_table(path: str) -> tuple[tuple[Aspect, ...], np.ndarray, np.ndarray]:
    """Parse ``layerId aspectId label`` lines.

    Returns aspects (layer order = file order within each aspect), the
    file's layer ids in increasing order and the global cell of each.
    """
    per_aspect: dict[int, list[tuple[int, str]]] = {}
    seen: set[int] = set()
    for lineno, line in _data_lines(_read_text(path)):
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
    aspects = tuple(Aspect(f"aspect-{aid}", tuple(label for _, label in per_aspect[aid]))
                    for aid in aspect_ids)
    layer_ids = np.array([layer_id for aid in aspect_ids for layer_id, _ in per_aspect[aid]])
    cells = np.argsort(layer_ids)
    return aspects, layer_ids[cells], cells


def _edge_rules(n_nodes: int | None, layer, i, j, has_w, w):
    """The row rules of an edge table whose first column names a layer
    cell, for ``n_nodes`` declared nodes (None: inferred), which must be
    >= 1."""
    if n_nodes is not None and n_nodes < 1:
        raise DomainError("declared node count must be >= 1")
    top = np.inf if n_nodes is None else n_nodes
    return [
        ((i < 1) | (j < 1), ParseError, lambda k: f"node ids must be >= 1, got ({i[k]}, {j[k]})"),
        (layer < 1, ParseError, lambda k: f"layer id must be >= 1, got {layer[k]}"),
        (i == j, DomainError, lambda k: f"self-loop on node {i[k]} rejected"),
        ((i > top) | (j > top), DomainError,
         lambda k: f"node id {max(i[k], j[k])} exceeds declared count {n_nodes}"),
    ]


def _coupling_rules(sizes, n_nodes: int, node, sa, va, sb, vb, has_m, m):
    """The row rules of a coupling table on a network of ``n_nodes`` nodes
    and ``sizes`` layers per aspect."""
    ca, cb = _cells(sizes, sa, va), _cells(sizes, sb, vb)

    def cell_error(s, v):  # 0-based in the message
        return (f"aspect index {v - 1} out of range" if not 1 <= v <= len(sizes)
                else f"layer index {s - 1} out of range for aspect {v - 1}")

    return [
        ((node < 1) | (node > n_nodes), DomainError,
         lambda k: f"node id {node[k]} out of range 1..{n_nodes}"),
        (ca < 0, DomainError, lambda k: cell_error(sa[k], va[k])),
        (cb < 0, DomainError, lambda k: cell_error(sb[k], vb[k])),
        (ca == cb, DomainError, lambda k: "coupling links a layer with itself"),
        (m < 0, DomainError, lambda k: f"magnitude must be >= 0, got {m[k]}"),
    ]


def load_couplings(path: str, net: MultilayerNetwork, n_nodes: int):
    """Parse ``nodeId layerA aspectA layerB aspectB [magnitude]`` lines
    against the layer cells of ``net``, or ``nodeId c1,...,cF d1,...,dF``
    lines, without magnitudes, when ``net`` was read from a grid.

    Returns ``(table, None)``: the Couplings table, with a magnitude column
    when some line carries a magnitude, and a None that keeps the pair
    shape callers unpack.  Of the lines that repeat a coupling, the last
    with a magnitude sets it; a coupling no such line names gets 0.
    ``net.with_couplings(table)`` puts it on the network.
    """
    sizes, text = net.aspect_sizes, _read_text(path)
    if net.dims is not None:  # layers of one aspect, the grid's row-major cells
        cell = _grid_cell(net.dims)
        (node, sa, sb), has_m, magnitude = _read_rows(path, text, _Table(
            "expected: nodeId cA1,...,cAF cB1,...,cBF", (3,), ("node id", cell, cell)),
            lambda node, sa, sb, *rest: _coupling_rules(sizes, n_nodes, node, sa, 1, sb, 1, *rest))
        va = vb = 1
    else:
        (node, sa, va, sb, vb), has_m, magnitude = _read_rows(path, text, _Table(
            "expected: nodeId layerA aspectA layerB aspectB [magnitude]", (5, 6),
            ("node id", "layer id", "aspect id", "layer id", "aspect id"), "magnitude"),
            lambda *columns: _coupling_rules(sizes, n_nodes, *columns))
    ca, cb = _cells(sizes, sa, va), _cells(sizes, sb, vb)
    # Couplings keeps each row's first occurrence: put the rows with a
    # magnitude first, last line first
    order = np.concatenate((np.flatnonzero(has_m)[::-1], np.flatnonzero(~has_m)))
    rows = np.column_stack((node - 1, np.minimum(ca, cb), np.maximum(ca, cb)))
    return Couplings(rows[order], magnitude[order] if has_m.any() else None), None


def load_multiplex(edge_path: str, layer_path: str | None = None,
                   n_nodes: int | None = None) -> MultilayerNetwork:
    """Load a multilayer network from whitespace-separated text files.

    Without a layer file all layers fall into one aspect, ordered by their
    ids, which must then be contiguous from 1.  Duplicate edges are summed.
    When ``n_nodes`` is not declared it is inferred as the largest node id,
    and every id below it must appear somewhere (no silent gaps).  The
    network has no couplings: ``load_couplings`` reads them.

    An edge file with a line whose first token is ``#dims`` is an aspect
    grid (see ``_load_grid``), read with grid coupling lines and no layer
    file.
    """
    text = _read_text(edge_path)
    if directive := _DIMS.search(text):
        return _load_grid(edge_path, text, directive, layer_path, n_nodes)
    if layer_path is not None:
        aspects, declared, cells = _load_layer_table(layer_path)

    def rules(layer, *columns):  # an undeclared layer id is a row's last rule
        checks = _edge_rules(n_nodes, layer, *columns)
        if layer_path is not None:
            checks.append((~np.isin(layer, declared), ParseError,
                           lambda k: f"layer id {layer[k]} not declared in {layer_path}"))
        return checks

    table = _read_rows(edge_path, text, _Table(
        "expected: layerId nodeId nodeId [weight]", (3, 4),
        ("layer id", "node id", "node id"), "edge weight"), rules)
    del text  # the rows are parsed: the text is not held while the network is built
    layer = table[0][0]
    if layer_path is not None:  # every id is declared
        cell = cells[np.searchsorted(declared, layer)]
    else:
        layer_ids = np.unique(layer).tolist()
        if not layer_ids:
            raise ParseError("edge file has no edges and no layer file was given", edge_path)
        if layer_ids != list(range(1, len(layer_ids) + 1)):
            raise ParseError("layer ids must be contiguous from 1 without a layer file, "
                             f"got {layer_ids}", edge_path)
        aspects = (Aspect(name="aspect-1", layers=tuple(f"layer-{i}" for i in layer_ids)),)
        cell = layer - 1
    return _cells_network(edge_path, aspects, cell, table, n_nodes)


def _cells_network(path: str, aspects: tuple[Aspect, ...], cell: np.ndarray, table,
                   n_nodes: int | None, dims: tuple[int, ...] | None = None) -> MultilayerNetwork:
    """The network of the ``_read_rows`` edge ``table`` of ``path``, whose
    rows lie in the 0-based layer cells ``cell``: the node count inferred
    unless declared, rows split by cell in input order, duplicates summed."""
    (_, i, j), has_w, w = table
    if not has_w.all():  # else the weights are read in place, not copied
        w = np.where(has_w, w, 1.0)
    if n_nodes is None:
        n_nodes = _infer_node_count((i, j), path)
    n_cells = sum(len(a.layers) for a in aspects)
    order = slice(None) if (cell[1:] >= cell[:-1]).all() else np.argsort(cell, kind="stable")
    i, j, w, cell = i[order], j[order], w[order], cell[order]
    cuts = np.searchsorted(cell, np.arange(n_cells + 1))
    edges = tuple(normalize_edges(Edges(i[lo:hi] - 1, j[lo:hi] - 1, w[lo:hi]), n_nodes)
                  for lo, hi in zip(cuts, cuts[1:]))
    return MultilayerNetwork(n_nodes=n_nodes, aspects=aspects, within_edges=edges, dims=dims)


def _key_values(path: str, what: str, known, parse=lambda key, value, lineno: value) -> dict:
    """The ``key = value`` lines of ``path``, split at the first ``=``, as a
    dict of each key's ``parse(key, value, lineno)``; the last line for a
    key wins.  A line without ``=``, with a key outside ``known``, or whose
    ``parse`` raises DomainError, raises at its line."""
    out: dict[str, object] = {}
    for lineno, line in _data_lines(_read_text(path)):
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

    net = load_multiplex(resolve(edge_file), resolve(values.get("layer_file")), n_nodes=n_nodes)
    if "coupling_file" in values:
        net = net.with_couplings(load_couplings(resolve(values["coupling_file"]), net, n_nodes)[0])
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
    table = _Table("expected: nodeId label", (2,), ("node id", "label"))
    (node, label), _, _ = _read_rows(path, _read_text(path), table, lambda node, label, has, x: [
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
    dict, the closeness matrix under ``closeness.file``.  Each value is
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
            return check_closeness(load_closeness(os.path.join(base, val)), n_cells)
        if key == "coupling.strategy":
            check_strategy(val)
        else:
            check_normalization(val)
        return val

    return _key_values(path, "parameter", _PARAM_KEYS, parse)


def load_closeness(path: str) -> np.ndarray:
    """Read a dense closeness matrix, one row per data line; an entry that
    is not a finite number, or a row of another length than the first,
    raises at its line."""
    rows: list[list[float]] = []
    for lineno, line in _data_lines(_read_text(path)):
        rows.append([_parse_float(tok, "closeness entry", path, lineno) for tok in line.split()])
        if len(rows[-1]) != len(rows[0]):
            raise ParseError(f"expected {len(rows[0])} entries, got {len(rows[-1])}", path, lineno)
    return np.array(rows, ndmin=2)


def _grid_cell(dims: tuple[int, ...]):
    """The ``_Table`` field parser of a grid coordinate ``c1,...,cF`` inside
    ``dims``: its row-major cell, 1-based as a layer id."""
    def cell(token, path, lineno):
        coord = tuple(_parse_int(t, "grid coordinate", path, lineno) for t in token.split(","))
        if len(coord) != len(dims) or not all(1 <= c <= d for c, d in zip(coord, dims)):
            raise DomainError(f"{path}:{lineno}: coordinate {coord} "
                              f"outside the declared {'x'.join(map(str, dims))} grid")
        return int(np.ravel_multi_index(tuple(c - 1 for c in coord), dims)) + 1
    return cell


def _load_grid(path: str, text: str, directive: re.Match, layer_path: str | None,
               n_nodes: int | None) -> MultilayerNetwork:
    """Read an aspect-aspect grid (every combination of F aspects' layers is
    one cell) from ``path``'s ``text`` into the single-aspect network it
    flattens to; ``directive`` is its ``#dims d1 ... dF`` line, the first.

    Edge lines read ``c1,...,cF nodeId nodeId [weight]`` with 1-based
    coordinates.  Cells become the layers ``L<c1>-<c2>...`` of one aspect
    ``flattened``, in row-major coordinate order, edgeless where no line
    names them; the network keeps ``dims``.  The edge-file reader reads the
    edge lines, their first column naming a cell, so the first bad line is
    the one reported.  A layer file given with it raises.
    """
    lineno, toks = text.count("\n", 0, directive.start()) + 1, directive.group().split()
    if layer_path is not None:
        raise ParseError(f"a grid file takes no layer file, got {layer_path}", path, lineno)
    if len(toks) == 1:
        raise ParseError("#dims directive needs dimensions", path, lineno)
    dims = tuple(_parse_int(t, "grid dim", path, lineno) for t in toks[1:])
    if min(dims) < 1:
        raise ParseError("grid dims must be positive", path, lineno)
    if second := _DIMS.search(text, directive.end()):
        raise ParseError("second #dims directive: a grid file holds one", path,
                         lineno + text.count("\n", directive.start(), second.start()))
    table = _read_rows(path, text, _Table("expected: c1,...,cF nodeId nodeId [weight]", (3, 4),
                                          (_grid_cell(dims), "node id", "node id"),
                                          "edge weight"),
                       lambda *columns: _edge_rules(n_nodes, *columns))
    labels = tuple("L" + "-".join(map(str, coord))
                   for coord in itertools.product(*(range(1, d + 1) for d in dims)))
    return _cells_network(path, (Aspect(name="flattened", layers=labels),), table[0][0] - 1,
                          table, n_nodes, dims)


# -- detection result documents ----------------------------------------------

_RESULT_HEADER = "#mlmod-result v1"


def _atomic_write(path: str, lines) -> None:
    """Write the lines, each ended by a newline, 4,096 at a time, as the
    whole document or nothing; the directory must exist."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise DomainError(f"output directory does not exist: {directory}")
    tmp, lines = path + ".tmp", iter(lines)
    with open(tmp, "w", encoding="utf-8") as fh:
        while chunk := list(itertools.islice(lines, 4096)):
            fh.write("\n".join(chunk) + "\n")
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
    lines = [_RESULT_HEADER, f"#meta n_nodes {net.n_nodes}",
             "#meta aspects " + ",".join(str(s) for s in net.aspect_sizes),
             f"#meta q_total {float(result.q_total)!r}",
             *(f"#meta {key} {result.meta[key]}" for key in sorted(result.meta)),
             *(f"#division {div.community} {float(div.delta_q)!r} {float(div.beta)!r} "
               f"{'applied' if div.applied else 'rejected'}" for div in result.divisions),
             "#cells nodeId layerId aspectId communityId softLabel"]
    nodes = [str(i + 1) for i in range(net.n_nodes)]
    cells = [f"{s + 1} {v + 1}" for v, size in enumerate(net.aspect_sizes) for s in range(size)]
    rows = map(" ".join, zip(nodes * len(cells),
                             (cell for cell in cells for _ in nodes),
                             map(str, (result.partition.labels + 1).tolist()),
                             ["-"] * net.supra_size if soft is None
                             else map(repr, np.asarray(soft, dtype=float).tolist())))
    _atomic_write(path, itertools.chain(lines, rows))


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

    if n_nodes is None or aspect_sizes is None or q_total is None:
        raise ParseError("result document is missing required metadata", path)

    def rules(node, layer, aspect, community, has_soft, soft):
        cell = _cells(aspect_sizes, layer, aspect)
        inside = (cell >= 0) & (node >= 1) & (node <= n_nodes)
        x = np.where(inside, cell * n_nodes + node - 1, -1)

        def ids(k):
            return f"({node[k]}, {layer[k]}, {aspect[k]})"

        return [
            (~inside, ParseError, lambda k: f"cell {ids(k)} out of range"),
            (_repeats(x), ParseError, lambda k: f"duplicate cell {ids(k)}"),
            (community < 1, ParseError,
             lambda k: f"community id must be >= 1, got {community[k]}"),
            (has_soft != has_soft[:1], ParseError,
             lambda k: "soft labels must be numbers on every cell row or '-' on every one"),
        ]

    (node, layer, aspect, community), has_soft, soft = _read_rows(path, text, _Table(
        "expected: nodeId layerId aspectId communityId softLabel", (5,),
        ("node id", "layer id", "aspect id", "community id"), "soft label"), rules)
    size = sum(aspect_sizes) * n_nodes
    if node.size != size:
        raise ParseError(f"expected {size} cell rows, found {node.size}", path)
    x = _cells(aspect_sizes, layer, aspect) * n_nodes + node - 1  # every cell is inside
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
