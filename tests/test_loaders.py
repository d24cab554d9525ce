"""The file readers, numpy's reader with the line loop behind it, and the
array-native builders against their line-by-line references in
``tests/oracles.py``.

Files are generated with comments, blank lines, mixed 3- and 4-column
rows (which the line loop reads), duplicate and reversed edges, awkward
weights and token spellings that only the line loop reads; the loader
must return the reference's network bit for bit, and every malformed
line must raise the reference's exception with the same message, also
in a uniform file, which numpy's reader is handed first.  Uniform
tables must never reach the line loop.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import (
    Aspect,
    CouplingSpec,
    DetectionResult,
    DomainError,
    MlmodError,
    ModularityParams,
    MultilayerNetwork,
    ParseError,
    Partition,
    generate_couplings,
    load_multiplex,
    load_result,
    quality_matrix,
    save_result,
)
from mlmod.io import load_couplings, load_labels
from mlmod.network import Couplings, Edges, normalize_edges

from oracles import (
    generate_couplings_reference,
    layer_stats_reference,
    load_couplings_reference,
    load_multiplex_reference,
    normalize_edges_reference,
    write_multiplex,
)

WEIGHTS = ["1", "2.5", "0.1", "1e-300", "3.0000000000000004", "-0.75", "7", "1E2", ".5"]
# spellings int() accepts: numpy's reader reads '+1' and '01' as int() does, the line loop the rest
ODD_IDS = {1: ["+1", "01", "\uff11"], 2: ["+2", "002", "0_2"]}
NOISE = ["", "# comment", "   ", "\t# indented comment", "#1 2 3", "# café"]


@st.composite
def edge_files(draw, n_layers=2, n_nodes=5):
    lines, odd = [], draw(st.booleans())
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(NOISE)))
            continue
        layer = draw(st.integers(1, n_layers))
        i, j = draw(st.lists(st.integers(1, n_nodes), min_size=2, max_size=2, unique=True))
        tokens = [str(layer), str(i), str(j)]
        if odd and i in ODD_IDS:
            tokens[1] = draw(st.sampled_from(ODD_IDS[i]))
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from(WEIGHTS)))
        lines.append(draw(st.sampled_from([" ", "\t", "  ", " \x0c"])).join(tokens))
    # every layer and node appears, so the count and layer ids can be inferred
    lines += [f"{t} 1 {n_nodes}" for t in range(1, n_layers + 1)]
    lines += [f"1 {k} {k + 1}" for k in range(1, n_nodes)]
    draw(st.randoms()).shuffle(lines)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _write(tmp_path_factory, text, name="e.txt"):
    path = tmp_path_factory.mktemp("files") / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _same_network(got, want):
    assert got.n_nodes == want.n_nodes
    assert got.aspects == want.aspects
    assert [tuple(e) for e in got.within_edges] == [tuple(e) for e in want.within_edges]
    assert got.couplings == want.couplings


@settings(max_examples=80, deadline=None)
@given(text=edge_files())
def test_bulk_loader_returns_the_reference_network(text, tmp_path_factory):
    path = _write(tmp_path_factory, text)
    _same_network(load_multiplex(path), load_multiplex_reference(path))
    _same_network(load_multiplex(path, n_nodes=7), load_multiplex_reference(path, n_nodes=7))


@settings(max_examples=40, deadline=None)
@given(text=edge_files(n_layers=3))
def test_bulk_loader_with_layer_file(text, tmp_path_factory):
    path = _write(tmp_path_factory, text)
    layers = _write(tmp_path_factory, "3 1 c\n1 2 a\n2 1 b\n", "l.txt")
    _same_network(load_multiplex(path, layers), load_multiplex_reference(path, layers))


@st.composite
def uniform_edge_files(draw, n_layers=2, n_nodes=5):
    """ASCII edge files whose rows all carry a weight or none, with spellings
    numpy's reader reads: files that never reach the line loop."""
    weighted = draw(st.booleans())
    pair = st.lists(st.integers(1, n_nodes), min_size=2, max_size=2, unique=True)
    rows = draw(st.lists(st.tuples(st.integers(1, n_layers), pair), max_size=25))
    rows += [(t, [1, n_nodes]) for t in range(1, n_layers + 1)]
    rows += [(1, [k, k + 1]) for k in range(1, n_nodes)]
    lines = []
    for layer, (i, j) in rows:
        tokens = [str(layer), draw(st.sampled_from([str(i), f"+{i}", f"0{i}"])), str(j)]
        if weighted:
            tokens.append(draw(st.sampled_from(WEIGHTS)))
        lines.append(draw(st.sampled_from([" ", "\t", "  ", " \x0c"])).join(tokens))
    lines += draw(st.lists(st.sampled_from([n for n in NOISE if n.isascii()]), max_size=5))
    draw(st.randoms()).shuffle(lines)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=60, deadline=None)
@given(text=uniform_edge_files())
def test_numpy_read_returns_the_reference_network(text, tmp_path_factory):
    import mlmod.io

    path = _write(tmp_path_factory, text)
    with mock.patch.object(mlmod.io, "_parse_row", side_effect=AssertionError("line loop")):
        got = load_multiplex(path)
    _same_network(got, load_multiplex_reference(path))


def test_weights_sum_in_input_order_bit_for_bit(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("1 1 2 0.1\n1 2 1 0.2\n1 1 2 0.3\n1 3 2 1e-300\n1 2 3 3.0000000000000004\n")
    net = load_multiplex(str(path))
    assert tuple(net.within_edges[0]) == ((0, 1, (0.1 + 0.2) + 0.3),
                                          (1, 2, 1e-300 + 3.0000000000000004))
    _same_network(net, load_multiplex_reference(str(path)))


BAD_EDGE_LINES = [
    "1 2", "1 2 3 4 5", "1 x 3", "1 1.0 3", "1 2 3 w", "1 2 3 nan", "1 2 3 inf",
    "1 2 3 1e", "0 2 3", "1 0 3", "-1 2 3", "1 -2 3", "1 3 3", "1 2 3 #note",
    "1 2 3 --1", "1 2 3 0x10", "1 2 3 0.5 x",
]


@pytest.mark.parametrize("bad", BAD_EDGE_LINES)
@pytest.mark.parametrize("at", [0, 2])
def test_malformed_edge_line_raises_the_reference_error(bad, at, tmp_path):
    lines = ["# header", "1 1 2", "1 2 3 0.5", "2 1 3"]
    lines.insert(at + 1, bad)
    path = tmp_path / "e.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MlmodError) as want:
        load_multiplex_reference(str(path))
    with pytest.raises(type(want.value)) as got:
        load_multiplex(str(path))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, layers, n_nodes", [
    ("1 1 2\n4 2 3\n", "1 1 a\n2 1 b\n", None),    # layer id not declared
    ("1 1 2\n3 2 3\n", None, None),                 # layer ids not contiguous
    ("# only\n", None, None),                       # no edges, no layer file
    ("1 1 2\n1 4 5\n", None, None),                 # node id gap
    ("1 1 9\n", None, 5),                           # over the declared count
    ("1 1 2\n", None, 0),                           # bad declared count
])
def test_file_level_errors_match_the_reference(text, layers, n_nodes, tmp_path):
    edge = tmp_path / "e.txt"
    edge.write_text(text)
    layer_path = None
    if layers is not None:
        (tmp_path / "l.txt").write_text(layers)
        layer_path = str(tmp_path / "l.txt")
    with pytest.raises(MlmodError) as want:
        load_multiplex_reference(str(edge), layer_path, n_nodes)
    with pytest.raises(type(want.value)) as got:
        load_multiplex(str(edge), layer_path, n_nodes=n_nodes)
    assert str(got.value) == str(want.value)


def _grid_net():
    return MultilayerNetwork(n_nodes=4, aspects=(Aspect("a", ("x", "y")), Aspect("b", ("z",))),
                             within_edges=((), (), ()))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(1, 4), st.sampled_from([(1, 1), (2, 1), (1, 2)]),
                               st.sampled_from([(1, 1), (2, 1), (1, 2)]),
                               st.sampled_from([None, "0.5", "2", "0", "1e-300"])),
                     max_size=12),
       comment=st.booleans())
def test_bulk_coupling_reader_matches_the_reference(rows, comment, tmp_path_factory):
    lines = ["# nodeId layerA aspectA layerB aspectB"] if comment else []
    for node, (sa, va), (sb, vb), m in rows:
        if (sa, va) != (sb, vb):
            lines.append(f"{node} {sa} {va} {sb} {vb}" + ("" if m is None else f" {m}"))
    path = _write(tmp_path_factory, "\n".join(lines) + "\n", "c.txt")
    net = _grid_net()
    table, second = load_couplings(path, net, 4)
    want, magnitudes = load_couplings_reference(path, net, 4)
    assert second is None
    assert table == want
    if magnitudes is None:
        assert table.magnitude is None
    else:
        assert table.magnitude.tolist() == [magnitudes.get(c, 0.0) for c in table]


BAD_COUPLING_LINES = ["1 1 1 2", "x 1 1 2 1", "9 1 1 2 1", "1 3 1 2 1", "1 1 3 2 1",
                      "1 1 1 1 1", "1 1 1 2 1 w", "1 1 1 2 1 nan", "0 1 1 2 1"]


@pytest.mark.parametrize("bad", BAD_COUPLING_LINES)
def test_malformed_coupling_line_raises_the_reference_error(bad, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(f"1 1 1 2 1\n{bad}\n2 1 1 1 2 0.5\n")
    net = _grid_net()
    with pytest.raises(MlmodError) as want:
        load_couplings_reference(str(path), net, 4)
    with pytest.raises(type(want.value)) as got:
        load_couplings(str(path), net, 4)
    assert str(got.value) == str(want.value)


def _uniform_rows(rows, bad, at, width):
    """``rows`` with the malformed line ``bad`` inserted at ``at``: all of
    ``width`` columns (the last one a number of 1 on rows that lack it), so
    that numpy's reader is handed every bad line that has the file's width."""
    lines = [row + " 1" * (width - len(row.split())) for row in rows]
    lines.insert(at, bad)
    return "# header\n" + "\n".join(lines) + "\n"


def _same_error_reaching_numpy(text, load, reference, path):
    path.write_text(text)
    with pytest.raises(MlmodError) as want:
        reference(str(path))
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as numpy_read:
        with pytest.raises(type(want.value)) as got:
            load(str(path))
    assert str(got.value) == str(want.value)
    rows = [line for line in text.split("\n") if line.strip() and line.split()[0][0] != "#"]
    if len({len(row.split()) for row in rows}) == 1 and not any("#" in row for row in rows):
        assert numpy_read.called


@pytest.mark.parametrize("bad", BAD_EDGE_LINES)
@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("width", [3, 4])
def test_malformed_edge_line_in_a_uniform_file_raises_the_reference_error(
        bad, at, width, tmp_path):
    text = _uniform_rows(["1 1 2", "1 2 3", "2 1 3"], bad, at, width)
    _same_error_reaching_numpy(text, load_multiplex, load_multiplex_reference, tmp_path / "e.txt")


@pytest.mark.parametrize("bad", BAD_COUPLING_LINES)
@pytest.mark.parametrize("width", [5, 6])
def test_malformed_coupling_line_in_a_uniform_file_raises_the_reference_error(
        bad, width, tmp_path):
    net = _grid_net()
    _same_error_reaching_numpy(_uniform_rows(["1 1 1 2 1", "2 1 1 1 2"], bad, 1, width),
                               lambda p: load_couplings(p, net, 4),
                               lambda p: load_couplings_reference(p, net, 4), tmp_path / "c.txt")


def test_a_numpy_read_that_warns_takes_the_line_loop(tmp_path):
    # numpy 1.23 deprecated reading '2.5' in an int64 column as 2; until that expired it only warned
    read = np.loadtxt

    def truncating_read(text, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        cols = read(text, dtype=[(name, float) for name, _ in dtype], **kwargs)
        return [col.astype(kind) for col, (_, kind) in zip(cols, dtype)]

    path = tmp_path / "e.txt"
    path.write_text("1 1 2\n1 2.5 3\n1 1e2 3\n")
    with mock.patch.object(np, "loadtxt", truncating_read):
        with pytest.raises(ParseError, match=r"e\.txt:2: expected integer node id, got '2\.5'"):
            load_multiplex(str(path))


def test_undecodable_file_is_a_parse_error(tmp_path, capsys):
    from mlmod.cli import main

    path = tmp_path / "e.txt"
    path.write_bytes(b"1 1 2\n1 2 3 \xff\n")
    assert main(["detect", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err


def test_ids_beyond_int64_are_parse_errors(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("1 1 2\n1 99999999999999999999 3\n")
    with pytest.raises(ParseError, match=r"e\.txt:2: node id out of range"):
        load_multiplex(str(path))


def test_negative_magnitude_rejected_with_position(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1 1 1 2 1 0.5\n2 1 1 2 1 -0.5\n")
    with pytest.raises(DomainError, match=r"c\.txt:2: magnitude must be >= 0"):
        load_couplings(str(path), _grid_net(), 4)


def test_magnitudes_survive_a_save_and_load(tmp_path):
    net = _grid_net().with_couplings(Couplings([(0, 0, 1), (3, 1, 2)], [0.0, 0.25]))
    paths = [str(tmp_path / name) for name in ("e.txt", "l.txt", "c.txt")]
    write_multiplex(net, *paths)
    back = load_multiplex(*paths[:2], n_nodes=4)
    back = back.with_couplings(load_couplings(paths[2], back, 4)[0])
    assert back.couplings == net.couplings
    assert back.couplings.magnitude.tolist() == [0.0, 0.25]


@settings(max_examples=60, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 5),
                                st.sampled_from([0.1, 0.2, 1e-300, -0.3, 3.0000000000000004])),
                      max_size=30))
def test_normalize_edges_matches_the_dict_loop(edges):
    try:
        want = normalize_edges_reference(edges, 6)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            normalize_edges(edges, 6)
        assert str(got.value) == str(exc)
        return
    assert tuple(normalize_edges(edges, 6)) == want


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("sizes", [(1,), (2,), (3, 1), (2, 2, 1)])
def test_generate_couplings_matches_the_loop(seed, rho, sizes):
    aspects = tuple(Aspect(f"a{v}", tuple(f"l{s}" for s in range(n)))
                    for v, n in enumerate(sizes))
    net = MultilayerNetwork(n_nodes=13, aspects=aspects,
                            within_edges=tuple(() for _ in range(sum(sizes))))
    got = generate_couplings(net, rho, seed)
    assert isinstance(got, Couplings)
    assert got == generate_couplings_reference(net, rho, seed)


@settings(max_examples=40, deadline=None)
@given(text=edge_files(n_layers=2, n_nodes=6), rho=st.sampled_from([0.0, 0.5, 1.0]),
       signed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_tuple_and_array_networks_give_identical_quality_matrices(
        text, rho, signed, seed, tmp_path_factory):
    path = _write(tmp_path_factory, text)
    arrays = load_multiplex(path)
    arrays = arrays.with_couplings(generate_couplings(arrays, rho, seed))
    tuples = load_multiplex_reference(path).with_couplings(set(arrays.couplings))
    assert not isinstance(tuples.within_edges[0], tuple)  # converted on construction
    rebuilt = MultilayerNetwork(n_nodes=arrays.n_nodes, aspects=arrays.aspects,
                                within_edges=tuple(tuple(e) for e in arrays.within_edges),
                                couplings=frozenset(arrays.couplings))
    if any((e.w < 0).any() for e in arrays.within_edges):
        signed = True
    params = ModularityParams.for_network(arrays, gamma=0.7, signed=signed)
    spec = CouplingSpec(omega=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # layers without '-' edges warn
        want, want_chi = quality_matrix(arrays, spec, params)
        for net in (tuples, rebuilt):
            got, chi = quality_matrix(net, spec, params)
            assert chi == want_chi
            for field in ("indptr", "indices", "data", "cells", "strengths", "coefs"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                         st.sampled_from([0.1, 0.2, 0.7, 1e-300, -0.3, -1e-16])),
                               max_size=25), min_size=1, max_size=3),
       signed=st.booleans())
def test_layer_stats_sum_edge_by_edge(cells, signed):
    # every cell's strengths and coefficients, bit for bit, the last cell empty
    cells = [normalize_edges([e for e in c if e[0] != e[1]], 5) for c in cells] + [()]
    net = MultilayerNetwork(n_nodes=5, aspects=(Aspect("a", tuple(map(str, range(len(cells))))),),
                            within_edges=tuple(cells))
    signed = signed or any((e.w < 0).any() for e in net.within_edges)
    params = ModularityParams.for_network(net, gamma=[0.7 + 0.2 * t for t in range(len(cells))],
                                          lam=[1.5 - 0.25 * t for t in range(len(cells))],
                                          signed=signed, gamma_minus=1.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        qm, _ = quality_matrix(net, CouplingSpec(omega=0.0), params)
    empty = len(cells) - 1
    assert f"layer cell {empty} has no" in str(caught[-1].message)
    pieces = [(None, 1.0, params.gamma)]
    if signed:
        pieces = zip(("+", "-"), (1.0, -1.0), params.gamma_signed())
    for p, (subset, sign, gamma) in enumerate(pieces):
        for t in range(len(cells)):
            k, m = layer_stats_reference(net, t, subset)
            assert qm.strengths[p, 5 * t:5 * (t + 1)].tobytes() == k.tobytes()
            coef = sign * params.lam[t] * gamma[t] / (2.0 * m) if m > 0 else 0.0
            assert qm.coefs[p, t] == coef


def test_edges_read_as_triples():
    e = Edges([0, 1], [2, 3], [0.5, 1.0])
    assert len(e) == 2 and e[1] == (1, 3, 1.0)
    assert e == ((0, 2, 0.5), (1, 3, 1.0)) and (0, 2, 0.5) in e
    assert e.w.flags.writeable is False


def test_plain_files_never_reach_the_line_loop(tmp_path, monkeypatch):
    import mlmod.io

    def line_loop(*args):
        raise AssertionError("the line loop read a plain file")

    def first_line_only(text):  # the reader may look at the first row's width
        lines = data_lines(text)
        yield next(lines)
        line_loop()

    data_lines = mlmod.io._data_lines
    monkeypatch.setattr(mlmod.io, "_parse_row", line_loop)
    files = {
        "e3.txt": "# layerId nodeId nodeId # no weight\n1 1 2\n\n 2\t2 3\n1 3 1\n",
        "e4.txt": "# layerId nodeId nodeId weight\n1 1 2 1\n\n 2\t2 3 0.5\n1 3 1 1e-300\n",
        "l.txt": "1 1 a\n2 1 b\n",
        "c5.txt": "# couplings\n1 1 1 2 1\n3 2 1 1 1\n",
        "c6.txt": "# couplings\n1 1 1 2 1 0.5\n3 2 1 1 1 0\n",
        "gt.txt": "# nodeId label\n1 0\n\n2 1\n3 0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = lambda name: str(tmp_path / name)
    net = load_multiplex(path("e3.txt"), path("l.txt"))
    net = net.with_couplings(load_couplings(path("c5.txt"), net, net.n_nodes)[0])
    assert tuple(net.within_edges[0]) == ((0, 1, 1.0), (0, 2, 1.0))
    assert tuple(net.within_edges[1]) == ((1, 2, 1.0),)
    assert net.couplings == {(0, 0, 1), (2, 0, 1)} and net.couplings.magnitude is None
    net = load_multiplex(path("e4.txt"), path("l.txt"))
    net = net.with_couplings(load_couplings(path("c6.txt"), net, net.n_nodes)[0])
    assert tuple(net.within_edges[0]) == ((0, 1, 1.0), (0, 2, 1e-300))
    assert tuple(net.within_edges[1]) == ((1, 2, 0.5),)
    assert net.couplings.magnitude.tolist() == [0.5, 0.0]
    result = DetectionResult(Partition(np.array([0, 1, 1, 0, 2, 2])), 0.5, (),
                             np.array([0.25, -1e-300, 3.0000000000000004, 0.0, 1e300, -0.5]))
    save_result(result, path("r.txt"), net)
    monkeypatch.setattr(mlmod.io, "_data_lines", first_line_only)
    assert load_labels(path("gt.txt"), 3).tolist() == [0, 1, 0]
    back, _ = load_result(path("r.txt"))
    assert np.array_equal(back.partition.labels, result.partition.labels)
    assert np.array_equal(back.soft_labels, result.soft_labels)


def test_mixed_width_files_take_the_line_loop(tmp_path, monkeypatch):
    import mlmod.io

    lines, read = [], mlmod.io._parse_row
    monkeypatch.setattr(mlmod.io, "_parse_row",
                        lambda *args: lines.append(args[2]) or read(*args))
    edge, couplings = tmp_path / "e.txt", tmp_path / "c.txt"
    edge.write_text("# layerId nodeId nodeId\n1 1 2\n\n 2\t2 3 0.5\n1 3 1 1e-300\n")
    couplings.write_text("# couplings\n1 1 1 2 1 0.5\n3 2 1 1 1\n")
    _same_network(load_multiplex(str(edge)), load_multiplex_reference(str(edge)))
    assert lines == [2, 4, 5]
    net = _grid_net()
    table, _ = load_couplings(str(couplings), net, 4)
    want, magnitudes = load_couplings_reference(str(couplings), net, 4)
    assert table == want and table.magnitude.tolist() == [magnitudes.get(c, 0.0) for c in table]
    assert lines == [2, 4, 5, 2, 3]


@pytest.mark.parametrize("name, text", [
    ("e.txt", "1 1 2\n1 2 3 # note\n2 1 3\n"),
    ("e.txt", "# header # with a second mark\n1 1 2\n2 1 3 # note\n"),
    ("e.txt", "1 1 2\n2 1 3#4\n"),
    ("c.txt", "1 1 1 2 1\n# c\n2 1 1 1 2 #\n"),
])
def test_mark_after_a_token_is_not_a_comment(name, text, tmp_path):
    # numpy's reader would drop the rest of the line; the line loop rejects it
    path = tmp_path / name
    path.write_text(text)
    net = _grid_net()
    load, reference = ((lambda p: load_multiplex(p), lambda p: load_multiplex_reference(p))
                       if name == "e.txt" else
                       (lambda p: load_couplings(p, net, 4), lambda p: load_couplings_reference(p, net, 4)))
    with pytest.raises(MlmodError) as want:
        reference(str(path))
    with pytest.raises(type(want.value)) as got:
        load(str(path))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("char", ["\U00050000", "\U0009c6ca", "\U0010ffff"])
def test_characters_beyond_the_bmp_take_the_line_loop(char, tmp_path):
    # numpy 2.4's reader can crash the process on such a character after a digit
    path = tmp_path / "e.txt"
    path.write_text(f"1 1 2\n1 2 3{char}\n")
    with pytest.raises(ParseError) as want:
        load_multiplex_reference(str(path))
    with pytest.raises(ParseError) as got:
        load_multiplex(str(path))
    assert str(got.value) == str(want.value)


def test_files_without_data_rows_do_not_warn(tmp_path):
    (tmp_path / "e.txt").write_text("# layerId nodeId nodeId\n\n# nothing\n")
    (tmp_path / "l.txt").write_text("1 1 a\n2 1 b\n")
    (tmp_path / "gt.txt").write_text("")
    edge, layers = str(tmp_path / "e.txt"), str(tmp_path / "l.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _same_network(load_multiplex(edge, layers, n_nodes=3),
                      load_multiplex_reference(edge, layers, n_nodes=3))
        with pytest.raises(ParseError) as want:
            load_multiplex_reference(edge, layers)
        with pytest.raises(ParseError) as got:
            load_multiplex(edge, layers)
        assert str(got.value) == str(want.value)
        with pytest.raises(ParseError, match=r"gt\.txt: ground truth does not label every node"):
            load_labels(str(tmp_path / "gt.txt"), 3)


@st.composite
def grids(draw):
    """A random grid: dims, node count, edge rows (coordinate, i, j, weight
    token or None) with duplicates and negative weights, coupling rows
    (node, coordinate, coordinate) or None, and whether to declare the count."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n_nodes = draw(st.integers(2, 6))
    coord = st.tuples(*(st.integers(1, d) for d in dims))
    pair = st.lists(st.integers(1, n_nodes), min_size=2, max_size=2, unique=True)
    edges = draw(st.lists(st.tuples(coord, pair, st.sampled_from([None, *WEIGHTS])),
                          max_size=20))
    # every node appears, so the count can be inferred
    edges += [(draw(coord), [k, k + 1], None) for k in range(1, n_nodes)]
    draw(st.randoms()).shuffle(edges)
    couplings = None
    if draw(st.booleans()):
        couplings = [(node, a, b) for node, a, b in draw(st.lists(
            st.tuples(st.integers(1, n_nodes), coord, coord), max_size=10)) if a != b]
    return dims, n_nodes, edges, couplings, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(grid=grids())
def test_grid_file_reads_as_its_flattened_files(grid, tmp_path_factory):
    dims, n_nodes, edges, couplings, declared = grid
    cell = lambda c: int(np.ravel_multi_index(tuple(x - 1 for x in c), dims)) + 1
    tail = lambda w: "" if w is None else f" {w}"
    grid_path = _write(tmp_path_factory, f"#dims {' '.join(map(str, dims))}\n" + "".join(
        f"{','.join(map(str, c))} {i} {j}{tail(w)}\n" for c, (i, j), w in edges), "g.txt")
    edge_path = _write(tmp_path_factory, "".join(
        f"{cell(c)} {i} {j}{tail(w)}\n" for c, (i, j), w in edges))
    layer_path = _write(tmp_path_factory, "".join(
        f"{t} 1 l{t}\n" for t in range(1, int(np.prod(dims)) + 1)), "l.txt")
    n = n_nodes if declared else None
    got = load_multiplex(grid_path, n_nodes=n)
    want = load_multiplex(edge_path, layer_path, n_nodes=n)
    if couplings is not None:
        grid_couplings = _write(tmp_path_factory, "".join(
            f"{node} {','.join(map(str, a))} {','.join(map(str, b))}\n"
            for node, a, b in couplings), "gc.txt")
        flat_couplings = _write(tmp_path_factory, "".join(
            f"{node} {cell(a)} 1 {cell(b)} 1\n" for node, a, b in couplings), "c.txt")
        got = got.with_couplings(load_couplings(grid_couplings, got, got.n_nodes)[0])
        want = want.with_couplings(load_couplings(flat_couplings, want, want.n_nodes)[0])
    assert got.n_nodes == want.n_nodes
    assert [(e.i.tobytes(), e.j.tobytes(), e.w.tobytes()) for e in got.within_edges] == \
        [(e.i.tobytes(), e.j.tobytes(), e.w.tobytes()) for e in want.within_edges]
    assert got.couplings == want.couplings
    assert np.array_equal(got.couplings.rows, want.couplings.rows)


def test_grid_file_reports_its_first_faulty_line(tmp_path):
    # line 3 leaves the grid, line 4 is a self-loop, line 5 has a gap-making
    # node id; the edge reader stops at line 3
    path = tmp_path / "g.txt"
    path.write_text("#dims 2 2\n1,1 1 2\n3,1 1 2\n1,2 2 2\n2,2 1 9\n")
    with pytest.raises(DomainError) as exc:
        load_multiplex(str(path))
    assert str(exc.value) == f"{path}:3: coordinate (3, 1) outside the declared 2x2 grid"


def _first_bad_line_case(reader, tmp_path):
    """(read, path, line, error class, message) of a file whose line ``line``
    breaks a row rule and whose next data line is malformed."""
    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    if reader == "edges":
        path = write("e.txt", "1 1 2\n1 2 9\n1 x 4\n")
        return (lambda: load_multiplex(path, n_nodes=4), path, 2, DomainError,
                "node id 9 exceeds declared count 4")
    if reader == "grid edges":
        path = write("g.txt", "#dims 2\n1 1 2\n2 2 9\n1 x 4\n")
        return (lambda: load_multiplex(path, n_nodes=4), path, 3, DomainError,
                "node id 9 exceeds declared count 4")
    if reader == "couplings":
        path = write("cc.txt", "1 1 1 2 1\n99 1 1 2 1\n1 1 1 2 1 x\n")
        return (lambda: load_couplings(path, _grid_net(), 4), path, 2, DomainError,
                "node id 99 out of range 1..4")
    if reader == "grid couplings":
        path = write("gc.txt", "1 1 2\n9 1 2\n1 1 x\n")
        grid_net = load_multiplex(write("g.txt", "#dims 2\n1 1 2\n2 2 3\n"))
        return (lambda: load_couplings(path, grid_net, 3), path, 2, DomainError,
                "node id 9 out of range 1..3")
    if reader == "labels":
        path = write("gt.txt", "1 1\n1 0\n3 x\n")
        return lambda: load_labels(path, 3), path, 2, ParseError, "duplicate node id 1"
    path = str(tmp_path / "r.txt")
    save_result(DetectionResult(Partition(np.arange(12) % 2), 0.5, ()), path, _grid_net())
    lines = (tmp_path / "r.txt").read_text().split("\n")
    first = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    lines[first + 1] = lines[first]  # a repeated cell, then a malformed row
    lines[first + 2] = "1 x 1 1 -"
    (tmp_path / "r.txt").write_text("\n".join(lines))
    return lambda: load_result(path), path, first + 2, ParseError, "duplicate cell (1, 1, 1)"


@pytest.mark.parametrize("reader", ["edges", "grid edges", "couplings", "grid couplings",
                                    "labels", "result"])
def test_the_first_line_that_breaks_a_rule_is_reported_before_a_later_malformed_one(
        reader, tmp_path):
    read, path, line, cls, message = _first_bad_line_case(reader, tmp_path)
    with pytest.raises(MlmodError) as exc:
        read()
    assert type(exc.value) is cls
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_a_second_dims_directive_is_an_error_at_its_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("#dims 2 2\n1,1 1 2\n# more\n#dims 3 3\n3,3 1 2\n")
    with pytest.raises(ParseError) as exc:
        load_multiplex(str(path))
    assert str(exc.value) == f"{path}:4: second #dims directive: a grid file holds one"
