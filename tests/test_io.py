from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import (
    Aspect,
    CouplingSpec,
    DetectionResult,
    Division,
    DomainError,
    MlmodError,
    ModularityParams,
    MultilayerNetwork,
    ParseError,
    Partition,
    build_karate_replica,
    load_karate,
    load_multiplex,
    load_result,
    mspec_detect,
    quality_matrix,
    save_result,
)
from mlmod.io import load_closeness, load_couplings, load_dataset, load_labels, load_params_file
from mlmod.datasets import karate_manifest_path

from oracles import dense_adjacency, write_multiplex


class TestLoadMultiplex:
    def test_declared_nodes_empty_edge_file(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("# empty\n")
        layer = tmp_path / "l.txt"
        layer.write_text("1 1 only\n")
        net = load_multiplex(str(edge), str(layer), n_nodes=5)
        assert net.n_nodes == 5
        assert net.n_cells == 1
        assert net.within_edges[0] == ()

    def test_weighted_line_mirrored(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 3 4 2.5\n1 1 2\n")
        net = load_multiplex(str(edge))
        assert net.n_nodes == 4
        assert (2, 3, 2.5) in net.within_edges[0]
        a = dense_adjacency(net, 0)
        assert a[2, 3] == 2.5 and a[3, 2] == 2.5

    def test_duplicates_summed(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n1 2 1 0.5\n")
        net = load_multiplex(str(edge))
        assert net.within_edges[0] == ((0, 1, 1.5),)

    def test_karate_counts(self):
        net, truth = load_karate()
        assert net.n_nodes == 34
        qm, _ = quality_matrix(net, CouplingSpec(), ModularityParams.for_network(net))
        assert qm.coefs[0, 0] == 1.0 / 156.0  # 1 / 2m, m = 78
        assert qm.strengths[0, 0] == 16
        assert qm.strengths[0, 33] == 17
        assert (truth == 1).sum() == 16 and (truth == 2).sum() == 18

    def test_malformed_line_reports_position(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n1 zzz 3 1.0\n")
        with pytest.raises(ParseError) as err:
            load_multiplex(str(edge))
        assert err.value.line == 2

    def test_bulk_read_line_numbers_count_comment_lines(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("# one\n# two\n1 1 2\n1 2 3\n3 1 3\n")
        layer = tmp_path / "l.txt"
        layer.write_text("1 1 a\n2 1 b\n")
        with pytest.raises(ParseError) as exc:
            load_multiplex(str(edge), str(layer))
        assert str(exc.value) == f"{edge}:5: layer id 3 not declared in {layer}"

    def test_undeclared_layer_reported_before_a_later_bad_row(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2\n3 2 3\n1 3 3\n")
        layer = tmp_path / "l.txt"
        layer.write_text("1 1 a\n2 1 b\n")
        with pytest.raises(ParseError) as exc:
            load_multiplex(str(edge), str(layer))
        assert str(exc.value) == f"{edge}:2: layer id 3 not declared in {layer}"

    def test_self_loop_rejected(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 2 2 1.0\n")
        with pytest.raises(DomainError):
            load_multiplex(str(edge))

    def test_node_over_declared_count(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 9 1.0\n")
        with pytest.raises(DomainError):
            load_multiplex(str(edge), n_nodes=5)

    def test_gap_rejected_when_inferring(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n1 4 5 1.0\n")
        with pytest.raises(ParseError):
            load_multiplex(str(edge))

    def test_layer_and_coupling_files(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n2 1 2 2.0\n3 2 3 1.0\n")
        layer = tmp_path / "l.txt"
        layer.write_text("1 1 first\n2 1 second\n3 2 other\n")
        coup = tmp_path / "c.txt"
        coup.write_text("2 1 1 2 1\n1 1 1 1 2\n")
        net = load_multiplex(str(edge), str(layer), n_nodes=3)
        net = net.with_couplings(load_couplings(str(coup), net, 3)[0])
        assert net.aspect_sizes == (2, 1)
        assert (1, 0, 1) in net.couplings
        assert (0, 0, 2) in net.couplings

    @pytest.mark.parametrize("body, line, message", [
        ("1 1 a\n2 1 b c\n", 2, "expected: layerId aspectId label"),
        ("1 1 a\n# c\n1 1 b\n", 3, "duplicate layer id 1"),
        ("# no layers\n", None, "layer file declares no layers"),
        ("1 1 a\n2 3 b\n", None, "aspect ids must be contiguous from 1, got [1, 3]"),
    ])
    def test_bad_layer_table_reported_at_its_line(self, tmp_path, body, line, message):
        edge, layer = tmp_path / "e.txt", tmp_path / "l.txt"
        edge.write_text("1 1 2\n")
        layer.write_text(body)
        with pytest.raises(ParseError) as exc:
            load_multiplex(str(edge), str(layer))
        where = f"{layer}:" if line is None else f"{layer}:{line}:"
        assert str(exc.value) == f"{where} {message}"

    def test_round_trip_same_edges(self, tmp_path):
        net0, _ = build_karate_replica(2, [0.5, 1.0])
        edge = tmp_path / "e.txt"
        layer = tmp_path / "l.txt"
        coup = tmp_path / "c.txt"
        write_multiplex(net0, str(edge), str(layer), str(coup))
        net1 = load_multiplex(str(edge), str(layer), n_nodes=34)
        net1 = net1.with_couplings(load_couplings(str(coup), net1, 34)[0])
        assert net1.within_edges == net0.within_edges
        assert net1.couplings == net0.couplings
        assert net1.aspect_sizes == net0.aspect_sizes

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(min_size=0, max_size=400))
    def test_fuzz_never_crashes(self, blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "f.txt"
        path.write_bytes(blob)
        try:
            load_multiplex(str(path))
        except (MlmodError, UnicodeDecodeError):
            pass


class TestManifest:
    def test_bundled_karate_manifest(self):
        net, truth = load_dataset(karate_manifest_path())
        assert net.n_nodes == 34
        assert sum(len(e) for e in net.within_edges) == 78
        assert truth.shape == (34,)

    def test_count_mismatch_rejected(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n")
        man = tmp_path / "m.txt"
        man.write_text(
            "name = tiny\nnodes = 2\nlayers = 3\nedge_file = e.txt\n"
        )
        from mlmod import load_dataset

        with pytest.raises(ParseError):
            load_dataset(str(man))

    @pytest.mark.parametrize("line, what", [
        ("layers = 3", "3 layers, files contain 2"),
        ("layers = 2\naspects = 2", "2 aspects, files contain 1"),
        ("layers = 2\nedges = 4", "4 edges, files contain 3"),
    ])
    def test_count_mismatch_names_the_count(self, line, what, tmp_path):
        from mlmod import load_dataset

        (tmp_path / "e.txt").write_text("1 1 2\n1 2 3\n2 1 3\n")
        man = tmp_path / "m.txt"
        man.write_text(f"nodes = 3\n{line}\nedge_file = e.txt\n")
        with pytest.raises(ParseError, match=f"m.txt: manifest declares {what}$"):
            load_dataset(str(man))
        man.write_text("nodes = 3\nlayers = 2\naspects = 1\nedges = 3\nedge_file = e.txt\n")
        assert load_dataset(str(man))[0].n_cells == 2

    def test_missing_key(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text("name = x\n")
        with pytest.raises(ParseError, match="m.txt: manifest is missing required key 'nodes'$"):
            load_dataset(str(man))

    def test_bad_value(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text("nodes = two\nlayers = 1\nedge_file = e.txt\n")
        with pytest.raises(ParseError) as info:
            load_dataset(str(man))
        assert str(info.value) == f"{man}:1: expected integer nodes, got 'two'"
        man.write_text("nodes = 2\nlayers = 1\nedge_file = e.txt\n# count\nedges = 1.5\n")
        with pytest.raises(ParseError) as info:
            load_dataset(str(man))
        assert str(info.value) == f"{man}:5: expected integer edges, got '1.5'"

    def test_unknown_key_fails_at_its_line(self, tmp_path):
        (tmp_path / "e.txt").write_text("1 1 2\n1 2 3\n2 1 3\n")
        (tmp_path / "c.txt").write_text("1 1 1 2 1\n")
        man = tmp_path / "m.txt"
        man.write_text("nodes = 3\nlayers = 2\nedge_file = e.txt\ncoupling-file = c.txt\n")
        with pytest.raises(ParseError) as info:
            load_dataset(str(man))
        assert str(info.value) == f"{man}:4: unknown manifest key 'coupling-file'"
        man.write_text("nodes = 3\nlayers = 2\nedge_file = e.txt\ncoupling_file = c.txt\n")
        assert len(load_dataset(str(man))[0].couplings) == 1

    def test_last_line_for_a_key_wins(self, tmp_path):
        (tmp_path / "e.txt").write_text("1 1 2\n1 2 3\n")
        man = tmp_path / "m.txt"
        man.write_text("nodes = 5\nlayers = 1\nedge_file = e.txt\nnodes = 3\n")
        assert load_dataset(str(man))[0].n_nodes == 3


class TestParamsFile:
    def test_keys_parsed(self, tmp_path):
        p = tmp_path / "params.txt"
        p.write_text(
            "gamma = 0.5 1.0\nlambda = 1.0\nomega = 2.0\n"
            "coupling.strategy = temporal\nsigned = false\n"
        )
        out = load_params_file(str(p), 2)
        assert out["gamma"] == [0.5, 1.0]
        assert out["lambda"] == 1.0
        assert out["omega"] == 2.0
        assert out["coupling.strategy"] == "temporal"
        assert out["signed"] is False

    @pytest.mark.parametrize("text", ["0 1\n1 0\n", "# cells 1 and 2\n0 1\n\n  1 0\n"])
    def test_closeness_matrix_loaded(self, tmp_path, text):
        m = tmp_path / "closeness.txt"
        m.write_text(text)
        p = tmp_path / "params.txt"
        p.write_text("closeness.file = closeness.txt\n")
        out = load_params_file(str(p), 2)
        assert np.array_equal(out["closeness.file"], np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("entry", ["inf", "nan", "-inf"])
    def test_non_finite_closeness_reports_position(self, tmp_path, entry):
        m = tmp_path / "closeness.txt"
        m.write_text(f"0 {entry}\n{entry} 0\n")
        with pytest.raises(ParseError) as info:
            load_closeness(str(m))
        assert str(info.value) == f"{m}:1: non-finite closeness entry"
        p = tmp_path / "params.txt"
        p.write_text("omega = 1\ncloseness.file = closeness.txt\n")
        with pytest.raises(ParseError) as info:
            load_params_file(str(p), 1)
        assert (info.value.path, info.value.line) == (str(m), 1)

    @pytest.mark.parametrize("text, line, message", [
        ("1 x\n", 1, "expected number closeness entry, got 'x'"),
        ("0 1 # note\n1 0\n", 1, "expected number closeness entry, got '#'"),
        ("# two cells\n0 1\n1\n", 3, "expected 2 entries, got 1"),
    ], ids=["token", "mark_after_a_token", "row_length"])
    def test_closeness_fault_reported_at_its_line(self, tmp_path, text, line, message):
        m = tmp_path / "c.txt"
        m.write_text(text)
        with pytest.raises(ParseError) as info:
            load_closeness(str(m))
        assert str(info.value) == f"{m}:{line}: {message}"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "params.txt"
        p.write_text("resolution = 1\n")
        with pytest.raises(ParseError):
            load_params_file(str(p), 1)

    @pytest.mark.parametrize("key", ["gamma", "lambda", "gamma.plus", "gamma.minus"])
    @pytest.mark.parametrize("value, count", [("", 0), ("1.0 2.0", 2)])
    def test_per_layer_count_checked_at_its_line(self, tmp_path, key, value, count):
        p = tmp_path / "params.txt"
        p.write_text(f"omega = 1\n{key} = {value}\n")
        with pytest.raises(ParseError) as info:
            load_params_file(str(p), 3)
        assert str(info.value) == f"{p}:2: expected 1 or 3 {key} values, got {count}"

    @pytest.mark.parametrize("body, message", [
        ("omega = 1\ngamma 0.5\n", "expected key = value"),
        ("omega = 1\nsigned = yes\n", "signed must be true or false"),
    ])
    def test_bad_line_reported_at_its_line(self, tmp_path, body, message):
        p = tmp_path / "params.txt"
        p.write_text(body)
        with pytest.raises(ParseError) as info:
            load_params_file(str(p), 1)
        assert str(info.value) == f"{p}:2: {message}"

    def test_per_layer_count_on_one_cell(self, tmp_path):
        p = tmp_path / "params.txt"
        p.write_text("gamma = 1.0 2.0\n")
        with pytest.raises(ParseError) as info:
            load_params_file(str(p), 1)
        assert str(info.value) == f"{p}:1: expected 1 gamma values, got 2"
        p.write_text("gamma = 2.0\n")
        assert load_params_file(str(p), 1)["gamma"] == 2.0


class TestResultDocuments:
    def _detect(self):
        net, params = build_karate_replica(2, [1.0, 1.0])
        spec = CouplingSpec(omega=0.5)
        return net, mspec_detect(net, spec, params)

    def test_round_trip_identity(self, tmp_path):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        loaded, shape = load_result(str(path))
        assert shape == {"n_nodes": 34, "aspects": (2,)}
        assert np.array_equal(loaded.partition.labels, res.partition.labels)
        assert loaded.q_total == res.q_total
        assert loaded.divisions == res.divisions
        assert np.array_equal(loaded.soft_labels, res.soft_labels)
        assert loaded.meta == res.meta

    def test_round_trip_bitwise_after_resave(self, tmp_path):
        net, res = self._detect()
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_result(res, str(p1), net)
        loaded, _ = load_result(str(p1))
        save_result(loaded, str(p2), net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_directory_no_partial_file(self, tmp_path):
        net, res = self._detect()
        target = tmp_path / "absent" / "r.txt"
        with pytest.raises(DomainError):
            save_result(res, str(target), net)
        assert not target.exists()
        assert not (tmp_path / "absent").exists()

    def test_340_cell_replica_round_trip(self, tmp_path):
        net, params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
        res = mspec_detect(net, CouplingSpec(omega=1.0), params)
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        loaded, _ = load_result(str(path))
        assert np.array_equal(loaded.partition.labels, res.partition.labels)
        assert np.array_equal(loaded.soft_labels, res.soft_labels)

    @pytest.mark.parametrize("key, value", [
        ("note", "two\nlines"), ("note", "carriage\rreturn"), ("two words", "x"),
        ("note", "trailing "), ("n_nodes", "3"), ("aspects", "1,1"), ("q_total", "0.5"),
    ])
    def test_unreadable_meta_rejected_on_write(self, tmp_path, key, value):
        net, res = self._detect()
        res = dataclasses.replace(res, meta={**res.meta, key: value})
        path = tmp_path / "r.txt"
        with pytest.raises(DomainError):
            save_result(res, str(path), net)
        assert not path.exists()

    @pytest.mark.parametrize("damage", [
        lambda res: dataclasses.replace(res, q_total=float("nan")),
        lambda res: dataclasses.replace(res, divisions=(
            dataclasses.replace(res.divisions[0], delta_q=float("inf")),)),
        lambda res: dataclasses.replace(res, divisions=(
            dataclasses.replace(res.divisions[0], beta=float("-inf")),)),
        lambda res: dataclasses.replace(res, soft_labels=np.where(
            np.arange(res.soft_labels.size) == 5, np.nan, res.soft_labels)),
        lambda res: dataclasses.replace(res, partition=Partition(res.partition.labels - 1)),
    ], ids=["q_total", "delta_q", "beta", "soft_label", "negative_label"])
    def test_unreadable_values_rejected_on_write(self, tmp_path, damage):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        with pytest.raises(DomainError, match="would not read back"):
            save_result(damage(res), str(path), net)
        assert not path.exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda res: dataclasses.replace(res, partition=Partition(res.partition.labels[:-1])),
         "result partition does not match the network"),
        (lambda res: dataclasses.replace(res, soft_labels=res.soft_labels[:-1]),
         "result soft labels do not match the network"),
    ], ids=["partition", "soft_labels"])
    def test_size_mismatch_rejected_on_write(self, tmp_path, damage, message):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        with pytest.raises(DomainError) as exc:
            save_result(damage(res), str(path), net)
        assert str(exc.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: (1, "#mlmod-result v2"), "not a result document (bad header)"),
        (lambda lines: (next(k for k, x in enumerate(lines, 1) if x.startswith("#division")),
                        "#division 0 0.5 1.0 maybe"), "bad #division line"),
        (lambda lines: (len(lines), " ".join(lines[-1].split()[:4])),
         "expected: nodeId layerId aspectId communityId softLabel"),
        (lambda lines: (next(k for k, x in enumerate(lines, 1) if x.startswith("#meta q_total")),
                        "#meta q_total inf"), "non-finite q_total"),
    ], ids=["header", "division", "cell_row_width", "q_total"])
    def test_bad_line_reports_position(self, tmp_path, edit, message):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        lines = path.read_text().splitlines()
        row, text = edit(lines)
        lines[row - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_result(str(path))
        assert str(exc.value) == f"{path}:{row}: {message}"

    def test_missing_metadata_rejected(self, tmp_path):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(x for x in lines if not x.startswith("#meta q_total")) + "\n")
        with pytest.raises(ParseError) as exc:
            load_result(str(path))
        assert str(exc.value) == f"{path}: result document is missing required metadata"

    def test_truncated_document_rejected(self, tmp_path):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-3]) + "\n")
        with pytest.raises(ParseError):
            load_result(str(path))

    def test_malformed_soft_label_reports_position(self, tmp_path):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        lines = path.read_text().splitlines()
        row = lines.index(next(line for line in lines if not line.startswith("#"))) + 1
        fields = lines[row - 1].split()
        lines[row - 1] = " ".join(fields[:4] + ["abc"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{path}:{row}: .*soft label"):
            load_result(str(path))

    @pytest.mark.parametrize("node, layer, message", [
        ("1", "1", "duplicate cell (1, 1, 1)"),
        ("35", "1", "cell (35, 1, 1) out of range"),
        ("1", "3", "cell (1, 3, 1) out of range"),
    ])
    def test_bad_cell_row_reports_position(self, tmp_path, node, layer, message):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        lines = path.read_text().splitlines()
        row = len(lines)  # the last cell row, node 34 of layer 2, becomes the bad one
        fields = lines[row - 1].split()
        lines[row - 1] = " ".join([node, layer] + fields[2:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_result(str(path))
        assert str(exc.value) == f"{path}:{row}: {message}"

    @pytest.mark.parametrize("column, value, message", [
        (3, "0", "community id must be >= 1, got 0"),
        (3, "-2", "community id must be >= 1, got -2"),
        (4, "-", "soft labels must be numbers on every cell row or '-' on every one"),
    ])
    def test_bad_row_value_reports_position(self, tmp_path, column, value, message):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        lines = path.read_text().splitlines()
        row = len(lines) - 5  # a cell row of layer 2
        fields = lines[row - 1].split()
        fields[column] = value
        lines[row - 1] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_result(str(path))
        assert str(exc.value) == f"{path}:{row}: {message}"

    def test_directives_after_the_cell_rows(self, tmp_path):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        lines = path.read_text().splitlines()
        moved = [line for line in lines[1:] if line.startswith(("#meta q_total", "#division"))]
        lines = [line for line in lines if line not in moved] + ["  \t" + moved[0]]
        lines[len(lines) // 2:len(lines) // 2] = moved[1:]
        path.write_text("\n".join(lines) + "\n")
        loaded, shape = load_result(str(path))
        assert shape == {"n_nodes": 34, "aspects": (2,)}
        assert np.array_equal(loaded.partition.labels, res.partition.labels)
        assert (loaded.q_total, loaded.divisions, loaded.meta) == (
            res.q_total, res.divisions, res.meta)
        lines[-1] = "#meta q_total x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_result(str(path))
        assert str(exc.value) == f"{path}:{len(lines)}: expected number q_total, got 'x'"

    @pytest.mark.parametrize("line, message", [
        ("#meta n_nodes 0", "n_nodes must be >= 1, got 0"),
        ("#meta aspects 2,0", "aspect size must be >= 1, got 0"),
    ])
    def test_empty_shape_reports_position(self, tmp_path, line, message):
        net, res = self._detect()
        path = tmp_path / "r.txt"
        save_result(res, str(path), net)
        lines = path.read_text().splitlines()
        row = next(k for k, text in enumerate(lines, start=1)
                   if text.startswith(line.rsplit(" ", 1)[0] + " "))
        lines[row - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_result(str(path))
        assert str(exc.value) == f"{path}:{row}: {message}"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_results_round_trip(self, data, tmp_path_factory):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        net = MultilayerNetwork(
            n_nodes=data.draw(st.integers(1, 5)),
            aspects=tuple(Aspect(f"a{v}", tuple(f"l{s}" for s in range(n)))
                          for v, n in enumerate(sizes)),
            within_edges=tuple(() for _ in range(sum(sizes))))
        cells = st.lists(st.integers(0, 6), min_size=net.supra_size, max_size=net.supra_size)
        number = st.floats(allow_nan=False, allow_infinity=False)
        soft = data.draw(st.none() | st.lists(number, min_size=net.supra_size,
                                              max_size=net.supra_size))
        res = DetectionResult(
            partition=Partition(np.array(data.draw(cells))),
            q_total=data.draw(number),
            divisions=tuple(data.draw(st.lists(st.builds(
                Division, community=st.integers(0, 6), delta_q=number, beta=number,
                applied=st.booleans()), max_size=3))),
            soft_labels=None if soft is None else np.array(soft),
            meta=data.draw(st.dictionaries(
                st.text("abc_", min_size=1, max_size=4),
                st.text(" x-#1.\t", max_size=5).filter(lambda v: v == v.rstrip()),
                max_size=3)),
        )
        first, second = (str(tmp_path_factory.mktemp("doc") / "r.txt") for _ in range(2))
        save_result(res, first, net)
        back, shape = load_result(first)
        save_result(back, second, net)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
        assert shape == {"n_nodes": net.n_nodes, "aspects": tuple(sizes)}
        assert np.array_equal(back.partition.labels, res.partition.labels)
        assert (back.q_total, back.divisions, back.meta) == (res.q_total, res.divisions, res.meta)
        assert (back.soft_labels is None if soft is None
                else np.array_equal(back.soft_labels, res.soft_labels))


class TestGroundTruth:
    def test_labels_loaded(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1 1\n2 2\n3 1\n")
        labels = load_labels(str(p), 3)
        assert labels.tolist() == [1, 2, 1]

    def test_incomplete_rejected(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1 1\n")
        with pytest.raises(ParseError):
            load_labels(str(p), 3)

    def test_incomplete_names_the_first_unlabelled_node(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1 1\n3 1\n")
        with pytest.raises(ParseError) as exc:
            load_labels(str(p), 4)
        assert str(exc.value) == f"{p}: ground truth does not label every node (node 2 has no line)"

    @pytest.mark.parametrize("body, line, message", [
        ("1 1\n2 -1\n3 1\n", 2, "label must be >= 0, got -1"),
        ("1 1\n2 2\n# c\n1 2\n3 1\n", 4, "duplicate node id 1"),
        ("1 1\n2 x\n3 1\n", 2, "expected integer label, got 'x'"),
        ("1 1\nx 1\n3 1\n", 2, "expected integer node id, got 'x'"),
        ("1 1\n2\n3 1\n", 2, "expected: nodeId label"),
    ])
    def test_bad_line_reported_at_its_line(self, tmp_path, body, line, message):
        p = tmp_path / "gt.txt"
        p.write_text(body)
        with pytest.raises(ParseError) as exc:
            load_labels(str(p), 3)
        assert str(exc.value) == f"{p}:{line}: {message}"


class TestAspectGridFile:
    def test_dims_directive_and_flatten(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(
            "#dims 2 2\n"
            "1,1 1 2 1.0\n"
            "1,2 1 2 1.0\n"
            "2,1 1 2 1.0\n"
            "2,2 2 3 0.5\n"
        )
        net = load_multiplex(str(p))
        assert net.aspects[0].layers == ("L1-1", "L1-2", "L2-1", "L2-2")
        assert net.n_nodes == 3

    def test_out_of_grid_coordinate(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 1 2\n3,1 1 2 1.0\n")
        with pytest.raises(DomainError):
            load_multiplex(str(p))

    def test_gap_rejected_when_inferring(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 1 1\n1,1 1 5 1.0\n")
        with pytest.raises(ParseError, match="gaps"):
            load_multiplex(str(p))
        assert load_multiplex(str(p), n_nodes=5).n_nodes == 5

    def test_grid_row_without_dims_is_a_malformed_edge_row(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("# a grid\n1,1 1 2 1.0\n")
        with pytest.raises(ParseError) as exc:
            load_multiplex(str(p))
        assert str(exc.value) == f"{p}:2: expected integer layer id, got '1,1'"

    @pytest.mark.parametrize("directive", ["#dims 2 2", "  #dims 2 2", "\t#dims\t2  2 "])
    def test_a_line_starting_with_dims_makes_a_grid(self, tmp_path, directive):
        p = tmp_path / "grid.txt"
        p.write_text(f"# a grid\n1,1 1 2\n{directive}\n2,2 2 3\n")
        net = load_multiplex(str(p))
        assert net.dims == (2, 2)
        assert [len(e) for e in net.within_edges] == [1, 0, 0, 1]

    def test_a_dims_later_in_a_line_is_no_directive(self, tmp_path):
        # the directive's first token is #dims itself: #dims2 and #dims_note are comments
        p = tmp_path / "e.txt"
        for comment in ("# about #dims 2 2", "#dims2 3", "#dims_note: see README"):
            p.write_text(f"{comment}\n1 1 2\n")
            net = load_multiplex(str(p))
            assert (net.dims, net.n_cells) == (None, 1), comment

    def test_a_manifest_names_a_grid_and_its_couplings(self, tmp_path):
        (tmp_path / "g.txt").write_text("#dims 2 2\n1,1 1 2\n2,2 2 3 0.5\n")
        (tmp_path / "gc.txt").write_text("1 1,1 2,1\n")
        manifest = tmp_path / "m.txt"
        manifest.write_text("nodes = 3\nlayers = 4\nedges = 2\nedge_file = g.txt\n"
                            "coupling_file = gc.txt\n")
        net, truth = load_dataset(str(manifest))
        assert (net.dims, net.n_nodes, truth) == ((2, 2), 3, None)
        assert set(net.couplings) == {(0, 0, 2)}

    def test_grid_takes_no_layer_file(self, tmp_path):
        p, layers = tmp_path / "grid.txt", tmp_path / "l.txt"
        p.write_text("# a grid\n#dims 2\n1 1 2\n")
        layers.write_text("1 1 a\n2 1 b\n")
        with pytest.raises(ParseError) as exc:
            load_multiplex(str(p), str(layers))
        assert str(exc.value) == f"{p}:2: a grid file takes no layer file, got {layers}"

    @pytest.mark.parametrize("line, message", [
        ("1 1,1 3,1", "coordinate (3, 1) outside the declared 2x2 grid"),
        ("1 1,1 1,2,1", "coordinate (1, 2, 1) outside the declared 2x2 grid"),
        ("1 1,1 1,1", "coupling links a layer with itself"),
        ("3 1,1 1,2", "node id 3 out of range 1..2"),
        ("0 1,1 1,2", "node id 0 out of range 1..2"),
    ])
    def test_bad_coupling_reported_at_its_line(self, tmp_path, line, message):
        grid, coup = tmp_path / "grid.txt", tmp_path / "c.txt"
        grid.write_text("#dims 2 2\n1,1 1 2 1.0\n")
        coup.write_text("# nodeId cA cB\n" + line + "\n")
        net = load_multiplex(str(grid))
        with pytest.raises(DomainError) as exc:
            load_couplings(str(coup), net, net.n_nodes)
        assert str(exc.value) == f"{coup}:2: {message}"

    def test_dims_directive_without_dimensions(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("# grid\n#dims\n1,1 1 2\n")
        with pytest.raises(ParseError) as exc:
            load_multiplex(str(p))
        assert str(exc.value) == f"{p}:2: #dims directive needs dimensions"

    @pytest.mark.parametrize("line, message", [
        ("1 1,1", "expected: nodeId cA1,...,cAF cB1,...,cBF"),
        ("1 1,x 1,2", "expected integer grid coordinate, got 'x'"),
    ])
    def test_bad_coupling_line_shape_reported_at_its_line(self, tmp_path, line, message):
        grid, coup = tmp_path / "grid.txt", tmp_path / "c.txt"
        grid.write_text("#dims 2 2\n1,1 1 2 1.0\n")
        coup.write_text("# nodeId cA cB\n" + line + "\n")
        net = load_multiplex(str(grid))
        with pytest.raises(ParseError) as exc:
            load_couplings(str(coup), net, net.n_nodes)
        assert str(exc.value) == f"{coup}:2: {message}"

    def test_non_positive_dims(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("# grid\n#dims 0 2\n")
        with pytest.raises(ParseError) as exc:
            load_multiplex(str(p))
        assert str(exc.value) == f"{p}:2: grid dims must be positive"
