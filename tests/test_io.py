from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import (
    CouplingSpec,
    DomainError,
    MlmodError,
    ParseError,
    build_karate_replica,
    load_aspect_grid,
    load_karate,
    load_multiplex,
    load_result,
    mspec_detect,
    save_multiplex,
    save_result,
)
from mlmod.io import load_labels, load_manifest, load_params_file
from mlmod.datasets import karate_manifest_path

from oracles import dense_adjacency


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
        stats = net.layer_stats(0)
        assert stats.total_weight == 78
        assert stats.strengths[0] == 16
        assert stats.strengths[33] == 17
        assert (truth == 1).sum() == 16 and (truth == 2).sum() == 18

    def test_malformed_line_reports_position(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n1 zzz 3 1.0\n")
        with pytest.raises(ParseError) as err:
            load_multiplex(str(edge))
        assert err.value.line == 2

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
        net = load_multiplex(str(edge), str(layer), str(coup), n_nodes=3)
        assert net.aspect_sizes == (2, 1)
        assert (1, 0, 1) in net.couplings
        assert (0, 0, 2) in net.couplings

    def test_round_trip_same_edges(self, tmp_path):
        net0, _ = build_karate_replica(2, [0.5, 1.0])
        edge = tmp_path / "e.txt"
        layer = tmp_path / "l.txt"
        coup = tmp_path / "c.txt"
        save_multiplex(net0, str(edge), str(layer), str(coup))
        net1 = load_multiplex(str(edge), str(layer), str(coup), n_nodes=34)
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
        m = load_manifest(karate_manifest_path())
        assert m.n_nodes == 34
        assert m.n_edges == 78

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

    def test_missing_key(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text("name = x\n")
        with pytest.raises(ParseError):
            load_manifest(str(man))


class TestParamsFile:
    def test_keys_parsed(self, tmp_path):
        p = tmp_path / "params.txt"
        p.write_text(
            "gamma = 0.5 1.0\nlambda = 1.0\nomega = 2.0\n"
            "coupling.strategy = temporal\nsigned = false\n"
        )
        out = load_params_file(str(p))
        assert out["gamma"] == [0.5, 1.0]
        assert out["lambda"] == 1.0
        assert out["omega"] == 2.0
        assert out["coupling.strategy"] == "temporal"
        assert out["signed"] is False

    def test_closeness_matrix_loaded(self, tmp_path):
        m = tmp_path / "closeness.txt"
        m.write_text("0 1\n1 0\n")
        p = tmp_path / "params.txt"
        p.write_text("closeness.file = closeness.txt\n")
        out = load_params_file(str(p))
        assert np.array_equal(out["closeness"], np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "params.txt"
        p.write_text("resolution = 1\n")
        with pytest.raises(ParseError):
            load_params_file(str(p))


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
    ])
    def test_unreadable_meta_rejected_on_write(self, tmp_path, key, value):
        net, res = self._detect()
        res = dataclasses.replace(res, meta={**res.meta, key: value})
        path = tmp_path / "r.txt"
        with pytest.raises(DomainError):
            save_result(res, str(path), net)
        assert not path.exists()

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
        net, _ = load_aspect_grid(str(p))
        assert net.aspects[0].layers == ("L1-1", "L1-2", "L2-1", "L2-2")
        assert net.n_nodes == 3

    def test_out_of_grid_coordinate(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 1 2\n3,1 1 2 1.0\n")
        with pytest.raises(DomainError):
            load_aspect_grid(str(p))

    def test_gap_rejected_when_inferring(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 1 1\n1,1 1 5 1.0\n")
        with pytest.raises(ParseError, match="gaps"):
            load_aspect_grid(str(p))
        assert load_aspect_grid(str(p), n_nodes=5)[0].n_nodes == 5

    def test_missing_dims(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("1,1 1 2 1.0\n")
        with pytest.raises(ParseError):
            load_aspect_grid(str(p))

    @pytest.mark.parametrize("line, message", [
        ("1 1,1 3,1", "coordinate (3, 1) outside the declared 2x2 grid"),
        ("1 1,1 1,2,1", "coordinate (1, 2, 1) outside the declared 2x2 grid"),
        ("1 1,1 1,1", "coupling links a layer with itself"),
    ])
    def test_bad_coupling_reported_at_its_line(self, tmp_path, line, message):
        grid, coup = tmp_path / "grid.txt", tmp_path / "c.txt"
        grid.write_text("#dims 2 2\n1,1 1 2 1.0\n")
        coup.write_text("# nodeId cA cB\n" + line + "\n")
        with pytest.raises(DomainError) as exc:
            load_aspect_grid(str(grid), coupling_path=str(coup))
        assert str(exc.value) == f"{coup}:2: {message}"

    def test_non_positive_dims(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("# grid\n#dims 0 2\n")
        with pytest.raises(ParseError) as exc:
            load_aspect_grid(str(p))
        assert str(exc.value) == f"{p}:2: grid dims must be positive"
        p.write_text("1,1 1 2 1.0\n")
        with pytest.raises(DomainError, match="grid dims must be positive"):
            load_aspect_grid(str(p), dims=(2, 0))
