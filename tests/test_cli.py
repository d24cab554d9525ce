from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from mlmod import (
    CouplingSpec,
    DetectionResult,
    ModularityParams,
    Partition,
    build_karate_replica,
    generate_couplings,
    load_multiplex,
    load_result,
    modularity,
    mspec_detect,
    quality_matrix,
)
from mlmod import cli
from mlmod.cli import DEFAULT_OMEGAS, _seed_for, main
from mlmod.io import load_couplings

from oracles import oracle_matrix, q_pairwise


def run_cli(args):
    return main(list(args))


class TestDetect:
    def test_karate_detect(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli([
            "detect", "--dataset", "karate", "--algorithm", "mspec",
            "--gamma", "1.0", "--omega", "1.0", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Q=" in printed and "communities=" in printed
        result, _ = load_result(str(out / "result_mspec.txt"))
        assert result.n_communities >= 2
        assert result.divisions[0].applied
        # first division alone yields two communities
        first_applied = [d for d in result.divisions if d.applied]
        assert first_applied[0].community == 0

    def test_edgeless_network_coupling_only_q(self, tmp_path, capsys):
        edge = tmp_path / "e.txt"
        edge.write_text("# no edges\n")
        layers = tmp_path / "l.txt"
        layers.write_text("1 1 a\n2 1 b\n")
        couplings = tmp_path / "c.txt"
        couplings.write_text("".join(f"{node} 1 1 2 1\n" for node in range(1, 6)))
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):
            code = run_cli([
                "detect", "--input", str(edge), "--layers-file", str(layers),
                "--nodes", "5", "--omega", "1.0", "--couplings-file", str(couplings),
                "--out", str(out),
            ])
        assert code == 0
        result, _ = load_result(str(out / "result_mspec.txt"))
        assert result.n_communities == 1
        # Q is the coupling sum alone: 5 nodes x 2 ordered layer pairs
        assert result.q_total == pytest.approx(10.0, abs=1e-12)

    def test_bad_path_exit_2_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli([
            "detect", "--input", str(tmp_path / "missing.txt"),
            "--out", str(out),
        ])
        assert code == 2
        assert not (out / "result_mspec.txt").exists()

    def test_printed_q_matches_recomputation(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli([
            "detect", "--dataset", "karate-replica", "--layers", "3",
            "--gamma", "0.5", "1.0", "1.0", "--omega", "0.5",
            "--out", str(out),
        ])
        result, _ = load_result(str(out / "result_mspec.txt"))
        from mlmod import build_karate_replica

        net, params = build_karate_replica(3, [0.5, 1.0, 1.0])
        q = modularity(net, CouplingSpec(omega=0.5), params, result.partition)
        assert result.q_total == pytest.approx(q, abs=1e-9 * max(1.0, abs(q)))

class TestSweep:
    def test_one_omega_is_a_one_point_grid(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(["sweep", "--layers", "2", "--omega", "0.5", "--out", str(out)]) == 0
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary] == ["omega", "0.5"]
        assert (out / "sweep_labels.csv").read_text().split("\n")[0].endswith(",omega=0.5")
        assert os.listdir(out / "runs") == ["sweep_omega_0.txt"]
        result, _ = load_result(str(out / "runs" / "sweep_omega_0.txt"))
        net, gamma_params = build_karate_replica(2, [0.1, 0.2])
        assert result.q_total == modularity(net, CouplingSpec(omega=0.5), gamma_params,
                                            result.partition)

    def test_replica_sweep_labels_and_consistency(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli([
            "sweep", "--layers", "3", "--gamma", "0.5", "0.75", "1.0",
            "--omega", "0", "1", "10", "--out", str(out),
        ])
        assert code == 0
        labels = (out / "sweep_labels.csv").read_text().splitlines()
        assert labels[0] == "nodeId,layerId,aspectId,omega=0,omega=1,omega=10"
        assert len(labels) == 1 + 3 * 34
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in summary[1:]]
        consistency = {row[0]: float(row[3]) for row in rows}
        assert consistency["1"] == 1.0
        assert consistency["10"] == 1.0
        assert consistency["10"] >= consistency["0"]

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["sweep", "--layers", "2", "--gamma", "0.5", "1.0",
                "--omega", "0.1", "1", "--seed", "7"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        for name in ("sweep_labels.csv", "sweep_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in sorted(os.listdir(out1 / "runs")):
            assert (out1 / "runs" / name).read_bytes() == (out2 / "runs" / name).read_bytes()


class TestCompare:
    def test_single_algorithm_single_rho(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli([
            "compare", "--layers", "2", "--gamma", "1.0", "1.0",
            "--algorithm", "mspec", "--rho", "0.5", "--seed", "11",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "algorithm,rho=0.5,variance,mean"
        cells = lines[1].split(",")
        assert cells[0] == "mspec"
        assert float(cells[2]) == 0.0  # variance of a single column
        assert float(cells[1]) == float(cells[3])

    def test_emitted_q_matches_offline_recomputation(self, tmp_path):
        out = tmp_path / "cmp"
        run_cli([
            "compare", "--layers", "2", "--gamma", "0.5", "1.0",
            "--algorithm", "mspec", "mlouv", "--rho", "0.0", "1.0",
            "--seed", "5", "--out", str(out),
        ])
        from mlmod import build_karate_replica

        net0, params = build_karate_replica(2, [0.5, 1.0])
        spec = CouplingSpec(omega=1.0)
        table = {}
        lines = (out / "compare.csv").read_text().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            table[cells[0]] = [float(c) for c in cells[1:-2]]
        for ri, rho in enumerate((0.0, 1.0)):
            coupled = net0.with_couplings(
                generate_couplings(net0, rho, _seed_for(5, ri, 0))
            )
            for alg in ("mspec", "mlouv"):
                run_file = out / "runs" / f"compare_rho{ri}_rep0_{alg}.txt"
                result, _ = load_result(str(run_file))
                q = modularity(coupled, spec, params, result.partition)
                assert result.q_total == pytest.approx(q, abs=1e-9 * max(1.0, abs(q)))
                assert table[alg][ri] == pytest.approx(q, abs=1e-9 * max(1.0, abs(q)))

    def test_coupling_blind_baselines_partitioned_once(self, tmp_path, monkeypatch):
        import mlmod.baselines
        import mlmod.cli

        # each blind document's Q is the only scoring of that partition
        scored = []

        def counted(score):
            def wrapper(*args):
                scored.append(args)
                return score(*args)
            return wrapper

        for module in (mlmod.baselines, mlmod.cli):
            monkeypatch.setattr(module, "modularity", counted(module.modularity))
        out = tmp_path / "cmp"
        rhos = (0.0, 0.5, 1.0)
        assert run_cli([
            "compare", "--layers", "2", "--gamma", "0.5", "1.0",
            "--algorithm", "smean", "sfull", "--rho", *map(str, rhos),
            "--seed", "9", "--out", str(out),
        ]) == 0
        assert len(scored) == 2 * len(rhos)
        from mlmod import build_karate_replica

        net0, params = build_karate_replica(2, [0.5, 1.0])
        spec = CouplingSpec(omega=1.0)
        for alg in ("smean", "sfull"):
            results = [load_result(str(out / "runs" / f"compare_rho{ri}_rep0_{alg}.txt"))[0]
                       for ri in range(len(rhos))]
            for ri, (rho, result) in enumerate(zip(rhos, results)):
                assert np.array_equal(result.partition.labels, results[0].partition.labels)
                assert result.divisions == results[0].divisions
                coupled = net0.with_couplings(
                    generate_couplings(net0, rho, _seed_for(9, ri, 0)))
                q = q_pairwise(oracle_matrix(coupled, spec, params), result.partition.labels)
                assert result.q_total == pytest.approx(q, rel=1e-9, abs=1e-9)
            if alg == "smean":  # node copies share communities: Q moves with rho
                assert len({result.q_total for result in results}) == len(rhos)


    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_exit_2(self, tmp_path, capsys, repeats):
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--repeats", repeats, "--out", str(out)]) == 2
        assert f"error: --repeats must be >= 1, got {repeats}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any work

    def test_rho_outside_unit_interval_exit_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(["compare", "--dataset", "karate-replica", "--layers", "3",
                        "--rho", "0.5", "1.5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --rho values must lie in [0, 1], got 1.5\n"
        assert not out.exists()  # not even the rho = 0.5 documents

    def test_byte_identical_reruns(self, tmp_path):
        args = ["compare", "--layers", "2", "--gamma", "1.0", "1.0",
                "--rho", "0.0", "0.5", "1.0", "--seed", "2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert len(files) == 2 + 4 * 3  # the table as CSV and text, 12 runs
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestGridInput:
    """A #dims grid given by --input, read by every command."""

    def grid_file(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(
            "#dims 2 2\n"
            "1,1 1 2 1.0\n1,1 2 3 1.0\n"
            "1,2 1 3 1.0\n"
            "2,1 2 3 2.0\n"
            "2,2 1 2 1.0\n2,2 1 3 1.0\n"
        )
        c = tmp_path / "gridc.txt"
        c.write_text("1 1,1 2,1\n2 1,2 2,2\n")
        return p, c

    @pytest.mark.parametrize("command", ["detect", "sweep", "compare"])
    def test_each_command_reads_a_grid(self, command, tmp_path):
        grid, coup = self.grid_file(tmp_path)
        # compare draws its couplings, so it takes no coupling file
        couplings = [] if command == "compare" else ["--couplings-file", str(coup)]
        out = tmp_path / "out"
        assert run_cli([command, "--input", str(grid), *couplings, "--nodes", "3",
                        "--out", str(out)]) == 0
        document = next(p for p in out.rglob("*.txt") if p.read_text().startswith("#mlmod"))
        _, shape = load_result(str(document))
        assert shape == {"n_nodes": 3, "aspects": (4,)}

    def test_grid_run_equals_the_run_on_its_flat_files(self, tmp_path):
        grid, coup = self.grid_file(tmp_path)
        edges = tmp_path / "flat.edges"
        edges.write_text("1 1 2 1.0\n1 2 3 1.0\n2 1 3 1.0\n3 2 3 2.0\n4 1 2 1.0\n4 1 3 1.0\n")
        layers = tmp_path / "flat.layers"
        layers.write_text("1 1 L1-1\n2 1 L1-2\n3 1 L2-1\n4 1 L2-2\n")
        flat_coup = tmp_path / "flat.couplings"
        flat_coup.write_text("1 1 1 3 1\n2 2 1 4 1\n")
        for name, argv in (("grid", ["--input", str(grid), "--couplings-file", str(coup)]),
                           ("flat", ["--input", str(edges), "--layers-file", str(layers),
                                     "--couplings-file", str(flat_coup)])):
            assert run_cli(["detect", *argv, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "grid" / "result_mspec.txt").read_bytes() == \
            (tmp_path / "flat" / "result_mspec.txt").read_bytes()

    def test_couplings_file_on_a_grid_reads_grid_lines(self, tmp_path):
        grid, coup = self.grid_file(tmp_path)
        assert run_cli(["detect", "--input", str(grid), "--couplings-file", str(coup),
                        "--out", str(tmp_path / "out")]) == 0
        net = load_multiplex(str(grid))
        coupled = net.with_couplings(load_couplings(str(coup), net, 3)[0])
        assert set(coupled.couplings) == {(0, 0, 2), (1, 1, 3)}
        result, _ = load_result(str(tmp_path / "out" / "result_mspec.txt"))
        spec, params = CouplingSpec(), ModularityParams.for_network(net)
        # a run that dropped the couplings would write the uncoupled chi
        assert float(result.meta["chi"]) == quality_matrix(coupled, spec, params)[1] \
            != quality_matrix(net, spec, params)[1]

    def test_grid_row_without_dims_line_is_a_malformed_edge_row(self, tmp_path, capsys):
        p = tmp_path / "grid.txt"
        p.write_text("# no dims\n1,1 1 2 1.0\n")
        out = tmp_path / "x"
        code = run_cli(["detect", "--input", str(p), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {p}:2: expected integer layer id, got '1,1'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "sweep", "compare"])
    def test_bad_grid_line_exit_2_at_its_line(self, command, tmp_path, capsys):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 2 2\n1,1 1 2 1.0\n3,1 1 2 1.0\n")
        out = tmp_path / "x"
        assert run_cli([command, "--input", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {p}:3: coordinate (3, 1) outside the declared 2x2 grid\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "sweep", "compare"])
    def test_layer_file_with_a_grid_exit_2(self, command, tmp_path, capsys):
        grid, _ = self.grid_file(tmp_path)
        layers = tmp_path / "l.txt"
        layers.write_text("1 1 a\n")
        out = tmp_path / "x"
        assert run_cli([command, "--input", str(grid), "--layers-file", str(layers),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {grid}:1: a grid file takes no layer file, got {layers}\n"
        assert not out.exists()

    def test_coupling_outside_grid_exit_2(self, tmp_path, capsys):
        grid, coup = self.grid_file(tmp_path)
        coup.write_text("1 1,1 2,1\n1 1,1 3,1\n")
        out = tmp_path / "x"
        code = run_cli(["detect", "--input", str(grid), "--couplings-file", str(coup),
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {coup}:2: coordinate (3, 1) outside the declared 2x2 grid" in err
        assert not out.exists()

    def test_node_id_gap_exit_2(self, tmp_path, capsys):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 1 1\n1,1 1 5 1.0\n")
        code = run_cli(["detect", "--input", str(p), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{p}: node ids have gaps" in capsys.readouterr().err

    @pytest.mark.parametrize("body, nodes", [
        ("1,1 1 2 1.0\n1,1 0 2 1.0\n", []),
        ("1,1 1 2 1.0\n1,1 2 4 1.0\n", ["--nodes", "3"]),
    ])
    def test_node_id_out_of_range_exit_2(self, tmp_path, capsys, body, nodes):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 1 1\n" + body)
        code = run_cli(["detect", "--input", str(p), *nodes, "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{p}:3: node id" in capsys.readouterr().err

    def test_temporal_on_a_two_aspect_grid_exit_2(self, tmp_path, capsys):
        grid, coup = self.grid_file(tmp_path)
        code = run_cli(["detect", "--input", str(grid), "--couplings-file", str(coup),
                        "--coupling-strategy", "temporal", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "temporal coupling on a 2x2 grid" in err
        assert "closeness" in err and "explicit" in err


class TestExitCodes:
    def test_non_convergence_exit_1(self, tmp_path, monkeypatch):
        from mlmod import ConvergenceError
        import mlmod.cli as cli_mod

        def explode(*args, **kwargs):
            raise ConvergenceError("stuck")

        monkeypatch.setattr(cli_mod, "mspec_detect", explode)
        code = run_cli(["detect", "--dataset", "karate",
                        "--out", str(tmp_path / "o")])
        assert code == 1

    def test_operator_path_non_convergence_exit_1(self, tmp_path, monkeypatch, capsys):
        # Supra 600 > 512: the root subdivision matrix goes to ARPACK.
        import scipy.sparse.linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((600, 0)))

        monkeypatch.setattr(sla, "eigsh", no_convergence)
        rng = np.random.default_rng(600)
        lines = [f"{layer} {i + 1} {j + 1} 1.0" for layer in (1, 2)
                 for i in range(300) for j in range(i + 1, 300) if rng.random() < 0.03]
        edge = tmp_path / "e.txt"
        edge.write_text("\n".join(lines) + "\n")
        layers = tmp_path / "l.txt"
        layers.write_text("1 1 a\n2 1 b\n")
        couplings = tmp_path / "c.txt"
        couplings.write_text("".join(f"{node} 1 1 2 1\n" for node in range(1, 301)
                                     if rng.random() < 0.5))
        out = tmp_path / "out"
        code = run_cli(["detect", "--input", str(edge), "--layers-file", str(layers),
                        "--nodes", "300", "--couplings-file", str(couplings),
                        "--out", str(out)])
        assert code == 1
        assert "ARPACK error -1: no convergence" in capsys.readouterr().err
        assert not (out / "result_mspec.txt").exists()

    def test_other_arpack_error_exit_1(self, tmp_path, monkeypatch, capsys):
        # Supra 16 * 34 = 544 > 512: the root subdivision goes to ARPACK
        import scipy.sparse.linalg as sla

        def zero_start(*args, **kwargs):
            raise sla.ArpackError(-9)

        monkeypatch.setattr(sla, "eigsh", zero_start)
        out = tmp_path / "out"
        code = run_cli(["detect", "--dataset", "karate-replica", "--layers", "16",
                        "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ARPACK error -9: ") and "Traceback" not in err
        assert not (out / "result_mspec.txt").exists()

    def test_normalized_reporting(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["detect", "--dataset", "karate", "--normalized",
                        "--omega", "1.0", "--out", str(out)])
        assert code == 0
        result, _ = load_result(str(out / "result_mspec.txt"))
        from mlmod import build_karate_replica
        from oracles import oracle_mu

        net, params_raw = build_karate_replica(1, [1.0])
        params = ModularityParams.for_network(net, normalization="normalized")
        q = modularity(net, CouplingSpec(omega=1.0), params, result.partition)
        assert result.q_total == pytest.approx(q, abs=1e-12)
        mu = oracle_mu(net, CouplingSpec(omega=1.0))
        assert mu == pytest.approx(2 * 78.0)
        assert 0 < result.q_total < 1  # conventional-scale value


class TestWorkersAndStrategies:
    def test_explicit_strategy_from_coupling_file(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n2 1 2 1.0\n")
        layers = tmp_path / "l.txt"
        layers.write_text("1 1 a\n2 1 b\n")
        coup = tmp_path / "c.txt"
        coup.write_text("1 1 1 2 1 0.75\n2 1 1 2 1 0.25\n")
        out = tmp_path / "out"
        code = run_cli([
            "detect", "--input", str(edge), "--layers-file", str(layers),
            "--couplings-file", str(coup), "--coupling-strategy", "explicit",
            "--out", str(out),
        ])
        assert code == 0
        result, _ = load_result(str(out / "result_mspec.txt"))
        # both node copies co-assigned: coupling contribution is
        # 2 * (0.75 + 0.25); within-layer gamma=1 single community adds 0
        assert result.q_total == pytest.approx(2.0, abs=1e-12)

    def test_temporal_strategy_cli(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "detect", "--dataset", "karate-replica", "--layers", "3",
            "--gamma", "1.0", "--coupling-strategy", "temporal",
            "--omega", "0.5", "--out", str(out),
        ])
        assert code == 0

    def test_couplings_file_carries_explicit_magnitudes(self, tmp_path):
        (tmp_path / "e.txt").write_text("1 1 2 1.0\n1 2 3 1.0\n2 1 3 1.0\n")
        (tmp_path / "l.txt").write_text("1 1 a\n2 1 b\n")
        (tmp_path / "c.txt").write_text("1 1 1 2 1 1.0\n2 1 1 2 1 2.0\n3 1 1 2 1 3.0\n")
        assert run_cli(["detect", "--coupling-strategy", "explicit", "--seed", "4",
                        "--input", str(tmp_path / "e.txt"),
                        "--layers-file", str(tmp_path / "l.txt"),
                        "--couplings-file", str(tmp_path / "c.txt"),
                        "--nodes", "3", "--out", str(tmp_path / "out")]) == 0
        doc = (tmp_path / "out" / "result_mspec.txt").read_bytes()
        # chi: the gamma = 1 layers add 0, the couplings 2 * (1 + 2 + 3)
        assert b"#meta chi 12.0\n" in doc

    def test_explicit_magnitudes_same_through_loader_and_cli(self, tmp_path):
        (tmp_path / "e.txt").write_text("1 1 2 1.0\n1 2 3 2.0\n2 1 3 1.0\n2 2 3 0.5\n")
        (tmp_path / "l.txt").write_text("1 1 a\n2 1 b\n")
        (tmp_path / "c.txt").write_text("1 1 1 2 1 0.75\n3 1 1 2 1 0.25\n")
        net = load_multiplex(str(tmp_path / "e.txt"), str(tmp_path / "l.txt"), n_nodes=3)
        net = net.with_couplings(load_couplings(str(tmp_path / "c.txt"), net, 3)[0])
        spec = CouplingSpec(strategy="explicit")
        q = mspec_detect(net, spec, ModularityParams.for_network(net)).q_total
        assert run_cli(["detect", "--input", str(tmp_path / "e.txt"),
                        "--layers-file", str(tmp_path / "l.txt"),
                        "--couplings-file", str(tmp_path / "c.txt"), "--nodes", "3",
                        "--coupling-strategy", "explicit", "--out", str(tmp_path / "out")]) == 0
        result, _ = load_result(str(tmp_path / "out" / "result_mspec.txt"))
        assert result.q_total == q
        # the loader kept the magnitudes: chi counts 2 * (0.75 + 0.25) for them
        bare = net.with_couplings(set(net.couplings))
        assert bare.couplings.magnitude is None
        chi = quality_matrix(bare, spec, ModularityParams.for_network(bare))[1]
        assert float(result.meta["chi"]) == chi + 2.0

    def test_non_finite_closeness_exit_2(self, tmp_path, capsys):
        close = tmp_path / "close.txt"
        close.write_text("0 inf 1\ninf 0 1\n1 1 0\n")
        params = tmp_path / "params.txt"
        params.write_text("closeness.file = close.txt\n")
        where = f"{close}:1: "  # the matrix file's own line, not the parameter file's
        code = run_cli(["detect", "--dataset", "karate-replica", "--layers", "3",
                        "--coupling-strategy", "closeness", "--params-file", str(params),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert where in err and "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "result_mspec.txt").exists()

    def test_sweep_on_loaded_network(self, tmp_path):
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1.0\n1 2 3 1.0\n2 1 2 1.0\n2 1 3 1.0\n")
        coup = tmp_path / "c.txt"
        coup.write_text("1 1 1 2 1\n2 1 1 2 1\n3 1 1 2 1\n")
        out = tmp_path / "sw"
        code = run_cli(["sweep", "--input", str(edge),
                        "--couplings-file", str(coup),
                        "--omega", "0", "1", "--out", str(out)])
        assert code == 0
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 3

    def test_params_file_drives_detection(self, tmp_path):
        params_file = tmp_path / "params.txt"
        params_file.write_text("gamma.plus = 1.0 0.5\ngamma.minus = 2.0\n")
        edge = tmp_path / "e.txt"
        edge.write_text("1 1 2 1\n1 3 4 1\n1 1 3 -1\n2 1 2 1\n2 3 4 2\n2 2 4 -1\n")
        out = tmp_path / "out"
        code = run_cli([
            "detect", "--input", str(edge), "--signed",
            "--params-file", str(params_file), "--out", str(out),
        ])
        assert code == 0
        result, _ = load_result(str(out / "result_mspec.txt"))
        net = load_multiplex(str(edge))
        params = ModularityParams.for_network(net, signed=True, gamma_plus=[1.0, 0.5],
                                              gamma_minus=2.0)
        assert result.q_total == modularity(net, CouplingSpec(), params, result.partition)

    @pytest.mark.parametrize("flag", ["--gamma", "--lambda"])
    @pytest.mark.parametrize("argv, values, cells", [
        (["--dataset", "karate"], ["1", "1"], 1),
        (["--dataset", "karate-replica", "--layers", "3"], ["1", "1"], 3),
    ], ids=["karate", "replica"])
    def test_per_layer_flag_that_does_not_fit_names_itself(
            self, tmp_path, capsys, flag, argv, values, cells):
        out = tmp_path / "out"
        assert run_cli(["detect", *argv, flag, *values, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag.lstrip('-')} takes one value or one per layer cell ({cells}), got 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        (["--omega", "-1"], "omega must be finite and >= 0, got -1.0"),
        (["--gamma", "nan"], "resolution gamma must be finite and > 0, got nan"),
        (["--gamma", "0"], "resolution gamma must be finite and > 0, got 0.0"),
        (["--lambda", "-2"], "layer weight lambda must be finite and >= 0, got -2.0"),
    ], ids=["omega", "gamma-nan", "gamma-zero", "lambda"])
    def test_flag_value_the_run_rejects_exit_2_before_any_output(
            self, tmp_path, capsys, flag, message):
        out = tmp_path / "out"
        code = run_cli(["detect", "--dataset", "karate-replica", "--layers", "3", *flag,
                        "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["gamma.plus", "gamma.minus"])
    @pytest.mark.parametrize("value, count", [("", 0), ("1.0 2.0", 2)])
    def test_params_file_value_that_does_not_fit_exit_2_at_its_line(
            self, tmp_path, capsys, key, value, count):
        params = tmp_path / "g.txt"
        params.write_text(f"# three layers\n{key} = {value}\n")
        out = tmp_path / "out"
        code = run_cli(["detect", "--dataset", "karate-replica", "--layers", "3", "--signed",
                        "--params-file", str(params), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {params}:2: expected 1 or 3 {key} values, got {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("gamma.plus = nan", "non-finite gamma.plus"),
        ("gamma.plus = -1", "gamma_plus entries must be finite and > 0, got -1.0"),
        ("gamma.minus = 1 0 1", "gamma_minus entries must be finite and > 0, got 0.0"),
        ("closeness.file = asym.txt", "closeness matrix must be symmetric"),
        ("closeness.file = small.txt",
         "closeness matrix shape (2, 2) does not match 3 layer cells"),
    ])
    def test_params_file_value_the_run_rejects_exit_2_at_its_line(
            self, tmp_path, capsys, line, message):
        (tmp_path / "asym.txt").write_text("0 1 1\n2 0 1\n1 1 0\n")
        (tmp_path / "small.txt").write_text("0 1\n1 0\n")
        params = tmp_path / "p.txt"
        # a signed run under the closeness strategy reads, and rejects, every value below
        params.write_text(f"# three cells\n{line}\n")
        out = tmp_path / "out"
        code = run_cli(["detect", "--dataset", "karate-replica", "--layers", "3", "--signed",
                        "--coupling-strategy", "closeness", "--params-file", str(params),
                        "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {params}:2: {message}\n"
        assert not out.exists()

    def test_piped_edge_file_reports_a_bad_row_at_its_line(self, tmp_path, capsys):
        # a pipe can be read once: the line of a bad row comes from the text read
        read, write = os.pipe()
        try:
            with os.fdopen(write, "wb") as fh:
                fh.write(b"1 1 2\n1 2 2\n1 2 3\n")
            code = run_cli(["detect", "--input", f"/dev/fd/{read}",
                            "--out", str(tmp_path / "out")])
        finally:
            os.close(read)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: /dev/fd/{read}:2: self-loop on node 2 rejected\n"


@pytest.mark.parametrize("argv", [
    ["compare", "--seed", "-5"],
    ["sweep", "--seed", "-1"],
    ["detect", "--dataset", "karate", "--algorithm", "mlouv", "--seed", "-1"],
], ids=["compare", "sweep", "detect-mlouv"])
def test_negative_seed_exit_2_before_any_output(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --seed must be a non-negative integer, got {argv[-1]}\n"
    assert not out.exists()


def test_repeated_algorithm_exit_2_before_any_output(tmp_path, capsys):
    # each run of a repeated name would add into the one table row of that name
    out = tmp_path / "out"
    assert run_cli(["compare", "--dataset", "karate-replica", "--layers", "2", "--rho", "0.5",
                    "--algorithm", "smean", "smean", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --algorithm names smean more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["detect", "--dataset", "karate", "--input", "x.txt"],
    ["sweep", "--input", "x.txt", "--dataset", "karate-replica"],
], ids=["dataset-input", "sweep-input-dataset"])
def test_two_input_routes_exit_2_before_any_output(argv, tmp_path, capsys):
    # one route would win and the other go unread
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


INPUT_ONLY = "--layers-file and --nodes describe an --input file"
REPLICA_ONLY = "--layers sets the size of --dataset karate-replica"


@pytest.mark.parametrize("argv, message", [
    (["detect", "--dataset", "karate", "--layers-file", "bogus.txt"], INPUT_ONLY),
    (["detect", "--dataset", "karate", "--nodes", "99"], INPUT_ONLY),
    (["compare", "--layers-file", "bogus.txt"], INPUT_ONLY),
    (["detect", "--dataset", "karate", "--layers", "3"], REPLICA_ONLY),
    (["sweep", "--dataset", "karate", "--layers", "3"], REPLICA_ONLY),
    (["compare", "--input", "x.txt", "--layers", "3"], REPLICA_ONLY),
], ids=["layers-file", "nodes", "layers-file-default-replica", "layers-karate",
        "layers-karate-sweep", "layers-input"])
def test_flag_the_route_would_not_read_exit_2_before_any_output(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=f"{name}-{command}")
    for name, option in (("closeness-file", ["--closeness-file", "m.txt"]),
                         ("min-community-size", ["--min-community-size", "2"]),
                         ("manifest", ["--manifest", "m.txt"]))
    for command in ("detect", "sweep", "compare")
] + [pytest.param("detect", ["--rho", "0.5"], id="rho-detect")])
def test_removed_options_are_unrecognized(command, option, tmp_path, capsys):
    # a closeness matrix comes from a parameter file's closeness.file, a
    # network's files from --input, --layers-file, --couplings-file and
    # --nodes, and compare is the one command that draws couplings
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--dataset", "karate", *option, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli([command, "--help"])
    assert option[0] not in capsys.readouterr().out


@pytest.mark.parametrize("edges, couplings, line", [
    ("1 1 2\n1 2 9\n1 3 4\n", None, "e.txt:2: node id 9 exceeds declared count 4"),
    ("1 1 2\n1 2 3\n2 3 4\n", "1 1 1 2 1\n99 1 1 2 1\n1 1 1 2 1 x\n",
     "cc.txt:2: node id 99 out of range 1..4"),
], ids=["edge-over-declared-count", "coupling-before-malformed-line"])
def test_row_rule_exit_2_at_its_line(edges, couplings, line, tmp_path, capsys):
    (tmp_path / "e.txt").write_text(edges)
    argv = ["detect", "--input", str(tmp_path / "e.txt"), "--nodes", "4"]
    if couplings is not None:
        (tmp_path / "cc.txt").write_text(couplings)
        argv += ["--couplings-file", str(tmp_path / "cc.txt")]
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / line}\n"
    assert not out.exists()


@pytest.mark.parametrize("given", ["couplings-file", "explicit-flag"])
def test_drawn_couplings_refuse_what_they_would_discard(given, tmp_path, capsys):
    # a coupling file was read and replaced; drawn couplings carry no
    # magnitudes, so explicit coupled every pair with 0
    (tmp_path / "c.txt").write_text("1 1 1 2 1 0.5\n")
    extra = {"couplings-file": ["--couplings-file", str(tmp_path / "c.txt")],
             "explicit-flag": ["--coupling-strategy", "explicit"]}[given]
    out = tmp_path / "out"
    assert run_cli(["compare", "--rho", "0.5", "--dataset", "karate-replica", "--layers", "2",
                    *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: compare draws its couplings: --couplings-file would be discarded\n"
        if given == "couplings-file" else
        "error: compare draws its couplings, which carry no magnitudes: "
        "the explicit strategy would set every coupling to 0\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, column", [
    (["sweep", "--omega", "1", "1.0"], "omega=1"),
    (["sweep", "--omega", "0.1", "0.1000001"], "omega=0.1"),
    (["sweep", "--omega", "0", "-0"], "omega=0"),
    (["compare", "--rho", "0.5", "0", "0.5"], "rho=0.5"),
], ids=["sweep", "sweep-same-rendering", "sweep-signed-zero", "compare"])
def test_repeated_grid_column_exit_2_before_any_output(argv, column, tmp_path, capsys):
    # the two runs would repeat one detection, or blur into one density
    out = tmp_path / "out"
    assert run_cli([*argv, "--layers", "2", "--out", str(out)]) == 2
    flag = argv[1]
    assert capsys.readouterr().err == f"error: {flag} values name the column {column} more than once\n"
    assert not out.exists()


# Each setting: its one route (a flag's arguments, or a parameter-file line
# and the flags of a run that reads it, for the three settings no flag
# holds), how to read the setting off the runs
# (each run's spec and params), and the values the default and the route give
# (a sweep's default omegas are its grid).  The network is the two-layer
# karate replica, so the default gamma is its ladder.
SETTINGS = {
    "gamma": (["--gamma", "2"], lambda runs: runs[0][1].gamma, (0.1, 0.2), (2.0, 2.0)),
    "lambda": (["--lambda", "2"], lambda runs: runs[0][1].lam, (1.0, 1.0), (2.0, 2.0)),
    "omega": (["--omega", "2"], lambda runs: [spec.omega for spec, _ in runs], [1.0], [2.0]),
    "coupling strategy": (["--coupling-strategy", "explicit"],
                          lambda runs: runs[0][0].strategy, "uniform", "explicit"),
    "signed": (["--signed"], lambda runs: runs[0][1].signed, False, True),
    "normalization": (["--normalized"], lambda runs: runs[0][1].normalization,
                      "raw", "normalized"),
    "closeness": (("closeness.file = file.txt", ["--coupling-strategy", "closeness"]),
                  lambda runs: None if runs[0][0].closeness is None
                  else runs[0][0].closeness.tolist(),
                  None, [[0.0, 1.0], [1.0, 0.0]]),
    "gamma plus": (("gamma.plus = 0.5 2", ["--signed"]), lambda runs: runs[0][1].gamma_plus,
                   None, (0.5, 2.0)),
    "gamma minus": (("gamma.minus = 3", ["--signed"]), lambda runs: runs[0][1].gamma_minus,
                    None, (3.0, 3.0)),
}


@pytest.mark.parametrize("command", ["detect", "sweep", "compare"])
@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_each_setting_has_one_route(command, setting, tmp_path, monkeypatch):
    route, read, default, value = SETTINGS[setting]
    if setting == "omega" and command == "sweep":
        default = list(DEFAULT_OMEGAS)
    if setting == "coupling strategy" and command == "compare":  # compare refuses explicit
        route, value = ["--coupling-strategy", "temporal"], "temporal"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("0 1\n1 0\n")

    def runs(*args):
        seen = []

        def record(name, net, spec, params, args, seed):
            seen.append((spec, params))
            return DetectionResult(Partition(np.zeros(net.supra_size, dtype=int)), 0.0, ())

        monkeypatch.setattr(cli, "_run_algorithm", record)
        argv = [command, "--dataset", "karate-replica", "--layers", "2", *args]
        if command == "compare":
            argv += ["--algorithm", "mspec", "--rho", "0"]
        assert main([*argv, "--out", "out"]) == 0
        return seen

    assert read(runs()) == default
    if isinstance(route, tuple):
        line, flags = route
        (tmp_path / "params.txt").write_text(line + "\n")
        route = [*flags, "--params-file", "params.txt"]
    assert read(runs(*route)) == value


@pytest.mark.parametrize("command", ["detect", "sweep", "compare"])
@pytest.mark.parametrize("key", ["gamma", "lambda", "omega", "coupling.strategy", "signed",
                                 "normalization"])
def test_a_flag_setting_in_the_params_file_exit_2_at_its_line(command, key, tmp_path, capsys):
    # the flag is the setting's one route
    params = tmp_path / "p.txt"
    params.write_text(f"gamma.plus = 1\n{key} = 1\n")
    out = tmp_path / "out"
    assert run_cli([command, "--dataset", "karate-replica", "--layers", "2", "--signed",
                    "--params-file", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {params}:2: unknown parameter key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "sweep", "compare"])
@pytest.mark.parametrize("line, strategy, needs", [
    ("gamma.plus = 5", "uniform", "--signed"),
    ("gamma.minus = 5", "temporal", "--signed"),
    ("closeness.file = c.txt", "uniform", "--coupling-strategy closeness"),
    ("closeness.file = c.txt", "temporal", "--coupling-strategy closeness"),
], ids=["gamma.plus", "gamma.minus", "closeness.file-uniform", "closeness.file-temporal"])
def test_a_params_file_key_the_run_would_not_read_exit_2_at_its_line(
        command, line, strategy, needs, tmp_path, capsys):
    # the run would parse the value and score without it
    (tmp_path / "c.txt").write_text("0 1\n1 0\n")
    params = tmp_path / "p.txt"
    params.write_text(f"# two cells\n{line}\n")
    out = tmp_path / "out"
    assert run_cli([command, "--dataset", "karate-replica", "--layers", "2",
                    "--coupling-strategy", strategy, "--params-file", str(params),
                    "--out", str(out)]) == 2
    key = line.partition(" ")[0]
    assert capsys.readouterr().err == f"error: {params}:2: {key} is read only with {needs}\n"
    assert not out.exists()

def test_console_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "mlmod.cli", "detect", "--dataset", "karate",
         "--omega", "1.0", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Q=" in proc.stdout


def test_small_runs_never_load_arpack(tmp_path):
    # Supra 340 stays on the dense eigen path, so scipy.sparse.linalg and
    # scipy.sparse (and the RSS they cost) must not be imported by a
    # karate-replica compare.
    code = (
        "import sys\n"
        "import mlmod\n"
        "from mlmod.cli import main\n"
        f"assert main(['compare', '--rho', '0', '0.5', '1', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy.sparse.linalg' not in sys.modules\n"
        "assert 'scipy.sparse' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
