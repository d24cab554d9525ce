"""Tests of the benchmark's own pieces: input generator, tracer and check.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import check
import run
import tracer
import workloads as wl
from mlmod import (Aspect, CouplingSpec, DetectionResult, MultilayerNetwork, Partition,
                   build_karate_replica, build_modularity_matrix, generate_couplings,
                   load_result, save_result)
from mlmod.io import load_couplings, load_multiplex
from mlmod.cli import _seed_for, main as cli_main


def _loop_edges(n_nodes, seed):
    """Reference generator: one rng.random() call per pair in a double loop."""
    rng = np.random.default_rng(seed)
    p = min(0.9, 8.0 / n_nodes)
    layers = []
    for _ in range(wl.SYNTH_LAYERS):
        edges = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)
                 if rng.random() < p]
        layers.append(edges or [(0, 1)])
    return layers


@pytest.mark.parametrize("n_nodes", [2, 3, 9, 130, 300])
def test_generator_matches_loop_reference(n_nodes):
    for seed in (0, 5):
        got = [list(zip(i.tolist(), j.tolist())) for i, j in wl.synth_edges(n_nodes, seed)]
        assert got == _loop_edges(n_nodes, seed)


def test_generator_files_deterministic_per_seed(tmp_path):
    def read(directory, seed):
        paths = wl.write_synth_inputs(str(tmp_path / directory), seed)
        return {name: open(path, "rb").read() for name, path in paths.items()}

    first, again, other = read("a", 7), read("b", 7), read("c", 8)
    assert first == again
    assert first["edges"] != other["edges"]
    assert first["couplings"] != other["couplings"]


def test_coupled_nodes_match_program_draw():
    net = MultilayerNetwork(n_nodes=50, aspects=(Aspect("a", ("x", "y")),),
                            within_edges=((), ()))
    for seed in (1, 2):
        expected = sorted(node for node, _, _ in generate_couplings(net, wl.SYNTH_RHO, seed + 1))
        assert wl.synth_coupled_nodes(50, seed).tolist() == expected


def test_compare_couplings_match_program_draw():
    net, _ = build_karate_replica(wl.KARATE_LAYERS, [1.0] * wl.KARATE_LAYERS)
    for ri, rho in enumerate(wl.COMPARE_RHOS):
        seed = check.coupling_seed(3, ri, 0)
        assert seed == _seed_for(3, ri, 0)
        assert check.random_couplings(net.n_nodes, net.n_cells, rho, seed) == \
            generate_couplings(net, rho, seed)


def test_self_times_on_nested_spans():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["mspec.spectral_partition", 1.0, 4.0, 0],
        ["eigen.leading_eigenpair", 2.0, 3.0, 1],
        ["baselines.mlouv", 5.0, 9.0, 0],
        ["mspec.kl_relocate", 6.0, 8.5, 3],
        ["bench", 8.5, 8.75, 3],
        ["mspec.kl_relocate", 3.25, 3.75, 1],
    ]
    times = tracer.self_times(spans)
    assert times["cli"] == (1, pytest.approx(3.0))
    assert times["mspec.spectral_partition"] == (1, pytest.approx(1.5))
    assert times["eigen.leading_eigenpair"] == (1, pytest.approx(1.0))
    assert times["baselines.mlouv"] == (1, pytest.approx(1.25))
    assert times["baselines.mlouv.kl_relocate"] == (1, pytest.approx(2.5))
    assert times["mspec.kl_relocate"] == (1, pytest.approx(0.5))
    assert times["bench"] == (1, pytest.approx(0.25))
    assert sum(s for _, s in times.values()) == pytest.approx(10.0)


def test_tracer_catches_calls_through_imported_names():
    import mlmod.eigen
    import mlmod.mspec

    net, params = build_karate_replica(2, [1.0, 1.0])
    original = mlmod.mspec.leading_eigenpair
    t = tracer.Tracer()
    t.install()
    try:
        result = mlmod.mspec.mspec_detect(net, CouplingSpec(omega=1.0), params)
    finally:
        t.uninstall()
    assert mlmod.mspec.leading_eigenpair is original is mlmod.eigen.leading_eigenpair
    assert not t.missing
    times = tracer.self_times(t.spans)
    assert times["mspec.mspec_detect"][0] == 1
    assert times["eigen.leading_eigenpair"][0] == len(result.divisions)
    assert times["mspec.subdivision_matrix"][0] == len(result.divisions)
    assert t.counts["eigen.leading_eigenpair.n_max"] == net.supra_size
    assert t.counts["mspec.divisions.attempted"] == len(result.divisions)


@pytest.fixture(scope="module")
def sweep_docs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sweep"))
    [argv] = wl.WORKLOADS["karate-sweep"].prepare(out, 0)
    assert cli_main(argv + ["--out", out]) == 0
    return out


def test_check_accepts_program_results(sweep_docs):
    checker = check.Checker("karate-sweep", 0)
    for document, index in wl.WORKLOADS["karate-sweep"].documents:
        q, message = checker.check(os.path.join(sweep_docs, document), 0, index)
        assert message == ""
        assert q is not None


def test_check_rejects_tampered_q_total(sweep_docs, tmp_path):
    document, index = wl.WORKLOADS["karate-sweep"].documents[2]
    lines = open(os.path.join(sweep_docs, document), encoding="utf-8").read().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("#meta q_total "))
    q = float(lines[at].split()[-1])
    lines[at] = f"#meta q_total {q * (1 + 1e-7)!r}"
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    q_checked, message = check.Checker("karate-sweep", 0).check(str(tampered), 0, index)
    assert q_checked is None
    assert "pairwise sum" in message


def test_check_rejects_split_off_the_ground_truth(sweep_docs, tmp_path):
    index = wl.SWEEP_OMEGAS.index(check.SWEEP_GROUND_TRUTH_OMEGA)
    document = dict((i, d) for d, i in wl.WORKLOADS["karate-sweep"].documents)[index]
    result, _ = load_result(os.path.join(sweep_docs, document))
    # Move node 1 to the other faction in every layer, with a consistent q_total.
    labels = result.partition.labels.reshape(wl.KARATE_LAYERS, -1).copy()
    labels[:, 0] = 1 - labels[:, 0]
    labels = labels.ravel()
    net, params = build_karate_replica(wl.KARATE_LAYERS,
                                       [round(0.1 * (s + 1), 10) for s in range(wl.KARATE_LAYERS)])
    matrix = build_modularity_matrix(net, CouplingSpec(omega=1.0), params).matrix
    moved = DetectionResult(partition=Partition(labels), q_total=check.pairwise_q(matrix, labels),
                            divisions=())
    path = str(tmp_path / "moved.txt")
    save_result(moved, path, net)
    q_checked, message = check.Checker("karate-sweep", 0).check(path, 0, index)
    assert q_checked is None
    assert "ground truth" in message


def test_pairwise_q_matches_explicit_double_sum():
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((12, 12))
    matrix = matrix + matrix.T
    labels = rng.integers(0, 4, size=12)
    expected = sum(matrix[x, y] for x in range(12) for y in range(12) if labels[x] == labels[y])
    assert check.pairwise_q(matrix, labels) == pytest.approx(expected, rel=1e-12)


def test_synth_instance_is_the_one_the_program_reads(tmp_path):
    argvs = wl.WORKLOADS["synth-4096"].prepare(str(tmp_path), 3)
    assert len(argvs) == wl.INSTANCES
    argv = argvs[1]
    seed = wl.instance_seed(3, 1, wl.INSTANCES)
    net = load_multiplex(argv[argv.index("--input") + 1],
                         argv[argv.index("--layers-file") + 1], n_nodes=wl.SYNTH_NODES)
    couplings, _ = load_couplings(argv[argv.index("--couplings-file") + 1], net, net.n_nodes)
    expected = [tuple(zip(a.tolist(), b.tolist()))
                for a, b in wl.synth_edges(wl.SYNTH_NODES, seed)]
    assert [tuple((x, y) for x, y, _ in layer) for layer in net.within_edges] == expected
    assert sorted(node for node, _, _ in couplings) == \
        wl.synth_coupled_nodes(wl.SYNTH_NODES, seed).tolist()


def test_q_mean_scores_the_first_pass_on_each_instance():
    passes = [{"dir": f"p{k}", "instance": instance, "traced": traced}
              for k, (instance, traced) in enumerate(
                  [(0, False), (0, True), (1, False), (1, True), (0, False), (1, False)])]
    assert run.first_cycle(passes) == {"p0", "p2"}
    assert run.first_cycle(passes[:4]) == run.first_cycle(passes)


def test_run_rejects_seconds_it_cannot_fit():
    proc = subprocess.run([sys.executable, run.__file__, "--workload", "karate-sweep",
                           "--seconds", str(run.MAX_SECONDS + 1)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--seconds must be" in proc.stderr
