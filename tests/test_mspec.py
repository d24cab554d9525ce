from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mlmod.eigen
from mlmod import (
    CouplingSpec,
    DomainError,
    ModularityParams,
    Partition,
    build_karate_replica,
    build_modularity_matrix,
    full_couplings,
    generate_couplings,
    load_karate,
    mlouv,
    modularity,
    mspec_detect,
    quality_matrix,
)
from mlmod import mspec
from mlmod.io import load_couplings, load_multiplex
from mlmod.modularity import QualityMatrix, Subdivision, _score
from mlmod.mspec import subdivision_matrix

from conftest import make_single_layer
from oracles import (
    best_bipartition,
    bisect,
    bit_symmetric,
    dense_leading_eigenpair,
    dense_subdivision,
    max_partition_q,
    random_instance,
)
from test_network import make_net


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """The synth-4096 benchmark instance of a seed, read from the files of
    ``perfbench/workloads.py`` as ``mlmod detect`` reads them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("synth_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def build(seed):
        paths = workloads.write_synth_inputs(str(tmp_path_factory.mktemp("synth")), seed)
        net = load_multiplex(paths["edges"], paths["layers"], n_nodes=workloads.SYNTH_NODES)
        net = net.with_couplings(load_couplings(paths["couplings"], net, net.n_nodes)[0])
        params = ModularityParams.for_network(net, gamma=workloads.SYNTH_GAMMA)
        return net, CouplingSpec(omega=workloads.SYNTH_OMEGA), params

    return build


def complete_graph(n):
    return make_single_layer(
        [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)], n
    )


class TestBisect:
    def test_nonpositive_beta_is_non_improving(self):
        net = complete_graph(4)
        params = ModularityParams.for_network(net)
        dm = build_modularity_matrix(net, CouplingSpec(), params)
        sub = dense_subdivision(dm.matrix, np.arange(4))
        z, dq, beta = bisect(sub)
        assert beta <= 1e-10
        assert dq <= 1e-10

    def test_two_cliques_exact_and_optimal(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        dm = build_modularity_matrix(two_cliques, CouplingSpec(), params)
        z, dq, beta = bisect(dm.matrix)
        sides = {tuple(np.flatnonzero(z > 0).tolist()),
                 tuple(np.flatnonzero(z < 0).tolist())}
        assert sides == {(0, 1, 2), (3, 4, 5)}
        best_gain, _ = best_bipartition(dm.matrix)
        assert dq == pytest.approx(best_gain, abs=1e-9)

    def test_constant_positive_matrix_indivisible(self):
        m = np.full((5, 5), 2.0)
        z, dq, beta = bisect(m)
        assert (z == 1.0).all()
        assert dq == pytest.approx(0.0, abs=1e-12)


class TestSubdivisionMatrix:
    def test_singleton_zero(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        qm, _ = quality_matrix(two_cliques, CouplingSpec(), params)
        sub = subdivision_matrix(qm, [2])
        assert sub.shape == (1, 1)
        assert sub[0, 0] == 0.0

    def test_full_zero_matrix(self):
        net = make_single_layer([], 4)
        with pytest.warns(RuntimeWarning):
            qm, _ = quality_matrix(net, CouplingSpec(), ModularityParams.for_network(net))
        sub = subdivision_matrix(qm, np.arange(4))
        assert not sub.any()

    def test_rows_sum_to_zero(self):
        for seed in range(6):
            net, spec, params = random_instance(seed + 40)
            qm, _ = quality_matrix(net, spec, params)
            members = np.arange(net.supra_size)[:: 2]
            sub = subdivision_matrix(qm, members)
            assert np.abs(sub.sum(axis=1)).max() <= 1e-9
            assert np.abs(sub - sub.T).max() <= 1e-12

    def test_empty_members_rejected(self, two_cliques):
        qm, _ = quality_matrix(two_cliques, CouplingSpec(),
                               ModularityParams.for_network(two_cliques))
        with pytest.raises(DomainError):
            subdivision_matrix(qm, [])

    def test_delta_q_matches_direct_recomputation(self, rng):
        net, spec, params = random_instance(11, max_supra=12)
        n = net.supra_size
        members = np.sort(rng.choice(n, size=min(6, n), replace=False))
        qm, _ = quality_matrix(net, spec, params)
        sub = subdivision_matrix(qm, members)
        z = rng.choice([-1.0, 1.0], size=len(members))
        dq_matrix = 0.5 * float(z @ sub @ z)
        # direct recomputation through the scorer
        before = np.zeros(n, dtype=int)
        before[members] = 1
        rest = np.flatnonzero(before == 0)
        before[rest] = 2 + np.arange(len(rest))  # isolate non-members
        after = before.copy()
        after[members[z < 0]] = 0
        q_before = modularity(net, spec, params, Partition(before))
        q_after = modularity(net, spec, params, Partition(after))
        assert q_after - q_before == pytest.approx(dq_matrix, abs=1e-9)


class TestMspecDetect:
    def test_indivisible_root_single_community(self):
        net = complete_graph(4)
        params = ModularityParams.for_network(net)
        res = mspec_detect(net, CouplingSpec(), params)
        assert res.n_communities == 1
        assert res.divisions[0].applied is False

    def test_karate_replica_omega_one_matches_ground_truth(self):
        net, params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
        _, truth = load_karate()
        res = mspec_detect(net, CouplingSpec(omega=1.0), params)
        grid = res.partition.labels.reshape(10, 34)
        assert (grid == grid[0]).all()
        assert res.n_communities == 2
        found = np.where(grid[0] == grid[0][0], 1, 2)
        assert (found == truth).all() or (found == 3 - truth).all()

    def test_planted_two_layer_instance_reaches_optimum(self):
        # two planted 4+4 communities, identical over two fully coupled layers
        edges = []
        for group in ((0, 1, 2, 3), (4, 5, 6, 7)):
            for a in range(4):
                for b in range(a + 1, 4):
                    edges.append((group[a], group[b], 1.0))
        edges.append((3, 4, 1.0))  # single bridge
        net = make_net(8, [2], edges_by_cell=(tuple(edges), tuple(edges)),
                       couplings=full_couplings(8, 2))
        params = ModularityParams.for_network(net)
        spec = CouplingSpec(omega=1.0)
        res = mspec_detect(net, spec, params)
        grid = res.partition.labels.reshape(2, 8)
        assert (grid[0] == grid[1]).all()
        planted = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        found = grid[0]
        assert len(set(zip(found.tolist(), planted.tolist()))) == 2  # bijection
        dm = build_modularity_matrix(net, spec, params)
        assert res.q_total == pytest.approx(max_partition_q(dm.matrix), abs=1e-9)

    def test_final_q_below_exhaustive_max(self):
        for seed in range(8):
            net, spec, params = random_instance(seed + 70, max_supra=10)
            dm = build_modularity_matrix(net, spec, params)
            opt = max_partition_q(dm.matrix)
            for refine in (False, True):
                res = mspec_detect(net, spec, params, refine=refine)
                assert res.q_total <= opt + 1e-9 * max(1.0, abs(opt))

    def test_applied_divisions_all_improving_and_sum_to_q(self):
        net, spec, params = random_instance(5)
        res = mspec_detect(net, spec, params, refine=False)
        assert all(d.delta_q > 0 for d in res.divisions if d.applied)
        chi = float(res.meta["chi"].strip("'"))
        total = chi + sum(d.delta_q for d in res.divisions if d.applied)
        assert res.q_total == pytest.approx(total, abs=1e-9 * max(1.0, abs(total)))

    def test_q_total_is_spectral_plus_relocation_gain(self):
        net, params = build_karate_replica(3, [0.5, 1.0, 1.0])
        cases = [(net, CouplingSpec(omega=omega), params) for omega in (0.0, 0.3)]
        cases += [random_instance(seed) for seed in (5, 17)]
        relocated = 0
        for net, spec, params in cases:
            res = mspec_detect(net, spec, params)
            gain = float(res.meta["q_relocation"])
            relocated += gain != 0.0
            total = (float(res.meta["chi"])
                     + sum(d.delta_q for d in res.divisions if d.applied) + gain)
            assert res.q_total == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert relocated >= 1  # the karate replica at omega = 0 relocates cells

    def test_refined_q_at_least_spectral_q(self):
        for seed in (3, 9, 21):
            net, spec, params = random_instance(seed)
            pure = mspec_detect(net, spec, params, refine=False)
            refined = mspec_detect(net, spec, params, refine=True)
            assert refined.q_total >= pure.q_total - 1e-9

    def test_determinism(self):
        net, spec, params = random_instance(13)
        a = mspec_detect(net, spec, params)
        b = mspec_detect(net, spec, params)
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.q_total == b.q_total

    def test_strong_coupling_forces_co_assignment(self):
        rng = np.random.default_rng(4)
        edges_a = [(i, j, float(rng.integers(1, 3)))
                   for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.6]
        edges_b = [(i, j, float(rng.integers(1, 3)))
                   for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.6]
        net = make_net(6, [2], edges_by_cell=(tuple(edges_a), tuple(edges_b)),
                       couplings=full_couplings(6, 2))
        params = ModularityParams.for_network(net)
        max_entry = max(abs(w) for e in net.within_edges for _, _, w in e)
        spec = CouplingSpec(omega=1e3 * max_entry)
        res = mspec_detect(net, spec, params)
        grid = res.partition.labels.reshape(2, 6)
        assert (grid[0] == grid[1]).all()

    def test_q_total_matches_independent_recomputation(self):
        for seed in (1, 2):
            net, spec, params = random_instance(seed + 200)
            res = mspec_detect(net, spec, params)
            q = modularity(net, spec, params, res.partition)
            assert res.q_total == pytest.approx(q, abs=1e-9 * max(1.0, abs(q)))


class TestSpectralIdentity:
    def test_quadratic_form_equals_eigen_expansion(self, rng):
        for seed in range(5):
            net, spec, params = random_instance(seed + 300, max_supra=10)
            d = build_modularity_matrix(net, spec, params).matrix
            vals, vecs = np.linalg.eigh(d)
            z = rng.choice([-1.0, 1.0], size=d.shape[0])
            direct = float(z @ d @ z)
            expanded = float(((vecs.T @ z) ** 2 * vals).sum())
            assert direct == pytest.approx(expanded, abs=1e-8 * max(1.0, abs(direct)))


class TestSoftLabels:
    """DetectionResult.soft_labels is the root bisection's leading
    eigenvector, and divisions[0] its eigenvalue and sign-rule gain."""

    def test_indivisible_root_still_returns_values(self):
        net = complete_graph(4)
        params = ModularityParams.for_network(net)
        res = mspec_detect(net, CouplingSpec(), params, refine=False)
        assert res.soft_labels.shape == (4,)
        assert res.divisions[0].delta_q <= mspec._GAIN_EPS
        assert res.divisions[0].applied is False

    def test_single_vertex_has_no_root_vector(self):
        net = make_single_layer([], 1)
        with pytest.warns(RuntimeWarning, match="has no edges"):
            res = mspec_detect(net, CouplingSpec(), ModularityParams.for_network(net))
        assert res.soft_labels is None
        assert res.divisions == ()

    def test_sign_matches_root_bisection(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        res = mspec_detect(two_cliques, CouplingSpec(), params, refine=False)
        dm = build_modularity_matrix(two_cliques, CouplingSpec(), params)
        sub = dense_subdivision(dm.matrix, np.arange(6))
        z, dq, _ = bisect(sub)
        assert np.array_equal(np.where(res.soft_labels >= 0, 1.0, -1.0), z)
        # the unrefined root division is the sign-rule test on that split
        root = res.divisions[0]
        assert root.delta_q == pytest.approx(dq, abs=1e-9)
        assert dq > mspec._GAIN_EPS
        assert root.applied is True

    def test_two_cliques_opposite_signs_constant_magnitude(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        res = mspec_detect(two_cliques, CouplingSpec(), params)
        left, right = res.soft_labels[:3], res.soft_labels[3:]
        assert np.sign(left).tolist() in ([1, 1, 1], [-1, -1, -1])
        assert np.sign(right).tolist() in ([1, 1, 1], [-1, -1, -1])
        assert np.sign(left[0]) != np.sign(right[0])
        assert np.ptp(np.abs(left)) <= 1e-8
        assert np.ptp(np.abs(right)) <= 1e-8
        # matches a dense decomposition of the bisected matrix
        dm = build_modularity_matrix(two_cliques, CouplingSpec(), params)
        sub = dense_subdivision(dm.matrix, np.arange(6))
        beta_o, u_o = dense_leading_eigenpair(sub)
        assert res.divisions[0].beta == pytest.approx(beta_o, abs=1e-9)
        assert abs(abs(res.soft_labels @ u_o) - 1.0) <= 1e-8

    def test_root_eigenpair_on_both_root_paths(self, synth):
        # supra 340 is formed densely and solved by LAPACK, supra 4096 by ARPACK;
        # the scale is the exact max absolute row sum on both
        karate, karate_params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
        for net, spec, params in ((karate, CouplingSpec(omega=1.0), karate_params),
                                  synth(3672)):
            res = mspec_detect(net, spec, params)
            beta, u = res.divisions[0].beta, res.soft_labels
            qm, _ = quality_matrix(net, spec, params)
            sub = subdivision_matrix(qm, np.arange(qm.size))
            assert u.shape == (qm.size,)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            scale = (sub.norm_inf() if isinstance(sub, Subdivision)
                     else float(np.abs(sub).sum(axis=1).max()))
            assert np.linalg.norm(sub @ u - beta * u) <= 1e-10 * scale


class TestFactoredSubdivisions:
    def test_no_lapack_and_no_dense_subdivision_above_form_max(self, synth, monkeypatch):
        solved, formed = [], []
        eigh, dense = mlmod.eigen.eigh, QualityMatrix.dense

        def recording_eigh(a, *args, **kwargs):
            solved.append(len(a))
            return eigh(a, *args, **kwargs)

        def recording_dense(self):
            formed.append(self.size)
            return dense(self)

        monkeypatch.setattr(mlmod.eigen, "eigh", recording_eigh)
        monkeypatch.setattr(QualityMatrix, "dense", recording_dense)
        res = mspec_detect(*synth(3672))
        assert len(res.divisions) > 1
        assert solved == []
        assert all(size <= mspec._FORM_MAX for size in formed)

    def test_dense_subdivisions_at_or_below_form_max_agree_with_arpack(self, synth, monkeypatch):
        # instance 33 of synth-4096 forms subdivisions of 152, 274 and 318 rows
        solved, formed = [], []
        eigh, form = mlmod.eigen.eigh, mspec.subdivision_matrix

        def recording_eigh(a, *args, **kwargs):
            solved.append(len(a))
            return eigh(a, *args, **kwargs)

        def recording_form(matrix, members):
            sub = form(matrix, members)
            if isinstance(sub, np.ndarray):
                formed.append((matrix, members, sub.copy()))
            return sub

        monkeypatch.setattr(mlmod.eigen, "eigh", recording_eigh)
        monkeypatch.setattr(mspec, "subdivision_matrix", recording_form)
        mspec_detect(*synth(33))
        assert formed
        assert solved == [len(members) for _, members, _ in formed]
        for qm, members, sub in formed:
            assert isinstance(qm, QualityMatrix) and len(members) <= mspec._FORM_MAX
            free = Subdivision(qm, members)
            beta, _ = mlmod.eigen.leading_eigenpair(sub)
            beta_free, _ = mlmod.eigen.leading_eigenpair(free)
            assert abs(beta - beta_free) <= 1e-8 * free.norm_inf()

    def test_every_subdivision_of_a_detection_is_bit_symmetric(self, synth, monkeypatch):
        # The solver checks no Subdivision for symmetry: B and each take of it
        # mirror bit for bit, and a dense subdivision passes the mirror test
        # that lets LAPACK work in it.  Instance 33 forms both kinds.
        net, spec, params = synth(33)
        qm, _ = quality_matrix(net, spec, params)
        assert bit_symmetric(qm.indptr, qm.indices, qm.data)
        form, kinds = mspec.subdivision_matrix, []

        def checked_form(matrix, members):
            sub = form(matrix, members)
            if isinstance(sub, Subdivision):
                assert bit_symmetric(sub.indptr, sub.cols, sub.vals)
            else:
                assert mlmod.eigen._dense_checks(sub)[1]
            kinds.append(type(sub))
            return sub

        monkeypatch.setattr(mspec, "subdivision_matrix", checked_form)
        mspec_detect(net, spec, params)
        assert {Subdivision, np.ndarray} <= set(kinds)


def test_supra_8192_peak_rss_below_200mb():
    # The dense D alone would take 512 MB at this size.
    code = """
import resource
import numpy as np
from mlmod import Aspect, CouplingSpec, ModularityParams, MultilayerNetwork, generate_couplings
from mlmod import mspec_detect
n, block = 4096, 256
rng = np.random.default_rng(8192)
layers = []
for _ in range(2):
    edges = []
    for lo in range(0, n, block):
        i, j = np.nonzero(rng.random((min(block, n - lo), n)) < 8.0 / n)
        i += lo
        keep = i < j
        edges += zip(i[keep].tolist(), j[keep].tolist(), [1.0] * int(keep.sum()))
    layers.append(tuple(edges))
net = MultilayerNetwork(n_nodes=n, aspects=(Aspect("a", ("x", "y")),), within_edges=tuple(layers))
net = net.with_couplings(generate_couplings(net, 0.5, 8193))
res = mspec_detect(net, CouplingSpec(omega=0.5), ModularityParams.for_network(net))
assert res.n_communities > 1
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 200.0


@pytest.fixture(scope="module")
def supra_8192():
    """The instance of test_supra_8192_peak_rss_below_200mb: two layers of
    G(4096, 8/4096), unweighted, and rho = 0.5 couplings."""
    n, block = 4096, 256
    rng = np.random.default_rng(8192)
    layers = []
    for _ in range(2):
        edges = []
        for lo in range(0, n, block):
            i, j = np.nonzero(rng.random((min(block, n - lo), n)) < 8.0 / n)
            i += lo
            keep = i < j
            edges += zip(i[keep].tolist(), j[keep].tolist(), [1.0] * int(keep.sum()))
        layers.append(tuple(edges))
    net = make_net(n, (2,), tuple(layers))
    net = net.with_couplings(generate_couplings(net, 0.5, 8193))
    return net, CouplingSpec(omega=0.5), ModularityParams.for_network(net)


def test_matrix_free_stage_peaks_supra_8192(supra_8192):
    # Each stage holds at most a few arrays of one value per entry of B, in
    # units of 8 * nnz bytes under tracemalloc: the root subdivision shares
    # D's arrays, and the build, the check and the scorer work over blocks
    # of rows.
    net, spec, params = supra_8192
    labels = np.arange(net.supra_size) * 7 // net.supra_size
    Subdivision(*quality_matrix(net, spec, params)[:1], [0, 1])  # warm-up: imports
    peaks = {}

    def traced(name, f):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        peaks[name] = tracemalloc.get_traced_memory()[1] - base
        return out

    tracemalloc.start()
    try:
        qm, _ = traced("quality_matrix", lambda: quality_matrix(net, spec, params))
        root = traced("subdivision_matrix", lambda: subdivision_matrix(qm, np.arange(qm.size)))
        traced("norm_inf", root.norm_inf)
        traced("_score", lambda: _score(qm, labels, "raw"))
    finally:
        tracemalloc.stop()
    assert isinstance(root, Subdivision)
    units = {name: peak / (8 * qm.indices.size) for name, peak in peaks.items()}
    bounds = {"quality_matrix": 4.5, "subdivision_matrix": 1.5, "norm_inf": 1.0, "_score": 1.5}
    assert all(units[name] <= bound for name, bound in bounds.items()), units


@pytest.mark.parametrize("weighted", [False, True])
def test_edge_read_peak_supra_8192(supra_8192, tmp_path, weighted):
    # In units of 8 * nnz bytes, nnz = 2 * edges, the entries of B the file
    # gives: numpy's 24-byte rows and an all-ones weight column, or its
    # 32-byte rows whose weights are read in place, and each layer's
    # normalize_edges transients, but not the file's text, which is freed
    # once parsed.  Keeping it alive for line lookups read 6.4; copying the
    # weights of a weighted file read 6.15.
    net = supra_8192[0]
    path = tmp_path / "synth.edges"
    path.write_text("".join(f"{t + 1} {i + 1} {j + 1}{f' {w!r}' if weighted else ''}\n"
                            for t, layer in enumerate(net.within_edges) for i, j, w in layer))
    load_multiplex(str(path))  # warm-up: imports
    tracemalloc.start()
    try:
        read = load_multiplex(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.within_edges == net.within_edges
    assert peak / (16 * sum(len(e) for e in net.within_edges)) <= 6.0


def test_memory_held_on_entry_to_each_subdivision_supra_8192(supra_8192, monkeypatch):
    # Beyond D, in units of 8 * nnz bytes under tracemalloc: the previous
    # subdivision, and for a subset its own take of D, is freed before the
    # next one is formed.  Holding it read 1.55.
    net, spec, params = supra_8192
    qm, _ = quality_matrix(net, spec, params)
    mspec.spectral_partition(qm)  # warm-up: imports
    form, held = mspec.subdivision_matrix, []

    def recording_form(matrix, members):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return form(matrix, members)

    monkeypatch.setattr(mspec, "subdivision_matrix", recording_form)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mspec.spectral_partition(qm)
    finally:
        tracemalloc.stop()
    assert len(held) > 2
    assert max(held) / (8 * qm.indices.size) <= 1.0, held


@pytest.mark.parametrize("detect, bound", [
    (mspec_detect, 1.74),
    (mlouv, 1.5),
], ids=["mspec", "mlouv"])
def test_dense_detection_peak_memory(detect, bound):
    # A dense detection holds the subdivision being solved, which LAPACK
    # works in, and no second n x n array; mlouv one work matrix at a time.
    # A formed-once D beside the root subdivision and LAPACK's copy of it
    # read about 2.25 * 8 n^2 bytes for mspec.
    net, params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
    spec = CouplingSpec(omega=1.0)
    n = net.supra_size
    detect(net, spec, params)  # warm-up: imports and caches
    tracemalloc.start()
    try:
        detect(net, spec, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n, peak / (8 * n * n)
