from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlmod import (
    Aspect,
    CouplingSpec,
    ModularityParams,
    MultilayerNetwork,
    build_karate_replica,
    build_modularity_matrix,
    full_couplings,
    generate_couplings,
    load_karate,
    mlouv,
    modularity,
    mspec_detect,
    quality_matrix,
    sfull_spec,
    smean_spec,
)

from conftest import make_single_layer
from mlmod import baselines
from mlmod.cli import DEFAULT_RHOS, _seed_for
from mlmod.mspec import spectral_partition
from mlmod.network import Edges
from oracles import enumerate_max_q, greedy_merge_reference
from test_network import make_net


def planted_multilayer(seed, n_nodes=16, layers=3, k=4, p_in=0.9, p_out=0.08):
    """Layers with independently permuted planted communities."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(layers):
        groups = rng.permutation(n_nodes) % k
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < (p_in if groups[i] == groups[j] else p_out):
                    edges.append((i, j, 1.0))
        if not edges:
            edges.append((0, 1, 1.0))
        cells.append(tuple(edges))
    return MultilayerNetwork(
        n_nodes=n_nodes,
        aspects=(Aspect("a", tuple(f"l{t}" for t in range(layers))),),
        within_edges=tuple(cells),
    )


class TestGreedyMerge:
    @settings(max_examples=300, deadline=None)
    @given(half=st.integers(1, 40).flatmap(
        lambda n: hnp.arrays(np.int8, (n, n), elements=st.integers(-3, 3))))
    def test_matches_reference_on_tie_heavy_matrices(self, half):
        # small-integer sums are exact, so equal gains tie exactly
        matrix = (half + half.T).astype(float)
        labels, q_trace = greedy_merge_reference(matrix)
        got_labels, got_trace = baselines._greedy_merge(matrix.copy(), float(np.trace(matrix)))
        assert np.array_equal(got_labels, labels)
        assert got_trace == q_trace  # bit-equal floats

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1), hubs=st.integers(0, 3))
    def test_matches_reference_on_float_and_hub_matrices(self, n, seed, hubs):
        rng = np.random.default_rng(seed)
        half = rng.standard_normal((n, n)) - rng.random()
        matrix = half + half.T
        # a hub row of large gains: merging it lowers the maxima of many other
        # rows at once, so their bounds go stale
        for h in rng.choice(n, size=min(hubs, n), replace=False):
            matrix[h] = matrix[:, h] = 10.0 + 10.0 * rng.random(n)
        labels, q_trace = greedy_merge_reference(matrix)
        got_labels, got_trace = baselines._greedy_merge(matrix.copy(), float(np.trace(matrix)))
        assert np.array_equal(got_labels, labels)
        assert got_trace == q_trace  # bit-equal floats

    def test_matches_reference_at_supra_1024(self):
        # two layers of G(N, 8/N) with half their node copies coupled
        n_nodes = 512
        rng = np.random.default_rng(8)
        cells = []
        for _ in range(2):
            i, j = np.triu_indices(n_nodes, 1)
            keep = rng.random(i.size) < 8.0 / n_nodes
            cells.append(Edges(i[keep], j[keep], np.ones(int(keep.sum()))))
        net = MultilayerNetwork(n_nodes=n_nodes, aspects=(Aspect("a", ("l0", "l1")),),
                                within_edges=tuple(cells))
        net = net.with_couplings(generate_couplings(net, 0.5, 8))
        matrix = quality_matrix(net, CouplingSpec(omega=0.5),
                                ModularityParams.for_network(net))[0].dense()
        assert matrix.shape == (1024, 1024)
        labels, q_trace = greedy_merge_reference(matrix)
        got_labels, got_trace = baselines._greedy_merge(matrix.copy(), float(np.trace(matrix)))
        assert len(q_trace) > 500
        assert np.array_equal(got_labels, labels)
        assert got_trace == q_trace

    def test_nan_stops_before_any_merge(self):
        matrix = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, np.nan], [1.0, np.nan, 0.0]])
        for labels, q_trace in (greedy_merge_reference(matrix),
                                baselines._greedy_merge(matrix.copy(), 0.0)):
            assert np.array_equal(labels, np.arange(3))
            assert q_trace == []

    @pytest.mark.parametrize("seed", range(3006, 3012))
    def test_matches_reference_on_karate_compare(self, seed, monkeypatch):
        # every restart's matrix as mlouv hands it over in `mlmod compare`
        checked = []
        merge = baselines._greedy_merge

        def compared(w, q):
            assert q == float(np.trace(w))
            labels, q_trace = greedy_merge_reference(w)
            got = merge(w, q)
            assert np.array_equal(got[0], labels) and got[1] == q_trace
            checked.append(len(q_trace))
            return got

        monkeypatch.setattr(baselines, "_greedy_merge", compared)
        net, params = build_karate_replica(10, [round(0.1 * (s + 1), 10) for s in range(10)])
        spec = CouplingSpec(omega=1.0)
        for ri, rho in enumerate(DEFAULT_RHOS):
            coupled = net.with_couplings(generate_couplings(net, rho, _seed_for(seed, ri, 0)))
            mlouv(coupled, spec, params, seed=_seed_for(seed, ri, 0, 1))
        assert len(checked) == len(DEFAULT_RHOS) * baselines._RESTARTS


class TestMlouv:
    def test_single_supra_vertex(self):
        net = make_single_layer([], 1)
        params = ModularityParams.for_network(net)
        with pytest.warns(RuntimeWarning):
            res = mlouv(net, CouplingSpec(), params)
        assert res.n_communities == 1
        assert res.q_total == 0.0  # D_11 of an edgeless single node

    def test_two_cliques_match_mspec_and_oracle(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        spec = CouplingSpec()
        r_louv = mlouv(two_cliques, spec, params, seed=3)
        r_spec = mspec_detect(two_cliques, spec, params)
        dm = build_modularity_matrix(two_cliques, spec, params)
        opt = enumerate_max_q(dm.matrix)
        assert r_louv.q_total == pytest.approx(opt, abs=1e-9)
        assert r_spec.q_total == pytest.approx(opt, abs=1e-9)
        grid = r_louv.partition.labels
        assert len({tuple(grid[:3].tolist()), tuple(grid[3:].tolist())}) == 2

    def test_q_trace_non_decreasing(self):
        net = planted_multilayer(1)
        params = ModularityParams.for_network(net)
        res = mlouv(net, CouplingSpec(), params, seed=11)
        trace = [float(v) for v in res.meta["q_trace"].split(",") if v]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic_given_seed(self):
        net = planted_multilayer(2)
        params = ModularityParams.for_network(net)
        a = mlouv(net, CouplingSpec(), params, seed=5)
        b = mlouv(net, CouplingSpec(), params, seed=5)
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.q_total == b.q_total

    def test_reported_q_matches_scorer(self):
        net = planted_multilayer(3).with_couplings(
            generate_couplings(planted_multilayer(3), 0.5, 99)
        )
        params = ModularityParams.for_network(net)
        spec = CouplingSpec(omega=1.0)
        res = mlouv(net, spec, params, seed=1)
        q = modularity(net, spec, params, res.partition)
        assert res.q_total == pytest.approx(q, abs=1e-9 * max(1.0, abs(q)))

    def test_grid_mean_trend_below_mspec(self):
        # sparse-coupling weakness shows up as a lower seed-averaged mean
        # over the density grid, not necessarily per run
        net0, params = build_karate_replica(4, [0.25, 0.5, 0.75, 1.0])
        spec = CouplingSpec(omega=1.0)
        diffs = []
        for seed in range(6):
            for rho in (0.0, 0.5, 1.0):
                net = net0.with_couplings(generate_couplings(net0, rho, 1000 + seed))
                r_spec = mspec_detect(net, spec, params)
                r_louv = mlouv(net, spec, params, seed=seed)
                diffs.append(r_spec.q_total - r_louv.q_total)
        assert np.mean(diffs) >= 0.0


class TestSmeanSpec:
    def test_identical_layers_match_single_layer(self):
        karate, _ = load_karate()
        edges = karate.within_edges[0]
        net = make_net(34, [3], edges_by_cell=(edges, edges, edges),
                       couplings=full_couplings(34, 3))
        params = ModularityParams.for_network(net, gamma=1.0)
        res = smean_spec(net, CouplingSpec(omega=1.0), params)
        newman, _ = quality_matrix(karate, CouplingSpec(), ModularityParams.for_network(karate))
        single_labels, *_ = spectral_partition(newman)
        grid = res.partition.labels.reshape(3, 34)
        assert (grid == grid[0]).all()
        pairs = set(zip(grid[0].tolist(), single_labels.tolist()))
        assert len(pairs) == len({a for a, _ in pairs})  # bijective relabeling

    def test_broadcast_structure_and_coupling_term(self):
        net = planted_multilayer(7, layers=2)
        net = net.with_couplings(generate_couplings(net, 0.5, 17))
        params = ModularityParams.for_network(net)
        omega = 0.8
        spec = CouplingSpec(omega=omega)
        res = smean_spec(net, spec, params)
        grid = res.partition.labels.reshape(2, net.n_nodes)
        assert (grid[0] == grid[1]).all()
        # every copy co-assigned: coupling term is +e per present ordered
        # pair and -e per absent ordered pair
        n_candidates = net.n_nodes
        n_present = len(net.couplings)
        expected_coupling = 2.0 * omega * n_present - 2.0 * omega * (n_candidates - n_present)
        no_coupling = modularity(net, CouplingSpec(omega=0.0), params, res.partition)
        assert res.q_total - no_coupling == pytest.approx(expected_coupling, abs=1e-9)

    def test_complementary_layers_within_contribution_zero(self):
        tri = lambda g: [(g[0], g[1], 1.0), (g[0], g[2], 1.0), (g[1], g[2], 1.0)]
        layer_a = tuple(tri((0, 1, 2)) + tri((3, 4, 5)))
        layer_b = tuple(
            (i, j, 1.0) for i in (0, 1, 2) for j in (3, 4, 5)
        )
        net = MultilayerNetwork(n_nodes=6, aspects=(Aspect("a", ("x", "y")),),
                                within_edges=(layer_a, layer_b))
        params = ModularityParams.for_network(net)
        res = smean_spec(net, CouplingSpec(omega=0.0), params)
        # the mean adjacency is uniform, so nothing to divide and the
        # within-layer score of the broadcast partition cancels to zero
        assert res.q_total == pytest.approx(0.0, abs=1e-9)

    def test_sparse_couplings_hurt_smean(self):
        net0, params = build_karate_replica(4, [0.25, 0.5, 0.75, 1.0])
        spec = CouplingSpec(omega=1.0)
        net = net0.with_couplings(frozenset())  # rho = 0
        r_mean = smean_spec(net, spec, params)
        r_spec = mspec_detect(net, spec, params)
        assert r_mean.q_total < r_spec.q_total

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gamma_plus", [1.0, 3.0])
    def test_signed_identical_layers_match_sfull(self, seed, gamma_plus):
        # the mean of two identical layers is the layer, and the mean of each
        # resolution is the layer's, so smean must split it as sfull does;
        # gamma_plus != gamma tells the '+' resolution from gamma
        rng = np.random.default_rng(seed)
        group = np.arange(24) % 2
        edges = [(i, j, 1.0 if group[i] == group[j] else -1.0)
                 for i in range(24) for j in range(i + 1, 24)
                 if rng.random() < (0.3 if group[i] == group[j] else 0.1)]
        net = MultilayerNetwork(n_nodes=24, aspects=(Aspect("a", ("x", "y")),),
                                within_edges=(edges, edges))
        params = ModularityParams.for_network(net, signed=True, gamma_plus=gamma_plus)
        spec = CouplingSpec(omega=0.0)
        r_mean = smean_spec(net, spec, params)
        r_full = sfull_spec(net, spec, params)
        assert np.array_equal(r_mean.partition.labels[:24], r_full.partition.labels[:24])


class TestSfullSpec:
    def test_single_layer_equals_conventional(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        res = sfull_spec(two_cliques, CouplingSpec(), params)
        newman, _ = quality_matrix(two_cliques, CouplingSpec(), params)
        labels, *_ = spectral_partition(newman)
        pairs = set(zip(res.partition.labels.tolist(), labels.tolist()))
        assert len(pairs) == res.n_communities

    def test_two_identical_layers_double_within_q(self):
        karate, _ = load_karate()
        edges = karate.within_edges[0]
        net = make_net(34, [2], edges_by_cell=(edges, edges),
                       couplings=full_couplings(34, 2))
        params = ModularityParams.for_network(net, gamma=1.0)
        res = sfull_spec(net, CouplingSpec(omega=1.0), params)
        # labels are disjoint across layers: no coupling term survives
        single = ModularityParams.for_network(karate)
        labels_one = res.partition.labels[:34]
        from mlmod import Partition

        q_one = modularity(karate, CouplingSpec(), single,
                           Partition(labels_one))
        assert res.q_total == pytest.approx(2.0 * q_one, abs=1e-9)

    def test_dense_couplings_degrade_sfull(self):
        spec = CouplingSpec(omega=1.0)
        wins = 0
        for seed in range(5):
            net = planted_multilayer(seed).with_couplings(
                full_couplings(16, 3)
            )
            params = ModularityParams.for_network(net)
            r_full = sfull_spec(net, spec, params)
            r_spec = mspec_detect(net, spec, params)
            wins += r_spec.q_total > r_full.q_total
        assert wins >= 4

    def test_reported_q_matches_scorer(self):
        net = planted_multilayer(9).with_couplings(
            generate_couplings(planted_multilayer(9), 0.7, 5)
        )
        params = ModularityParams.for_network(net)
        spec = CouplingSpec(omega=2.0)
        res = sfull_spec(net, spec, params)
        q = modularity(net, spec, params, res.partition)
        assert res.q_total == pytest.approx(q, abs=1e-9 * max(1.0, abs(q)))
