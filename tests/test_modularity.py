from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import (
    CouplingSpec,
    DomainError,
    ModularityParams,
    Partition,
    build_modularity_matrix,
    full_couplings,
    load_karate,
    modularity,
    quality_matrix,
)
from mlmod.network import Couplings

from conftest import make_single_layer
from oracles import (
    best_bipartition,
    dense_adjacency,
    node_index,
    oracle_hamiltonian,
    oracle_matrix,
    oracle_mu,
    q_pairwise,
    random_instance,
    random_partition,
)
from test_network import make_net


def coupling_strength(spec, net, presence, i, s, v, r, w):
    """D's entry between node i's copies in layers (s, v) and (r, w), all
    1-based, with that coupling present (presence 1) or absent (0)."""
    x, y = node_index(i, s, v, net) - 1, node_index(i, r, w, net) - 1
    ca, cb = sorted((x // net.n_nodes, y // net.n_nodes))
    coupled = net.with_couplings({(i - 1, ca, cb)} if presence else ())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # edgeless layers warn
        params = ModularityParams.for_network(coupled)
        return build_modularity_matrix(coupled, spec, params).matrix[x, y]


def null_model_ng(net, i, j):
    """The term k_i k_j / 2m that D subtracts between 1-based nodes i and j
    of a one-layer network at gamma = lambda = 1."""
    qm, _ = quality_matrix(net, CouplingSpec(), ModularityParams.for_network(net))
    return qm.coefs[0, 0] * qm.strengths[0, i - 1] * qm.strengths[0, j - 1]


class TestCouplingStrength:
    def test_uniform_signed_values(self):
        net = make_net(2, [2])
        spec = CouplingSpec(strategy="uniform", omega=1.0)
        assert coupling_strength(spec, net, 1, 1, 1, 1, 2, 1) == 1.0
        assert coupling_strength(spec, net, 0, 1, 1, 1, 2, 1) == -1.0

    def test_temporal_distant_layers_zero(self):
        net = make_net(2, [3])
        spec = CouplingSpec(strategy="temporal", omega=5.0)
        assert coupling_strength(spec, net, 1, 1, 1, 1, 3, 1) == 0.0
        assert coupling_strength(spec, net, 1, 1, 1, 1, 2, 1) == 5.0
        assert coupling_strength(spec, net, 0, 1, 2, 1, 1, 1) == -5.0

    def test_temporal_cross_aspect_zero(self):
        net = make_net(2, [2, 1])
        spec = CouplingSpec(strategy="temporal", omega=1.0)
        assert coupling_strength(spec, net, 1, 1, 1, 1, 1, 2) == 0.0

    def test_closeness_rescaled(self):
        net = make_net(2, [2])
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        spec = CouplingSpec(strategy="closeness", omega=2.0, closeness=m / 0.5)
        # max M = 1 after rescale, entry 1.0: e = 2 * 1 / 1
        assert coupling_strength(spec, net, 1, 1, 1, 1, 2, 1) == 2.0
        spec2 = CouplingSpec(strategy="closeness", omega=2.0,
                             closeness=np.array([[0.0, 0.5], [0.5, 1.0]]))
        assert coupling_strength(spec2, net, 1, 1, 1, 1, 2, 1) == 1.0

    def test_closeness_missing_matrix_rejected(self):
        with pytest.raises(DomainError):
            CouplingSpec(strategy="closeness", omega=1.0)

    def test_closeness_all_zero_rejected(self):
        with pytest.raises(DomainError):
            CouplingSpec(strategy="closeness", omega=1.0, closeness=np.zeros((2, 2)))

    def test_same_cell_rejected(self):
        net = make_net(2, [2])
        spec = CouplingSpec()
        with pytest.raises(DomainError):
            coupling_strength(spec, net, 1, 1, 1, 1, 1, 1)

    def test_explicit_map(self):
        net = make_net(2, [2]).with_couplings(Couplings([(0, 0, 1), (1, 0, 1)], [0.25, 0.0]))
        spec = CouplingSpec(strategy="explicit")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # edgeless layers warn
            d = build_modularity_matrix(net, spec, ModularityParams.for_network(net)).matrix
        assert d[0, 2] == d[2, 0] == 0.25  # node 1's copies carry the magnitude
        assert d[1, 3] == 0.0  # node 2's coupling has none
        # coupling_strength re-couples the network, and new couplings carry no magnitude
        assert coupling_strength(spec, net, 1, 1, 1, 1, 2, 1) == 0.0


class TestNullModel:
    def test_single_edge_half(self):
        net = make_single_layer([(0, 1, 1.0)], 2)
        assert null_model_ng(net, 1, 2) == 0.5

    def test_isolated_node_zero(self):
        net = make_single_layer([(0, 1, 1.0)], 3)
        assert null_model_ng(net, 3, 1) == 0.0
        assert null_model_ng(net, 3, 3) == 0.0

    def test_karate_first_node(self):
        net, _ = load_karate()
        qm, _ = quality_matrix(net, CouplingSpec(), ModularityParams.for_network(net))
        assert qm.coefs[0, 0] == 1.0 / 156.0  # 1 / 2m, m = 78
        assert null_model_ng(net, 1, 1) == pytest.approx(256.0 / 156.0, rel=0, abs=0)


class TestMatrix:
    def test_single_layer_equals_newman(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        dm = build_modularity_matrix(two_cliques, CouplingSpec(), params)
        a = dense_adjacency(two_cliques, 0)
        k = a.sum(axis=1)
        newman = a - np.outer(k, k) / k.sum()
        assert np.abs(dm.matrix - newman).max() <= 1e-12

    def test_absent_couplings_penalty_blocks(self):
        edges = ((0, 1, 1.0),)
        net = make_net(3, [2], edges_by_cell=(edges, edges))  # no couplings
        params = ModularityParams.for_network(net)
        dm = build_modularity_matrix(net, CouplingSpec(omega=0.75), params)
        off = dm.matrix[0:3, 3:6]
        assert np.array_equal(off, -0.75 * np.eye(3))

    def test_chi_two_identical_layers_full_couplings(self):
        edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
        net = make_net(4, [2], edges_by_cell=(edges, edges),
                       couplings=full_couplings(4, 2))
        params = ModularityParams.for_network(net, gamma=1.0)
        omega = 1.25
        dm = build_modularity_matrix(net, CouplingSpec(omega=omega), params)
        assert dm.chi == pytest.approx(2 * 4 * omega, abs=1e-12)
        assert dm.matrix.sum() == pytest.approx(dm.chi, abs=1e-9)

    def test_symmetry_and_chi_on_random_instances(self):
        for seed in range(12):
            net, spec, params = random_instance(seed)
            dm = build_modularity_matrix(net, spec, params)
            assert np.abs(dm.matrix - dm.matrix.T).max() <= 1e-12
            scale = max(1.0, abs(dm.chi))
            assert abs(dm.matrix.sum() - dm.chi) <= 1e-9 * scale
            assert dm.chi == pytest.approx(oracle_matrix(net, spec, params).sum(),
                                           abs=1e-9 * scale)

    def test_gamma_monotonicity(self, two_cliques):
        spec = CouplingSpec()
        lo = build_modularity_matrix(
            two_cliques, spec, ModularityParams.for_network(two_cliques, gamma=0.5)
        ).matrix
        hi = build_modularity_matrix(
            two_cliques, spec, ModularityParams.for_network(two_cliques, gamma=1.5)
        ).matrix
        qm, _ = quality_matrix(two_cliques, spec, ModularityParams.for_network(two_cliques))
        k = qm.strengths[0]
        for i in range(6):
            for j in range(6):
                if k[i] > 0 and k[j] > 0:
                    assert hi[i, j] < lo[i, j]

    def test_empty_layer_warns_and_zeroes(self):
        net = make_net(3, [2], edges_by_cell=(((0, 1, 1.0),), ()))
        params = ModularityParams.for_network(net)
        with pytest.warns(RuntimeWarning):
            dm = build_modularity_matrix(net, CouplingSpec(omega=0.0), params)
        assert not dm.matrix[3:, 3:].any()

    @pytest.mark.parametrize("signed, cells, message", [
        (False, (((0, 1, 1.0),), ()), "layer cell 1 has no edges; its within-layer term is 0"),
        (True, (((0, 1, 1.0),),), "layer cell 0 has no negative edges; its within-layer term is 0"),
        (True, (((0, 1, -1.0),),), "layer cell 0 has no positive edges; its within-layer term is 0"),
    ])
    def test_empty_layer_warning_names_the_missing_edges(self, signed, cells, message):
        net = make_net(3, [len(cells)], edges_by_cell=cells)
        params = ModularityParams.for_network(net, signed=signed)
        with pytest.warns(RuntimeWarning, match=f"^{message}$"):
            quality_matrix(net, CouplingSpec(), params)

    def test_negative_edges_need_signed(self, signed_triangle):
        params = ModularityParams.for_network(signed_triangle)
        with pytest.raises(DomainError):
            build_modularity_matrix(signed_triangle, CouplingSpec(), params)


class TestModularityScore:
    def test_whole_network_single_community_zero(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        part = Partition(np.zeros(6, dtype=int))
        assert modularity(two_cliques, CouplingSpec(), params, part) == pytest.approx(0.0, abs=1e-12)

    def test_coupling_reward_all_present_co_assigned(self):
        edges = ((0, 1, 1.0),)
        net = make_net(3, [3], edges_by_cell=(edges, edges, edges),
                       couplings=full_couplings(3, 3))
        params = ModularityParams.for_network(net, gamma=1.0)
        omega = 0.5
        part = Partition(np.zeros(net.supra_size, dtype=int))
        q = modularity(net, CouplingSpec(omega=omega), params, part)
        ordered_pairs = 3 * 3 * 2  # nodes x ordered layer pairs
        # within-layer single-community term is 0 at gamma=1
        assert q == pytest.approx(omega * ordered_pairs, abs=1e-12)

    def test_two_clique_bipartition_is_brute_force_best(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        best_gain, best_z = best_bipartition(oracle_matrix(two_cliques, CouplingSpec(), params))
        clique_split = Partition(np.array([0, 0, 0, 1, 1, 1]))
        q_split = modularity(two_cliques, CouplingSpec(), params, clique_split)
        q_together = modularity(
            two_cliques, CouplingSpec(), params, Partition(np.zeros(6, dtype=int))
        )
        assert q_split - q_together == pytest.approx(best_gain, abs=1e-9)
        assert set(np.flatnonzero(best_z < 0).tolist()) in ({0, 1, 2}, {3, 4, 5})

    def test_unlabeled_cells_rejected(self, two_cliques):
        params = ModularityParams.for_network(two_cliques)
        with pytest.raises(DomainError):
            modularity(two_cliques, CouplingSpec(), params,
                       Partition(np.zeros(5, dtype=int)))

    def test_matrix_vs_sum_equivalence(self, rng):
        for seed in range(15):
            net, spec, params = random_instance(seed + 100)
            d = oracle_matrix(net, spec, params)
            labels = random_partition(rng, net.supra_size)
            q_fast = modularity(net, spec, params, Partition(labels))
            q_oracle = q_pairwise(d, labels)
            assert q_fast == pytest.approx(q_oracle, abs=1e-9 * max(1, abs(q_oracle)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), perm_seed=st.integers(0, 1000))
    def test_label_permutation_invariance(self, seed, perm_seed):
        net, spec, params = random_instance(seed)
        rng = np.random.default_rng(perm_seed)
        labels = random_partition(rng, net.supra_size, 4)
        remap = rng.permutation(8)
        relabeled = np.array([remap[l] for l in labels])
        q1 = modularity(net, spec, params, Partition(labels))
        q2 = modularity(net, spec, params, Partition(relabeled))
        assert q1 == pytest.approx(q2, abs=1e-9 * max(1, abs(q1)))

    def test_single_layer_reduction_to_conventional(self, rng):
        net, truth = load_karate()
        params = ModularityParams.for_network(net)
        a = dense_adjacency(net, 0)
        k = a.sum(axis=1)
        two_m = k.sum()
        for _ in range(5):
            labels = random_partition(rng, 34, 4)
            same = labels[:, None] == labels[None, :]
            q_conv = float(((a - np.outer(k, k) / two_m) * same).sum()) / two_m
            q_raw = modularity(net, CouplingSpec(), params, Partition(labels))
            assert q_raw == pytest.approx(two_m * q_conv, abs=1e-9)

    def test_layer_weights_scale_within_terms(self, rng):
        net, _, _ = random_instance(55)
        spec = CouplingSpec(omega=0.5)
        params = ModularityParams.for_network(
            net, gamma=1.0, lam=[0.5 + 0.5 * t for t in range(net.n_cells)]
        )
        d = oracle_matrix(net, spec, params)
        labels = random_partition(rng, net.supra_size)
        q_fast = modularity(net, spec, params, Partition(labels))
        q_oracle = q_pairwise(d, labels)
        assert q_fast == pytest.approx(q_oracle, abs=1e-9 * max(1, abs(q_oracle)))
        chi = quality_matrix(net, spec, params)[1]
        scale = max(1.0, abs(chi))
        assert abs(d.sum() - chi) <= 1e-9 * scale
        # doubling one layer's weight doubles that block only
        boosted = ModularityParams.for_network(
            net, gamma=1.0,
            lam=[1.0 + float(t == 0) for t in range(net.n_cells)],
        )
        base = ModularityParams.for_network(net, gamma=1.0)
        m_base = build_modularity_matrix(net, spec, base).matrix
        m_boost = build_modularity_matrix(net, spec, boosted).matrix
        n = net.n_nodes
        assert np.allclose(m_boost[:n, :n], 2.0 * m_base[:n, :n])
        assert np.array_equal(m_boost[n:, n:], m_base[n:, n:])

    def test_normalized_mode(self, two_cliques):
        raw = ModularityParams.for_network(two_cliques)
        norm = ModularityParams.for_network(two_cliques, normalization="normalized")
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        mu = oracle_mu(two_cliques, CouplingSpec())
        assert mu == pytest.approx(2 * 6.0)
        q_raw = modularity(two_cliques, CouplingSpec(), raw, part)
        q_norm = modularity(two_cliques, CouplingSpec(), norm, part)
        assert q_norm == pytest.approx(q_raw / mu, abs=1e-12)


class TestSigned:
    def test_reduction_no_negative_edges(self, two_cliques, rng):
        spec = CouplingSpec()
        unsigned = ModularityParams.for_network(two_cliques)
        signed = ModularityParams.for_network(two_cliques, signed=True)
        for _ in range(5):
            labels = random_partition(rng, 6, 3)
            q_u = modularity(two_cliques, spec, unsigned, Partition(labels))
            with pytest.warns(RuntimeWarning):  # empty negative subset diagnostic
                q_s = modularity(two_cliques, spec, signed, Partition(labels))
            assert q_s == q_u

    def test_negative_edge_punishes_co_assignment(self):
        net = make_single_layer([(0, 1, -1.0)], 2)
        params = ModularityParams.for_network(net, signed=True)
        spec = CouplingSpec()
        with pytest.warns(RuntimeWarning):
            together = modularity(net, spec, params, Partition(np.array([0, 0])))
        with pytest.warns(RuntimeWarning):
            apart = modularity(net, spec, params, Partition(np.array([0, 1])))
        # co-assigning the endpoints of the negative edge costs exactly the
        # ordered-pair edge contribution: -(1 - 0.5) * 2
        assert together - apart == pytest.approx(-1.0, abs=1e-12)

    def test_signed_triangle_best_separates_negative_edge(self, signed_triangle):
        params = ModularityParams.for_network(signed_triangle, signed=True)
        spec = CouplingSpec()
        best_q = -np.inf
        best_labels = None
        for labels in ([0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]):
            q = modularity(signed_triangle, spec, params,
                                  Partition(np.array(labels)))
            if q > best_q:
                best_q = q
                best_labels = labels
        # nodes 2 and 3 (the negative edge) end up separated
        assert best_labels[1] != best_labels[2]

    def test_signed_requires_flag(self, signed_triangle):
        params = ModularityParams.for_network(signed_triangle)
        with pytest.raises(DomainError):
            modularity(signed_triangle, CouplingSpec(), params,
                              Partition(np.zeros(3, dtype=int)))


class TestHamiltonian:
    def test_no_couplings_gamma_one(self, two_cliques, rng):
        params = ModularityParams.for_network(two_cliques)
        spec = CouplingSpec()
        for _ in range(5):
            labels = random_partition(rng, 6, 3)
            part = Partition(labels)
            h = oracle_hamiltonian(oracle_matrix(two_cliques, spec, params), labels)
            q = modularity(two_cliques, spec, params, part)
            assert h == pytest.approx(-2.0 * q, abs=1e-9)

    def test_bias_constant_over_partitions(self, rng):
        net, spec, params = random_instance(7)
        d = oracle_matrix(net, spec, params)
        biases = []
        for _ in range(20):
            labels = random_partition(rng, net.supra_size)
            part = Partition(labels)
            h = oracle_hamiltonian(d, labels)
            q = modularity(net, spec, params, part)
            biases.append(-h / 2.0 - q)
        spread = max(biases) - min(biases)
        scale = max(1.0, max(abs(b) for b in biases))
        assert spread <= 1e-9 * scale
        # and the constant is -chi/2
        assert biases[0] == pytest.approx(-quality_matrix(net, spec, params)[1] / 2.0,
                                          abs=1e-9 * scale)

    def test_bias_identity_with_layer_weights(self, rng):
        net, _, _ = random_instance(21)
        spec = CouplingSpec(omega=1.0)
        params = ModularityParams.for_network(
            net, gamma=0.7, lam=[1.0 + 0.25 * t for t in range(net.n_cells)]
        )
        d = oracle_matrix(net, spec, params)
        chi = quality_matrix(net, spec, params)[1]
        for _ in range(5):
            part = Partition(random_partition(rng, net.supra_size))
            h = oracle_hamiltonian(d, part.labels)
            q = modularity(net, spec, params, part)
            assert -h / 2.0 - q == pytest.approx(-chi / 2.0,
                                                 abs=1e-9 * max(1.0, abs(chi)))

    def test_empty_network_zero(self):
        net = make_net(3, [2])
        params = ModularityParams.for_network(net)
        spec = CouplingSpec(omega=0.0)
        labels = np.zeros(6, dtype=int)
        with pytest.warns(RuntimeWarning):
            q = modularity(net, spec, params, Partition(labels))
        h = oracle_hamiltonian(oracle_matrix(net, spec, params), labels)
        assert h == 0.0
        assert q == 0.0
