from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import (
    Aspect,
    CouplingSpec,
    DomainError,
    ModularityParams,
    MultilayerNetwork,
    full_couplings,
    generate_couplings,
    load_multiplex,
    quality_matrix,
)
from mlmod.io import _cells

from conftest import make_single_layer
from oracles import dense_adjacency, inverse_node_index, node_index


def make_net(n_nodes, aspect_sizes, edges_by_cell=None, couplings=frozenset()):
    aspects = tuple(
        Aspect(f"a{v}", tuple(f"l{v}.{s}" for s in range(size)))
        for v, size in enumerate(aspect_sizes)
    )
    n_cells = sum(aspect_sizes)
    edges = edges_by_cell or tuple(() for _ in range(n_cells))
    return MultilayerNetwork(n_nodes=n_nodes, aspects=aspects,
                             within_edges=tuple(edges), couplings=couplings)


class TestNodeIndex:
    def test_first_cell_first_node(self):
        net = make_net(3, [2])
        assert node_index(1, 1, 1, net) == 1

    def test_karate_sized_second_layer(self):
        net = make_net(34, [10])
        assert node_index(3, 2, 1, net) == 37

    def test_second_aspect_offset(self):
        net = make_net(2, [2, 1])
        assert node_index(2, 1, 2, net) == 6

    def test_out_of_range(self):
        net = make_net(3, [2])
        with pytest.raises(DomainError):
            node_index(4, 1, 1, net)
        with pytest.raises(DomainError):
            node_index(1, 3, 1, net)
        with pytest.raises(DomainError):
            node_index(1, 1, 2, net)

    @settings(max_examples=60, deadline=None)
    @given(
        n_nodes=st.integers(1, 8),
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_round_trip_bijection(self, n_nodes, sizes, data):
        net = make_net(n_nodes, sizes)
        x = data.draw(st.integers(1, net.supra_size))
        i, s, v = inverse_node_index(x, net)
        assert node_index(i, s, v, net) == x
        assert _cells(net.aspect_sizes, np.array([s]), np.array([v]))[0] * net.n_nodes + i == x

    def test_covers_full_range(self):
        net = make_net(3, [2, 2])
        seen = {
            node_index(i, s, v, net)
            for v in (1, 2)
            for s in (1, 2)
            for i in (1, 2, 3)
        }
        assert seen == set(range(1, net.supra_size + 1))


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            make_single_layer([(2, 2, 1.0)], 4)

    def test_bad_coupling_node(self):
        with pytest.raises(DomainError):
            make_net(2, [2], couplings=frozenset({(5, 0, 1)}))

    def test_bad_coupling_cells(self):
        with pytest.raises(DomainError):
            make_net(2, [2], couplings=frozenset({(0, 1, 1)}))


def build_supra_adjacency(net, spec, signed=False):
    """B, the sparse part of the factored D, as a dense array: the layer
    adjacencies (lambda = 1) on the diagonal blocks and the signed coupling
    strengths on the node diagonals of the off-diagonal blocks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # edgeless layers warn
        qm, _ = quality_matrix(net, spec, ModularityParams.for_network(net, signed=signed))
    out = np.zeros((qm.size, qm.size))
    out[np.repeat(np.arange(qm.size), np.diff(qm.indptr)), qm.indices] = qm.data
    return out


class TestSupraAdjacency:
    def test_single_layer_no_couplings_identity(self, two_cliques, uniform_spec):
        supra = build_supra_adjacency(two_cliques, uniform_spec)
        assert np.array_equal(supra, dense_adjacency(two_cliques, 0))

    def test_two_layers_full_couplings_omega_blocks(self):
        edges = ((0, 1, 1.0),)
        net = make_net(3, [2], edges_by_cell=(edges, edges),
                       couplings=full_couplings(3, 2))
        spec = CouplingSpec(strategy="uniform", omega=0.5)
        supra = build_supra_adjacency(net, spec)
        off = supra[0:3, 3:6]
        assert np.array_equal(off, 0.5 * np.eye(3))
        assert np.array_equal(supra, supra.T)

    def test_single_coupling_lands_on_node_diagonal(self):
        edges = ((0, 1, 2.0), (1, 2, 1.0))
        net = make_net(3, [2], edges_by_cell=(edges, edges),
                       couplings=frozenset({(1, 0, 1)}))
        spec = CouplingSpec(strategy="uniform", omega=1.0)
        supra = build_supra_adjacency(net, spec)
        off = supra[0:3, 3:6]
        expected = -np.eye(3)  # absent couplings enter with -e
        expected[1, 1] = 1.0
        assert np.array_equal(off, expected)

    def test_no_couplings_block_diagonal(self):
        edges = ((0, 1, 1.0),)
        net = make_net(3, [3], edges_by_cell=(edges, edges, edges))
        supra = build_supra_adjacency(net, CouplingSpec(omega=2.0))
        for a in range(3):
            for b in range(3):
                block = supra[3 * a:3 * a + 3, 3 * b:3 * b + 3]
                if a != b:  # only node-copy entries, each an absent coupling
                    assert np.array_equal(block, -2.0 * np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(2, 5))
        n_cells = int(rng.integers(1, 4))
        edges = []
        for _ in range(n_cells):
            cell = []
            for i in range(n_nodes):
                for j in range(i + 1, n_nodes):
                    if rng.random() < 0.5:
                        cell.append((i, j, float(rng.normal())))
            edges.append(tuple(cell))
        net = make_net(n_nodes, [n_cells], edges_by_cell=tuple(edges))
        net = net.with_couplings(generate_couplings(net, 0.5, seed))
        supra = build_supra_adjacency(net, CouplingSpec(omega=1.5), signed=True)
        assert np.array_equal(supra, supra.T)


class TestGenerateCouplings:
    def test_rho_zero_empty(self):
        net = make_net(5, [3])
        assert generate_couplings(net, 0.0, 123) == frozenset()

    def test_rho_one_all_copies(self):
        net = make_net(4, [3])
        got = generate_couplings(net, 1.0, 7)
        assert got == full_couplings(4, 3)
        assert len(got) == 3 * 4  # 3 unordered layer pairs x 4 nodes

    def test_binomial_count_and_determinism(self):
        net = make_net(100, [2])
        a = generate_couplings(net, 0.5, 42)
        b = generate_couplings(net, 0.5, 42)
        assert a == b
        assert 35 <= len(a) <= 65  # 3 sigma around Binomial(100, 0.5)
        c = generate_couplings(net, 0.5, 43)
        assert c != a

    def test_bad_rho(self):
        net = make_net(3, [2])
        with pytest.raises(DomainError):
            generate_couplings(net, 1.5, 0)
        with pytest.raises(DomainError):
            generate_couplings(net, -0.1, 0)


class TestAspectGrid:
    """Aspect-aspect grid files flatten row-major into one aspect, and the
    network keeps the grid's dims."""

    def test_identity_single_cell(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 1\n1 1 2 1.0\n")
        net = load_multiplex(str(p), n_nodes=3)
        assert net.n_cells == 1
        assert net.within_edges[0] == ((0, 1, 1.0),)
        assert net.dims == (1,)

    def test_row_major_enumeration(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 2 3\n" + "".join(  # lines in reverse order
            f"{a + 1},{b + 1} 1 2 {a * 3 + b + 1}\n" for a in (1, 0) for b in (2, 1, 0)))
        net = load_multiplex(str(p))
        assert net.n_cells == 6
        assert net.dims == (2, 3)
        assert net.aspects[0].layers == ("L1-1", "L1-2", "L1-3", "L2-1", "L2-2", "L2-3")
        for t in range(6):  # cell t = a * 3 + b holds the edge of weight t + 1
            assert net.within_edges[t][0][2] == float(t + 1)

    def test_couplings_along_first_aspect_only(self, tmp_path):
        p, c = tmp_path / "grid.txt", tmp_path / "c.txt"
        p.write_text("#dims 2 2\n")
        c.write_text("1 1,1 2,1\n1 2,2 1,2\n")  # first index varies
        net = load_multiplex(str(p), n_nodes=2, coupling_path=str(c))
        # row-major cells: (1,1) -> 0, (1,2) -> 1, (2,1) -> 2, (2,2) -> 3
        assert set(net.couplings) == {(0, 0, 2), (0, 1, 3)}
        for node, ta, tb in net.couplings:  # coupled cells differ exactly in the first index
            first, second = np.unravel_index([ta, tb], net.dims)
            assert first[0] != first[1] and second[0] == second[1]

    def test_a_flat_network_has_no_dims(self, two_cliques):
        assert two_cliques.dims is None

    def test_dims_must_hold_the_layer_cells(self, two_cliques):
        with pytest.raises(DomainError, match=r"grid dims \(2, 2\) do not hold"):
            dataclasses.replace(two_cliques, dims=(2, 2))

    def test_temporal_refused_on_a_grid_of_two_aspects(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("#dims 2 3\n" + "".join(f"{a},{b} 1 2\n" for a in (1, 2) for b in (1, 2, 3)))
        net = load_multiplex(str(p))
        params = ModularityParams.for_network(net)
        with pytest.raises(DomainError, match="temporal coupling on a 2x3 grid .* closeness or "
                                              "explicit"):
            quality_matrix(net, CouplingSpec("temporal", 1.0), params)
        quality_matrix(net, CouplingSpec("uniform", 1.0), params)

    def test_temporal_kept_on_a_one_aspect_grid(self, tmp_path):
        p, flat = tmp_path / "grid.txt", tmp_path / "flat.txt"
        p.write_text("#dims 3\n1 1 2\n2 2 3\n3 1 3\n")
        flat.write_text("1 1 2\n2 2 3\n3 1 3\n")
        grid_net, flat_net = load_multiplex(str(p)), load_multiplex(str(flat))
        assert grid_net.dims == (3,)
        spec = CouplingSpec("temporal", 1.0)
        params = ModularityParams.for_network(flat_net)
        grid_chi, flat_chi = (quality_matrix(net, spec, params)[1] for net in (grid_net, flat_net))
        assert grid_chi == flat_chi


def test_layer_stats_strength_sum(two_cliques):
    stats = two_cliques.layer_stats(0)
    assert stats.total_weight == 6.0
    assert stats.strengths.sum() == 2.0 * stats.total_weight
