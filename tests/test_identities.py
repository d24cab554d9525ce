"""The identities of the static derivation as properties of random small
instances: all four coupling strategies, signed weights, two aspects, an
edgeless layer and a lambda = 0 layer.  The references are D, H and mu
built from their definitions in ``oracles``, which share no code with the
package's computations.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlmod import (
    Aspect,
    CouplingSpec,
    ModularityParams,
    MultilayerNetwork,
    Partition,
    build_modularity_matrix,
    modularity,
    mspec_detect,
    quality_matrix,
)

from mlmod.network import Couplings

from oracles import oracle_hamiltonian, oracle_matrix, oracle_mu, q_pairwise
from test_quality_matrix import instances


@pytest.fixture(autouse=True)
def _quiet_edgeless_layers():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # edgeless layers warn
        yield


def _labels(net, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, int(rng.integers(1, net.supra_size + 1)), net.supra_size)


def _scale(d):
    return max(1.0, float(np.abs(d).sum()))


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_q_is_the_same_community_sum_of_d(instance, seed):
    net, spec, params, _ = instance
    d = oracle_matrix(net, spec, params)
    labels = _labels(net, seed)
    q = modularity(net, spec, params, Partition(labels))
    assert abs(q - q_pairwise(d, labels)) <= 1e-12 * _scale(d)


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_hamiltonian_less_q_is_minus_half_chi(instance, seed):
    net, spec, params, _ = instance
    d = oracle_matrix(net, spec, params)
    labels = _labels(net, seed)
    q = modularity(net, spec, params, Partition(labels))
    chi = quality_matrix(net, spec, params)[1]
    assert abs(-oracle_hamiltonian(d, labels) / 2.0 - q + chi / 2.0) <= 1e-12 * _scale(d)


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_normalized_q_is_raw_q_over_mu(instance, seed):
    net, spec, params, _ = instance
    labels = Partition(_labels(net, seed))
    q_raw = modularity(net, spec, params, labels)
    normalized = dataclasses.replace(params, normalization="normalized")
    q_norm = modularity(net, spec, normalized, labels)
    mu = oracle_mu(net, spec)
    if mu == 0.0:
        assert q_norm == 0.0
    else:
        assert abs(q_norm - q_raw / mu) <= 1e-12 * max(1.0, abs(q_raw)) / mu


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_q_ignores_community_ids(instance, seed):
    net, spec, params, _ = instance
    labels = _labels(net, seed)
    ids = np.random.default_rng(seed + 1).permutation(labels.max() + 5) - 2
    q = modularity(net, spec, params, Partition(labels))
    q_renamed = modularity(net, spec, params, Partition(ids[labels]))
    assert abs(q - q_renamed) <= 1e-12 * _scale(oracle_matrix(net, spec, params))


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_q_ignores_node_ids(instance, seed):
    # the same permutation of the node ids in every layer, in the couplings
    # (magnitudes travel with their rows) and in the partition
    net, spec, params, _ = instance
    labels = _labels(net, seed)
    perm = np.random.default_rng(seed + 2).permutation(net.n_nodes)
    rows = net.couplings.rows
    relabelled = MultilayerNetwork(
        n_nodes=net.n_nodes, aspects=net.aspects,
        within_edges=tuple(tuple((int(min(perm[i], perm[j])), int(max(perm[i], perm[j])), w)
                                 for i, j, w in edges) for edges in net.within_edges),
        couplings=Couplings(np.column_stack((perm[rows[:, 0]], rows[:, 1:])),
                            net.couplings.magnitude))
    moved = np.empty_like(labels).reshape(net.n_cells, net.n_nodes)
    moved[:, perm] = labels.reshape(net.n_cells, net.n_nodes)
    q = modularity(net, spec, params, Partition(labels))
    q_relabelled = modularity(relabelled, spec, params, Partition(moved.ravel()))
    assert abs(q - q_relabelled) <= 1e-12 * _scale(oracle_matrix(net, spec, params))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_dense_d_is_the_oracle(instance):
    net, spec, params, _ = instance
    d = oracle_matrix(net, spec, params)
    dense = build_modularity_matrix(net, spec, params).matrix
    assert np.abs(dense - d).max() <= 1e-12 * max(1.0, float(np.abs(d).sum(axis=1).max()))


def _relocating_instance():
    """An instance on which mspec's relocation pass gains 0.1875; on the
    drawn instances that pass rarely moves a vertex."""
    net = MultilayerNetwork(
        n_nodes=5, aspects=(Aspect("a0", ("l0", "l1", "l2")),),
        within_edges=((), ((0, 3, 0.5), (1, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5)), ()),
        couplings=frozenset({(1, 0, 2), (2, 0, 1), (2, 0, 2)}),
    )
    params = ModularityParams.for_network(net, gamma=0.5, lam=(0.0, 0.5, 0.5))
    return net, CouplingSpec(omega=0.5), params, np.arange(1)


@settings(max_examples=100, deadline=None)
@given(instances(), st.booleans())
@example(_relocating_instance(), True)
def test_mspec_q_total_is_chi_plus_applied_gains_plus_relocation(instance, refine):
    net, spec, params, _ = instance
    d = oracle_matrix(net, spec, params)
    res = mspec_detect(net, spec, params, refine=refine)
    applied = sum(div.delta_q for div in res.divisions if div.applied)
    total = float(d.sum()) + applied + float(res.meta["q_relocation"])
    assert abs(res.q_total - total) <= 1e-12 * _scale(d)
