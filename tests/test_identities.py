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
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import Partition, build_modularity_matrix, modularity, quality_matrix

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
@given(instances())
def test_dense_d_is_the_oracle(instance):
    net, spec, params, _ = instance
    d = oracle_matrix(net, spec, params)
    dense = build_modularity_matrix(net, spec, params).matrix
    assert np.abs(dense - d).max() <= 1e-12 * max(1.0, float(np.abs(d).sum(axis=1).max()))
