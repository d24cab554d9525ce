"""The factored quality matrix against the oracle D.

Every check compares ``quality_matrix``, its dense subdivisions and its
matrix-free ``Subdivision`` views with D built entry by entry from its
definition and the dense subdivision oracle, over small random instances
covering all coupling strategies, signed weights, two aspects, an
edgeless layer and a lambda = 0 layer.  Views are built directly here:
``subdivision_matrix`` returns them only above ``mspec._FORM_MAX``
members of a D above 512 rows.  Relocation is compared bit for bit with
the one-vertex-at-a-time reference sweep.
"""

from __future__ import annotations

import functools
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import (
    Aspect,
    CouplingSpec,
    ModularityParams,
    MultilayerNetwork,
    build_karate_replica,
    generate_couplings,
    quality_matrix,
)
from mlmod.eigen import _dense_checks
from mlmod.modularity import Subdivision
from mlmod.network import Couplings
from mlmod.mspec import (_FORM_MAX, _GAIN_EPS, _sign_split, kl_relocate, refine_cut,
                         subdivision_matrix)
from mlmod.params import COUPLING_STRATEGIES

from conftest import make_single_layer
from oracles import (
    bit_symmetric,
    csr_reference,
    dense_subdivision,
    oracle_matrix,
    q_pairwise,
    relocate_reference,
    take_reference,
)


@st.composite
def instances(draw):
    n_nodes = draw(st.integers(2, 5))
    sizes = draw(st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2), (2, 2)]))
    n_cells = sum(sizes)
    signed = draw(st.booleans())
    weights = [0.5, 1.0, 2.0] + ([-1.0, -2.5] if signed else [])
    edgeless = draw(st.integers(-1, n_cells - 1))
    layers = []
    for t in range(n_cells):
        edges = []
        for i, j in itertools.combinations(range(n_nodes), 2):
            if t != edgeless and draw(st.booleans()):
                edges.append((i, j, draw(st.sampled_from(weights))))
        layers.append(tuple(edges))
    aspects = tuple(Aspect(f"a{v}", tuple(f"l{s}" for s in range(size)))
                    for v, size in enumerate(sizes))
    candidates = [(node, ca, cb) for ca, cb in itertools.combinations(range(n_cells), 2)
                  for node in range(n_nodes)]
    present = draw(st.lists(st.booleans(), min_size=len(candidates),
                            max_size=len(candidates)))
    net = MultilayerNetwork(
        n_nodes=n_nodes, aspects=aspects, within_edges=tuple(layers),
        couplings=frozenset(c for c, on in zip(candidates, present) if on),
    )
    strategy = draw(st.sampled_from(COUPLING_STRATEGIES))
    omega = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    closeness = None
    if strategy == "closeness":
        # a zero entry gives its cell pairs amplitude 0; the maximum stays > 0
        a = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                   min_size=n_cells * n_cells, max_size=n_cells * n_cells)))
        closeness = a.reshape(n_cells, n_cells) + a.reshape(n_cells, n_cells).T
        closeness.flat[0] = max(closeness.flat[0], 1.0)
    if strategy == "explicit":  # magnitudes ride on the present couplings
        net = net.with_couplings(Couplings(net.couplings.rows, [
            draw(st.sampled_from([0.0, 0.25, 1.0])) for _ in net.couplings]))
    spec = CouplingSpec(strategy=strategy, omega=omega, closeness=closeness)
    lam_zero = draw(st.integers(-1, n_cells - 1))
    lam = [0.0 if t == lam_zero else draw(st.sampled_from([0.5, 1.0, 2.0]))
           for t in range(n_cells)]
    gamma = [draw(st.sampled_from([0.5, 1.0, 1.5])) for _ in range(n_cells)]
    gamma_minus = [draw(st.sampled_from([0.5, 1.0])) for _ in range(n_cells)]
    params = ModularityParams.for_network(net, gamma=gamma, lam=lam, signed=signed,
                                          gamma_minus=gamma_minus if signed else None)
    members = draw(st.lists(st.integers(0, net.supra_size - 1), min_size=1,
                            max_size=net.supra_size, unique=True))
    return net, spec, params, np.array(members)


def _build(net, spec, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # edgeless layers warn
        return oracle_matrix(net, spec, params), quality_matrix(net, spec, params)


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_subdivision_view_equals_dense_reference(instance, seed):
    net, spec, params, members = instance
    d, (qm, chi) = _build(net, spec, params)
    ref = dense_subdivision(d, members)
    scale = max(1.0, float(np.abs(ref).sum(axis=1).max()))
    tol = 1e-12 * scale
    assert abs(chi - d.sum()) <= 1e-12 * max(1.0, float(np.abs(d).sum()))
    sub = subdivision_matrix(qm, members)  # dense: D has at most 512 rows
    assert np.abs(sub - ref).max() <= tol
    view = Subdivision(qm, members)
    assert view.shape == ref.shape
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, members.size)
    assert np.abs(view.matvec(x) - ref @ x).max() <= tol
    assert np.abs(view.diagonal() - np.diagonal(ref)).max() <= tol
    for j in range(members.size):
        assert np.abs(view.column(j) - ref[:, j]).max() <= tol
    assert abs(view.norm_inf() - float(np.abs(ref).sum(axis=1).max())) <= tol
    # symmetric by construction, which no solve checks on a Subdivision: B
    # and its takes mirror bit for bit, and so does a dense subdivision,
    # which LAPACK then works in
    for take in (qm, qm.take(members)):
        assert bit_symmetric(take.indptr, take.indices, take.data)
    assert _dense_checks(sub)[1]


def _check_refined_cut(sub, m, u):
    """``refine_cut(sub, z)`` from the sign-rule split z of ``u`` against
    the oracle subdivision ``m``.  A cell's gain is refine_cut's own: half
    the change of z'mz when the cell flips, recomputed here from ``m``.
    Rounding tolerance: 1e-9 x the largest absolute row sum of ``m``, far
    above the 1e-12 x that sum within which a subdivision equals the oracle
    and the (cells + 3 flips) x machine epsilon x that sum by which the
    incremental update of m z can drift; the quadratic forms, sums of n
    such rows, get n times it."""
    z0 = _sign_split(u)
    z = refine_cut(sub, z0)
    n = z.size
    tol = 1e-9 * max(1.0, float(np.abs(m).sum(axis=1).max()))
    assert np.array_equal(np.abs(z), np.ones(n))
    assert z @ m @ z >= z0 @ m @ z0 - n * tol
    gains = 2.0 * (np.diagonal(m) - z * (m @ z))
    assert gains.max() <= _GAIN_EPS + tol


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_refined_dense_cut_has_no_gaining_flip(instance, seed):
    net, spec, params, members = instance
    d, (qm, _) = _build(net, spec, params)
    sub = subdivision_matrix(qm, members)
    assert isinstance(sub, np.ndarray)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, members.size)
    _check_refined_cut(sub, dense_subdivision(d, members), u)


@functools.cache
def _synthetic_600():
    """Two layers of G(300, 0.03) with weights in [0.1, 2) that round, and
    rho = 0.5 couplings: 600 rows, above mspec._DENSE_MAX = 512, so a
    subdivision above _FORM_MAX members is matrix-free; and its oracle D."""
    rng = np.random.default_rng(600)
    layers = []
    for _ in range(2):
        pairs = [p for p in itertools.combinations(range(300), 2) if rng.random() < 0.03]
        layers.append(tuple((i, j, float(w)) for (i, j), w in
                            zip(pairs, rng.uniform(0.1, 2.0, len(pairs)))))
    net = MultilayerNetwork(n_nodes=300, aspects=(Aspect("a", ("l0", "l1")),),
                            within_edges=tuple(layers))
    net = net.with_couplings(generate_couplings(net, 0.5, 600))
    params = ModularityParams.for_network(net, gamma=[0.9, 1.1])
    return _build(net, CouplingSpec(omega=0.5), params)


@settings(max_examples=20, deadline=None)
@given(st.integers(_FORM_MAX + 1, 600), st.integers(0, 2**32 - 1))
def test_refined_matrix_free_cut_has_no_gaining_flip(size, seed):
    d, (qm, _) = _synthetic_600()
    rng = np.random.default_rng(seed)
    members = rng.permutation(qm.size)[:size]
    sub = subdivision_matrix(qm, members)
    assert isinstance(sub, Subdivision)
    _check_refined_cut(sub, dense_subdivision(d, members), rng.uniform(-1.0, 1.0, size))


FIELDS = ("indptr", "indices", "data")


@settings(max_examples=150, deadline=None)
@given(instances())
def test_csr_and_takes_equal_the_stable_sort_reference(instance):
    # entry for entry and in order: the CSR products sum each row in it
    net, spec, params, members = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # edgeless layers warn
        qm, _ = quality_matrix(net, spec, params)
    for reference, matrix in ((csr_reference(net, spec, params), qm),
                              (take_reference(qm, members), qm.take(members))):
        for name, want in zip(FIELDS, reference):
            got = getattr(matrix, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    whole = qm.take(np.arange(qm.size))
    for name in FIELDS + ("cells", "strengths", "coefs"):
        assert getattr(whole, name) is getattr(qm, name), name


@pytest.mark.parametrize("strategy", ["temporal", "explicit"])
def test_coupling_block_costs_its_live_couplings(strategy):
    # 400 one-aspect cells of 64 nodes have 79,800 cell pairs; temporal
    # couples 399 of them, and the coupling list names 399 couplings per
    # node.  One float per candidate (cell pair, node) alone is 41 MB
    n_nodes, n_cells = 64, 400
    net = MultilayerNetwork(n_nodes=n_nodes,
                            aspects=(Aspect("t", tuple(f"l{t}" for t in range(n_cells))),),
                            within_edges=tuple(((0, 1, 1.0),) for _ in range(n_cells)))
    rows = [(node, t, t + 1) for node in range(n_nodes) for t in range(n_cells - 1)]
    net = net.with_couplings(Couplings(rows, np.full(len(rows), 0.5)))
    params = ModularityParams.for_network(net)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        qm, _ = quality_matrix(net, CouplingSpec(strategy, 1.0), params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert qm.data.size == 2 * (n_cells + len(rows))
    assert peak < 16 * 2**20


def test_quality_matrix_arrays_are_read_only():
    net, params = build_karate_replica(2, [0.5, 1.0])
    qm, _ = quality_matrix(net, CouplingSpec(omega=1.0), params)
    for matrix in (qm, qm.take(np.arange(qm.size)), qm.take([3, 1, 2])):
        for name in FIELDS + ("cells", "strengths", "coefs"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(matrix, name)[0] = 0


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_relocation_gain_equals_q_change(instance, seed):
    net, spec, params, _ = instance
    d, (qm, _) = _build(net, spec, params)
    n = net.supra_size
    before = np.random.default_rng(seed).integers(0, max(1, n // 2), n)
    after, gain = kl_relocate(qm, before)
    change = q_pairwise(d, after) - q_pairwise(d, before)
    assert abs(gain - change) <= 1e-9 * max(1.0, float(np.abs(d).sum()))


def _same_relocation(qm, labels, max_sweeps=10):
    ref_labels, ref_gain = relocate_reference(qm, labels, max_sweeps)
    got_labels, got_gain = kl_relocate(qm, labels, max_sweeps)
    assert np.array_equal(got_labels, ref_labels)
    assert got_gain == ref_gain
    return ref_labels


@settings(max_examples=200, deadline=None)
@given(instances(), st.integers(1, 40), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_relocation_equals_one_vertex_sweep(instance, n_labels, max_sweeps, seed):
    net, spec, params, _ = instance
    _, (qm, _) = _build(net, spec, params)
    n = net.supra_size  # labels index the n + 1 community slots, so stay below n
    start = np.random.default_rng(seed).integers(0, min(n_labels, n), n)
    _same_relocation(qm, start, max_sweeps)


def _single_layer_matrix(n_nodes, edges, signed=False):
    net = make_single_layer(edges, n_nodes)
    return quality_matrix(net, CouplingSpec(), ModularityParams.for_network(net, signed=signed))[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relocation_on_signed_weights_that_round(seed):
    # non-dyadic weights make every change in the order of operations show
    rng = np.random.default_rng(seed)
    n_nodes, layers = 150, []
    for _ in range(2):
        pairs = [p for p in itertools.combinations(range(n_nodes), 2) if rng.random() < 0.06]
        weights = rng.uniform(-1.0, 2.0, len(pairs))
        layers.append(tuple((i, j, float(w)) for (i, j), w in zip(pairs, weights)))
    net = MultilayerNetwork(n_nodes=n_nodes, aspects=(Aspect("a", ("l0", "l1")),),
                            within_edges=tuple(layers))
    net = net.with_couplings(generate_couplings(net, 0.5, seed))
    params = ModularityParams.for_network(net, gamma=[0.9, 1.1], lam=[1.0, 0.7], signed=True)
    qm, _ = quality_matrix(net, CouplingSpec(strategy="uniform", omega=0.3), params)
    for n_labels in (1, 7, 40, qm.size):
        _same_relocation(qm, rng.integers(0, n_labels, qm.size))


def test_relocation_from_singletons_moves_almost_every_vertex():
    net, params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
    qm, _ = quality_matrix(net, CouplingSpec(strategy="uniform", omega=1.0), params)
    start = np.arange(qm.size)
    after = relocate_reference(qm, start, 1)[0]
    assert np.count_nonzero(after != start) > qm.size // 2
    for max_sweeps in (1, 2, 10):
        _same_relocation(qm, start, max_sweeps)


def test_relocation_where_only_the_last_vertex_moves():
    # 120 disjoint 5-cliques labelled by clique, except the last vertex
    cliques = [[5 * q + i for i in range(5)] for q in range(120)]
    edges = [(i, j, 1.0) for c in cliques for i, j in itertools.combinations(c, 2)]
    qm = _single_layer_matrix(600, edges)
    start = np.repeat(np.arange(120), 5)
    start[-1] = 0
    after = _same_relocation(qm, start)
    assert np.flatnonzero(after != start).tolist() == [599]


def test_relocation_move_opens_a_new_community():
    # a positive triangle and a vertex repelled by all three of its members
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, -1.0), (1, 3, -1.0), (2, 3, -1.0)]
    qm = _single_layer_matrix(4, edges, signed=True)
    after = _same_relocation(qm, np.zeros(4, dtype=int))
    assert after.tolist() == [0, 0, 0, 1]
