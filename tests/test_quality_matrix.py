"""The factored quality matrix against the dense reference D.

Every check compares ``quality_matrix``, its dense subdivisions and its
matrix-free ``Subdivision`` views with ``build_modularity_matrix`` and the
dense subdivision oracle, over small random instances covering all
coupling strategies, signed weights, two aspects, an edgeless layer and a
lambda = 0 layer.  Views are built directly here: ``subdivision_matrix``
returns them only above 512 members.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmod import (
    Aspect,
    CouplingSpec,
    ModularityParams,
    MultilayerNetwork,
    build_modularity_matrix,
    kl_relocate,
    quality_matrix,
    subdivision_matrix,
)
from mlmod.modularity import Subdivision
from mlmod.params import COUPLING_STRATEGIES

from oracles import dense_subdivision, q_pairwise


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
    closeness = explicit = None
    if strategy == "closeness":
        a = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                   min_size=n_cells * n_cells, max_size=n_cells * n_cells)))
        closeness = a.reshape(n_cells, n_cells) + a.reshape(n_cells, n_cells).T
    if strategy == "explicit":
        explicit = {c: draw(st.sampled_from([0.0, 0.25, 1.0])) for c in candidates}
    spec = CouplingSpec(strategy=strategy, omega=omega, closeness=closeness,
                        explicit=explicit or {})
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
        return build_modularity_matrix(net, spec, params), quality_matrix(net, spec, params)


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_subdivision_view_equals_dense_reference(instance, seed):
    net, spec, params, members = instance
    dm, (qm, chi) = _build(net, spec, params)
    assert chi == dm.chi
    ref = dense_subdivision(dm.matrix, members)
    scale = max(1.0, float(np.abs(ref).sum(axis=1).max()))
    tol = 1e-12 * scale
    assert np.abs(subdivision_matrix(qm, members) - ref).max() <= tol
    view = Subdivision(qm, members)
    assert view.shape == ref.shape
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, members.size)
    assert np.abs(view.matvec(x) - ref @ x).max() <= tol
    assert np.abs(view.diagonal() - np.diagonal(ref)).max() <= tol
    for j in range(members.size):
        assert np.abs(view.column(j) - ref[:, j]).max() <= tol
    assert abs(view.norm_inf() - float(np.abs(ref).sum(axis=1).max())) <= tol
    assert view.asymmetry() <= tol


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_relocation_gain_equals_q_change(instance, seed):
    net, spec, params, _ = instance
    dm, (qm, _) = _build(net, spec, params)
    n = net.supra_size
    before = np.random.default_rng(seed).integers(0, max(1, n // 2), n)
    after, gain = kl_relocate(qm, before)
    change = q_pairwise(dm.matrix, after) - q_pairwise(dm.matrix, before)
    assert abs(gain - change) <= 1e-9 * max(1.0, float(np.abs(dm.matrix).sum()))
