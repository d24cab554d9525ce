"""Bundled benchmark data and synthetic instance builders."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .errors import DomainError
from .io import load_dataset
from .network import Aspect, MultilayerNetwork, full_couplings
from .params import ModularityParams

__all__ = ["karate_manifest_path", "load_karate", "build_karate_replica"]


def karate_manifest_path() -> str:
    """Filesystem path of the bundled karate manifest."""
    return str(resources.files("mlmod.data").joinpath("karate.manifest"))


def load_karate() -> tuple[MultilayerNetwork, np.ndarray]:
    """The karate club benchmark: 34 nodes, 78 unit edges, one layer,
    plus the two-faction ground-truth labels."""
    net, truth = load_dataset(karate_manifest_path())
    assert truth is not None
    return net, truth


def build_karate_replica(layers: int, gammas) -> tuple[MultilayerNetwork, ModularityParams]:
    """Stack ``layers`` identical karate layers in one aspect.

    Every node is linked with all of its copies; ``net.with_couplings(())``
    gives the uncoupled stack.  ``gammas`` supplies one resolution per
    layer, and every layer has weight 1.
    """
    if layers < 1:
        raise DomainError("replica needs at least one layer")
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) != layers:
        raise DomainError(f"need {layers} gamma values, got {len(gammas)}")
    karate, _ = load_karate()
    edges = karate.within_edges[0]
    net = MultilayerNetwork(
        n_nodes=karate.n_nodes,
        aspects=(Aspect(name="replica",
                        layers=tuple(f"karate-{s + 1}" for s in range(layers))),),
        within_edges=tuple(edges for _ in range(layers)),
        couplings=full_couplings(karate.n_nodes, layers),
    )
    params = ModularityParams.for_network(net, gamma=gammas)
    return net, params
