from __future__ import annotations

import pytest

from mlmod import (
    CouplingSpec,
    DomainError,
    ModularityParams,
    build_karate_replica,
    load_karate,
    mspec_detect,
)


def canonical(labels):
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


class TestKarate:
    def test_dataset_counts(self):
        net, truth = load_karate()
        assert net.n_nodes == 34
        assert len(net.within_edges[0]) == 78
        assert truth.shape == (34,)

    def test_ground_truth_factions(self):
        _, truth = load_karate()
        instructor = {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 17, 18, 20, 22}
        for node in range(1, 35):
            assert truth[node - 1] == (1 if node in instructor else 2)


class TestKarateReplica:
    def test_single_layer_is_plain_karate(self):
        net, params = build_karate_replica(1, [1.0])
        karate, _ = load_karate()
        assert net.within_edges == karate.within_edges
        assert net.couplings == frozenset()
        assert params.gamma == (1.0,)

    def test_ten_layer_counts(self):
        net, params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
        assert net.supra_size == 340
        assert len(net.couplings) == 10 * 9 // 2 * 34  # 1530 unordered pairs
        assert params.gamma == tuple(pytest.approx(0.1 * (s + 1)) for s in range(10))

    def test_gamma_length_mismatch(self):
        with pytest.raises(DomainError):
            build_karate_replica(3, [1.0])

    def test_uncoupled_two_layer_detection_is_independent(self):
        net, params = build_karate_replica(2, [1.0, 1.0])
        net = net.with_couplings(())
        spec = CouplingSpec(omega=0.0)
        res = mspec_detect(net, spec, params)
        grid = res.partition.labels.reshape(2, 34)
        karate, _ = load_karate()
        single = mspec_detect(karate, spec,
                              ModularityParams.for_network(karate))
        expected = canonical(single.partition.labels.tolist())
        assert canonical(grid[0].tolist()) == expected
        assert canonical(grid[1].tolist()) == expected
