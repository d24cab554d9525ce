from __future__ import annotations

import numpy as np
import pytest

from mlmod import CouplingSpec, DomainError, ModularityParams, Partition, quality_matrix
from mlmod.network import Couplings

from oracles import partition_from_cell_labels
from test_network import make_net


class TestCouplingSpecValidation:
    def test_negative_omega_rejected(self):
        with pytest.raises(DomainError):
            CouplingSpec(omega=-1.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DomainError):
            CouplingSpec(strategy="nearest")

    def test_asymmetric_closeness_rejected(self):
        with pytest.raises(DomainError):
            CouplingSpec(strategy="closeness",
                         closeness=np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_closeness_rejected(self, bad):
        m = np.array([[0.0, bad, 1.0], [bad, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(DomainError, match="finite"):
            CouplingSpec(strategy="closeness", closeness=m)

    def test_closeness_shape_checked_at_use(self):
        net = make_net(2, [3], edges_by_cell=(((0, 1, 1.0),),) * 3)  # no empty-cell warning
        spec = CouplingSpec(strategy="closeness",
                            closeness=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DomainError, match="shape"):
            quality_matrix(net, spec, ModularityParams.for_network(net))

    def test_negative_explicit_amplitude_rejected(self):
        with pytest.raises(DomainError):
            make_net(2, [2]).with_couplings(Couplings([(0, 0, 1)], [-2.0]))
        with pytest.raises(DomainError):
            make_net(2, [2]).with_couplings(Couplings([(0, 0, 1)], [float("nan")]))


class TestModularityParamsValidation:
    def test_gamma_must_be_positive(self):
        net = make_net(2, [2])
        with pytest.raises(DomainError):
            ModularityParams.for_network(net, gamma=0.0)
        with pytest.raises(DomainError):
            ModularityParams.for_network(net, gamma=[-1.0, 1.0])

    def test_lambda_must_be_non_negative(self):
        net = make_net(2, [2])
        with pytest.raises(DomainError):
            ModularityParams.for_network(net, lam=-0.5)
        params = ModularityParams.for_network(net, lam=0.0)
        assert params.lam == (0.0, 0.0)

    def test_per_layer_length_checked(self):
        net = make_net(2, [3])
        for name, key in (("gamma", "gamma"), ("lambda", "lam"), ("gamma_plus", "gamma_plus"),
                          ("gamma_minus", "gamma_minus")):
            with pytest.raises(DomainError, match=rf"^{name} takes one value or one per "
                                                  r"layer cell \(3\), got 2$"):
                ModularityParams.for_network(net, **{key: [1.0, 1.0]})

    def test_unknown_normalization_rejected(self):
        net = make_net(2, [2])
        with pytest.raises(DomainError, match="unknown normalization mode 'weird'"):
            ModularityParams.for_network(net, normalization="weird")

    def test_signed_defaults(self):
        net = make_net(2, [2])
        params = ModularityParams.for_network(net, gamma=2.0, signed=True)
        gp, gm = params.gamma_signed()
        assert gp == (2.0, 2.0) and gm == (2.0, 2.0)
        params2 = ModularityParams.for_network(net, gamma=2.0, signed=True,
                                               gamma_minus=0.5)
        assert params2.gamma_signed()[1] == (0.5, 0.5)


class TestPartition:
    def test_canonical_contiguous_first_appearance(self):
        part = Partition(np.array([7, 7, 3, 9, 3]))
        canon = part.canonical()
        assert canon.labels.tolist() == [0, 0, 1, 2, 1]
        assert canon.n_communities == 3

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            Partition(np.array([0.5, 1.0]))

    def test_broadcast_shape_checked(self):
        net = make_net(3, [2])
        with pytest.raises(DomainError):
            Partition.broadcast(net, np.array([0, 1]))

    def test_from_cell_labels_requires_all_cells(self):
        net = make_net(2, [2])
        with pytest.raises(DomainError):
            partition_from_cell_labels(net, {(1, 1, 1): 0})

    def test_from_cell_labels_round_trip(self):
        net = make_net(2, [2])
        mapping = {(i, s, 1): i + s for i in (1, 2) for s in (1, 2)}
        part = partition_from_cell_labels(net, mapping)
        assert part.labels.tolist() == [2, 3, 3, 4]
