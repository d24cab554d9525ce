from __future__ import annotations

import numpy as np
import pytest

from mlmod import ConvergenceError, DomainError
from mlmod.eigen import leading_eigenpair

from oracles import dense_leading_eigenpair


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestLeadingEigenpair:
    def test_zero_matrix(self):
        beta, u = leading_eigenpair(np.zeros((2, 2)))
        assert beta == 0.0
        assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_diagonal_matrix(self):
        beta, u = leading_eigenpair(np.diag([3.0, 1.0]))
        assert beta == pytest.approx(3.0, abs=1e-12)
        assert abs(u[0]) == pytest.approx(1.0, abs=1e-10)
        assert abs(u[1]) == pytest.approx(0.0, abs=1e-10)

    def test_one_by_one(self):
        beta, u = leading_eigenpair(np.array([[-4.0]]))
        assert beta == -4.0
        assert u.tolist() == [1.0]

    def test_eight_by_eight_matches_dense_oracle(self, rng):
        d = random_symmetric(rng, 8)
        beta, u = leading_eigenpair(d)
        beta_o, u_o = dense_leading_eigenpair(d)
        scale = np.abs(d).sum(axis=1).max()
        assert abs(beta - beta_o) <= 1e-8 * scale
        assert abs(abs(u @ u_o) - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [4, 16, 40, 64, 128, 300, 600, 1000])
    def test_sizes_vs_oracle(self, n):
        rng = np.random.default_rng(n * 7 + 1)
        d = random_symmetric(rng, n)
        beta, u = leading_eigenpair(d)
        beta_o, _ = dense_leading_eigenpair(d)
        scale = np.abs(d).sum(axis=1).max()
        assert abs(beta - beta_o) <= 1e-8 * scale
        assert np.linalg.norm(d @ u - beta * u) <= 1e-8 * scale

    def test_degenerate_leading_pair(self):
        # identical disjoint blocks: leading eigenvalue has multiplicity 2
        block = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = np.zeros((4, 4))
        d[:2, :2] = block
        d[2:, 2:] = block
        beta, u = leading_eigenpair(d)
        assert beta == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(d @ u - beta * u) <= 1e-9

    def test_identity_invariant_subspace(self):
        beta, u = leading_eigenpair(np.eye(5))
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_negative_definite(self):
        d = -np.eye(3) - np.ones((3, 3))
        beta, u = leading_eigenpair(d)
        beta_o, _ = dense_leading_eigenpair(d)
        assert beta == pytest.approx(beta_o, abs=1e-10)

    def test_deterministic_across_calls(self, rng):
        for n in (20, 600):  # dense path, then ARPACK above the cutoff
            d = random_symmetric(rng, n)
            b1, u1 = leading_eigenpair(d)
            b2, u2 = leading_eigenpair(d)
            assert b1 == b2
            assert np.array_equal(u1, u2)

    def test_orientation_canonical(self, rng):
        d = random_symmetric(rng, 12)
        _, u = leading_eigenpair(d)
        assert u[int(np.argmax(np.abs(u)))] > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            leading_eigenpair(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            leading_eigenpair(np.zeros((2, 3)))

    def test_arpack_no_convergence_carries_residual(self, monkeypatch):
        import scipy.sparse.linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((600, 0)))

        monkeypatch.setattr(sla, "eigsh", no_convergence)
        d = random_symmetric(np.random.default_rng(5), 600)
        with pytest.raises(ConvergenceError) as err:
            leading_eigenpair(d)
        assert err.value.best_residual is not None
        assert err.value.best_residual > 0
