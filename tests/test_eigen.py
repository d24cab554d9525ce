from __future__ import annotations

import numpy as np
import pytest

import mlmod.eigen
from mlmod import ConvergenceError, CouplingSpec, DomainError, build_karate_replica, quality_matrix
from mlmod.eigen import leading_eigenpair
from mlmod.modularity import Subdivision

from oracles import dense_leading_eigenpair


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def recording_eigh(monkeypatch, d, fail=False):
    """Patch the solver to record, per call, whether it was handed d's memory
    to overwrite; with ``fail``, scribble over what LAPACK may overwrite (the
    lower triangle of the argument, diagonal included) and raise."""
    calls, eigh = [], mlmod.eigen.eigh

    def wrapped(a, *args, **kwargs):
        calls.append(bool(np.shares_memory(a, d) and kwargs.get("overwrite_a")))
        if fail:
            a[np.tril_indices(len(a))] = np.nan
            raise np.linalg.LinAlgError("no convergence")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(mlmod.eigen, "eigh", wrapped)
    return calls


def matrix_free(n):
    """A matrix-free subdivision of n <= 680 rows, which goes to ARPACK."""
    net, params = build_karate_replica(20, [1.0] * 20)
    qm, _ = quality_matrix(net, CouplingSpec(omega=1.0), params)
    return Subdivision(qm, np.arange(n))


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
        for d in (random_symmetric(rng, 20), matrix_free(600)):  # LAPACK, then ARPACK
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

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, entry):
        # a NaN scale used to pass for a zero matrix, an inf one reached LAPACK
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = entry  # a mirrored pair, which the symmetry test passes
        with pytest.raises(DomainError, match="not finite"):
            leading_eigenpair(d)

    def test_non_finite_operator_scale_rejected(self, monkeypatch):
        op = matrix_free(600)
        monkeypatch.setattr(op, "norm_inf", lambda: np.nan)
        with pytest.raises(DomainError, match="not finite"):
            leading_eigenpair(op)

    def test_arpack_no_convergence_raises_at_once(self, monkeypatch):
        import scipy.sparse.linalg as sla

        op = matrix_free(600)
        products = []

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((600, 0)))

        monkeypatch.setattr(sla, "eigsh", no_convergence)
        monkeypatch.setattr(op, "matvec", lambda x: products.append(x) or x)
        with pytest.raises(ConvergenceError, match="ARPACK error -1: no convergence"):
            leading_eigenpair(op)
        assert products == []  # no fallback pair is scored


def signed_zero_pair(rng):
    d = random_symmetric(rng, 70)
    d[3, 40], d[40, 3] = 0.0, -0.0
    return d


def nearly_symmetric(rng):
    d = random_symmetric(rng, 70)
    d[3, 40] += 1e-14
    return d


def read_only(rng):
    d = random_symmetric(rng, 70)
    d.setflags(write=False)
    return d


class TestCallerArray:
    """A bit-symmetric C-contiguous writeable float64 array is LAPACK's
    workspace during the solve and is restored; any other array raises
    and is never written."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 340])
    def test_in_place_solve_restores_the_array(self, n, monkeypatch):
        d = random_symmetric(np.random.default_rng(n), n)
        before = d.copy()
        calls = recording_eigh(monkeypatch, d)
        leading_eigenpair(d)
        assert calls == [True]
        assert d.tobytes() == before.tobytes()

    def test_array_restored_when_the_solver_raises(self, monkeypatch):
        d = random_symmetric(np.random.default_rng(3), 130)
        before = d.copy()
        calls = recording_eigh(monkeypatch, d, fail=True)
        with pytest.raises(np.linalg.LinAlgError):
            leading_eigenpair(d)
        assert calls == [True]
        assert d.tobytes() == before.tobytes()

    @pytest.mark.parametrize("make", [
        signed_zero_pair,
        nearly_symmetric,
        read_only,
        lambda rng: random_symmetric(rng, 140)[::2, ::2],
        lambda rng: np.asfortranarray(random_symmetric(rng, 70)),
    ], ids=["signed-zero", "1e-14", "read-only", "strided-view", "fortran"])
    def test_other_arrays_are_rejected_and_untouched(self, make, monkeypatch):
        d = make(np.random.default_rng(5))
        before = d.copy()
        calls = recording_eigh(monkeypatch, d)
        with pytest.raises(DomainError, match="not symmetric"):
            leading_eigenpair(d)
        assert calls == []
        assert d.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_only_float64_arrays_are_taken(self, dtype):
        with pytest.raises(DomainError, match="float64"):
            leading_eigenpair(np.eye(2, dtype=dtype))
