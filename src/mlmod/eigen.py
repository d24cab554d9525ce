"""Leading eigenpair of a symmetric matrix via LAPACK or ARPACK.

A dense array goes to LAPACK's dense symmetric solver (top pair only),
and a matrix-free operator to ARPACK's implicitly restarted Lanczos
(Lehoucq, Sorensen & Yang, SIAM 1998), which only needs products; the
caller picks the path by the type it passes.  The start vector comes
from a PCG64 stream with a fixed seed, so repeated calls return
bit-identical results.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

from .errors import ConvergenceError, DomainError

# Fixed start-vector seed; documented so runs reproduce across platforms.
_START_SEED = 0x6D6C6D6F64
# Required residual, relative to the max absolute row sum of the matrix.
_TOL = 1e-10

__all__ = ["leading_eigenpair"]


def _orient(vec: np.ndarray) -> np.ndarray:
    """Canonical orientation: the largest-magnitude entry is positive."""
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def leading_eigenpair(matrix) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenvalue and a unit eigenvector.

    ``matrix`` is a dense symmetric array or a matrix-free operator with
    ``matvec``, ``shape``, ``norm_inf`` and ``asymmetry``.
    The returned pair satisfies ``norm(D u - beta u) <= 1e-10 * scale``
    where ``scale`` is the exact max absolute row sum of D.  Raises
    ConvergenceError carrying the best residual when the solver cannot
    reach that bound.
    """
    if hasattr(matrix, "matvec"):
        n, apply = matrix.shape[0], matrix.matvec
        scale, asymmetry = matrix.norm_inf(), matrix.asymmetry()
    else:
        d = np.asarray(matrix, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
            raise DomainError("leading_eigenpair needs a non-empty square matrix")
        n, apply = d.shape[0], d.__matmul__
        scratch = np.abs(d)  # one n x n temporary serves both checks
        scale = float(scratch.sum(axis=1).max())
        np.abs(np.subtract(d, d.T, out=scratch), out=scratch)
        asymmetry = float(scratch.max())
        del scratch
    if asymmetry > 1e-10 * max(scale, 1.0):
        raise DomainError("matrix is not symmetric")
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(n)
    v0 /= np.linalg.norm(v0)
    if scale == 0.0:
        return 0.0, _orient(v0)
    if not hasattr(matrix, "matvec"):
        vals, vecs = eigh(d, subset_by_index=[n - 1, n - 1])
    else:
        # Imported here, not at module level: loading scipy.sparse.linalg adds
        # about 4 MB to the peak RSS of every run, and small runs never need it.
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        op = LinearOperator((n, n), matvec=apply, dtype=float)
        try:  # ARPACK stops at norm(r) <= tol * |beta| <= tol * scale
            vals, vecs = eigsh(op, k=1, which="LA", v0=v0, tol=_TOL)
        except ArpackNoConvergence:  # best guess: the start vector's Rayleigh pair
            vals, vecs = [v0 @ apply(v0)], v0[:, None]
    beta, u = float(vals[0]), vecs[:, 0]
    resid = float(np.linalg.norm(apply(u) - beta * u))
    if resid > _TOL * scale:
        raise ConvergenceError(
            f"leading eigenpair residual {resid:.3g} exceeds {_TOL * scale:.3g}",
            best_value=beta, best_vector=_orient(u), best_residual=resid,
        )
    return beta, _orient(u)
