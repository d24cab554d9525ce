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
# Rows per block of the dense checks and of the restore after an in-place solve.
_ROWS = 64

__all__ = ["leading_eigenpair"]


def _orient(vec: np.ndarray) -> np.ndarray:
    """Canonical orientation: the largest-magnitude entry is positive."""
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def _start(n: int) -> np.ndarray:
    """The unit start vector of an n-row solve."""
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(n)
    return v0 / np.linalg.norm(v0)


def _dense_checks(d: np.ndarray) -> tuple[float, bool]:
    """Max absolute row sum of a float64 d (NaN when an entry is), taken
    over blocks of ``_ROWS`` rows, and whether LAPACK may work in d: d is
    C-contiguous, writeable and equal to its transpose bit for bit."""
    n = d.shape[0]
    # bit for bit, so that +0.0 against -0.0 fails: the restore writes one
    # triangle over the other
    bits, mirrored = d.view(np.uint64), True
    scale = 0.0
    scratch = np.empty((min(n, _ROWS), n))  # the one temporary of the scan
    for lo in range(0, n, _ROWS):
        rows, out = d[lo:lo + _ROWS], scratch[:min(n - lo, _ROWS)]
        # np.maximum, not max: max drops a NaN that comes second
        scale = float(np.maximum(scale, np.abs(rows, out=out).sum(axis=1).max()))
        mirrored = mirrored and bool((bits[lo:lo + _ROWS] == bits[:, lo:lo + _ROWS].T).all())
    return scale, mirrored and d.flags.c_contiguous and d.flags.writeable


def _eigh_in_place(d: np.ndarray):
    """Top eigenpair of a finite bit-symmetric C-contiguous d, which LAPACK works in.

    LAPACK reads the lower triangle of d.T, d's upper one, and overwrites it
    with the diagonal.  Before this returns or raises, the blocks of
    ``_ROWS`` rows on the diagonal are copied back and the rest of the upper
    triangle from d's intact lower one.
    """
    n = d.shape[0]
    on_diagonal = [d[lo:lo + _ROWS, lo:lo + _ROWS].copy() for lo in range(0, n, _ROWS)]
    try:
        return eigh(d.T, subset_by_index=[n - 1, n - 1], overwrite_a=True, check_finite=False)
    finally:
        for lo, block in zip(range(0, n, _ROWS), on_diagonal):
            hi = lo + len(block)
            d[lo:hi, lo:hi] = block
            d[lo:hi, hi:] = d[hi:, lo:hi].T


def leading_eigenpair(matrix) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenvalue and a unit eigenvector.

    ``matrix`` is a dense array or a matrix-free operator with ``matvec``,
    ``shape`` and ``norm_inf``, which is taken to be symmetric.  The pair
    satisfies ``norm(D u - beta u) <= 1e-10 * scale``, where ``scale`` is
    the exact max absolute row sum of D; ConvergenceError is raised when
    the solver cannot reach that bound.

    The array must be float64, C-contiguous, writeable and equal to its
    transpose bit for bit, as ``mspec.subdivision_matrix`` forms it; any
    other raises DomainError and is not written.  It is LAPACK's workspace
    during the call, so that no copy of it is made; it is bit-identical
    again when the call returns or raises, but nothing may read it while
    the call runs.
    """
    if hasattr(matrix, "matvec"):
        n, apply, scale = matrix.shape[0], matrix.matvec, matrix.norm_inf()
    else:
        d = matrix
        if d.dtype != np.float64 or d.ndim != 2 or not 0 < d.shape[0] == d.shape[1]:
            raise DomainError("leading_eigenpair needs a non-empty square float64 array")
        n, apply = d.shape[0], d.__matmul__
        scale, in_place = _dense_checks(d)
        if not in_place:
            raise DomainError("matrix is not symmetric bit for bit, C-contiguous and writeable")
    if not np.isfinite(scale):  # a NaN or inf entry, which no solver takes
        raise DomainError(f"matrix scale is not finite: {scale}")
    if scale == 0.0:
        return 0.0, _orient(_start(n))
    if not hasattr(matrix, "matvec"):
        vals, vecs = _eigh_in_place(d)
    else:
        # Imported here, not at module level: after ``import mlmod.cli`` it adds
        # about 2.2 MB to the peak RSS, and small runs never need it.
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        op = LinearOperator((n, n), matvec=apply, dtype=float)
        try:  # ARPACK stops at norm(r) <= tol * |beta| <= tol * scale
            vals, vecs = eigsh(op, k=1, which="LA", v0=_start(n), tol=_TOL)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(str(exc)) from exc
    beta, u = float(vals[0]), vecs[:, 0]
    resid = float(np.linalg.norm(apply(u) - beta * u))
    if resid > _TOL * scale:
        raise ConvergenceError(
            f"leading eigenpair residual {resid:.3g} exceeds {_TOL * scale:.3g}")
    return beta, _orient(u)
