"""Least-squares machinery on the stacked operator [A; L].

The operator holds [A; L] as one set of CSR arrays, built once, so each
product with it or its transpose is a single bincount.  LSQR is implemented
natively on the operator and runs on [A; L] M for a right preconditioner M
built once with the operator.  When the dense n x n map fits under
``_FACTOR_BYTES``, M = D R^-1, with D the scaling to unit column norms and
R the Cholesky factor of the Gram matrix of [A; L] D: [A; L] M then has
orthonormal columns up to rounding and every solve converges in one or two
iterations.  Otherwise, or when that factor is not numerically
nonsingular, M = D.  Either way range([A; L] M) = range([A; L]).  The
operator owns the inner-solve controls and counts the work of every solve
made through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite, sqrt

import numpy as np

from .sparsemat import _csr_product

__all__ = ["StackedOperator", "LsqrOutcome", "lsqr_solve", "stack_norm_estimate"]

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# largest dense right preconditioner, in bytes, an operator keeps (n <= 512)
_FACTOR_BYTES = 2 * 1024 * 1024


def stack_norm_estimate(A, L):
    """Cheap upper bound on the spectral norm of the stacked matrix [A; L]."""
    a1, ai, l1, li = A.norm1(), A.norminf(), L.norm1(), L.norminf()
    sq = a1 * ai + l1 * li
    if isfinite(sq):
        return sqrt(sq)
    # the products overflow: take the square roots first
    return hypot(sqrt(a1) * sqrt(ai), sqrt(l1) * sqrt(li))


def _column_norms(col_indices, values, n):
    """2-norm of each column of a sparse matrix given by its entries.

    The plain sum of squares is kept wherever it is a normal float.  A column
    whose squares overflow or underflow is summed again scaled by its largest
    entry, so entries beyond about 1e154 (or below 1e-154) do not turn its
    norm into inf (or 0).
    """
    with np.errstate(over="ignore"):
        sq = np.bincount(col_indices, weights=values**2, minlength=n)
    norms = np.sqrt(sq)
    redo = (sq < _TINY) | np.isinf(sq)
    if np.any(redo):
        big = np.zeros(n)
        np.maximum.at(big, col_indices, np.abs(values))
        per_entry = big[col_indices]
        unit = np.divide(values, per_entry, out=np.zeros_like(values), where=per_entry > 0.0)
        safe = big * np.sqrt(np.bincount(col_indices, weights=unit**2, minlength=n))
        norms[redo] = safe[redo]
    return norms


class StackedOperator:
    """The operator x -> (A x; L x) for a conformable pair {A, L}.

    [A; L] is stored fused: L's rows follow A's in one set of CSR arrays.
    ``scale`` holds 1 / ||column j of [A; L]|| (1 for a zero column).  The
    right preconditioner M under which ``lsqr_solve`` iterates is built here
    once: D R^-1 (D = diag(``scale``), R the Cholesky factor of the Gram
    matrix of [A; L] D) when the n x n map fits under ``_FACTOR_BYTES`` and R
    is numerically nonsingular, and D otherwise.  The operator also holds the
    inner-solve controls — ``tol`` (default 10 eps) and ``maxit`` (default
    ``resolve_maxit(None, n)``) — and two counters, ``iterations`` and
    ``failures``, that every ``lsqr_solve`` through it adds to.
    """

    def __init__(self, A, L, tol=10.0 * _EPS, maxit=None):
        if A.ncols != L.ncols:
            raise ValueError(f"A has {A.ncols} columns but L has {L.ncols}")
        if A.nrows + L.nrows < A.ncols:
            raise ValueError("stacked operator must have at least as many rows as columns")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.A = A
        self.L = L
        self.m = A.nrows
        self.p = L.nrows
        self.n = A.ncols
        self.tol = tol
        self.maxit = self.resolve_maxit(maxit, self.n)
        self.iterations = 0
        self.failures = 0
        self._rnorm = None

        offsets = np.concatenate([A.row_offsets, L.row_offsets[1:] + A.nnz])
        self._row_ids = np.repeat(np.arange(self.m + self.p, dtype=np.int64), np.diff(offsets))
        self._col_indices = np.concatenate([A.col_indices, L.col_indices])
        self._values = np.concatenate([A.values, L.values])
        colnorm = _column_norms(self._col_indices, self._values, self.n)
        self.scale = np.ones(self.n)
        np.divide(1.0, colnorm, out=self.scale, where=colnorm > 0.0)
        self._factor = None
        if 8 * self.n * self.n <= _FACTOR_BYTES:
            self._factor = self._inverse_cholesky_factor()

    @staticmethod
    def resolve_maxit(maxit, n):
        """The inner iteration cap for n columns: ``maxit``, or 10 n when None."""
        return maxit if maxit is not None else 10 * n

    def _inverse_cholesky_factor(self):
        """D R^-1 for the Cholesky factor R of the Gram matrix of [A; L] D, or None.

        The entries of [A; L] D are at most 1 in magnitude, so its Gram
        matrix cannot overflow.  None when the Cholesky factorization fails,
        when min |r_ii| <= sqrt(n eps) max |r_ii| (a stack that is rank
        deficient to working precision) or when the map has a non-finite
        entry.
        """
        try:
            lower = np.linalg.cholesky(self._equilibrated_gram())   # R = lower^T
            diag = np.abs(np.diag(lower))
            if not diag.min() > sqrt(self.n * _EPS) * diag.max():
                return None
            factor = self.scale[:, None] * np.linalg.inv(lower).T
        except np.linalg.LinAlgError:
            return None
        return factor if np.all(np.isfinite(factor)) else None

    def _equilibrated_gram(self):
        """(S^T S) for S = [A; L] D, summed over dense blocks of n rows of S."""
        n, rows = self.n, self.m + self.p
        unit = self._values * self.scale[self._col_indices]
        gram = np.zeros((n, n))
        for first in range(0, rows, n):
            lo, hi = np.searchsorted(self._row_ids, [first, first + n])
            block = np.zeros((min(n, rows - first), n))
            block[self._row_ids[lo:hi] - first, self._col_indices[lo:hi]] = unit[lo:hi]
            gram += block.T @ block
        return gram

    def _precondition(self, v):
        """Return M v for the right preconditioner M of ``lsqr_solve``."""
        if self._factor is None:
            return self.scale * v
        return self._factor @ v

    def _precondition_transpose(self, w):
        """Return M.T w for the right preconditioner M of ``lsqr_solve``."""
        if self._factor is None:
            return self.scale * w
        return w @ self._factor

    @property
    def rnorm_estimate(self):
        if self._rnorm is None:
            self._rnorm = stack_norm_estimate(self.A, self.L)
        return self._rnorm

    @property
    def shape(self):
        return (self.m + self.p, self.n)

    def apply(self, x):
        """Return the stacked product (A x; L x)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"apply expects a vector of length {self.n}, got {x.shape}")
        return _csr_product(self._row_ids, self._col_indices, self._values, x, self.m + self.p)

    def apply_transpose(self, y):
        """Return A.T y_upper + L.T y_lower for a stacked y."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m + self.p,):
            raise ValueError(f"apply_transpose expects a vector of length {self.m + self.p}, "
                             f"got {y.shape}")
        return _csr_product(self._col_indices, self._row_ids, self._values, y, self.n)


@dataclass
class LsqrOutcome:
    solution: np.ndarray
    relative_residual_estimate: float
    iterations: int
    converged: bool


def lsqr_solve(op, rhs):
    """Minimize ||[A; L] x - rhs|| over x by the LSQR recurrence.

    Runs the Golub-Kahan bidiagonalization of the preconditioned operator
    [A; L] M, M the right preconditioner built with ``op``, with the usual
    pair of plane rotations and returns x = M y for its iterate y.  M
    changes the conditioning LSQR sees, not the least-squares fit [A; L] x.
    It stops when either backward-error test (compatible-system or
    least-squares) of the preconditioned system falls below ``op.tol``,
    which serves as both atol and btol.  Non-convergence within
    ``op.maxit`` is reported through the flag, never raised: ill
    conditioning can legitimately push the iteration count past n.  The
    iteration count and any non-convergence are added to the operator's
    counters.  A finite rhs whose squared norm overflows is solved scaled
    by its largest entry; a non-finite rhs raises ValueError.

    Parameters
    ----------
    op : StackedOperator
    rhs : (m+p,) ndarray

    Returns
    -------
    LsqrOutcome
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.m + op.p,):
        raise ValueError(f"rhs must have length {op.m + op.p}, got {rhs.shape}")

    tol = op.tol
    y = np.zeros(op.n)

    u = rhs.copy()
    with np.errstate(over="ignore"):
        beta = sqrt(u @ u)
    if not isfinite(beta):
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs must be finite")
        # only the square overflowed: solve for rhs / max |rhs| and scale back
        big = float(np.max(np.abs(rhs)))
        outcome = lsqr_solve(op, rhs / big)
        outcome.solution *= big
        return outcome
    bnorm = beta
    if beta == 0.0:
        return LsqrOutcome(y, 0.0, 0, True)
    u /= beta
    v = op._precondition_transpose(op.apply_transpose(u))
    alfa = sqrt(v @ v)
    if alfa == 0.0:
        # rhs is orthogonal to the range: x = 0 is the least-squares solution
        return LsqrOutcome(y, 1.0, 0, True)
    v /= alfa
    w = v.copy()

    rhobar = alfa
    phibar = beta
    anorm = 0.0
    xnorm = 0.0
    converged = False
    itn = 0
    test1 = 1.0

    while itn < op.maxit:
        itn += 1
        # in place: negation is exact, so -alfa * u + Av rounds like Av - alfa * u
        u *= -alfa
        u += op.apply(op._precondition(v))
        beta = sqrt(u @ u)
        if beta > 0.0:
            u /= beta
            anorm = sqrt(anorm**2 + alfa**2 + beta**2)
            v *= -beta
            v += op._precondition_transpose(op.apply_transpose(u))
            alfa = sqrt(v @ v)
            if alfa > 0.0:
                v /= alfa

        # rotate out the subdiagonal of the growing bidiagonal factor
        rho = sqrt(rhobar**2 + beta**2)
        cs = rhobar / rho
        sn = beta / rho
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar

        y += (phi / rho) * w
        w *= -(theta / rho)
        w += v
        xnorm = sqrt(y @ y)

        rnorm = phibar
        arnorm = alfa * abs(sn * phi)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + _EPS)
        rtol = tol + tol * anorm * xnorm / bnorm
        if test1 <= rtol or test2 <= tol:
            converged = True
            break

    # the zero-norm returns above take no iteration and converge, and the
    # rescaled one counts through its own call, so only this exit moves the
    # operator's counters
    op.iterations += itn
    op.failures += 0 if converged else 1
    return LsqrOutcome(op._precondition(y), float(test1), itn, converged)
