"""Least-squares machinery on the stacked operator [A; L].

The operator holds [A; L] as one set of CSR arrays, built once, so each
product with it or its transpose is a single bincount.  LSQR is implemented
natively on the operator and runs on [A; L] right-scaled to unit column
norms, a preconditioner that leaves range([A; L]) unchanged.  The operator
owns the inner-solve controls and counts the work of every solve made
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .sparsemat import _csr_product

__all__ = ["StackedOperator", "LsqrOutcome", "lsqr_solve", "stack_norm_estimate"]

_EPS = float(np.finfo(np.float64).eps)


def stack_norm_estimate(A, L):
    """Cheap upper bound on the spectral norm of the stacked matrix [A; L]."""
    return sqrt(A.norm1() * A.norminf() + L.norm1() * L.norminf())


class StackedOperator:
    """The operator x -> (A x; L x) for a conformable pair {A, L}.

    [A; L] is stored fused: L's rows follow A's in one set of CSR arrays.
    ``scale`` holds 1 / ||column j of [A; L]|| (1 for a zero column), the
    right scaling under which ``lsqr_solve`` iterates.  The operator also
    holds the inner-solve controls — ``tol`` (default 10 eps) and ``maxit``
    (default 10 n) — and two counters, ``iterations`` and ``failures``, that
    every ``lsqr_solve`` through it adds to.
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
        self.maxit = maxit if maxit is not None else 10 * self.n
        self.iterations = 0
        self.failures = 0
        self._rnorm = None

        offsets = np.concatenate([A.row_offsets, L.row_offsets[1:] + A.nnz])
        self._row_ids = np.repeat(np.arange(self.m + self.p, dtype=np.int64), np.diff(offsets))
        self._col_indices = np.concatenate([A.col_indices, L.col_indices])
        self._values = np.concatenate([A.values, L.values])
        colnorm = np.sqrt(np.bincount(self._col_indices, weights=self._values**2,
                                      minlength=self.n))
        self.scale = np.ones(self.n)
        np.divide(1.0, colnorm, out=self.scale, where=colnorm > 0.0)

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

    Runs the Golub-Kahan bidiagonalization of the equilibrated operator
    [A; L] D, D = diag(``op.scale``), with the usual pair of plane rotations
    and returns x = D y for its iterate y.  The scaling changes the
    conditioning LSQR sees, not the least-squares fit [A; L] x.  It stops
    when either backward-error test (compatible-system or least-squares) of
    the equilibrated system falls below ``op.tol``, which serves as both
    atol and btol.  Non-convergence within ``op.maxit`` is reported through
    the flag, never raised: ill conditioning can legitimately push the
    iteration count past n.  The iteration count and any non-convergence are
    added to the operator's counters.

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
    scale = op.scale
    y = np.zeros(op.n)

    u = rhs.copy()
    beta = sqrt(u @ u)
    bnorm = beta
    if beta == 0.0:
        return LsqrOutcome(y, 0.0, 0, True)
    u /= beta
    v = scale * op.apply_transpose(u)
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
        u += op.apply(scale * v)
        beta = sqrt(u @ u)
        if beta > 0.0:
            u /= beta
            anorm = sqrt(anorm**2 + alfa**2 + beta**2)
            v *= -beta
            v += scale * op.apply_transpose(u)
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

    # the early returns above take no iteration and converge, so only this
    # exit moves the operator's counters
    op.iterations += itn
    op.failures += 0 if converged else 1
    return LsqrOutcome(scale * y, float(test1), itn, converged)
