"""Least-squares machinery on the stacked operator [A; L].

The stacked matrix is never materialized: every product is two sparse
matvecs.  LSQR is implemented natively on the operator so that inner solves
touch nothing but ``matvec``/``matvec_transpose``, and orthogonal projections
onto range([A; L]) are obtained by multiplying the least-squares solution
back through the operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

__all__ = ["StackedOperator", "LsqrConfig", "LsqrOutcome", "lsqr_solve",
           "project_onto_range", "stack_norm_estimate"]

_EPS = float(np.finfo(np.float64).eps)


def stack_norm_estimate(A, L):
    """Cheap upper bound on the spectral norm of the stacked matrix [A; L]."""
    return sqrt(A.norm1() * A.norminf() + L.norm1() * L.norminf())


class StackedOperator:
    """The operator x -> (A x; L x) for a conformable pair {A, L}."""

    def __init__(self, A, L):
        if A.ncols != L.ncols:
            raise ValueError(f"A has {A.ncols} columns but L has {L.ncols}")
        if A.nrows + L.nrows < A.ncols:
            raise ValueError("stacked operator must have at least as many rows as columns")
        self.A = A
        self.L = L
        self.m = A.nrows
        self.p = L.nrows
        self.n = A.ncols
        self._rnorm = None

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
        out = np.empty(self.m + self.p)
        out[: self.m] = self.A.matvec(x)
        out[self.m:] = self.L.matvec(x)
        return out

    def apply_transpose(self, y):
        """Return A.T y_upper + L.T y_lower for a stacked y."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m + self.p,):
            raise ValueError(f"apply_transpose expects a vector of length {self.m + self.p}, "
                             f"got {y.shape}")
        return self.A.matvec_transpose(y[: self.m]) + self.L.matvec_transpose(y[self.m:])


@dataclass
class LsqrConfig:
    """Inner-solve controls: tolerance defaults to 10 eps, cap to 10 n."""

    tol: float = 10.0 * _EPS
    maxit: int | None = None

    def resolve_maxit(self, n):
        return self.maxit if self.maxit is not None else 10 * n


@dataclass
class LsqrOutcome:
    solution: np.ndarray
    relative_residual_estimate: float
    iterations: int
    converged: bool


def lsqr_solve(op, rhs, tol, maxit):
    """Minimize ||[A; L] x - rhs|| over x by the LSQR recurrence.

    Runs the Golub-Kahan bidiagonalization of the operator with the usual
    pair of plane rotations, stopping when either backward-error test
    (compatible-system or least-squares) falls below ``tol``.  Non-convergence
    within ``maxit`` is reported through the flag, never raised: ill
    conditioning can legitimately push the iteration count past n.

    Parameters
    ----------
    op : StackedOperator
    rhs : (m+p,) ndarray
    tol : float
        Used as both the atol and btol of the standard stopping tests.
    maxit : int

    Returns
    -------
    LsqrOutcome
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.m + op.p,):
        raise ValueError(f"rhs must have length {op.m + op.p}, got {rhs.shape}")

    n = op.n
    x = np.zeros(n)

    u = rhs.copy()
    beta = sqrt(u @ u)
    bnorm = beta
    if beta == 0.0:
        return LsqrOutcome(x, 0.0, 0, True)
    u /= beta
    v = op.apply_transpose(u)
    alfa = sqrt(v @ v)
    if alfa == 0.0:
        # rhs is orthogonal to the range: x = 0 is the least-squares solution
        return LsqrOutcome(x, 1.0, 0, True)
    v /= alfa
    w = v.copy()

    rhobar = alfa
    phibar = beta
    anorm = 0.0
    xnorm = 0.0
    converged = False
    itn = 0
    test1 = 1.0

    while itn < maxit:
        itn += 1
        # in place: negation is exact, so -alfa * u + Av rounds like Av - alfa * u
        u *= -alfa
        u += op.apply(v)
        beta = sqrt(u @ u)
        if beta > 0.0:
            u /= beta
            anorm = sqrt(anorm**2 + alfa**2 + beta**2)
            v *= -beta
            v += op.apply_transpose(u)
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

        x += (phi / rho) * w
        w *= -(theta / rho)
        w += v
        xnorm = sqrt(x @ x)

        rnorm = phibar
        arnorm = alfa * abs(sn * phi)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + _EPS)
        rtol = tol + tol * anorm * xnorm / bnorm
        if test1 <= rtol or test2 <= tol:
            converged = True
            break

    return LsqrOutcome(x, float(test1), itn, converged)


def project_onto_range(op, u, tol, maxit):
    """Orthogonal projection of (u; 0) onto range([A; L]).

    Solves min ||[A; L] x - (u; 0)|| and returns [A; L] x, which equals the
    projection whenever the inner solve is accurate.

    Returns
    -------
    (projection, LsqrOutcome)
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (op.m,):
        raise ValueError(f"u must have length {op.m}, got {u.shape}")
    if np.linalg.norm(u) == 0.0:
        raise ValueError("cannot project the zero vector")
    rhs = np.zeros(op.m + op.p)
    rhs[: op.m] = u
    outcome = lsqr_solve(op, rhs, tol, maxit)
    return op.apply(outcome.solution), outcome
