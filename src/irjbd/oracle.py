"""Dense reference GSVD that the tests and the benchmark check the solver against.

Everything here goes through explicit dense factorizations that the sparse
solver must never form: the QR factor of the stacked pair and the CS-style
decomposition of its orthonormal blocks.  All of it is restricted to small
sizes and wired for determinism, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseGsvd",
    "stack_qr",
    "dense_gsvd",
]

_SIZE_GUARD = 500
_TRIVIAL_TOL = 1e-12


def _check_size(*mats):
    for M in mats:
        if max(M.shape) > _SIZE_GUARD:
            raise ValueError(f"oracle restricted to dimensions <= {_SIZE_GUARD}")


def stack_qr(A, L):
    """Economy QR of the stacked matrix [A; L] (dense)."""
    A = np.asarray(A, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    _check_size(A, L)
    stacked = np.vstack([A, L])
    Q, R = np.linalg.qr(stacked)
    return Q, R


@dataclass
class DenseGsvd:
    """Full dense GSVD of a regular pair.

    Components are ordered by decreasing c: infinite components (c = 1,
    s = 0) first, then the q nontrivial ones, then zero components (c = 0,
    s = 1).  ``PA.T @ A @ X`` and ``PL.T @ L @ X`` are rectangular diagonal
    with C and S on the diagonal in this ordering; when p < n, PL has no
    column for the first n - p (infinite) components, and ``PL.T @ L @ X``
    is [0, diag(S[n - p:])].
    """

    C: np.ndarray
    S: np.ndarray
    X: np.ndarray
    PA: np.ndarray
    PL: np.ndarray
    q: int
    q1: int
    q2: int
    l1: int
    l2: int

    def nontrivial_slice(self):
        return slice(self.q2, self.q2 + self.q)


def _complete_orthonormal(partial, size):
    """Extend orthonormal columns to a full orthonormal basis of R^size."""
    have = partial.shape[1]
    if have == size:
        return partial
    if have == 0:
        return np.eye(size)
    qfull, _ = np.linalg.qr(partial, mode="complete")
    return np.hstack([partial, qfull[:, have:]])


def dense_gsvd(A, L):
    """Dense GSVD through the stacked QR and the SVD of its upper block.

    The SVD of Q_A supplies the shared right basis W and the c values; the
    s values and the L-side left vectors come from the columns of Q_L W,
    which are orthogonal with norms sqrt(1 - c^2) because the stacked Q has
    orthonormal columns.  X = R^{-1} W.
    """
    A = np.asarray(A, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    m, n = A.shape
    p = L.shape[0]
    if L.shape[1] != n:
        raise ValueError("A and L must agree on the column count")
    if m + p < n:
        raise ValueError("stacked pair must have at least n rows")
    _check_size(A, L)

    Q, R = stack_qr(A, L)
    rdiag = np.abs(np.diagonal(R))
    if rdiag.min() <= n * np.finfo(float).eps * max(1.0, rdiag.max()):
        raise ValueError("stacked pair is numerically rank deficient (not regular)")

    QA = Q[:m]
    QL = Q[m:]

    PA, csome, WT = np.linalg.svd(QA, full_matrices=True)
    C = np.zeros(n)
    C[: len(csome)] = np.clip(csome, 0.0, 1.0)
    W = WT.T

    QLW = QL @ W
    S = np.linalg.norm(QLW, axis=0)
    PL_cols = []
    for j in range(n):
        if S[j] > _TRIVIAL_TOL:
            PL_cols.append(QLW[:, j] / S[j])
    PL_partial = (np.column_stack(PL_cols) if PL_cols else np.zeros((p, 0)))
    PL = _complete_orthonormal(PL_partial, p)
    # reorder PL so column j - d multiplies component j.  L has rank at most
    # p, so when p < n the first d = n - p components are infinite and get no
    # column; other infinite components get the completion columns (their s
    # is zero, so the slot content is free)
    d = max(0, n - p)
    live = iter(PL.T[: len(PL_cols)])
    spare = iter(PL.T[len(PL_cols):])
    PLfull = np.zeros((p, p))
    for j in range(d, d + p):
        PLfull[:, j - d] = next(live) if j < n and S[j] > _TRIVIAL_TOL else next(spare)

    X = np.linalg.solve(R, W)

    q2 = int(np.sum(S[:n] <= _TRIVIAL_TOL))          # infinite (c = 1, s = 0)
    q1 = int(np.sum(C <= _TRIVIAL_TOL))              # zero (c = 0, s = 1)
    q = n - q1 - q2
    l1 = m - (n - q1)
    l2 = p - (n - q2)

    return DenseGsvd(C=C, S=S, X=X, PA=PA, PL=PLfull, q=q, q1=q1, q2=q2, l1=l1, l2=l2)
