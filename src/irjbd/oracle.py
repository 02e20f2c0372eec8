"""Dense reference implementations used by the test suite.

Everything here goes through explicit dense factorizations that the sparse
solver must never form: the QR factor of the stacked pair, the CS-style
decomposition of its orthonormal blocks, the two explicit Lanczos
bidiagonalization recurrences, and plain shifted QR factorizations.  All of
it is restricted to small sizes and wired for determinism, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseGsvd",
    "stack_qr",
    "dense_gsvd",
    "dense_joint_lanczos",
    "explicit_shifted_qr",
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


def dense_joint_lanczos(QA, QL, u1, k, reorth=True):
    """Explicit lower/upper Lanczos bidiagonalizations of the Q blocks.

    Runs both three-term recurrences with the shared starting right vector
    v1 = QA.T u1 / ||.|| and full reorthogonalization, returning the factors
    and all four bases:

    Returns
    -------
    (B, Bhat, U, Uhat, V, Vhat) with B of shape (k+1, k) lower bidiagonal and
    Bhat (k, k) upper bidiagonal, all recurrence coefficients positive.
    """
    QA = np.asarray(QA, dtype=np.float64)
    QL = np.asarray(QL, dtype=np.float64)
    _check_size(QA, QL)
    m, n = QA.shape
    u1 = np.asarray(u1, dtype=np.float64)

    def orth(vec, basis, count):
        if reorth and count:
            for _ in range(2):
                vec = vec - basis[:, :count] @ (basis[:, :count].T @ vec)
        return vec

    U = np.zeros((m, k + 2))
    V = np.zeros((n, k + 1))
    alphas = np.zeros(k + 1)
    betas = np.zeros(k + 1)

    U[:, 0] = u1 / np.linalg.norm(u1)
    v = QA.T @ U[:, 0]
    a = np.linalg.norm(v)
    if a == 0:
        raise RuntimeError("lower recurrence broke down at the start")
    alphas[0] = a
    V[:, 0] = v / a
    for i in range(k):
        u = QA @ V[:, i] - alphas[i] * U[:, i]
        u = orth(u, U, i + 1)
        b = np.linalg.norm(u)
        if b == 0:
            raise RuntimeError(f"lower recurrence broke down at step {i + 1}")
        betas[i] = b
        U[:, i + 1] = u / b
        v = QA.T @ U[:, i + 1] - b * V[:, i]
        v = orth(v, V, i + 1)
        a = np.linalg.norm(v)
        if a == 0:
            raise RuntimeError(f"lower recurrence broke down at step {i + 1}")
        alphas[i + 1] = a
        V[:, i + 1] = v / a

    B = np.zeros((k + 1, k))
    idx = np.arange(k)
    B[idx, idx] = alphas[:k]
    B[idx + 1, idx] = betas[:k]

    p = QL.shape[0]
    Uhat = np.zeros((p, k + 1))
    Vhat = np.zeros((n, k + 1))
    hat_alphas = np.zeros(k + 1)
    hat_betas = np.zeros(k + 1)

    Vhat[:, 0] = V[:, 0]
    w = QL @ Vhat[:, 0]
    ha = np.linalg.norm(w)
    if ha == 0:
        raise RuntimeError("upper recurrence broke down at the start")
    hat_alphas[0] = ha
    Uhat[:, 0] = w / ha
    for i in range(k):
        vh = QL.T @ Uhat[:, i] - hat_alphas[i] * Vhat[:, i]
        vh = orth(vh, Vhat, i + 1)
        hb = np.linalg.norm(vh)
        if hb == 0:
            raise RuntimeError(f"upper recurrence broke down at step {i + 1}")
        hat_betas[i] = hb
        Vhat[:, i + 1] = vh / hb
        w = QL @ Vhat[:, i + 1] - hb * Uhat[:, i]
        w = orth(w, Uhat, i + 1)
        ha = np.linalg.norm(w)
        if ha == 0:
            raise RuntimeError(f"upper recurrence broke down at step {i + 1}")
        hat_alphas[i + 1] = ha
        Uhat[:, i + 1] = w / ha

    Bhat = np.zeros((k, k))
    idx = np.arange(k)
    Bhat[idx, idx] = hat_alphas[:k]
    if k > 1:
        Bhat[idx[:-1], idx[:-1] + 1] = hat_betas[: k - 1]

    return B, Bhat, U[:, : k + 1], Uhat[:, :k], V[:, : k + 1], Vhat[:, : k + 1]


def explicit_shifted_qr(M, shift):
    """Householder QR of M - shift * I, the transparent form of one QR step."""
    M = np.asarray(M, dtype=np.float64)
    _check_size(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return np.linalg.qr(M - shift * np.eye(M.shape[0]))
