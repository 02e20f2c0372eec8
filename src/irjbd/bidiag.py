"""Small dense bidiagonal factors and their joint SVD extraction.

The projected factors produced by the joint bidiagonalization are a lower
bidiagonal B ((k+1) x k) and a signed upper bidiagonal companion whose Gram
matrices sum to the identity.  Approximate GSVD data is read off from their
SVDs, which share a single right-vector matrix W exactly when that identity
holds; extraction therefore computes one SVD (of B) by one-sided Jacobi and
derives the companion's singular data through W, keeping the shared-W
structure exact by construction and making any loss of the joint identity
observable as a defect flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import hypot

import numpy as np

__all__ = [
    "SmallGsvd",
    "givens",
    "jacobi_svd",
    "small_gsvd",
    "inverse_norm_estimates",
]

_EPS = float(np.finfo(np.float64).eps)
_MAX_SWEEPS = 60  # sweep cap of the one-sided Jacobi SVD


def givens(a, b):
    """Plane rotation (c, s, r) with [[c, s], [-s, c]] @ (a, b) = (r, 0), r >= 0."""
    r = hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def jacobi_svd(M):
    """Thin SVD of a small dense matrix by one-sided Jacobi.

    Right rotations orthogonalize the columns to working accuracy, giving
    high relative accuracy on the small, well-scaled factors this solver
    produces.  Singular values are returned in decreasing order.

    Returns
    -------
    (U, sigma, V) with M = U @ diag(sigma) @ V.T, U of shape (nrows, k).
    """
    A = np.array(M, dtype=np.float64)
    nrows, k = A.shape
    if nrows < k:
        raise ValueError("jacobi_svd expects nrows >= ncols")
    V = np.eye(k)
    if k == 0:
        return np.zeros((nrows, 0)), np.zeros(0), V

    sq = np.einsum("ij,ij->j", A, A)
    for sweep in range(_MAX_SWEEPS):
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = float(A[:, p] @ A[:, q])
                app, aqq = sq[p], sq[q]
                if abs(apq) <= 0.5 * _EPS * np.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ap = A[:, p].copy()
                A[:, p] = c * ap - s * A[:, q]
                A[:, q] = s * ap + c * A[:, q]
                vp = V[:, p].copy()
                V[:, p] = c * vp - s * V[:, q]
                V[:, q] = s * vp + c * V[:, q]
                # closed-form Gram updates (clamped: near rank deficiency the
                # update can round below zero); refresh with true dots every
                # few sweeps so roundoff in the running values cannot accumulate
                sq[p] = max(app - t * apq, 0.0)
                sq[q] = max(aqq + t * apq, 0.0)
        if not rotated:
            break
        if sweep % 4 == 3:
            sq = np.einsum("ij,ij->j", A, A)

    sigma = np.sqrt(np.einsum("ij,ij->j", A, A))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    A = A[:, order]
    V = V[:, order]
    U = np.zeros_like(A)
    for j in range(k):
        if sigma[j] > 0.0:
            U[:, j] = A[:, j] / sigma[j]
    return U, sigma, V


@dataclass
class SmallGsvd:
    """Joint singular data of the projected factor pair.

    ``C`` is strictly decreasing, ``S`` increasing, and C**2 + S**2 = 1 up to
    the joint-identity defect.  ``W`` is shared between both factors;
    ``P``/``Pbar`` hold the corresponding left vectors.  ``flagged`` is set
    when the joint identity (or the derived C/S consistency) degrades beyond
    what the residual bounds can tolerate.
    """

    C: np.ndarray
    S: np.ndarray
    W: np.ndarray
    P: np.ndarray
    Pbar: np.ndarray
    identity_defect: float
    flagged: bool = False
    notes: list = field(default_factory=list)

    @property
    def k(self):
        return len(self.C)


def _as_dense(factor):
    dense = np.asarray(factor, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("expected a matrix")
    return dense


def small_gsvd(B, Bbar, identity_tol=1e-8, cross_check_tol=1e-8):
    """Extract joint GSVD data from the factor pair {B, Bbar}.

    ``B`` may be (k+1) x k or k x k; ``Bbar`` is the signed k x k companion
    with B.T B + Bbar.T Bbar = I.  The SVD of B supplies C, W and P; then
    S_i = ||Bbar w_i|| and pbar_i = Bbar w_i / S_i, which keeps a single W
    shared by both factors.  Each w_i is sign-fixed so its largest-magnitude
    entry is positive, making the output deterministic.

    The joint identity and the consistency of S against sqrt(1 - C**2) are
    checked; violations set ``flagged`` rather than raising, because a
    flagged extraction is still the best available data for diagnostics.
    """
    Bd = _as_dense(B)
    Bbard = _as_dense(Bbar)
    k = Bd.shape[1]
    if Bbard.shape != (k, k):
        raise ValueError(f"factor pair disagrees on k: B has {k} columns, "
                         f"companion is {Bbard.shape}")

    identity_defect = 0.0
    if k:
        gram = Bd.T @ Bd + Bbard.T @ Bbard
        identity_defect = float(np.max(np.abs(gram - np.eye(k))))
    notes = []
    flagged = False
    if identity_defect > identity_tol:
        flagged = True
        notes.append(f"joint identity defect {identity_defect:.3e} exceeds {identity_tol:.1e}")

    P, C, W = jacobi_svd(Bd)

    # deterministic signs: dominant entry of each w positive
    for j in range(k):
        lead = int(np.argmax(np.abs(W[:, j])))
        if W[lead, j] < 0.0:
            W[:, j] = -W[:, j]
            P[:, j] = -P[:, j]

    BW = Bbard @ W
    S = np.linalg.norm(BW, axis=0)
    Pbar = np.zeros_like(BW)
    for j in range(k):
        if S[j] > 0.0:
            Pbar[:, j] = BW[:, j] / S[j]
        else:
            flagged = True
            notes.append(f"companion singular value {j} vanished")

    if k:
        cross = np.max(np.abs(S - np.sqrt(np.clip(1.0 - C**2, 0.0, None))))
        if cross > cross_check_tol:
            flagged = True
            notes.append(f"C/S cross-check defect {cross:.3e} exceeds {cross_check_tol:.1e}")

    return SmallGsvd(C=C, S=S, W=W, P=P, Pbar=Pbar,
                     identity_defect=identity_defect, flagged=flagged, notes=notes)


def inverse_norm_estimates(B, Bhat):
    """Spectral norms of the inverted leading blocks, (||B_lead^-1||, ||Bhat^-1||).

    ``B_lead`` is the leading k x k block of B.  These feed the conditioning
    diagnostic that decides whether the cheap residual bounds can be trusted;
    they are estimates, so the singular values come from a dense SVD rather
    than the high-accuracy Jacobi path.  A numerically singular block maps
    to +inf.
    """
    Bd = _as_dense(B)
    Bhatd = _as_dense(Bhat)
    k = Bd.shape[1]

    def inv_norm(mat):
        if mat.shape[0] == 0:
            return 0.0
        smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
        if smin <= 0.0:
            return float("inf")
        return 1.0 / smin

    return inv_norm(Bd[:k, :k]), inv_norm(Bhatd)
