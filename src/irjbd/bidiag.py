"""Small dense bidiagonal factors and their joint SVD extraction.

The projected factors produced by the joint bidiagonalization are a lower
bidiagonal B ((k+1) x k) and a signed upper bidiagonal companion whose Gram
matrices sum to the identity.  Approximate GSVD data is read off from their
SVDs, which share a single right-vector matrix W exactly when that identity
holds; extraction therefore computes one SVD (of B) by one-sided Jacobi and
derives the companion's singular data through W, keeping the shared-W
structure exact by construction and making any loss of the joint identity
observable as a defect flag.

The Jacobi sweeps use the round-robin (parallel) ordering, so each round of
disjoint column pairs is one set of array operations, and stop at the
threshold of LAPACK ``dgesvj``: a pair is orthogonal once
|a_p . a_q| <= sqrt(nrows) * eps * ||a_p|| ||a_q||.  Below that the computed
dot is rounding noise and a rotation changes no stored entry, so sweeping
on would cost time and gain nothing.  Jacobi keeps the high relative
accuracy (Demmel & Veselic, 1992) that the dense oracle checks rely on.

Why Jacobi stays (measured on 2 CPUs, numpy 2.4.6, one BLAS thread): with
``np.linalg.svd`` in ``small_gsvd`` tier-1 still passes and ``pairs200`` is
about 38% faster (1.29 -> 0.80 s) with the same counts.  While thick restart
kept smallest-mode Ritz columns in decreasing order, that swap needed 73
restarts instead of 10 on the warning-regime pair of ``test_acceptance`` at
sigma_min = 1e-11 and used up maxit = 200 at 1e-13.  Under the extreme-first
order of ``driver.extract_ritz`` it matches Jacobi's restarts there (seeds
0-5, both restart modes), so no test separates the two any more; Jacobi
stays for its accuracy guarantee on the small values until more pairs say
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import hypot, sqrt

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


@lru_cache(maxsize=16)
def _round_robin(k):
    """Parallel-ordering schedule of one sweep over k columns.

    Returns an int array of shape (rounds, 2, k // 2): in each round, row 0
    holds the lower index p and row 1 the upper index q of k // 2 disjoint
    pairs, and every pair p < q occurs in exactly one round.  The circle
    method gives k - 1 rounds for even k; odd k gets one idle slot, so k
    rounds of (k - 1) // 2 pairs.  The cached array is read-only.
    """
    n = k + k % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        rounds.append([(min(a, b), max(a, b))
                       for a, b in zip(ring[: n // 2], ring[::-1]) if max(a, b) < k])
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    schedule = np.array(rounds, dtype=np.intp).reshape(n - 1, k // 2, 2).transpose(0, 2, 1)
    schedule.flags.writeable = False
    return schedule


def jacobi_svd(M):
    """Thin SVD of a small dense matrix by one-sided Jacobi.

    Right rotations orthogonalize the columns, giving high relative accuracy
    on the small, well-scaled factors this solver produces.  Each sweep runs
    the round-robin (parallel) ordering: the pairs of a round are disjoint,
    so their dots and rotations are computed as whole arrays.  A pair counts
    as orthogonal once |a_p . a_q| <= sqrt(nrows) * eps * ||a_p|| ||a_q||,
    the threshold of LAPACK ``dgesvj``: below it the computed dot is
    rounding noise, and a rotation changes no stored entry.  Singular values
    are returned in decreasing order; the U column of a zero singular value
    is zero.

    Returns
    -------
    (U, sigma, V) with M = U @ diag(sigma) @ V.T, U of shape (nrows, k).
    """
    M = np.asarray(M, dtype=np.float64)
    nrows, k = M.shape
    if nrows < k:
        raise ValueError("jacobi_svd expects nrows >= ncols")
    if k == 0:
        return np.zeros((nrows, 0)), np.zeros(0), np.eye(0)

    # row j of X is column j of A followed by column j of V, so one gather
    # and one scatter per round rotate both
    X = np.empty((k, nrows + k))
    X[:, :nrows] = M.T
    X[:, nrows:] = np.eye(k)
    A = X[:, :nrows]
    tol = sqrt(nrows) * _EPS
    schedule = _round_robin(k)

    sq = np.einsum("ij,ij->i", A, A)
    for sweep in range(_MAX_SWEEPS):
        rotated = False
        for pair in schedule:
            Xp, Xq = X[pair]
            apq = np.einsum("ij,ij->i", Xp[:, :nrows], Xq[:, :nrows])
            app, aqq = sq[pair]
            active = np.abs(apq) > tol * np.sqrt(app * aqq)
            if not active.any():
                continue
            rotated = True
            if not active.all():
                pair = pair[:, active]
                Xp, Xq, apq = Xp[active], Xq[active], apq[active]
                app, aqq = app[active], aqq[active]
            tau = (aqq - app) / (2.0 * apq)
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t[tau == 0.0] = 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            X[pair[0]] = c[:, None] * Xp - s[:, None] * Xq
            X[pair[1]] = s[:, None] * Xp + c[:, None] * Xq
            # closed-form Gram updates (clamped: near rank deficiency the
            # update can round below zero); refresh with true dots every
            # few sweeps so roundoff in the running values cannot accumulate
            sq[pair[0]] = np.maximum(app - t * apq, 0.0)
            sq[pair[1]] = np.maximum(aqq + t * apq, 0.0)
        if not rotated:
            break
        if sweep % 4 == 3:
            sq = np.einsum("ij,ij->i", A, A)

    sigma = np.sqrt(np.einsum("ij,ij->i", A, A))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    X = X[order]
    U = np.zeros((nrows, k))
    live = sigma > 0.0
    U[:, live] = (X[live, :nrows] / sigma[live, None]).T
    return U, sigma, X[:, nrows:].T


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
    if k:
        flip = W[np.argmax(np.abs(W), axis=0), np.arange(k)] < 0.0
        W[:, flip] = -W[:, flip]
        P[:, flip] = -P[:, flip]

    BW = Bbard @ W
    S = np.linalg.norm(BW, axis=0)
    Pbar = np.zeros_like(BW)
    live = S > 0.0
    Pbar[:, live] = BW[:, live] / S[live]
    for j in np.flatnonzero(~live):
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
