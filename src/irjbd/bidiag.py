"""Small dense bidiagonal factors and their joint SVD extraction.

The projected factors produced by the joint bidiagonalization are a lower
bidiagonal B ((k+1) x k) and a signed upper bidiagonal companion whose Gram
matrices sum to the identity.  Approximate GSVD data is read off from their
SVDs, which share a single right-vector matrix W exactly when that identity
holds; extraction therefore computes one LAPACK SVD (of B) and derives the
companion's singular data through W, keeping the shared-W structure exact
by construction and making any loss of the joint identity observable as a
defect flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import hypot

import numpy as np

__all__ = [
    "SmallGsvd",
    "givens",
    "small_gsvd",
    "inverse_norm_estimates",
]


def givens(a, b):
    """Plane rotation (c, s, r) with [[c, s], [-s, c]] @ (a, b) = (r, 0), r >= 0."""
    r = hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


@dataclass
class SmallGsvd:
    """Joint singular data of the projected factor pair.

    ``C`` is nonincreasing, ``S`` nondecreasing, and C**2 + S**2 = 1 up to
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

    P, C, Wt = np.linalg.svd(Bd, full_matrices=False)
    W = Wt.T

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
    diagnostic that warns when the cheap residual bounds may not be trusted;
    only the smallest singular value of each block is needed.  A
    numerically singular block maps to +inf.
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
