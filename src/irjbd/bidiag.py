"""Small dense bidiagonal factors and their joint SVD extraction.

The projected factors produced by the joint bidiagonalization are a lower
bidiagonal B ((k+1) x k) and a signed upper bidiagonal companion whose Gram
matrices sum to the identity; after a restart the companion is upper
triangular and bidiagonal up to that identity's defect.  Approximate GSVD
data is read off from their SVDs, which share a single right-vector matrix
W exactly when that identity holds; extraction therefore computes one
LAPACK SVD (of B) and derives the companion's singular data through W,
keeping the shared-W structure exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``C`` is nonincreasing, ``S`` nondecreasing, and C**2 + S**2 = 1 to the
    accuracy of the pair's joint identity.  ``W`` is shared between both
    factors; ``P``/``Pbar`` hold the corresponding left vectors.
    """

    C: np.ndarray
    S: np.ndarray
    W: np.ndarray
    P: np.ndarray
    Pbar: np.ndarray

    @property
    def k(self):
        return len(self.C)


def small_gsvd(B, Bbar):
    """Extract joint GSVD data from the factor pair {B, Bbar}.

    ``B`` may be (k+1) x k or k x k; ``Bbar`` is the signed k x k companion
    with B.T B + Bbar.T Bbar = I.  The SVD of B supplies C, W and P; then
    S_i = ||Bbar w_i|| and pbar_i = Bbar w_i / S_i (zero where S_i
    vanishes), which keeps a single W shared by both factors.  Each w_i is
    sign-fixed so its largest-magnitude entry is positive, making the output
    deterministic.  The joint identity is not checked here; every restart
    checks it first and refuses a degraded pair.
    """
    B = np.asarray(B, dtype=np.float64)
    Bbar = np.asarray(Bbar, dtype=np.float64)
    k = B.shape[1]
    if Bbar.shape != (k, k):
        raise ValueError(f"factor pair disagrees on k: B has {k} columns, "
                         f"companion is {Bbar.shape}")

    P, C, Wt = np.linalg.svd(B, full_matrices=False)
    W = Wt.T

    # deterministic signs: dominant entry of each w positive
    if k:
        flip = W[np.argmax(np.abs(W), axis=0), np.arange(k)] < 0.0
        W[:, flip] = -W[:, flip]
        P[:, flip] = -P[:, flip]

    BW = Bbar @ W
    S = np.linalg.norm(BW, axis=0)
    Pbar = np.zeros_like(BW)
    live = S > 0.0
    Pbar[:, live] = BW[:, live] / S[live]
    return SmallGsvd(C=C, S=S, W=W, P=P, Pbar=Pbar)


def inverse_norm_estimates(B, Bhat):
    """Spectral norms of the inverted leading blocks, (||B_lead^-1||, ||Bhat^-1||).

    ``B_lead`` is the leading k x k block of B.  These feed the conditioning
    diagnostic that warns when the cheap residual bounds may not be trusted;
    only the smallest singular value of each block is needed.  A
    numerically singular block maps to +inf.
    """
    Bd = np.asarray(B, dtype=np.float64)
    Bhatd = np.asarray(Bhat, dtype=np.float64)
    k = Bd.shape[1]

    def inv_norm(mat):
        if mat.shape[0] == 0:
            return 0.0
        smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
        if smin <= 0.0:
            return float("inf")
        return 1.0 / smin

    return inv_norm(Bd[:k, :k]), inv_norm(Bhatd)
