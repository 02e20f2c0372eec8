"""Small dense bidiagonal factors and their joint SVD extraction.

The projected factors produced by the joint bidiagonalization are a lower
bidiagonal B ((k+1) x k) and a signed upper bidiagonal companion whose Gram
matrices sum to the identity; after a restart the companion is upper
triangular and bidiagonal up to that identity's defect.  Approximate GSVD
data is read off from their SVDs, which share a single right-vector matrix
W exactly when that identity holds; extraction therefore computes one
LAPACK SVD (of B) and derives the companion's singular data through W,
keeping the shared-W structure exact by construction; a restart takes B's
left null vector from the same SVD.
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
    factors; ``P``/``Pbar`` hold the corresponding left vectors, and
    ``null`` B's unit left null vector (None for a square B).
    """

    C: np.ndarray
    S: np.ndarray
    W: np.ndarray
    P: np.ndarray
    Pbar: np.ndarray
    null: np.ndarray | None = None

    @property
    def k(self):
        return len(self.C)


def small_gsvd(B, Bbar):
    """Extract joint GSVD data from the factor pair {B, Bbar}.

    ``B`` may be (k+1) x k or k x k; ``Bbar`` is the signed k x k companion
    with B.T B + Bbar.T Bbar = I.  The full SVD of B supplies C, W, P and,
    for a (k+1) x k B, the left null vector as U's last column; then
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

    U, C, Wt = np.linalg.svd(B, full_matrices=True)
    P, W = U[:, :k], Wt.T

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
    return SmallGsvd(C=C, S=S, W=W, P=P, Pbar=Pbar, null=U[:, k] if len(U) > k else None)


def inverse_norm_estimates(B, S):
    """Spectral norms of the inverted blocks, (||B_lead^-1||, ||Bbar^-1||).

    ``B_lead`` is the leading k x k block of B, and ``S`` the pair's
    ``small_gsvd`` values, Bbar's singular values up to the joint identity's
    defect.  Their product is the conditioning diagnostic ``diag_product``
    that each extraction records; it decides no label.  A numerically
    singular block maps to +inf; at k = 0 both estimates are 0.
    """
    Bd = np.asarray(B, dtype=np.float64)
    k = Bd.shape[1]
    if k == 0:
        return 0.0, 0.0
    smin = (np.linalg.svd(Bd[:k, :k], compute_uv=False)[-1], np.min(S))
    return tuple(float("inf") if s <= 0.0 else 1.0 / float(s) for s in smin)
