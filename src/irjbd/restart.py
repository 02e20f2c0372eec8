"""Restarting the joint bidiagonalization at a smaller subspace size.

Implicit restart runs shifted bulge-chasing QR sweeps on the lower
bidiagonal factor, reuses the right rotations of each sweep on the signed
upper companion (one shift pair lambda^2 + mu^2 = 1 drives both, so the
companion never needs its own shift), truncates every basis to the leading
block, and reassembles the pending right vector from its two boundary
terms.  Thick restart instead rotates the bases onto the leading (or
trailing) Ritz directions and keeps full coupling rows.

Both paths return states that expand through the ordinary process code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bidiag import givens
from .jbd import BreakdownError

__all__ = [
    "CouplingDefectError",
    "SweepRotations",
    "accumulate_sweeps",
    "multi_step_implicit_restart",
    "thick_restart",
]

_EPS = float(np.finfo(np.float64).eps)
_ZERO_SCALE = 64.0  # rotation-residue zeroing threshold, in units of eps * ||Bbar||_F


class CouplingDefectError(RuntimeError):
    """A to-be-annihilated entry of the coupled sweep exceeded the residue threshold."""


@dataclass
class SweepRotations:
    """Accumulated orthogonal transforms of a multi-shift restart.

    Each factor is a product of plane-rotation chains, hence banded: entry
    (i, j) vanishes whenever i - j exceeds the number of shifts applied.
    """

    G: np.ndarray
    P: np.ndarray
    Gbar: np.ndarray
    nshifts: int


def _mix_columns(M, j, c, s):
    cj = M[:, j].copy()
    M[:, j] = c * cj + s * M[:, j + 1]
    M[:, j + 1] = -s * cj + c * M[:, j + 1]


def _mix_rows(M, i, c, s):
    ri = M[i, :].copy()
    M[i, :] = c * ri + s * M[i + 1, :]
    M[i + 1, :] = -s * ri + c * M[i + 1, :]


def _lower_sweep(B, lam, Gacc, Pacc):
    """One shifted implicit QR sweep on a (k+1) x k lower bidiagonal B, in place.

    The opening rotation is chosen to annihilate the (2,1) entry of
    B B^T - lam^2 I — only the first column of that product is ever formed —
    and the remaining rotations chase the bulge back to lower bidiagonal
    form.  Returns the right-rotation parameters for reuse on the companion.

    Composed exact-shift sweeps must tolerate reduced factors: deflating the
    shifted value into the trailing block (a vanishing coupling) is
    precisely their purpose, and decoupling is policed by the companion
    sweep's residue checks instead.
    """
    k = B.shape[1]

    # opening rotation from the first column of the shifted product
    a = B[0, 0] * B[0, 0] - lam * lam
    b = B[0, 0] * B[1, 0]
    c, s, _ = givens(a, b)
    _mix_rows(B, 0, c, s)
    _mix_columns(Gacc, 0, c, s)

    right_rotations = []
    for j in range(k - 1):
        # annihilate the superdiagonal bulge (j, j+1) from the right
        c, s, r = givens(B[j, j], B[j, j + 1])
        _mix_columns(B, j, c, s)
        B[j, j] = r
        B[j, j + 1] = 0.0
        right_rotations.append((j, c, s))
        _mix_columns(Pacc, j, c, s)
        # annihilate the subdiagonal bulge (j+2, j) from the left
        c2, s2, r2 = givens(B[j + 1, j], B[j + 2, j])
        _mix_rows(B, j + 1, c2, s2)
        B[j + 1, j] = r2
        B[j + 2, j] = 0.0
        _mix_columns(Gacc, j + 1, c2, s2)
    return right_rotations


def _upper_sweep(Bbar, right_rotations, Gbacc, zero_tol):
    """Coupled sweep on the signed upper companion, reusing the right rotations.

    Each reused rotation is expected to annihilate the superdiagonal residue
    left by the previous left rotation; residues are zeroed in storage when
    within ``zero_tol`` and reported as a coupling defect otherwise, keeping
    the stored factor exactly upper bidiagonal.
    """
    k = Bbar.shape[0]
    if Bbar.shape != (k, k):
        raise ValueError("upper sweep expects a square factor")

    for j, c, s in right_rotations:
        _mix_columns(Bbar, j, c, s)
        if j >= 1:
            residue = abs(Bbar[j - 1, j + 1])
            if residue > zero_tol:
                raise CouplingDefectError(
                    f"entry ({j - 1}, {j + 1}) = {residue:.3e} exceeds the zeroing "
                    f"threshold {zero_tol:.3e}; lower/upper sweeps have decoupled"
                )
            Bbar[j - 1, j + 1] = 0.0
        c2, s2, r2 = givens(Bbar[j, j], Bbar[j + 1, j])
        _mix_rows(Bbar, j, c2, s2)
        Bbar[j, j] = r2
        Bbar[j + 1, j] = 0.0
        _mix_columns(Gbacc, j, c2, s2)


def _offpattern_lower(B):
    k = B.shape[1]
    mask = np.ones_like(B, dtype=bool)
    idx = np.arange(k)
    mask[idx, idx] = False
    mask[idx + 1, idx] = False
    return mask


def _offpattern_upper(Bbar):
    k = Bbar.shape[0]
    mask = np.ones_like(Bbar, dtype=bool)
    idx = np.arange(k)
    mask[idx, idx] = False
    if k > 1:
        mask[idx[:-1], idx[:-1] + 1] = False
    return mask


def accumulate_sweeps(B, Bbar, shifts):
    """Run one coupled sweep per shift, accumulating all three transforms.

    ``B`` and ``Bbar`` are dense copies of the factor pair; the returned
    factors are exactly bidiagonal in storage.  The sweeps can only keep the
    two factors coupled to the accuracy of their joint identity, so the
    residue-zeroing threshold scales with the identity defect the pair
    brings in, and grows with each composed sweep (every sweep's explicit
    zeroing perturbs the identity the next sweep relies on).  Off-pattern
    noise carried in by the input factors is zeroed under the same
    threshold discipline.
    """
    B = np.array(B, dtype=np.float64)
    Bbar = np.array(Bbar, dtype=np.float64)
    k = B.shape[1]
    if B.shape[0] != k + 1:
        raise ValueError("lower sweep expects a (k+1) x k factor")
    Gacc = np.eye(k + 1)
    Pacc = np.eye(k)
    Gbacc = np.eye(k)

    identity_defect = float(np.max(np.abs(B.T @ B + Bbar.T @ Bbar - np.eye(k))))
    offpattern = 0.0
    masked = ((B, _offpattern_lower(B)), (Bbar, _offpattern_upper(Bbar)))
    for M, mask in masked:
        if np.any(mask):
            offpattern = max(offpattern, float(np.max(np.abs(M[mask]))))
    # the sweeps can only stay coupled to the accuracy the state brings in:
    # its joint-identity defect and the off-pattern noise left by the inner
    # least-squares solves both cap the achievable residue level
    base_tol = max(_ZERO_SCALE * _EPS * max(1.0, float(np.linalg.norm(Bbar))),
                   8.0 * identity_defect, 4.0 * offpattern)
    if base_tol > 1e-6 * max(1.0, float(np.linalg.norm(Bbar))):
        raise CouplingDefectError(
            f"factor pair too degraded to restart: identity defect "
            f"{identity_defect:.3e}, off-pattern noise {offpattern:.3e}"
        )
    for M, mask in masked:
        M[mask] = 0.0

    for step, lam in enumerate(shifts):
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"shift {lam} outside [0, 1]")
        rights = _lower_sweep(B, float(lam), Gacc, Pacc)
        _upper_sweep(Bbar, rights, Gbacc, zero_tol=base_tol * (step + 1))
    return B, Bbar, SweepRotations(G=Gacc, P=Pacc, Gbar=Gbacc, nshifts=len(shifts))


def multi_step_implicit_restart(state, shifts, l):
    """Shrink a k-column state to l columns through k - l coupled sweeps.

    The rotated bases are truncated to their leading blocks and the pending
    right vector is rebuilt from its two boundary contributions (the old
    pending vector scaled by the corner entry of G, plus the first discarded
    rotated column), then reorthogonalized once against the kept right basis
    and renormalized.  The trailing companion coupling is recomputed from
    the joint-identity recurrence so the restarted state expands exactly
    like a fresh one.
    """
    k = state.k
    shifts = np.asarray(shifts, dtype=np.float64)
    if len(shifts) == 0:
        warnings.warn("implicit restart with no shifts is a no-op", stacklevel=2)
        return state
    if not 1 <= l < k:
        raise ValueError(f"need 1 <= l < k, got l={l}, k={k}")
    if len(shifts) != k - l:
        raise ValueError(f"need k - l = {k - l} shifts, got {len(shifts)}")
    if state.exhausted or state.n_left != k + 1:
        raise ValueError("cannot restart an exhausted or closed state")
    if not state.is_canonical:
        raise ValueError("implicit restart requires canonical bidiagonal factors")

    Bp, Bbarp, rot = accumulate_sweeps(state.Bdense, state.Bbardense, shifts)

    new = state._blank_like()
    new.k = l
    new.n_left = l + 1
    new._U[:, : l + 1] = state.U @ rot.G[:, : l + 1]
    new._Uhat[:, :l] = state.Uhat @ rot.Gbar[:, :l]
    vp_ext = state.Vprime @ rot.P[:, : l + 1]
    t_ext = state.preimages @ rot.P[:, : l + 1]
    new._Vp[:, :l] = vp_ext[:, :l]
    new._T[:, :l] = t_ext[:, :l]
    new._B[: l + 1, :l] = Bp[: l + 1, :l]
    new._Bbar[:l, :l] = Bbarp[:l, :l]

    # pending right vector: corner-of-G times the old pending vector plus the
    # first rotated column beyond the kept block
    corner = rot.G[k, l]
    resid = state.alpha_next * corner * state.vp_next + Bp[l, l] * vp_ext[:, l]
    t_resid = state.alpha_next * corner * state.t_next + Bp[l, l] * t_ext[:, l]
    kept = new._Vp[:, :l]
    coef = kept.T @ resid
    resid = resid - kept @ coef
    t_resid = t_resid - new._T[:, :l] @ coef
    alpha = float(np.linalg.norm(resid))
    if alpha < state.breakdown_tol:
        raise BreakdownError("alpha", l + 1, alpha)
    new.vp_next = resid / alpha
    new.t_next = t_resid / alpha
    new.coupling_u = np.zeros(l + 1)
    new.coupling_u[-1] = alpha

    abar_last = Bbarp[l - 1, l - 1]
    if abs(abar_last) < state.breakdown_tol:
        raise BreakdownError("alphahat", l, abar_last)
    new.coupling_uhat = np.zeros(l)
    new.coupling_uhat[-1] = -alpha * Bp[l, l - 1] / abar_last
    return new


def thick_restart(state, ritz, l, target="largest"):
    """Rotate the state onto l kept Ritz directions plus the coupling rows.

    Keeps the leading (largest) or trailing (smallest) l Ritz triplets of the
    extraction, producing diagonal projected factors and full coupling rows;
    the pending right vector is unchanged.  Unlike the banded transforms of
    the implicit restart, the applied rotation blocks are dense.
    """
    k = state.k
    if not 1 <= l < k:
        raise ValueError(f"need 1 <= l < k, got l={l}, k={k}")
    if state.exhausted or state.n_left != k + 1:
        raise ValueError("cannot restart an exhausted or closed state")
    if ritz.k != k:
        raise ValueError("extraction size does not match the state")
    if target not in ("largest", "smallest"):
        raise ValueError("target must be 'largest' or 'smallest'")

    sel = np.arange(l) if target == "largest" else np.arange(k - l, k)

    # complete the left singular basis with its orthogonal complement vector
    qfull, _ = np.linalg.qr(ritz.P, mode="complete")
    p_extra = qfull[:, -1]
    lead = int(np.argmax(np.abs(p_extra)))
    if p_extra[lead] < 0.0:
        p_extra = -p_extra
    left_map = np.column_stack([ritz.P[:, sel], p_extra])

    new = state._blank_like()
    new.k = l
    new.n_left = l + 1
    new._U[:, : l + 1] = state.U @ left_map
    new._Uhat[:, :l] = state.Uhat @ ritz.Pbar[:, sel]
    new._Vp[:, :l] = state.Vprime @ ritz.W[:, sel]
    new._T[:, :l] = state.preimages @ ritz.W[:, sel]
    new._B[:l, :l] = np.diag(ritz.C[sel])
    new._Bbar[:l, :l] = np.diag(ritz.S[sel])

    new.vp_next = state.vp_next.copy()
    new.t_next = state.t_next.copy()
    new.coupling_u = left_map.T @ state.coupling_u
    new.coupling_uhat = ritz.Pbar[:, sel].T @ state.coupling_uhat
    return new
