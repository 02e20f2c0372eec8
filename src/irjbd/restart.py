"""Restarting the joint bidiagonalization at a smaller subspace size.

Implicit restart runs shifted bulge-chasing QR sweeps on the lower
bidiagonal factor, restores the signed upper companion by one QR of
Bbar P (one shift pair lambda^2 + mu^2 = 1 drives both factors, so the
companion never needs its own shift or chase), truncates every basis to the
leading block, and reassembles the pending right vector from its two
boundary terms.  The sweeps chase one bulge on scalars and fold each
sweep's rotation chains into G and P as one Hessenberg product apiece.
Thick restart instead rotates the bases onto the leading Ritz directions of
an extreme-first extraction and keeps full coupling rows.

Both paths build their result with ``JbdState.restarted`` (the implicit
one then hands its raw new pending vector to ``JbdState.set_pending``,
which orthogonalizes and normalizes it), and it expands through the
ordinary process code.
"""

from __future__ import annotations

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
_ZERO_SCALE = 64.0  # companion zeroing threshold per shift, in units of eps * ||Bbar||_F


class CouplingDefectError(RuntimeError):
    """The factor pair is too degraded to restart, or its companion to restore."""


@dataclass
class SweepRotations:
    """Accumulated orthogonal transforms of a multi-shift restart.

    G and P are products of plane-rotation chains and Gbar is the Q factor
    of Bbar P, so all three are banded: entry (i, j) vanishes whenever
    i - j exceeds the number of shifts applied.
    """

    G: np.ndarray
    P: np.ndarray
    Gbar: np.ndarray


def _chain_products(c, s):
    """Products R_0 R_1 ... R_{n-2} of plane-rotation chains on (j, j+1), batched.

    ``c`` and ``s`` hold one chain per leading index.  R_j mixes columns j
    and j+1 of whatever it multiplies from the right, with the block
    [[c_j, -s_j], [s_j, c_j]].  Each product is upper Hessenberg with s on
    the subdiagonal, and entry (i, j) on or above the diagonal is
    c_{i-1} c_j prod_{i <= l < j} (-s_l), taking c_{-1} = c_{n-1} = 1; one
    cumprod over a triangle of -s builds it in O(n^2) numpy work.
    """
    n = c.shape[-1] + 1
    one = np.ones(c.shape[:-1] + (1,))
    runs = np.cumprod(np.where(np.tri(n, dtype=bool), 1.0,
                               np.concatenate((one, -s), axis=-1)[..., None, :]), axis=-1)
    H = np.triu(runs * np.concatenate((one, c), axis=-1)[..., :, None]
                * np.concatenate((c, one), axis=-1)[..., None, :])
    idx = np.arange(n - 1)
    H[..., idx + 1, idx] = s
    return H


def _sweep(d, e, lam):
    """One shifted sweep on the lower bidiagonal entries, in place.

    ``d``/``e`` are the diagonal and subdiagonal of the (k+1) x k lower
    factor B, as Python floats; the chase carries a single bulge, as
    LAPACK's dbdsqr does.  The opening rotation annihilates the (2,1) entry
    of B B^T - lam^2 I — only the first column of that product is ever
    formed — and the remaining rotations chase the bulge back to lower
    bidiagonal form.  Composed exact-shift sweeps must tolerate reduced
    factors: deflating the shifted value into the trailing block (a
    vanishing coupling) is precisely their purpose.

    Returns the (c, s) chains of the left and the right rotations, in
    application order.
    """
    k = len(d)
    c, s, _ = givens(d[0] * d[0] - lam * lam, d[0] * e[0])
    d[0], e[0] = c * d[0] + s * e[0], -s * d[0] + c * e[0]
    if k > 1:
        bulge, d[1] = s * d[1], c * d[1]
    left, right = [(c, s)], []
    for j in range(k - 1):
        # annihilate the superdiagonal bulge (j, j+1) from the right
        c, s, d[j] = givens(d[j], bulge)
        e[j], d[j + 1] = c * e[j] + s * d[j + 1], -s * e[j] + c * d[j + 1]
        bulge, e[j + 1] = s * e[j + 1], c * e[j + 1]
        right.append((c, s))
        # annihilate the subdiagonal bulge (j+2, j) from the left
        c, s, e[j] = givens(e[j], bulge)
        d[j + 1], e[j + 1] = c * d[j + 1] + s * e[j + 1], -s * d[j + 1] + c * e[j + 1]
        if j + 2 < k:
            bulge, d[j + 2] = s * d[j + 2], c * d[j + 2]
        left.append((c, s))
    return left, right


def _sweeps(B, Bbar, shifts, base_tol):
    """Run one sweep of B per shift, then restore the companion by one QR.

    Only the diagonal and the one off-diagonal of each factor are read;
    everything else counts as zero.  Each sweep's two rotation chains are
    multiplied into G and P as one upper-Hessenberg product apiece.  The
    shifted sweeps of B, applied to the companion, would give
    Bbar P = Gbar Bbar' with Bbar' upper bidiagonal (one shift pair
    lambda^2 + mu^2 = 1 drives both factors), so by the implicit-Q theorem
    Gbar and Bbar' are the QR factors of Bbar P, with Bbar' signed to a
    nonnegative diagonal.  Entries of that R beyond the superdiagonal
    measure how far the pair has decoupled: up to ``base_tol`` per shift
    they are dropped, beyond it they raise.  The returned factors are
    exactly bidiagonal in storage.
    """
    d, e = B.diagonal().tolist(), B.diagonal(-1).tolist()
    k = len(d)
    # G and P stacked, P padded to k + 1 by a unit corner: an identity
    # rotation closes its k - 1 chain, so one batched product per sweep
    # updates both
    acc = np.stack([np.eye(k + 1)] * 2)
    for lam in shifts:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"shift {lam} outside [0, 1]")
        left, right = _sweep(d, e, float(lam))
        chains = np.array([left, right + [(1.0, 0.0)]])
        acc = acc @ _chain_products(chains[..., 0], chains[..., 1])
    P = acc[1, :k, :k]
    Gbar, R = np.linalg.qr(np.tril(np.triu(Bbar), 1) @ P)
    signs = np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
    Gbar *= signs
    R *= signs[:, None]
    zero_tol = base_tol * len(shifts)
    residue = float(np.max(np.abs(np.triu(R, 2))))
    if residue > zero_tol:
        raise CouplingDefectError(
            f"companion entry {residue:.3e} beyond the superdiagonal exceeds the "
            f"zeroing threshold {zero_tol:.3e}; lower/upper sweeps have decoupled"
        )
    Bp = np.zeros((k + 1, k))
    np.fill_diagonal(Bp, d)
    np.fill_diagonal(Bp[1:], e)
    rot = SweepRotations(G=acc[0], P=P, Gbar=Gbar)
    return Bp, np.tril(R, 1), rot


def accumulate_sweeps(B, Bbar, shifts):
    """Run one shifted sweep per shift, accumulating all three transforms.

    ``B`` and ``Bbar`` are dense copies of the factor pair; the returned
    factors are exactly bidiagonal in storage.  The companion can only be
    restored to upper bidiagonal form to the accuracy of the pair's joint
    identity, so the zeroing threshold scales with the identity defect the
    pair brings in, and with the number of composed sweeps.  Off-pattern
    noise carried in by the input factors is dropped under the same
    threshold discipline.
    """
    B = np.asarray(B, dtype=np.float64)
    Bbar = np.asarray(Bbar, dtype=np.float64)
    k = B.shape[1]
    if B.shape[0] != k + 1:
        raise ValueError("lower sweep expects a (k+1) x k factor")
    if Bbar.shape != (k, k):
        raise ValueError("upper sweep expects a square k x k factor")

    identity_defect = float(np.max(np.abs(B.T @ B + Bbar.T @ Bbar - np.eye(k))))
    offpattern = max(float(np.max(np.abs(M))) for M in (
        np.triu(B, 1), np.tril(B, -2), np.tril(Bbar, -1), np.triu(Bbar, 2)))
    # the companion can only be restored to the accuracy the state brings
    # in: its joint-identity defect and the off-pattern noise left by the
    # inner least-squares solves both cap the achievable residue level
    base_tol = max(_ZERO_SCALE * _EPS * max(1.0, float(np.linalg.norm(Bbar))),
                   8.0 * identity_defect, 4.0 * offpattern)
    if base_tol > 1e-6 * max(1.0, float(np.linalg.norm(Bbar))):
        raise CouplingDefectError(
            f"factor pair too degraded to restart: identity defect "
            f"{identity_defect:.3e}, off-pattern noise {offpattern:.3e}"
        )
    return _sweeps(B, Bbar, shifts, base_tol)


def _check_restartable(state, l):
    """Raise ValueError unless the open, unexhausted state can shrink to l columns."""
    k = state.k
    if not 1 <= l < k:
        raise ValueError(f"need 1 <= l < k, got l={l}, k={k}")
    if state.exhausted or state.n_left != k + 1:
        raise ValueError("cannot restart an exhausted or closed state")


def multi_step_implicit_restart(state, shifts, l):
    """Shrink a k-column state to l columns through k - l shifted sweeps.

    The rotated bases are truncated to their leading blocks and the pending
    right vector is rebuilt from its two boundary contributions (the old
    pending vector scaled by the corner entry of G, plus the first discarded
    rotated column) and handed to ``JbdState.set_pending``, which
    reorthogonalizes it against the kept right basis, renormalizes it and
    recomputes the trailing companion coupling from the joint-identity
    recurrence, so the restarted state expands exactly like a fresh one.
    """
    _check_restartable(state, l)
    k = state.k
    shifts = np.asarray(shifts, dtype=np.float64)
    if len(shifts) != k - l:
        raise ValueError(f"need k - l = {k - l} shifts, got {len(shifts)}")
    if not state.is_canonical:
        raise ValueError("implicit restart requires canonical bidiagonal factors")

    Bp, Bbarp, rot = accumulate_sweeps(state.Bdense, state.Bbardense, shifts)
    # set_pending divides by the kept block's trailing companion diagonal
    abar_last = Bbarp[l - 1, l - 1]
    if abs(abar_last) < state.breakdown_tol:
        raise BreakdownError("alphahat", l, abar_last)

    vp_ext = state.Vprime @ rot.P[:, : l + 1]
    t_ext = state.preimages @ rot.P[:, : l + 1]
    new = state.restarted(l, state.U @ rot.G[:, : l + 1], state.Uhat @ rot.Gbar[:, :l],
                          vp_ext[:, :l], t_ext[:, :l], Bp[: l + 1, :l], Bbarp[:l, :l])

    # pending right vector: corner-of-G times the old pending vector plus the
    # first rotated column beyond the kept block
    corner = rot.G[k, l]
    alpha = new.set_pending(state.alpha_next * corner * state.vp_next + Bp[l, l] * vp_ext[:, l],
                            state.alpha_next * corner * state.t_next + Bp[l, l] * t_ext[:, l])
    if alpha < state.breakdown_tol:
        raise BreakdownError("alpha", l + 1, alpha)
    return new


def thick_restart(state, ritz, l):
    """Rotate the state onto l kept Ritz directions plus the coupling rows.

    Keeps the leading l Ritz triplets of the extraction, which come
    extreme-first (the wanted end leads, whichever end that is), producing
    diagonal projected factors and full coupling rows; the pending right
    vector is unchanged.  Unlike the banded transforms of the implicit
    restart, the applied rotation blocks are dense.
    """
    _check_restartable(state, l)
    if ritz.k != state.k:
        raise ValueError("extraction size does not match the state")

    # complete the left singular basis with its orthogonal complement vector
    qfull, _ = np.linalg.qr(ritz.P, mode="complete")
    p_extra = qfull[:, -1]
    lead = int(np.argmax(np.abs(p_extra)))
    if p_extra[lead] < 0.0:
        p_extra = -p_extra
    left_map = np.column_stack([ritz.P[:, :l], p_extra])

    return state.restarted(l, state.U @ left_map, state.Uhat @ ritz.Pbar[:, :l],
                           state.Vprime @ ritz.W[:, :l], state.preimages @ ritz.W[:, :l],
                           np.vstack([np.diag(ritz.C[:l]), np.zeros(l)]),
                           np.diag(ritz.S[:l]),
                           couplings=(left_map.T @ state.coupling_u,
                                      ritz.Pbar[:, :l].T @ state.coupling_uhat))
