"""Restarting the joint bidiagonalization at a smaller subspace size.

Every restart truncates onto kept Ritz triplets and reduces the result back
to canonical bidiagonal form, the Krylov-Schur restart (Stewart, 2001):
``thick_restart`` keeps the leading triplets of an extreme-first
extraction, which purges the other values as exact shifts would.  Shifts
that are not Ritz values (those the adaptive rule replaced) still need
``multi_step_implicit_restart``: one bulge-chasing sweep of the lower
factor per shift, then one QR of Bbar P for the companion (one shift pair
lambda^2 + mu^2 = 1 drives both factors).  Both build their result with
``JbdState.restarted``, so it expands through the ordinary process code.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

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
    """A restart's transforms: G left of B, P right of both, Gbar left of Bbar."""

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
    bidiagonal form; a vanishing coupling in B is tolerated.

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


def _restart_tolerance(B, Bbar, companion_noise=True):
    """The companion zeroing threshold of a restart of {B, Bbar}, or a refusal.

    It scales with the pair's identity defect and off-pattern noise; above
    1e-6 the pair is too degraded to restart.  Bbar's entries beyond its
    superdiagonal count only with ``companion_noise``: they carry rounding
    amplified by 1/sigma_min(Bbar) near c = 1 (1.2e-6 on a first-difference
    L), while B's noise stays at rounding level unless inner solves fail.
    """
    k = B.shape[1]
    # i - j over B's (k+1) x k shape: B's pattern is 0 <= i - j <= 1 and
    # Bbar's, on the first k rows, -1 <= i - j <= 0
    offset = np.subtract.outer(np.arange(k + 1), np.arange(k))
    beyond = offset[:k] < -1 if companion_noise else False
    noise = np.concatenate((B[(offset < 0) | (offset > 1)], Bbar[(offset[:k] > 0) | beyond]))
    identity_defect = float(np.abs(B.T @ B + Bbar.T @ Bbar - np.eye(k)).max())
    offpattern = float(np.abs(noise).max(initial=0.0))
    scale = max(1.0, float(np.linalg.norm(Bbar)))
    base_tol = max(_ZERO_SCALE * _EPS * scale, 8.0 * identity_defect, 4.0 * offpattern)
    if base_tol > 1e-6 * scale:
        raise CouplingDefectError(
            f"factor pair too degraded to restart: identity defect "
            f"{identity_defect:.3e}, off-pattern noise {offpattern:.3e}"
        )
    return base_tol


def _signed_qr(M):
    """The QR factors of M, with R's diagonal signed nonnegative."""
    Q, R = np.linalg.qr(M)
    signs = np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
    return Q * signs, R * signs[:, None]


def _sweeps(B, Bbar, shifts, base_tol):
    """Run one sweep of B per shift, then restore the companion by one QR.

    Only the bands of the factors are read.  Each sweep's two rotation
    chains reach G and P as one upper-Hessenberg product apiece.  By the
    implicit-Q theorem Gbar and Bbar' are the QR factors of band(Bbar) P;
    entries of R beyond the superdiagonal, which measure how far the pair
    has decoupled, are dropped up to ``base_tol`` per shift and raise
    beyond it.  The factors returned are exactly bidiagonal in storage.
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
    Gbar, R = _signed_qr(np.tril(np.triu(Bbar), 1) @ P)
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
    return Bp, np.tril(R, 1), SweepRotations(G=acc[0], P=P, Gbar=Gbar)


def accumulate_sweeps(B, Bbar, shifts):
    """Run one shifted sweep per shift of the pair, accumulating all three transforms.

    The zeroing threshold is ``_restart_tolerance`` per sweep; off-pattern
    noise of the input factors is dropped.
    """
    B = np.asarray(B, dtype=np.float64)
    Bbar = np.asarray(Bbar, dtype=np.float64)
    k = B.shape[1]
    if B.shape[0] != k + 1:
        raise ValueError("lower sweep expects a (k+1) x k factor")
    if Bbar.shape != (k, k):
        raise ValueError("upper sweep expects a square k x k factor")
    return _sweeps(B, Bbar, shifts, _restart_tolerance(B, Bbar))


def _reflector(x):
    """v with ||v||^2 = 2 and (I - v v^T) x = ||x|| e_last, or zero when x already is that.

    Mapping onto +||x||, with Parlett's cancellation-free v[-1], leaves every
    entry the reflectors produce nonnegative.
    """
    last = float(x[-1])
    rest = float(x[:-1].dot(x[:-1]))
    norm = sqrt(rest + last * last)
    v_last = last - norm if last <= 0.0 else -rest / (last + norm)
    size = sqrt(0.5 * (rest + v_last * v_last))
    if not size:
        return np.zeros_like(x)
    v = x / size
    v[-1] = v_last / size
    return v


def _check_restartable(state, l):
    """Raise ValueError unless the open, unexhausted state can shrink to l columns."""
    k = state.k
    if not 1 <= l < k:
        raise ValueError(f"need 1 <= l < k, got l={l}, k={k}")
    if state.exhausted or state.n_left != k + 1:
        raise ValueError("cannot restart an exhausted or closed state")


def multi_step_implicit_restart(state, shifts, l):
    """Shrink a k-column state to l columns through k - l shifted sweeps.

    The rotated bases are truncated to their leading blocks, and the new
    pending right vector is the old one scaled by the corner entry of G plus
    the first discarded rotated column.
    """
    _check_restartable(state, l)
    k = state.k
    shifts = np.asarray(shifts, dtype=np.float64)
    if len(shifts) != k - l:
        raise ValueError(f"need k - l = {k - l} shifts, got {len(shifts)}")

    Bp, Bbarp, rot = accumulate_sweeps(state.Bdense, state.Bbardense, shifts)
    right = state.right @ rot.P[:, : l + 1]
    corner = state.alpha_next * rot.G[k, l]
    return state.restarted(l, state.U @ rot.G[:, : l + 1], state.Uhat @ rot.Gbar[:, :l],
                           right[:, :l], Bp[: l + 1, :l], Bbarp[:l, :l],
                           corner * state.pending + Bp[l, l] * right[:, l])


def _left_null_vector(P):
    """The unit q orthogonal to the k columns of an orthonormal (k+1) x k P.

    For B = P C W^T that is B's left null vector.  q is the unit vector e_j
    with both classical Gram-Schmidt passes against P taken out, j the row
    of P of least norm: (I - P P^T) e_j has squared norm 1 - ||P[j]||^2 >=
    1 / (k + 1), so the second pass leaves q orthogonal to P to working
    precision, and q[j] > 0.
    """
    j = int(np.argmin(np.einsum("ij,ij->i", P, P)))
    q = P @ -P[j]
    q[j] += 1.0
    q -= P @ (P.T @ q)
    return q / sqrt(q @ q)


def _reduce(B, Bbar, ritz, l):
    """Truncate {B, Bbar} onto the l leading triplets of ``ritz`` and reduce it.

    The kept left singular vectors and B's left null vector span the new
    left space, into which the pending right vector couples through the last
    row of that map.  One reflector turns the coupling onto the last left
    vector; then, bottom up, a right reflector clears row j+1 left of column
    j and a left reflector on rows <= j clears column j above row j.  The
    reflectors act on the (l+1) x l factor and accumulate in two square
    transforms, which rotate the truncation maps once at the end.  The
    companion is the R factor of Bbar P, kept whole: it is bidiagonal up to
    the identity defect, the couplings need only a triangular one, and
    dropping entries would break Vprime = Uhat Bbar.  Returns what
    ``accumulate_sweeps`` does; G[k, l] is the coupling's norm.
    """
    k = ritz.k
    left = np.empty((k + 1, l + 1))
    left[:, :l] = ritz.P[:, :l]
    left[:, l] = _left_null_vector(ritz.P)
    # one array holds the factor M, the left transform Q to its right and
    # the right transform R below it, so a left reflector on rows of M turns
    # the matching rows of Q, and a right reflector on columns of M those of
    # R, in one update each
    Z = np.zeros((2 * l + 1, 2 * l + 1))
    M, Q, R = Z[: l + 1, :l], Z[: l + 1, l:], Z[l + 1:, :l]
    np.fill_diagonal(M, ritz.C[:l])
    np.fill_diagonal(Q, 1.0)
    np.fill_diagonal(R, 1.0)
    # ndarray.dot on contiguous operands: at these sizes the @ operator's
    # dispatch costs more than the product (dot would copy a column block)
    v = _reflector(left[k])
    rows = Z[: l + 1]
    rows -= np.multiply.outer(v, v.dot(rows))
    for j in range(l - 1, -1, -1):
        v = _reflector(M[j + 1, : j + 1])
        cols = Z[:, : j + 1]
        cols -= np.multiply.outer(cols @ v, v)
        v = _reflector(M[: j + 1, j])
        rows = Z[: j + 1]
        rows -= np.multiply.outer(v, v.dot(rows))
    Bp = np.zeros((l + 1, l))
    np.fill_diagonal(Bp, M.diagonal())
    np.fill_diagonal(Bp[1:], M.diagonal(-1))
    P = ritz.W[:, :l] @ R
    Gbar, Bbarp = _signed_qr(Bbar @ P)
    return Bp, Bbarp, SweepRotations(G=left @ Q.T, P=P, Gbar=Gbar)


def thick_restart(state, ritz, l):
    """Truncate the state onto l kept Ritz triplets and reduce it to bidiagonal form.

    The extraction comes extreme-first, so the wanted end is kept.  The
    pending right vector keeps its direction; alpha is scaled by the norm of
    its coupling into the kept left space.
    """
    _check_restartable(state, l)
    if ritz.k != state.k:
        raise ValueError("extraction size does not match the state")
    _restart_tolerance(state.Bdense, state.Bbardense, companion_noise=False)
    Bp, Bbarp, rot = _reduce(state.Bdense, state.Bbardense, ritz, l)
    alpha = state.alpha_next * rot.G[state.k, l]
    return state.restarted(l, state.U @ rot.G, state.Uhat @ rot.Gbar, state.right @ rot.P,
                           Bp, Bbarp, alpha * state.pending)
