"""Restarting the joint bidiagonalization at a smaller subspace size.

A restart is one ``thick_restart`` call.  It truncates the state onto kept
Ritz triplets and reduces the result back to canonical bidiagonal form, the
Krylov-Schur restart (Stewart, 2001): the extraction comes extreme-first,
so keeping its leading triplets purges the other values as exact shifts
would.  Shifts that are not Ritz values (those the adaptive rule replaced)
are kept through the truncation and then swept out of the reduced lower
factor by ``accumulate_sweeps``, one bulge-chasing sweep per shift, each
rotation turning two columns of G or P as it is made.  One QR of Bbar P
then restores the companion (one shift pair lambda^2 + mu^2 = 1 drives
both factors), and one ``JbdState.restarted`` builds the result, so it
expands through the ordinary process code.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .bidiag import givens

__all__ = ["CouplingDefectError", "accumulate_sweeps", "thick_restart"]


class CouplingDefectError(RuntimeError):
    """The factor pair is too degraded to restart."""


def _rotate(M, j, c, s):
    """Mix columns j and j+1 of M in place by the block [[c, -s], [s, c]]."""
    x = M[:, j].copy()
    M[:, j] = c * x + s * M[:, j + 1]
    M[:, j + 1] = c * M[:, j + 1] - s * x


def _sweep(d, e, lam, G, P):
    """One shifted sweep on the lower bidiagonal entries, in place.

    ``d``/``e`` are the diagonal and subdiagonal of the (k+1) x k lower
    factor B, as Python floats; the chase carries a single bulge, as
    LAPACK's dbdsqr does.  The opening rotation annihilates the (2,1) entry
    of B B^T - lam^2 I — only the first column of that product is ever
    formed — and the remaining rotations chase the bulge back to lower
    bidiagonal form; a vanishing coupling in B is tolerated.  Each left
    rotation turns two columns of G, and each right rotation two of P, as
    the chase makes it.
    """
    k = len(d)
    c, s, _ = givens(d[0] * d[0] - lam * lam, d[0] * e[0])
    d[0], e[0] = c * d[0] + s * e[0], -s * d[0] + c * e[0]
    if k > 1:
        bulge, d[1] = s * d[1], c * d[1]
    _rotate(G, 0, c, s)
    for j in range(k - 1):
        # annihilate the superdiagonal bulge (j, j+1) from the right
        c, s, d[j] = givens(d[j], bulge)
        e[j], d[j + 1] = c * e[j] + s * d[j + 1], -s * e[j] + c * d[j + 1]
        bulge, e[j + 1] = s * e[j + 1], c * e[j + 1]
        _rotate(P, j, c, s)
        # annihilate the subdiagonal bulge (j+2, j) from the left
        c, s, e[j] = givens(e[j], bulge)
        d[j + 1], e[j + 1] = c * d[j + 1] + s * e[j + 1], -s * d[j + 1] + c * e[j + 1]
        if j + 2 < k:
            bulge, d[j + 2] = s * d[j + 2], c * d[j + 2]
        _rotate(G, j + 1, c, s)


def _refuse_degraded(B, Bbar):
    """Raise CouplingDefectError if the pair {B, Bbar} is too degraded to restart.

    The pair is too degraded when 8x its identity defect or 4x its
    off-pattern noise exceeds 1e-6 * max(1, ||Bbar||_F).  The noise counted
    is B's entries off its band, which inner solves that fail to converge
    leave there, and Bbar's below its diagonal.  Bbar's entries beyond its
    superdiagonal are not noise: they hold the reorthogonalization
    coefficients the process commits (with rounding amplified by
    1/sigma_min(Bbar) near c = 1), and every restart keeps them.
    """
    k = B.shape[1]
    defect = B.T @ B
    defect += Bbar.T @ Bbar
    defect.flat[:: k + 1] -= 1.0
    identity_defect = float(np.abs(defect).max())
    # in C order B's diagonal and subdiagonal are the flat runs of stride
    # k + 1 from 0 and from k; Bbar is upper triangular
    noise = np.abs(B, order="C")
    noise.flat[:: k + 1] = 0.0
    noise.flat[k:: k + 1] = 0.0
    offpattern = max(float(noise.max(initial=0.0)),
                     float(np.abs(Bbar[np.tri(k, k, -1, dtype=bool)]).max(initial=0.0)))
    # the Frobenius norm as np.linalg.norm forms it, without its wrapper
    flat = Bbar.ravel(order="K")
    scale = max(1.0, sqrt(flat.dot(flat)))
    if max(8.0 * identity_defect, 4.0 * offpattern) > 1e-6 * scale:
        raise CouplingDefectError(
            f"factor pair too degraded to restart: identity defect "
            f"{identity_defect:.3e}, off-pattern noise {offpattern:.3e}"
        )


def _signed_qr(M):
    """The QR factors of M, with R's diagonal signed nonnegative."""
    Q, R = np.linalg.qr(M)
    signs = np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
    return Q * signs, R * signs[:, None]


def accumulate_sweeps(B, shifts):
    """Run one shifted sweep of the (k+1) x k lower factor B per shift.

    The sweeps read only B's band, so B' is exactly lower bidiagonal; G and
    P start as identities and take each rotation as the chase makes it.
    Returns B', G and P, with B' = G^T B P on the band.
    """
    B = np.asarray(B, dtype=np.float64)
    k = B.shape[1]
    if B.shape[0] != k + 1:
        raise ValueError("lower sweep expects a (k+1) x k factor")
    d, e = B.diagonal().tolist(), B.diagonal(-1).tolist()
    G, P = np.eye(k + 1), np.eye(k)
    for lam in shifts:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"shift {lam} outside [0, 1]")
        _sweep(d, e, float(lam), G, P)
    Bp = np.zeros((k + 1, k))
    np.fill_diagonal(Bp, d)
    np.fill_diagonal(Bp[1:], e)
    return Bp, G, P


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


def _reduce(ritz, l):
    """Truncate the factor onto the l leading triplets of ``ritz`` and reduce it.

    The kept left singular vectors and B's left null vector (``ritz.null``)
    span the new left space, into which the pending right vector couples
    through the last row of that map.  One reflector turns the coupling onto
    the last left vector; then, bottom up, a right reflector clears row j+1
    left of column j and a left reflector on rows <= j clears column j above
    row j.  The reflectors act on the (l+1) x l factor and accumulate in two
    square transforms, which rotate the truncation maps once at the end.
    Returns B', G and P, with B' = G^T B P; G[k, l] is the coupling's norm.
    """
    k = ritz.k
    left = np.empty((k + 1, l + 1))
    left[:, :l] = ritz.P[:, :l]
    left[:, l] = ritz.null
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
    return Bp, left @ Q.T, ritz.W[:, :l] @ R


def thick_restart(state, ritz, keep, shifts=()):
    """Restart the state at ``keep`` columns, sweeping the given shifts on the way.

    ``ritz`` is the state's extraction, extreme-first, so the wanted end is
    kept.  The state is truncated onto the keep + r leading triplets, r
    being the number of ``shifts``, which purges the other values as exact
    shifts would, and reduced to bidiagonal form.  With r > 0, one sweep per
    shift then filters the reduced lower factor, and the rotated bases are
    cut to their leading blocks.  The companion and its left transform are
    the QR factors of Bbar P (the implicit-Q theorem), and the companion is
    kept whole: it is bidiagonal up to the identity defect, the couplings
    need only a triangular one, and dropping entries would break
    Vprime = Uhat Bbar.  The pending right vector is the old one scaled by
    alpha and the coupling G[k, keep], plus, after sweeps, B'[keep, keep]
    times the first discarded rotated column.  Raises ValueError unless
    1 <= keep < k and keep + r <= k on an open, unexhausted state with a
    matching extraction, and CouplingDefectError on a degraded pair.
    """
    k = state.k
    shifts = np.asarray(shifts, dtype=np.float64)
    if not 1 <= keep < k or keep + len(shifts) > k:
        raise ValueError(f"need 1 <= keep < k and keep + {len(shifts)} shifts <= k, "
                         f"got keep={keep}, k={k}")
    if state.exhausted or state.n_left != k + 1:
        raise ValueError("cannot restart an exhausted or closed state")
    if ritz.k != k:
        raise ValueError("extraction size does not match the state")
    Bbar = state.Bbardense
    _refuse_degraded(state.Bdense, Bbar)
    Bp, G, P = _reduce(ritz, keep + len(shifts))
    if len(shifts):
        Bp, Gs, Ps = accumulate_sweeps(Bp, shifts)
        G, P = G @ Gs[:, : keep + 1], P @ Ps[:, : keep + 1]
    right = state.right @ P
    pending = state.alpha_next * G[k, keep] * state.pending
    if len(shifts):
        pending += Bp[keep, keep] * right[:, keep]
    Gbar, Bbarp = _signed_qr(Bbar @ P[:, :keep])
    return state.restarted(keep, state.U @ G[:, : keep + 1], state.Uhat @ Gbar,
                           right[:, :keep], Bp[: keep + 1, :keep], Bbarp, pending)
