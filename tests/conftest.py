from dataclasses import dataclass
from math import sqrt

import numpy as np
import pytest

from irjbd.jbd import _solve_upper, jbd_expand, jbd_init
from irjbd.sparsemat import SparseMatrix
from irjbd.stackedls import StackedOperator


def gaussian_pair(rng, m, p, n):
    """Dense Gaussian pair plus sparse wrappers; regular with probability 1."""
    Ad = rng.standard_normal((m, n))
    Ld = rng.standard_normal((p, n))
    return Ad, Ld, SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)


def first_difference(n):
    """The dense (n-1) x n first-difference matrix; its null space is the constants."""
    return np.eye(n - 1, n, k=1) - np.eye(n - 1, n)


def expanded_state(rng, m, p, n, k, seed_vec=None):
    """A fresh k-step run on a random Gaussian pair."""
    Ad, Ld, A, L = gaussian_pair(rng, m, p, n)
    op = StackedOperator(A, L)
    u1 = seed_vec if seed_vec is not None else rng.standard_normal(m)
    u1 = u1 / np.linalg.norm(u1)
    state = jbd_init(op, u1, capacity=k)
    jbd_expand(state, op, k)
    return state, op, Ad, Ld


def lower_bidiagonal_pair(alphas, betas):
    """A (k+1) x k lower bidiagonal B scaled to ||B||_2 = 0.8, with a companion.

    The companion is the upper Cholesky factor of I - B^T B.  That matrix is
    tridiagonal, so the factor is exactly upper bidiagonal and the pair
    satisfies the joint identity B^T B + Bbar^T Bbar = I to roundoff.
    """
    k = len(alphas)
    B = np.zeros((k + 1, k))
    idx = np.arange(k)
    B[idx, idx] = alphas
    B[idx + 1, idx] = betas
    B *= 0.8 / np.linalg.norm(B, 2)
    return B, np.linalg.cholesky(np.eye(k) - B.T @ B).T


def bidiagonal_parts(M, upper=False, tol=None):
    """Diagonal and off-diagonal of a lower ((k+1) x k) or upper (k x k) bidiagonal M.

    Asserts that every other entry is at most ``tol`` in magnitude.  The
    default, 1e-10 * max(1, max|M|), admits the off-pattern entries a run
    carries at the level of its relation defects, because its committed
    columns are true projections.
    """
    k = M.shape[1]
    assert M.shape == ((k, k) if upper else (k + 1, k)), M.shape
    idx = np.arange(k)
    off = (idx[:-1], idx[:-1] + 1) if upper else (idx + 1, idx)
    mask = np.ones(M.shape, dtype=bool)
    mask[idx, idx] = False
    mask[off] = False
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.max(np.abs(M), initial=0.0)))
    assert np.all(np.abs(M[mask]) <= tol), "factor is not bidiagonal"
    return M[idx, idx].copy(), M[off].copy()


@dataclass
class StateDefects:
    """Max-norm defects of the state invariants; never mutates the state."""

    u_orthogonality: float
    uhat_orthogonality: float
    vprime_orthogonality: float
    relation_upper: float
    relation_hat: float
    joint_identity: float
    projection: float | None = None

    def max_defect(self):
        vals = [self.u_orthogonality, self.uhat_orthogonality, self.vprime_orthogonality,
                self.relation_upper, self.relation_hat, self.joint_identity]
        if self.projection is not None:
            vals.append(self.projection)
        return max(vals)


def _orth_defect(basis):
    if basis.shape[1] == 0:
        return 0.0
    gram = basis.T @ basis
    return float(np.max(np.abs(gram - np.eye(basis.shape[1]))))


def verify_state(state, op=None, rng=None):
    """Measure every maintained invariant of a state.

    With ``op`` given, additionally probes the projected recurrence
    QQ^T (U w; 0) = Vprime B^T w + vp_next (coupling . w) on one random unit
    w, which costs a single inner solve.
    """
    k = state.k
    m = state.m
    U = state.U
    Uhat = state.Uhat
    Vp = state.Vprime
    B = state.Bdense
    Bbar = state.Bbardense

    rel_upper = 0.0
    rel_hat = 0.0
    identity = 0.0
    if k:
        rel_upper = float(np.max(np.abs(Vp[:m] - U @ B)))
        rel_hat = float(np.max(np.abs(Vp[m:] - Uhat @ Bbar)))
        identity = float(np.max(np.abs(B.T @ B + Bbar.T @ Bbar - np.eye(k))))

    projection = None
    if op is not None and k:
        rng = rng or np.random.default_rng(0)
        w = rng.standard_normal(state.n_left)
        w /= np.linalg.norm(w)
        uw = U @ w
        proj = op.apply(_solve_upper(op, uw / np.linalg.norm(uw)).solution)
        proj *= np.linalg.norm(uw)
        model = Vp @ (B.T @ w) + state.vp_next * float(state.coupling_u @ w)
        projection = float(np.max(np.abs(proj - model)))

    return StateDefects(
        u_orthogonality=_orth_defect(U),
        uhat_orthogonality=_orth_defect(Uhat),
        vprime_orthogonality=_orth_defect(Vp),
        relation_upper=rel_upper,
        relation_hat=rel_hat,
        joint_identity=identity,
        projection=projection,
    )


def rotation_orthogonality_defect(rot):
    """Largest deviation from orthogonality of the factors of a SweepRotations."""
    return max(
        float(np.max(np.abs(M.T @ M - np.eye(M.shape[1]))))
        for M in (rot.G, rot.P, rot.Gbar)
    )


def rotation_band_defect(rot, nshifts):
    """Largest entry of a SweepRotations factor below its lower bandwidth.

    ``nshifts`` sweeps give each factor a lower bandwidth of ``nshifts``.
    """
    worst = 0.0
    for M in (rot.G, rot.P, rot.Gbar):
        i, j = np.indices(M.shape)
        below = i - j > nshifts
        if np.any(below):
            worst = max(worst, float(np.max(np.abs(M[below]))))
    return worst


def cross_residual_norm(comp, A, L):
    """Residual norm in the cross-product form used by thick-restart solvers.

    Equals the norm of the third residual block whenever the first two
    blocks vanish.
    """
    ay = A.matvec_transpose(comp.y)
    lz = L.matvec_transpose(comp.z)
    llx = L.matvec_transpose(L.matvec(comp.x))
    aax = A.matvec_transpose(A.matvec(comp.x))
    t1 = comp.s**2 * ay - comp.c * llx
    t2 = comp.c**2 * lz - comp.s * aax
    return sqrt(float(t1 @ t1) + float(t2 @ t2))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
