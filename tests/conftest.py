from dataclasses import dataclass
from math import sqrt

import numpy as np
import pytest
from hypothesis import settings

import irjbd.driver
from irjbd.bidiag import givens
from irjbd.jbd import jbd_expand, jbd_init
from irjbd.restart import CouplingDefectError, SweepRotations
from irjbd.sparsemat import SparseMatrix
from irjbd.stackedls import StackedOperator, lsqr_solve


EPS = float(np.finfo(np.float64).eps)

# CI runs the property tests on fixed draws (pytest --hypothesis-profile=ci),
# so a bound measured over random draws cannot fail on a new one there
settings.register_profile("ci", derandomize=True)


def gaussian_pair(rng, m, p, n):
    """Dense Gaussian pair plus sparse wrappers; regular with probability 1."""
    Ad = rng.standard_normal((m, n))
    Ld = rng.standard_normal((p, n))
    return Ad, Ld, SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)


def first_difference(n):
    """The dense (n-1) x n first-difference matrix; its null space is the constants."""
    return np.eye(n - 1, n, k=1) - np.eye(n - 1, n)


def dense_joint_lanczos(QA, QL, u1, k, reorth=True):
    """Explicit lower/upper Lanczos bidiagonalizations of the Q blocks.

    Runs both three-term recurrences with the shared starting right vector
    v1 = QA.T u1 / ||.|| and full reorthogonalization, returning the factors
    and all four bases:

    Returns
    -------
    (B, Bhat, U, Uhat, V, Vhat) with B of shape (k+1, k) lower bidiagonal and
    Bhat (k, k) upper bidiagonal, all recurrence coefficients positive.
    """
    QA = np.asarray(QA, dtype=np.float64)
    QL = np.asarray(QL, dtype=np.float64)
    m, n = QA.shape
    u1 = np.asarray(u1, dtype=np.float64)

    def orth(vec, basis, count):
        if reorth and count:
            for _ in range(2):
                vec = vec - basis[:, :count] @ (basis[:, :count].T @ vec)
        return vec

    U = np.zeros((m, k + 2))
    V = np.zeros((n, k + 1))
    alphas = np.zeros(k + 1)
    betas = np.zeros(k + 1)

    U[:, 0] = u1 / np.linalg.norm(u1)
    v = QA.T @ U[:, 0]
    a = np.linalg.norm(v)
    if a == 0:
        raise RuntimeError("lower recurrence broke down at the start")
    alphas[0] = a
    V[:, 0] = v / a
    for i in range(k):
        u = QA @ V[:, i] - alphas[i] * U[:, i]
        u = orth(u, U, i + 1)
        b = np.linalg.norm(u)
        if b == 0:
            raise RuntimeError(f"lower recurrence broke down at step {i + 1}")
        betas[i] = b
        U[:, i + 1] = u / b
        v = QA.T @ U[:, i + 1] - b * V[:, i]
        v = orth(v, V, i + 1)
        a = np.linalg.norm(v)
        if a == 0:
            raise RuntimeError(f"lower recurrence broke down at step {i + 1}")
        alphas[i + 1] = a
        V[:, i + 1] = v / a

    B = np.zeros((k + 1, k))
    idx = np.arange(k)
    B[idx, idx] = alphas[:k]
    B[idx + 1, idx] = betas[:k]

    p = QL.shape[0]
    Uhat = np.zeros((p, k + 1))
    Vhat = np.zeros((n, k + 1))
    hat_alphas = np.zeros(k + 1)
    hat_betas = np.zeros(k + 1)

    Vhat[:, 0] = V[:, 0]
    w = QL @ Vhat[:, 0]
    ha = np.linalg.norm(w)
    if ha == 0:
        raise RuntimeError("upper recurrence broke down at the start")
    hat_alphas[0] = ha
    Uhat[:, 0] = w / ha
    for i in range(k):
        vh = QL.T @ Uhat[:, i] - hat_alphas[i] * Vhat[:, i]
        vh = orth(vh, Vhat, i + 1)
        hb = np.linalg.norm(vh)
        if hb == 0:
            raise RuntimeError(f"upper recurrence broke down at step {i + 1}")
        hat_betas[i] = hb
        Vhat[:, i + 1] = vh / hb
        w = QL @ Vhat[:, i + 1] - hb * Uhat[:, i]
        w = orth(w, Uhat, i + 1)
        ha = np.linalg.norm(w)
        if ha == 0:
            raise RuntimeError(f"upper recurrence broke down at step {i + 1}")
        hat_alphas[i + 1] = ha
        Uhat[:, i + 1] = w / ha

    Bhat = np.zeros((k, k))
    idx = np.arange(k)
    Bhat[idx, idx] = hat_alphas[:k]
    if k > 1:
        Bhat[idx[:-1], idx[:-1] + 1] = hat_betas[: k - 1]

    return B, Bhat, U[:, : k + 1], Uhat[:, :k], V[:, : k + 1], Vhat[:, : k + 1]


def explicit_shifted_qr(M, shift):
    """Householder QR of M - shift * I, the transparent form of one QR step."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return np.linalg.qr(M - shift * np.eye(M.shape[0]))


def expanded_state(rng, m, p, n, k, seed_vec=None):
    """A fresh k-step run on a random Gaussian pair."""
    Ad, Ld, A, L = gaussian_pair(rng, m, p, n)
    op = StackedOperator(A, L)
    u1 = seed_vec if seed_vec is not None else rng.standard_normal(m)
    u1 = u1 / np.linalg.norm(u1)
    state = jbd_init(op, u1, capacity=k)
    jbd_expand(state, op, k)
    return state, op, Ad, Ld


def starve_inner_solves(monkeypatch, maxit):
    """Cap every inner solve of ``irjbd_solve`` at ``maxit`` LSQR iterations.

    The cap is fixed at 10 n on the operator, so the driver's operator class
    is swapped for a builder that lowers ``maxit`` on each operator it makes.
    """
    def capped(A, L):
        op = StackedOperator(A, L)
        op.maxit = maxit
        return op

    monkeypatch.setattr(irjbd.driver, "StackedOperator", capped)


def reference_lsqr(op, rhs):
    """``stackedls.lsqr_solve`` as it ran on the iterate y of [A; L] M.

    The loop updates y and its search direction w, takes ||y|| from y
    itself and returns x = M y once at the end; the operator's counters are
    left alone.  ``lsqr_solve`` updates x through M w and takes ||y|| from
    the Paige-Saunders recurrence instead, and must stop at the same
    iteration with the same flag and, up to rounding, the same x.
    Returns (x, iterations, converged).
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    tol = op.tol
    y = np.zeros(op.n)
    u = rhs.copy()
    with np.errstate(over="ignore"):
        beta = sqrt(u.dot(u))
    if not np.isfinite(beta):
        big = float(np.max(np.abs(rhs)))
        x, itn, converged = reference_lsqr(op, rhs / big)
        return x * big, itn, converged
    bnorm = beta
    if beta == 0.0:
        return y, 0, True
    u /= beta
    v = op._precondition_transpose(op.apply_transpose(u))
    alfa = sqrt(v.dot(v))
    if alfa == 0.0:
        return y, 0, True
    v /= alfa
    w = v.copy()
    rhobar, phibar, anorm = alfa, beta, 0.0
    for itn in range(1, op.maxit + 1):
        u *= -alfa
        u += op.apply(op._precondition(v))
        beta = sqrt(u.dot(u))
        if beta > 0.0:
            u /= beta
            anorm = sqrt(anorm**2 + alfa**2 + beta**2)
            v *= -beta
            v += op._precondition_transpose(op.apply_transpose(u))
            alfa = sqrt(v.dot(v))
            if alfa > 0.0:
                v /= alfa
        rho = sqrt(rhobar**2 + beta**2)
        cs, sn = rhobar / rho, beta / rho
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        y += (phi / rho) * w
        w *= -(theta / rho)
        w += v
        xnorm = sqrt(y.dot(y))
        test1 = phibar / bnorm
        test2 = alfa * abs(sn * phi) / (anorm * phibar + EPS)
        if test1 <= tol + tol * anorm * xnorm / bnorm or test2 <= tol:
            return op._precondition(y), itn, True
    return op._precondition(y), op.maxit, False


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
    QQ^T (U w; 0) = Vprime B^T w + vp_next alpha_next w[-1] on one random
    unit w, which costs a single inner solve.
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
        rhs = np.concatenate([uw / np.linalg.norm(uw), np.zeros(state.p)])
        proj = op.apply(lsqr_solve(op, rhs).solution)
        proj *= np.linalg.norm(uw)
        model = Vp @ (B.T @ w) + state.vp_next * (state.alpha_next * w[-1])
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


def _mix_columns(M, j, c, s):
    cj = M[:, j].copy()
    M[:, j] = c * cj + s * M[:, j + 1]
    M[:, j + 1] = -s * cj + c * M[:, j + 1]


def _mix_rows(M, i, c, s):
    ri = M[i, :].copy()
    M[i, :] = c * ri + s * M[i + 1, :]
    M[i + 1, :] = -s * ri + c * M[i + 1, :]


def _reference_lower_sweep(B, lam, Gacc, Pacc):
    """One shifted sweep on a dense (k+1) x k lower bidiagonal B, in place."""
    k = B.shape[1]
    c, s, _ = givens(B[0, 0] * B[0, 0] - lam * lam, B[0, 0] * B[1, 0])
    _mix_rows(B, 0, c, s)
    _mix_columns(Gacc, 0, c, s)
    right_rotations = []
    for j in range(k - 1):
        c, s, r = givens(B[j, j], B[j, j + 1])
        _mix_columns(B, j, c, s)
        B[j, j] = r
        B[j, j + 1] = 0.0
        right_rotations.append((j, c, s))
        _mix_columns(Pacc, j, c, s)
        c2, s2, r2 = givens(B[j + 1, j], B[j + 2, j])
        _mix_rows(B, j + 1, c2, s2)
        B[j + 1, j] = r2
        B[j + 2, j] = 0.0
        _mix_columns(Gacc, j + 1, c2, s2)
    return right_rotations


def _reference_upper_sweep(Bbar, right_rotations, Gbacc, zero_tol):
    """The coupled sweep on a dense upper companion, reusing the right rotations."""
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


def reference_sweeps(B, Bbar, shifts):
    """``restart.accumulate_sweeps`` with every rotation applied to dense arrays.

    Each plane rotation mixes whole rows or columns of the factors and of the
    three accumulators, and off-pattern entries are measured and zeroed
    through boolean masks.  Slow, but every step is visible: the scalar
    chase must reproduce B' bit for bit, and the companion, chased here
    rotation by rotation on its band, checks Gbar independently of the one
    QR of Bbar P that ``accumulate_sweeps`` takes.
    """
    B = np.array(B, dtype=np.float64)
    Bbar = np.array(Bbar, dtype=np.float64)
    k = B.shape[1]
    Gacc, Pacc, Gbacc = np.eye(k + 1), np.eye(k), np.eye(k)
    idx = np.arange(k)
    lower_mask = np.ones_like(B, dtype=bool)
    lower_mask[idx, idx] = False
    lower_mask[idx + 1, idx] = False
    upper_mask = np.ones_like(Bbar, dtype=bool)
    upper_mask[idx, idx] = False
    upper_mask[idx[:-1], idx[:-1] + 1] = False

    # the refusal counts the noise restart._refuse_degraded does: B's
    # entries off its band and Bbar's below its diagonal
    identity_defect = float(np.max(np.abs(B.T @ B + Bbar.T @ Bbar - np.eye(k))))
    offpattern = max(float(np.max(np.abs(M[mask]), initial=0.0))
                     for M, mask in ((B, lower_mask), (Bbar, np.tri(k, k, -1, dtype=bool))))
    scale = max(1.0, float(np.linalg.norm(Bbar)))
    if max(8.0 * identity_defect, 4.0 * offpattern) > 1e-6 * scale:
        raise CouplingDefectError(
            f"factor pair too degraded to restart: identity defect "
            f"{identity_defect:.3e}, off-pattern noise {offpattern:.3e}"
        )
    # the chase reads both bands and zeroes each residue it leaves beyond the
    # companion's band, up to a threshold per shift
    eps = float(np.finfo(np.float64).eps)
    base_tol = max(64.0 * eps * scale, 8.0 * identity_defect, 4.0 * offpattern)
    B[lower_mask] = 0.0
    Bbar[upper_mask] = 0.0
    for step, lam in enumerate(shifts):
        rights = _reference_lower_sweep(B, float(lam), Gacc, Pacc)
        _reference_upper_sweep(Bbar, rights, Gbacc, base_tol * (step + 1))
    return B, Bbar, SweepRotations(G=Gacc, P=Pacc, Gbar=Gbacc)


def _padded_ell(offsets, row_ids, col_indices, values):
    """Slot-major padded-ELL copy of a CSR matrix, plus a CSR tail of long rows.

    Returns (cols, vals, tail).  ``cols`` and ``vals`` have shape
    (width, nrows): slot j of row r holds the row's j-th stored entry, and a
    slot past the row's end holds the row's own last column (column 0 for an
    empty row) with the value +0.0.  ``width`` is the longest row as long as
    nrows * width <= 2 nnz and is capped there otherwise.  A row longer than
    ``width`` keeps only padded slots, and all of its entries go to ``tail``
    = (row ids, column indices, values) in storage order; ``tail`` is None
    when every row fits.
    """
    nrows = len(offsets) - 1
    counts = np.diff(offsets)
    width = int(min(counts.max(), 2 * len(values) // nrows)) if nrows else 0
    last = np.zeros(nrows, dtype=np.int64)
    filled = counts > 0
    last[filled] = col_indices[offsets[1:][filled] - 1]
    cols = np.repeat(last[None, :], width, axis=0)
    vals = np.zeros((width, nrows))
    fits = (counts <= width)[row_ids]
    slots = np.arange(len(values)) - offsets[row_ids]
    cols[slots[fits], row_ids[fits]] = col_indices[fits]
    vals[slots[fits], row_ids[fits]] = values[fits]
    long = ~fits
    tail = (row_ids[long], col_indices[long], values[long]) if np.any(long) else None
    return cols, vals, tail


def reference_stacked_products(A, L, x, y):
    """(A x; L x) and A.T y_upper + L.T y_lower on one padded-ELL copy of [A; L].

    Every row of [A; L] is padded to one width.  The product adds the slots
    one after another over all rows; the transpose is one bincount over all
    slots in (slot, stacked row) order, plus the tail's.  ``StackedOperator``
    must reproduce both bit for bit, signed zeros included.
    """
    m, p = A.nrows, L.nrows
    offsets = np.concatenate([A.row_offsets, L.row_offsets[1:] + A.nnz])
    row_ids = np.repeat(np.arange(m + p, dtype=np.int64), np.diff(offsets))
    col_indices = np.concatenate([A.col_indices, L.col_indices])
    values = np.concatenate([A.values, L.values])
    cols, vals, tail = _padded_ell(offsets, row_ids, col_indices, values)
    ax = np.zeros(m + p)
    for terms in vals * x[cols]:
        ax += terms
    if vals.size:
        aty = np.bincount(cols.ravel(), weights=(vals * y).ravel(), minlength=A.ncols)
    else:
        aty = np.zeros(A.ncols)
    if tail is not None:
        rows, tcols, tvals = tail
        ax += np.bincount(rows, weights=tvals * x[tcols], minlength=m + p)
        aty += np.bincount(tcols, weights=tvals * y[rows], minlength=A.ncols)
    return ax, aty


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
