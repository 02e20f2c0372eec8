"""The joint bidiagonalization process with full reorthogonalization.

One process run maintains three orthonormal bases — left vectors U for the
A side, left vectors Uhat for the L side, and projected right vectors
Vprime living in range([A; L]) — together with small projected factors
B (lower bidiagonal against U) and Bbar (upper bidiagonal against Uhat,
sign-adjusted so that B.T B + Bbar.T Bbar = I; after a restart, upper
triangular and bidiagonal up to the identity defect).  Each expansion
step costs one inner least-squares solve with [A; L].

The state also carries the pending right vector ``vp_next`` plus its
couplings into the two left bases, single scalars on their last columns
(``alpha_next`` and ``betabar``).  That holds for every state, a restarted
one included, because B never has an entry below its subdiagonal nor Bbar
below its diagonal.  ``JbdState.set_pending``, the one maker of a pending
vector (the first one included), orthogonalizes it against Vprime and sets
both couplings.

Every right vector is realized as [A; L] applied to an explicitly
maintained preimage.  The literal three-term recurrence would divide
accumulated out-of-range rounding noise by alpha at each step, which can
compound across restarts until the basis leaves range([A; L]) entirely;
running the recurrence on preimages and applying the operator once per step
pins the basis to the range at the cost of one extra pair of matvecs.
Each right vector is stored stacked on its preimage, (v; t) with m+p+n
rows, so one product orthogonalizes or rotates both.  ``_gram_schmidt`` is
one call per basis and step: on U and Uhat it takes the recurrence seed off
first and returns the new column of B or Bbar; on Vprime it runs over the
leading m+p rows.  It takes coefficients with ``@``, which reads
Vprime's strided row block in place where ``ndarray.dot`` would copy it
(2.9 us against 5.3 us at 415 of 615 rows and 25 columns, numpy 2.4, one
BLAS thread), and costs about 0.5 us more than ``ndarray.dot`` on a
contiguous basis; the results are the same.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .stackedls import lsqr_solve

__all__ = ["JbdState", "BreakdownError", "jbd_init", "jbd_expand"]

_EPS = float(np.finfo(np.float64).eps)


class BreakdownError(RuntimeError):
    """A normalization coefficient fell below the breakdown threshold."""

    def __init__(self, coefficient, index, value):
        self.coefficient = coefficient
        self.index = index
        self.value = value
        super().__init__(
            f"joint bidiagonalization breakdown: {coefficient}_{index} = {value:.3e}"
        )


def _gram_schmidt(vec, basis, rows=None, seed=None):
    """Classical Gram-Schmidt on the leading ``rows`` entries of ``vec``.

    ``seed``, the recurrence-predicted coefficient of the last basis column,
    comes off first when the basis has columns.  The coefficients come from
    the leading rows, and the same combination of the basis comes off the
    whole column, so a right vector and its preimage move together.  A
    second pass follows only when the first cancels, ||after||^2 <
    ||before||^2 / 2: the test of Daniel, Gragg, Kaufman & Stewart (1976)
    with eta = 1/sqrt(2), on squared norms.  A pass that keeps more than
    1/sqrt(2) of its input's norm leaves the output orthogonal to the basis
    to working precision.

    The returned coefficients are the seed plus both passes' corrections,
    the true projections of the input.  Committing those (instead of the
    bare prediction) keeps the stored factors consistent with the stored
    vectors, which stops relation errors inherited from a restart from
    compounding through later columns.  Returns the vector, the
    coefficients and the squared norm of the vector's leading rows.
    """
    seeded = seed is not None and basis.shape[1] > 0
    if seeded:
        vec = vec - seed * basis[:, -1]
    head = vec[:rows]
    before = head.dot(head)
    coefficients = head @ basis[:rows]
    vec = vec - basis.dot(coefficients)
    if seeded:
        coefficients[-1] += seed
    head = vec[:rows]
    square = head.dot(head)
    if square < 0.5 * before:
        extra = head @ basis[:rows]
        vec -= basis.dot(extra)
        coefficients += extra
        square = head.dot(head)
    return vec, coefficients, square


class JbdState:
    """State of a k-step joint bidiagonalization run.

    Bases are preallocated to ``capacity`` columns and exposed as views.
    ``n_left`` equals k+1 except after a left-side lucky breakdown, where the
    run closes with a square projected factor and ``n_left == k``.

    ``breakdown_tol`` = max(n, 32) eps carries no norm of {A, L}: alpha,
    beta and alphahat are coefficients of a process on orthonormal vectors,
    at most 1 at any scale of the pair.
    """

    def __init__(self, m, p, n, capacity):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.m = m
        self.p = p
        self.n = n
        self.capacity = capacity
        self.breakdown_tol = max(n, 32) * _EPS
        self.k = 0
        self.n_left = 1
        # every basis column is written before a view reaches it, so the
        # bases skip the zero fill; B and Bbar rely on their zeros
        self._U = np.empty((m, capacity + 1), order="F")
        self._Uhat = np.empty((p, capacity), order="F")
        self._right = np.empty((m + p + n, capacity), order="F")
        self._B = np.zeros((capacity + 1, capacity), order="F")
        self._Bbar = np.zeros((capacity, capacity), order="F")
        self.pending = np.zeros(m + p + n)  # the pending right vector over its preimage
        self.alpha_next = 0.0  # coupling of the pending right vector into the last U column
        self.betabar = 0.0  # its signed coupling into the last Uhat column
        self.exhausted = False

    # -- views -------------------------------------------------------------

    @property
    def U(self):
        return self._U[:, : self.n_left]

    @property
    def Uhat(self):
        return self._Uhat[:, : self.k]

    @property
    def right(self):
        """Vprime over its preimages, shape (m+p+n, k)."""
        return self._right[:, : self.k]

    @property
    def Vprime(self):
        return self._right[: self.m + self.p, : self.k]

    @property
    def preimages(self):
        """Coefficient vectors t with [A; L] t = the matching Vprime column."""
        return self._right[self.m + self.p:, : self.k]

    @property
    def vp_next(self):
        return self.pending[: self.m + self.p]

    @property
    def t_next(self):
        """The preimage of ``vp_next``."""
        return self.pending[self.m + self.p:]

    @property
    def Bdense(self):
        """The projected factor against U, shape (n_left, k)."""
        return self._B[: self.n_left, : self.k]

    @property
    def Bbardense(self):
        """The signed projected factor against Uhat, shape (k, k)."""
        return self._Bbar[: self.k, : self.k]

    def restarted(self, l, U, Uhat, right, B, Bbar, pending):
        """A new l-column state of the same run, built from restarted blocks.

        ``U`` has l + 1 columns and ``B`` is (l+1) x l lower bidiagonal;
        ``Uhat`` and ``right`` (Vprime over its preimages) have l columns
        and ``Bbar`` is l x l upper triangular.  The pending right vector is
        made from the stacked ``pending`` by ``set_pending``.  Raises
        BreakdownError when the trailing companion diagonal, which
        ``set_pending`` divides by, or the new alpha vanishes.
        """
        if abs(Bbar[l - 1, l - 1]) < self.breakdown_tol:
            raise BreakdownError("alphahat", l, Bbar[l - 1, l - 1])
        new = JbdState(self.m, self.p, self.n, self.capacity)
        new.k = l
        new.n_left = l + 1
        new._U[:, : l + 1] = U
        new._Uhat[:, :l] = Uhat
        new._right[:, :l] = right
        new._B[: l + 1, :l] = B
        new._Bbar[:l, :l] = Bbar
        alpha = new.set_pending(pending)
        if alpha < self.breakdown_tol:
            raise BreakdownError("alpha", l + 1, alpha)
        return new

    def set_pending(self, pending):
        """Make vp = [A; L] t, orthogonalized and normalized, the pending right vector.

        ``pending`` is (vp; t), m+p+n entries.  ``_gram_schmidt`` on the
        leading m+p rows takes vp's projection onto Vprime out, subtracting
        the same combination of the preimages from t.  What remains is
        divided by vp's norm alpha.  The couplings become alpha on the last
        U column and the coupled-recurrence entry
        -alpha B[k, k-1] / Bbar[k-1, k-1] on the last Uhat column (0 at
        k = 0).  Returns alpha, and leaves the state untouched when alpha is
        below ``breakdown_tol``.
        """
        pending, _, square = _gram_schmidt(pending, self.right, self.m + self.p)
        alpha = sqrt(square)
        if alpha < self.breakdown_tol:
            return alpha
        k = self.k
        self.pending = pending / alpha
        self.alpha_next = alpha
        self.betabar = -alpha * self._B[k, k - 1] / self._Bbar[k - 1, k - 1] if k else 0.0
        return alpha


def _set_next_right(state, op, u, beta):
    """The right half of an expansion step; returns the new alpha.

    The three-term recurrence runs on the preimages: t, the inner solve of
    min ||[A; L] t - (u; 0)||, minus beta times the pending preimage, goes
    to ``set_pending`` under [A; L] t.
    """
    rhs = np.zeros(op.m + op.p)
    rhs[: op.m] = u
    t = lsqr_solve(op, rhs).solution - beta * state.t_next
    return state.set_pending(np.concatenate((op.apply(t), t)))


def jbd_init(op, u1, capacity):
    """Seed a joint bidiagonalization run from a unit starting vector.

    The first right vector is the projection of (u1; 0) onto range([A; L]),
    made by the right half of an expansion step on the empty basis.
    Breakdown is raised if it vanishes (the starting vector is orthogonal to
    the range); a vanishing lower block is the first expansion step's
    alphahat_1 breakdown.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    if u1.shape != (op.m,):
        raise ValueError(f"u1 must have length {op.m}")
    if abs(sqrt(u1 @ u1) - 1.0) > 1e-14:
        raise ValueError("u1 must have unit norm")

    state = JbdState(op.m, op.p, op.n, capacity)
    state._U[:, 0] = u1

    alpha1 = _set_next_right(state, op, u1, 0.0)
    if alpha1 < state.breakdown_tol:
        raise BreakdownError("alpha", 1, alpha1)
    return state


def _expand_one(state, op):
    """One step: companion left vector, new left vector, new right vector.

    When the new left candidate vanishes (a left-side lucky breakdown), the
    pending right vector lies in span(U): it joins Vprime with no new
    subdiagonal entry, the projected factor closes square and every Ritz
    value it carries is exact.
    """
    k = state.k
    m = state.m
    vp = state.vp_next

    # companion left vector paired with the pending right vector; the signed
    # diagonal keeps all runs on the alternating-sign convention
    candh, uhat_coefficients, square = _gram_schmidt(vp[m:], state._Uhat[:, :k],
                                                     seed=state.betabar)
    anorm = sqrt(square)
    if anorm < state.breakdown_tol:
        raise BreakdownError("alphahat", k + 1, anorm)
    abar = anorm if k % 2 == 0 else -anorm

    # next left vector from the upper block of the pending right vector
    cand, u_coefficients, square = _gram_schmidt(vp[:m], state._U[:, : k + 1],
                                                 seed=state.alpha_next)
    beta = sqrt(square)

    # commit column k
    state._right[:, k] = state.pending
    state._B[: k + 1, k] = u_coefficients
    state._Uhat[:, k] = candh / abar
    state._Bbar[:k, k] = uhat_coefficients
    state._Bbar[k, k] = abar
    state.k = k + 1
    if beta < state.breakdown_tol:
        state.n_left = k + 1
        _exhaust(state)
        return
    u_new = cand / beta
    state._B[k + 1, k] = beta
    state._U[:, k + 1] = u_new
    state.n_left = k + 2
    if _set_next_right(state, op, u_new, beta) < state.breakdown_tol:
        _exhaust(state)


def _exhaust(state):
    """End the run on an invariant subspace: no pending vector, zero couplings."""
    state.pending = np.zeros(state.m + state.p + state.n)
    state.alpha_next = 0.0
    state.betabar = 0.0
    state.exhausted = True


def jbd_expand(state, op, to_k):
    """Grow the state to ``to_k`` columns (in place; also returned).

    Stops early, with ``state.exhausted`` set, when either side finds an
    invariant subspace: the corresponding Ritz data is then exact and the
    pending couplings are zero.  A vanishing companion coefficient raises
    ``BreakdownError`` because the coupled recurrence cannot continue
    through it.
    """
    if to_k > state.capacity:
        raise ValueError(f"to_k={to_k} exceeds state capacity {state.capacity}")
    while state.k < to_k and not state.exhausted:
        _expand_one(state, op)
    return state
