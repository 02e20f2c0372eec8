"""The joint bidiagonalization process with full reorthogonalization.

One process run maintains three orthonormal bases — left vectors U for the
A side, left vectors Uhat for the L side, and projected right vectors
Vprime living in range([A; L]) — together with small projected factors
B (lower bidiagonal against U) and Bbar (upper bidiagonal against Uhat,
sign-adjusted so that B.T B + Bbar.T Bbar = I).  Each expansion step costs
one inner least-squares solve with [A; L].

The state also carries the pending right vector ``vp_next`` plus its
coupling coefficients into the two left bases.  ``JbdState.set_pending``
sets them as single trailing scalars (alpha_{k+1} and the signed trailing
superdiagonal), but they are stored as full vectors so that restarted
states — whose projected factors need not stay strictly bidiagonal — expand
through exactly the same code path.

Every right vector is realized as [A; L] applied to an explicitly
maintained preimage.  The literal three-term recurrence would divide
accumulated out-of-range rounding noise by alpha at each step, which can
compound across restarts until the basis leaves range([A; L]) entirely;
running the recurrence on preimages and applying the operator once per step
pins the basis to the range at the cost of one extra pair of matvecs.
"""

from __future__ import annotations

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


def _reorth_tracked(vec, basis, seed_coefficients):
    """CGS2 that also returns the total projection coefficients.

    ``seed_coefficients`` is the recurrence-predicted column, subtracted
    first; the per-pass corrections are accumulated on top so the returned
    coefficients are the true projections of the input onto the basis.
    Committing those (instead of the bare prediction) keeps the stored
    factors consistent with the stored vectors, which stops relation errors
    inherited from a restart from compounding through later columns.
    """
    coefficients = seed_coefficients.copy()
    vec = vec - basis @ seed_coefficients
    if basis.shape[1]:
        for _ in range(2):
            extra = basis.T @ vec
            vec = vec - basis @ extra
            coefficients += extra
    return vec, coefficients


class JbdState:
    """State of a k-step joint bidiagonalization run.

    Bases are preallocated to ``capacity`` columns and exposed as views.
    ``n_left`` equals k+1 except after a left-side lucky breakdown, where the
    run closes with a square projected factor and ``n_left == k``.
    """

    def __init__(self, m, p, n, capacity, breakdown_tol):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.m = m
        self.p = p
        self.n = n
        self.capacity = capacity
        self.breakdown_tol = breakdown_tol
        self.k = 0
        self.n_left = 1
        self._U = np.zeros((m, capacity + 1), order="F")
        self._Uhat = np.zeros((p, capacity), order="F")
        self._Vp = np.zeros((m + p, capacity), order="F")
        self._T = np.zeros((n, capacity), order="F")  # preimages of the Vp columns
        self._B = np.zeros((capacity + 1, capacity), order="F")
        self._Bbar = np.zeros((capacity, capacity), order="F")
        self.vp_next = np.zeros(m + p)
        self.t_next = np.zeros(n)
        self.coupling_u = np.zeros(1)
        self.coupling_uhat = np.zeros(0)
        self.exhausted = False

    # -- views -------------------------------------------------------------

    @property
    def U(self):
        return self._U[:, : self.n_left]

    @property
    def Uhat(self):
        return self._Uhat[:, : self.k]

    @property
    def Vprime(self):
        return self._Vp[:, : self.k]

    @property
    def preimages(self):
        """Coefficient vectors t with [A; L] t = the matching Vprime column."""
        return self._T[:, : self.k]

    @property
    def Bdense(self):
        """The projected factor against U, shape (n_left, k)."""
        return self._B[: self.n_left, : self.k]

    @property
    def Bbardense(self):
        """The signed projected factor against Uhat, shape (k, k)."""
        return self._Bbar[: self.k, : self.k]

    @property
    def alpha_next(self):
        """Trailing coupling of the pending right vector into U."""
        return float(self.coupling_u[-1])

    @property
    def betabar(self):
        """Trailing (signed) coupling of the pending right vector into Uhat."""
        return float(self.coupling_uhat[-1]) if len(self.coupling_uhat) else 0.0

    @property
    def is_canonical(self):
        """True when the pending couplings are single trailing scalars."""
        return (np.all(self.coupling_u[:-1] == 0.0)
                and np.all(self.coupling_uhat[:-1] == 0.0))

    def restarted(self, l, U, Uhat, Vprime, preimages, B, Bbar, couplings=None):
        """A new l-column state of the same run, built from restarted blocks.

        ``U`` has l + 1 columns and ``B`` is (l+1) x l; ``Uhat``, ``Vprime``
        and ``preimages`` have l columns and ``Bbar`` is l x l.  The new state
        keeps this state's pending right vector under ``couplings`` (rows of
        l + 1 and l entries into U and Uhat) or, without them, has its own
        set by the caller through ``set_pending``.
        """
        new = JbdState(self.m, self.p, self.n, self.capacity, self.breakdown_tol)
        new.k = l
        new.n_left = l + 1
        new._U[:, : l + 1] = U
        new._Uhat[:, :l] = Uhat
        new._Vp[:, :l] = Vprime
        new._T[:, :l] = preimages
        new._B[: l + 1, :l] = B
        new._Bbar[:l, :l] = Bbar
        if couplings is not None:
            new.vp_next = self.vp_next.copy()
            new.t_next = self.t_next.copy()
            new.coupling_u, new.coupling_uhat = couplings
        return new

    def set_pending(self, vp, t):
        """Make vp = [A; L] t, divided by alpha = ||vp||, the pending right vector.

        Its couplings become alpha on the last U column and the coupled-
        recurrence entry -alpha B[k, k-1] / Bbar[k-1, k-1] on the last Uhat
        column (none at k = 0).  Returns alpha, and leaves the state
        untouched when alpha is below ``breakdown_tol``.
        """
        alpha = float(np.linalg.norm(vp))
        if alpha < self.breakdown_tol:
            return alpha
        k = self.k
        self.vp_next = vp / alpha
        self.t_next = t / alpha
        self.coupling_u = np.zeros(k + 1)
        self.coupling_u[-1] = alpha
        self.coupling_uhat = np.zeros(k)
        if k:
            self.coupling_uhat[-1] = -alpha * self._B[k, k - 1] / self._Bbar[k - 1, k - 1]
        return alpha


def _solve_upper(op, u):
    """Inner solve of min ||[A; L] t - (u; 0)|| over t."""
    rhs = np.zeros(op.m + op.p)
    rhs[: op.m] = u
    return lsqr_solve(op, rhs)


def jbd_init(op, u1, capacity):
    """Seed a joint bidiagonalization run from a unit starting vector.

    Projects (u1; 0) onto range([A; L]) to obtain the first right vector;
    breakdown is raised if the projection or its lower block vanishes (the
    starting vector is orthogonal to the relevant range, or the L side
    contributes nothing).
    """
    u1 = np.asarray(u1, dtype=np.float64)
    if u1.shape != (op.m,):
        raise ValueError(f"u1 must have length {op.m}")
    if abs(np.linalg.norm(u1) - 1.0) > 1e-14:
        raise ValueError("u1 must have unit norm")

    tol = max(op.n * _EPS * op.rnorm_estimate, 32.0 * _EPS)
    state = JbdState(op.m, op.p, op.n, capacity, tol)
    state._U[:, 0] = u1

    t1 = _solve_upper(op, u1).solution
    alpha1 = state.set_pending(op.apply(t1), t1)
    if alpha1 < tol:
        raise BreakdownError("alpha", 1, alpha1)
    alphahat1 = float(np.linalg.norm(state.vp_next[op.m:]))
    if alphahat1 < tol:
        raise BreakdownError("alphahat", 1, alphahat1)
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
    if state.n_left != k + 1:
        raise ValueError("cannot expand a state closed by left-side breakdown")
    if k + 1 > state.capacity:
        raise ValueError("state capacity exhausted; allocate a larger run")
    vp = state.vp_next

    # companion left vector paired with the pending right vector; the signed
    # diagonal keeps all runs on the alternating-sign convention
    candh, uhat_coefficients = _reorth_tracked(vp[m:].copy(), state._Uhat[:, :k],
                                               state.coupling_uhat)
    anorm = float(np.linalg.norm(candh))
    if anorm < state.breakdown_tol:
        raise BreakdownError("alphahat", k + 1, anorm)
    abar = anorm if k % 2 == 0 else -anorm

    # next left vector from the upper block of the pending right vector
    cand, u_coefficients = _reorth_tracked(vp[:m].copy(), state._U[:, : k + 1],
                                           state.coupling_u)
    beta = float(np.linalg.norm(cand))

    # commit column k
    state._Vp[:, k] = vp
    state._T[:, k] = state.t_next
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

    # next right vector: three-term recurrence on the preimages, realized
    # through the operator, then reorthogonalized with preimage bookkeeping
    t_cand = _solve_upper(op, u_new).solution - beta * state.t_next
    cand2 = op.apply(t_cand)
    Vpk = state._Vp[:, : k + 1]
    Tk = state._T[:, : k + 1]
    for _ in range(2):
        coef = Vpk.T @ cand2
        cand2 = cand2 - Vpk @ coef
        t_cand = t_cand - Tk @ coef
    if state.set_pending(cand2, t_cand) < state.breakdown_tol:
        _exhaust(state)


def _exhaust(state):
    """End the run on an invariant subspace: no pending vector, zero couplings."""
    state.vp_next = np.zeros(state.m + state.p)
    state.t_next = np.zeros(state.n)
    state.coupling_u = np.zeros(state.n_left)
    state.coupling_uhat = np.zeros(state.k)
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
