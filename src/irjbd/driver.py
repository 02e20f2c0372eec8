"""Outer solver loop: expand, extract, test bounds, shift, restart.

Convergence of an approximate GSVD component is judged from trailing
entries of the small extraction alone.  The residual of a component
(c, s, x, y, z) stacks three blocks — A x - c y, L x - s z, and
s A^T y - c L^T z — and while the state relations hold, the first two
vanish and the third is a known multiple of the pending right vector,
so its norm is bounded without ever forming x, y or z:

    ||r|| <= ||R_est|| * | s * alpha_next * p[-1] - c * betabar * pbar[-1] |

with an algebraically identical alternative driven by w[-1].  The vectors
themselves are recovered only after the bounds have converged.  In floating
point the bounds acquire an extra term of order
||Blead^-1|| * ||Bhat^-1|| * eps, so the solver tracks that product and
raises a reliability warning once it could swamp the tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple

import numpy as np

from .bidiag import inverse_norm_estimates, small_gsvd
from .jbd import BreakdownError, jbd_expand, jbd_init
from .restart import CouplingDefectError, multi_step_implicit_restart, thick_restart
from .shifts import apply_adaptive_rule, select_exact_shifts
from .stackedls import StackedOperator, lsqr_solve

__all__ = [
    "EPS",
    "SolverConfig",
    "RitzComponent",
    "RitzSet",
    "GsvdComponent",
    "ConvergenceRecord",
    "SolveResult",
    "residual_bound_pq",
    "residual_bound_w",
    "extract_ritz",
    "check_convergence",
    "recover_component",
    "compute_residual",
    "cross_residual_norm",
    "irjbd_solve",
]

EPS = float(np.finfo(np.float64).eps)


@dataclass
class SolverConfig:
    """All solver parameters.

    ``target`` is signed: +l asks for the l largest components, -l for the
    l smallest.  ``lsqr_maxit`` defaults to 10 n when left as None.
    """

    target: int
    kmax: int
    adjust: int = 3
    tol: float = 1e-8
    maxit: int = 1000
    lsqr_tol: float = 10.0 * EPS
    lsqr_maxit: int | None = None
    seed: int = 0
    criterion: str = "pq"
    restart_mode: str = "implicit"

    def __post_init__(self):
        if self.target == 0:
            raise ValueError("target must be a nonzero signed count")
        if self.kmax < self.l + 1:
            raise ValueError(f"kmax={self.kmax} too small for {self.l} components")
        if self.adjust < 0:
            raise ValueError("adjust must be nonnegative")
        if self.tol < EPS:
            raise ValueError(f"tol={self.tol} below machine precision is meaningless")
        if self.maxit < 0:
            raise ValueError("maxit must be nonnegative")
        if self.lsqr_tol <= 0:
            raise ValueError("lsqr_tol must be positive")
        if self.criterion not in ("pq", "w"):
            raise ValueError("criterion must be 'pq' or 'w'")
        if self.restart_mode not in ("implicit", "thick"):
            raise ValueError("restart_mode must be 'implicit' or 'thick'")

    @property
    def l(self):
        return abs(self.target)

    @property
    def mode(self):
        return "largest" if self.target > 0 else "smallest"

    def effective_adjust(self):
        """adjust clamped so at least one shift remains available."""
        return max(0, min(self.adjust, self.kmax - self.l - 1))


class RitzComponent(NamedTuple):
    c: float
    s: float
    w: np.ndarray
    p: np.ndarray
    pbar: np.ndarray


@dataclass
class RitzSet:
    """Extraction snapshot: values, small vectors, bounds, convergence flags."""

    small: object
    bounds: np.ndarray
    converged: np.ndarray
    targeted: np.ndarray
    diag_product: float
    reliability_warning: bool
    alpha_next: float
    betabar: float

    @property
    def k(self):
        return self.small.k

    def component(self, i):
        sg = self.small
        return RitzComponent(float(sg.C[i]), float(sg.S[i]), sg.W[:, i], sg.P[:, i],
                             sg.Pbar[:, i])


@dataclass
class GsvdComponent:
    """A recovered quintuple with its residual data."""

    c: float
    s: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residual_norm: float = np.nan
    relative_residual: float = np.nan
    bound: float = np.nan
    converged: bool = False
    reliability_warning: bool = False
    lsqr_converged: bool = True

    @property
    def value(self):
        """The generalized singular value c / s."""
        return self.c / self.s if self.s != 0.0 else float("inf")


@dataclass
class ConvergenceRecord:
    restart_index: int
    bounds: np.ndarray
    diag_product: float
    shifts_used: np.ndarray
    lsqr_iters_total: int


@dataclass
class SolveResult:
    """Outcome of a solve.

    ``lsqr_iterations`` and ``lsqr_failures`` count the iterations and the
    non-convergences of every inner solve, recovery included.
    """

    components: list
    history: list
    status: str
    reliability_warning: bool = False
    message: str = ""
    seed: int = 0
    restarts: int = 0
    lsqr_iterations: int = 0
    lsqr_failures: int = 0


def residual_bound_pq(ritz_i, alpha_next, betabar_k, rnorm):
    """Residual-norm bound from the trailing left-vector entries.

    With rnorm = 1 this is the tolerance-comparable relative form used by
    the stopping test.
    """
    return rnorm * abs(ritz_i.s * alpha_next * ritz_i.p[-1]
                       - ritz_i.c * betabar_k * ritz_i.pbar[-1])


def residual_bound_w(ritz_i, alpha_next, beta_next, rnorm):
    """Residual-norm bound from the trailing right-vector entry.

    Algebraically equal to the pq form but carries a 1/(c s) prefactor, so
    it blows up on near-trivial components.
    """
    cs = ritz_i.c * ritz_i.s
    if cs == 0.0:
        return float("inf")
    return rnorm * abs(alpha_next * beta_next / cs * ritz_i.w[-1])


def extract_ritz(state, cfg):
    """Approximate GSVD data of the current state, with per-component bounds.

    Bounds are the tolerance-comparable relative quantities (no rnorm
    factor); the targeted indices are the cfg-selected extremes.
    """
    if not state.is_canonical:
        raise ValueError("extraction expects canonical trailing couplings; "
                         "expand at least one step after a thick restart")
    B = state.Bdense.copy()
    Bbar = state.Bbardense.copy()
    k = state.k
    sg = small_gsvd(B, Bbar)

    alpha_next = state.alpha_next
    betabar = state.betabar
    beta_next = float(B[k, k - 1]) if (k >= 1 and state.n_left == k + 1) else 0.0

    inv_lead, inv_hat = inverse_norm_estimates(B, Bbar)
    l = min(cfg.l, k)
    ritz = RitzSet(
        small=sg,
        bounds=np.empty(k),
        converged=np.zeros(k, dtype=bool),
        targeted=np.arange(l) if cfg.mode == "largest" else np.arange(k - l, k),
        diag_product=inv_lead * inv_hat,
        reliability_warning=False,
        alpha_next=alpha_next,
        betabar=betabar,
    )
    for i in range(k):
        comp = ritz.component(i)
        if cfg.criterion == "pq":
            ritz.bounds[i] = residual_bound_pq(comp, alpha_next, betabar, 1.0)
        else:
            ritz.bounds[i] = residual_bound_w(comp, alpha_next, beta_next, 1.0)
    return ritz


def check_convergence(ritz, cfg):
    """Flag converged components and assess bound reliability.

    A component converges when its bound falls below tol.  When the
    conditioning product is large enough that its eps-level term could
    exceed tol, the bounds may underestimate the true residuals and a
    reliability warning is raised.
    """
    ritz.converged = ritz.bounds < cfg.tol
    ritz.reliability_warning = ritz.diag_product * EPS > cfg.tol
    return ritz


def compute_residual(comp, A, L, rnorm):
    """Norm of the stacked three-block residual and its relative form."""
    r1 = A.matvec(comp.x) - comp.c * comp.y
    r2 = L.matvec(comp.x) - comp.s * comp.z
    r3 = comp.s * A.matvec_transpose(comp.y) - comp.c * L.matvec_transpose(comp.z)
    total = sqrt(float(r1 @ r1) + float(r2 @ r2) + float(r3 @ r3))
    return total, total / rnorm


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


def recover_component(state, op, ritz, index):
    """Recover the full quintuple for one extracted component.

    The right vector solves the consistent system [A; L] x = Vprime w by
    LSQR; the left vectors are basis combinations.  Residuals are computed
    from the definition, not from the bounds.
    """
    rc = ritz.component(index)
    outcome = lsqr_solve(op, state.Vprime @ rc.w)
    comp = GsvdComponent(
        c=rc.c,
        s=rc.s,
        x=outcome.solution,
        y=state.U @ rc.p,
        z=state.Uhat @ rc.pbar,
        bound=float(ritz.bounds[index]),
        lsqr_converged=outcome.converged,
    )
    comp.residual_norm, comp.relative_residual = compute_residual(comp, op.A, op.L,
                                                                  op.rnorm_estimate)
    return comp


def irjbd_solve(A, L, cfg):
    """Compute the |target| extreme GSVD components of the pair {A, L}.

    Runs the joint bidiagonalization to kmax columns, then alternates
    extraction with restarts (implicit shifted sweeps or thick restart,
    per cfg) until every targeted bound falls below ``cfg.tol`` or the
    restart budget runs out.  Components are recovered only on exit.

    Returns a SolveResult.
    """
    op = StackedOperator(A, L, cfg.lsqr_tol, cfg.lsqr_maxit)
    l = cfg.l
    mode = cfg.mode
    adj = cfg.effective_adjust()
    keep = l + adj
    nshifts = cfg.kmax - keep

    rng = np.random.default_rng(cfg.seed)
    u1 = rng.standard_normal(op.m)
    u1 /= np.linalg.norm(u1)

    history = []
    restarts = 0
    broken = None
    last_shifts = np.zeros(0)
    state = None

    try:
        state = jbd_init(op, u1, capacity=cfg.kmax)
        jbd_expand(state, op, cfg.kmax)
    except BreakdownError as exc:
        if state is None or state.k == 0:
            return SolveResult([], [], "breakdown", message=_note_failures(str(exc), op),
                               seed=cfg.seed, lsqr_iterations=op.iterations,
                               lsqr_failures=op.failures)
        broken = exc

    ritz = None
    ritz_state = None
    status = "maxit_exhausted"
    message = ""
    while True:
        if not state.is_canonical:
            # a restart's re-expansion broke down before restoring canonical
            # trailing couplings; fall back to the previous extraction
            status = "breakdown"
            message = str(broken) if broken is not None else "non-canonical state"
            break
        ritz = check_convergence(extract_ritz(state, cfg), cfg)
        ritz_state = state
        history.append(ConvergenceRecord(
            restart_index=restarts,
            bounds=ritz.bounds[ritz.targeted].copy(),
            diag_product=ritz.diag_product,
            shifts_used=last_shifts.copy(),
            lsqr_iters_total=op.iterations,
        ))
        if np.all(ritz.converged[ritz.targeted]) and len(ritz.targeted) == min(l, ritz.k):
            status = "converged"
            if ritz.k < l:
                status = "breakdown"
                message = (f"subspace exhausted at k={ritz.k} < {l} requested components")
            break
        if broken is not None:
            status = "breakdown"
            message = str(broken)
            break
        if state.exhausted:
            status = "breakdown"
            message = ("invariant subspace found before all targeted components "
                       "converged; remaining targets are unreachable from this start")
            break
        if restarts >= cfg.maxit:
            status = "maxit_exhausted"
            message = f"restart budget maxit={cfg.maxit} exhausted"
            break

        shift_set = select_exact_shifts(ritz.small, mode, nshifts)
        shift_set = apply_adaptive_rule(shift_set, ritz.small, mode, l)
        last_shifts = shift_set.lambdas
        try:
            if cfg.restart_mode == "implicit":
                state = multi_step_implicit_restart(state, shift_set.lambdas, keep)
            else:
                state = thick_restart(state, ritz.small, keep, target=mode)
            jbd_expand(state, op, cfg.kmax)
        except (BreakdownError, CouplingDefectError) as exc:
            broken = exc
        restarts += 1

    components = []
    vetoed = False
    if ritz is not None and ritz.k:
        order = ritz.targeted if mode == "largest" else ritz.targeted[::-1]
        for idx in order:
            comp = recover_component(ritz_state, op, ritz, int(idx))
            bound_ok = bool(ritz.converged[idx])
            comp_warning = ritz.reliability_warning or (comp.c * comp.s < 10.0 * EPS)
            comp.reliability_warning = comp_warning
            if mode == "smallest" and comp_warning and bound_ok:
                # the bound passed but its reliability guard fired: report the
                # component as unreliable rather than converged (the recovered
                # residual is still attached for the caller to judge)
                comp.converged = False
                vetoed = True
            else:
                comp.converged = bound_ok
            components.append(comp)

    if status == "converged" and vetoed:
        status = "unreliable"
        message = ("bounds converged but the conditioning diagnostic says they "
                   "cannot be trusted for the smallest components")
    if any(not c.lsqr_converged for c in components):
        warnings.warn("inner least-squares solver did not converge during recovery",
                      stacklevel=2)

    return SolveResult(
        components=components,
        history=history,
        status=status,
        reliability_warning=bool(ritz.reliability_warning) if ritz is not None else False,
        message=_note_failures(message, op),
        seed=cfg.seed,
        restarts=restarts,
        lsqr_iterations=op.iterations,
        lsqr_failures=op.failures,
    )


def _note_failures(message, op):
    """Append the count of non-converged inner solves, when there are any."""
    if not op.failures:
        return message
    note = (f"{op.failures} inner least-squares "
            f"{'solve' if op.failures == 1 else 'solves'} did not converge")
    return f"{message}; {note}" if message else note
