"""Outer solver loop: expand, extract, test bounds, shift, restart.

Convergence of an approximate GSVD component is judged from trailing
entries of the small extraction alone.  The residual of a component
(c, s, x, y, z) stacks three blocks — A x - c y, L x - s z, and
s A^T y - c L^T z — and while the state relations hold, the first two
vanish and the third is a known multiple of the pending right vector,
so its norm is bounded without ever forming x, y or z:

    ||r|| <= ||R_est|| * | s * alpha_next * p[-1] - c * betabar * pbar[-1] |

The vectors themselves are recovered only after the bounds have converged,
and from stored columns alone: the state keeps a preimage basis T with
[A; L] T = Vprime, so x = T w costs no inner solve.  In floating point the
bounds acquire an extra term of order ||Blead^-1|| * ||Bhat^-1|| * eps, so
the solver tracks that product and raises a reliability warning once it
could swamp the tolerance.  The bound stops the iteration, but only the
recovered residual certifies a component.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt

import numpy as np

from .bidiag import inverse_norm_estimates, small_gsvd
from .jbd import BreakdownError, jbd_expand, jbd_init
from .restart import CouplingDefectError, multi_step_implicit_restart, thick_restart
from .shifts import ShiftSet, apply_adaptive_rule, select_exact_shifts
from .stackedls import StackedOperator
# not called here; bench/test_bench.py::test_tracer_restores_every_binding reads this binding
from .stackedls import lsqr_solve  # noqa: F401

__all__ = [
    "EPS",
    "SolverConfig",
    "RitzSet",
    "GsvdComponent",
    "ConvergenceRecord",
    "SolveResult",
    "residual_bound_pq",
    "extract_ritz",
    "check_convergence",
    "recover_component",
    "compute_residual",
    "irjbd_solve",
]

EPS = float(np.finfo(np.float64).eps)


@dataclass
class SolverConfig:
    """All solver parameters.

    ``target`` is signed: +l asks for the l largest components, -l for the
    l smallest.  ``lsqr_maxit`` defaults to 10 n when left as None.

    ``adjust`` is the base number of extra kept directions: a restart keeps
    l + adjust columns while no wanted value has converged, and one more per
    converged wanted value, up to half the kmax - l - adjust shifts (see
    ``kept_columns``).
    """

    target: int
    kmax: int
    adjust: int = 3
    tol: float = 1e-8
    maxit: int = 1000
    lsqr_maxit: int | None = None
    seed: int = 0
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
        if self.lsqr_maxit is not None and self.lsqr_maxit < 1:
            raise ValueError("lsqr_maxit must be at least 1")
        if self.restart_mode not in ("implicit", "thick"):
            raise ValueError("restart_mode must be 'implicit' or 'thick'")

    @property
    def l(self):
        return abs(self.target)

    def effective_adjust(self):
        """adjust clamped so at least one shift remains available."""
        return max(0, min(self.adjust, self.kmax - self.l - 1))

    def kept_columns(self, nconv):
        """Columns a restart keeps once ``nconv`` wanted values have converged.

        l + adjust grows by min(nconv, nshifts // 2), nshifts = kmax - l -
        adjust being the shift count at the base, so the slowest wanted value
        keeps more of the subspace; at least ceil(nshifts / 2) >= 1 shifts
        remain.  ARPACK's dsaup2 grows its kept dimension by the same rule
        (Lehoucq, Sorensen & Yang, 1998).
        """
        base = self.l + self.effective_adjust()
        return base + min(nconv, (self.kmax - base) // 2)


@dataclass
class RitzSet:
    """Extraction snapshot, extreme-first: values, small vectors, bounds, flags."""

    small: object
    bounds: np.ndarray
    converged: np.ndarray
    diag_product: float
    reliability_warning: bool

    @property
    def k(self):
        return self.small.k


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

    @property
    def value(self):
        """The generalized singular value c / s."""
        return self.c / self.s if self.s != 0.0 else float("inf")


@dataclass
class ConvergenceRecord:
    """One extraction: its bounds, and the restart that led to it.

    ``shifts_used``, ``kept`` and ``shifts_replaced`` describe that restart:
    its shifts, the columns it kept (``len(shifts_used) == kmax - kept``)
    and how many shifts the adaptive rule replaced.  The first record
    follows no restart, so no shifts and ``kept == 0``; a refused restart has none.
    """

    restart_index: int
    bounds: np.ndarray
    diag_product: float
    shifts_used: np.ndarray
    lsqr_iters_total: int
    kept: int = 0
    shifts_replaced: int = 0


@dataclass
class SolveResult:
    """Outcome of a solve.

    ``restarts`` counts the restarts whose state was extracted: a restart
    the sweep refuses, or one whose first expansion step breaks down, ends
    the run on the previous extraction uncounted, so a run with a history
    has ``len(history) == restarts + 1``.  ``lsqr_iterations`` and
    ``lsqr_failures`` count the iterations and the non-convergences of
    every inner solve.  Only the expansion makes inner solves, and neither
    a refused restart nor recovery makes any, so a run with a history has
    ``lsqr_iterations == history[-1].lsqr_iters_total``.
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


def residual_bound_pq(small, alpha_next, betabar):
    """Residual bounds of every component of an extraction, as one array.

    |s alpha_next p[-1] - c betabar pbar[-1]| from the trailing left-vector
    entries: the tolerance-comparable relative form used by the stopping
    test.
    """
    return np.abs(small.S * alpha_next * small.P[-1] - small.C * betabar * small.Pbar[-1])


def extract_ritz(state, cfg):
    """Approximate GSVD data of the current state, extreme-first, with bounds.

    The one place the wanted end is decided: for a negative target C, S and
    the columns of W, P and Pbar are reversed, so the wanted components lead
    in both modes and the shifts, the kept set and the output order need no
    mode.  Bounds are those of ``residual_bound_pq``.
    """
    if not state.is_canonical:
        raise ValueError("extraction expects canonical trailing couplings; "
                         "expand at least one step after a thick restart")
    sg = small_gsvd(state.Bdense, state.Bbardense)
    if cfg.target < 0:
        sg = replace(sg, C=sg.C[::-1], S=sg.S[::-1], W=sg.W[:, ::-1], P=sg.P[:, ::-1],
                     Pbar=sg.Pbar[:, ::-1])
    inv_lead, inv_hat = inverse_norm_estimates(state.Bdense, state.Bbardense)
    return RitzSet(
        small=sg,
        bounds=residual_bound_pq(sg, state.alpha_next, state.betabar),
        converged=np.zeros(state.k, dtype=bool),
        diag_product=inv_lead * inv_hat,
        reliability_warning=False,
    )


def check_convergence(ritz, cfg):
    """Flag converged components and assess bound reliability.

    A component's bound converges when it falls below tol.  When the
    conditioning product is large enough that its eps-level term could
    exceed tol, the bounds may underestimate the true residuals and a
    reliability warning is raised; it decides no label.
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


def recover_component(state, op, ritz, index):
    """Recover the full quintuple for one extracted component.

    Every vector combines stored columns: x = T w from the preimages T with
    [A; L] T = Vprime, so [A; L] x = Vprime w and no inner solve is made;
    y = U p and z = Uhat pbar.  Residuals are computed from the definition,
    not from the bounds.
    """
    sg = ritz.small
    comp = GsvdComponent(
        c=float(sg.C[index]),
        s=float(sg.S[index]),
        x=state.preimages @ sg.W[:, index],
        y=state.U @ sg.P[:, index],
        z=state.Uhat @ sg.Pbar[:, index],
        bound=float(ritz.bounds[index]),
    )
    comp.residual_norm, comp.relative_residual = compute_residual(comp, op.A, op.L,
                                                                  op.rnorm_estimate)
    return comp


def irjbd_solve(A, L, cfg):
    """Compute the |target| extreme GSVD components of the pair {A, L}.

    Runs the joint bidiagonalization to kmax columns, then alternates
    extraction with restarts (implicit shifted sweeps or thick restart,
    per cfg) until every targeted bound falls below ``cfg.tol`` or the
    restart budget runs out.  Each restart keeps ``cfg.kept_columns``
    columns, a count that grows as wanted values converge, and the implicit
    sweep takes the other kmax - kept unwanted values as shifts.  Components
    are recovered only on exit, most extreme first, and certified
    (``converged``) when the bound is below tol, c * s >= 10 eps and the
    recovered relative residual is at most tol.

    Returns a SolveResult.
    """
    op = StackedOperator(A, L, maxit=cfg.lsqr_maxit)
    l = cfg.l

    rng = np.random.default_rng(cfg.seed)
    u1 = rng.standard_normal(op.m)
    u1 /= np.linalg.norm(u1)

    history = []
    restarts = 0
    broken = None
    last_shifts = ShiftSet(np.zeros(0))
    keep = 0
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

    # one extraction per pass, and a restart counts once its state is
    # extracted; every exit but convergence and the budget is a breakdown
    status, message = "breakdown", ""
    while True:
        ritz = check_convergence(extract_ritz(state, cfg), cfg)
        history.append(ConvergenceRecord(
            restart_index=restarts,
            bounds=ritz.bounds[:l].copy(),
            diag_product=ritz.diag_product,
            shifts_used=last_shifts.lambdas.copy(),
            lsqr_iters_total=op.iterations,
            kept=keep,
            shifts_replaced=int(np.count_nonzero(last_shifts.replaced_flags)),
        ))
        if np.all(ritz.converged[:l]):
            if ritz.k >= l:
                status = "converged"
            else:
                message = f"subspace exhausted at k={ritz.k} < {l} requested components"
            break
        if broken is not None:
            message = str(broken)
            break
        if state.exhausted:
            message = ("invariant subspace found before all targeted components "
                       "converged; remaining targets are unreachable from this start")
            break
        if restarts >= cfg.maxit:
            status = "maxit_exhausted"
            message = f"restart budget maxit={cfg.maxit} exhausted"
            break

        keep = cfg.kept_columns(int(np.count_nonzero(ritz.converged[:l])))
        last_shifts = apply_adaptive_rule(select_exact_shifts(ritz.small, cfg.kmax - keep),
                                          ritz.small, l)
        try:
            if cfg.restart_mode == "implicit":
                restarted = multi_step_implicit_restart(state, last_shifts.lambdas, keep)
            else:
                restarted = thick_restart(state, ritz.small, keep)
        except (BreakdownError, CouplingDefectError) as exc:
            # a refused restart: the last extraction stands
            message = str(exc)
            break
        try:
            jbd_expand(restarted, op, cfg.kmax)
        except BreakdownError as exc:
            broken = exc
        if not restarted.is_canonical:
            # the first step after a thick restart broke down before restoring
            # canonical trailing couplings: the last extraction stands
            message = str(broken)
            break
        state = restarted
        restarts += 1

    components = []
    uncertified = []
    for idx in range(min(l, ritz.k)):
        comp = recover_component(state, op, ritz, idx)
        trivial = comp.c * comp.s < 10.0 * EPS
        comp.reliability_warning = ritz.reliability_warning or trivial
        if trivial:
            reason = f"c*s = {comp.c * comp.s:.1e} is below 10*eps"
        elif not comp.relative_residual <= cfg.tol:
            reason = (f"recovered relative residual {comp.relative_residual:.1e} "
                      f"exceeds tol {cfg.tol:.0e}")
        else:
            reason = ""
        comp.converged = bool(ritz.converged[idx]) and not reason
        if ritz.converged[idx] and reason:
            uncertified.append(f"component {idx}: {reason}")
        components.append(comp)

    if status == "converged" and uncertified:
        status = "unreliable"
        message = "bounds converged but not certified: " + "; ".join(uncertified)

    return SolveResult(
        components=components,
        history=history,
        status=status,
        reliability_warning=bool(ritz.reliability_warning),
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
