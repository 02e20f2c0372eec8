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
[A; L] T = Vprime, so x = T w costs no inner solve.  The bound stops the
iteration, but only the recovered relative residual (``compute_residual``),
which reads the same at every common scale of {A, L}, certifies a
component.  Each extraction also records ||Blead^-1|| * ||Bbar^-1||
(``diag_product``), the conditioning of the projected pair, as a
diagnostic that decides nothing; ||Bbar^-1|| is 1 / min(S).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf, isfinite, sqrt

import numpy as np

from .bidiag import inverse_norm_estimates, small_gsvd
from .jbd import BreakdownError, jbd_expand, jbd_init
from .restart import thick_restart
from .shifts import ShiftSet, apply_adaptive_rule
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
    "recover_component",
    "compute_residual",
    "irjbd_solve",
]

EPS = float(np.finfo(np.float64).eps)


@dataclass
class SolverConfig:
    """All solver parameters.

    ``target`` is signed: +l asks for the l largest components, -l for the
    l smallest.

    ``tol`` is the outer tolerance: a component's bound converges below it,
    and its recovered relative residual must be at most it.  It also sets
    the inner least-squares tolerance, ``StackedOperator.default_tol(tol)``
    = max(10 eps, tol / 100); there is no separate knob for it.

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
    seed: int = 0
    restart_mode: str = "implicit"

    def __post_init__(self):
        if self.target == 0:
            raise ValueError("target must be a nonzero signed count")
        if self.kmax < self.l + 1:
            raise ValueError(f"kmax={self.kmax} too small for {self.l} components")
        if self.adjust < 0:
            raise ValueError("adjust must be nonnegative")
        if not (isfinite(self.tol) and self.tol >= EPS):
            raise ValueError(f"tol={self.tol} must be finite and at least machine precision")
        if self.maxit < 0:
            raise ValueError("maxit must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.restart_mode not in ("implicit", "thick"):
            raise ValueError("restart_mode must be 'implicit' or 'thick'")

    @property
    def l(self):
        return abs(self.target)

    def kept_columns(self, nconv):
        """Columns a restart keeps once ``nconv`` wanted values have converged.

        The base l + adjust, with adjust clamped to kmax - l - 1 so that a
        shift remains, grows by min(nconv, nshifts // 2), nshifts = kmax -
        base being the shift count at the base, so the slowest wanted value
        keeps more of the subspace; at least ceil(nshifts / 2) >= 1 shifts
        remain.  ARPACK's dsaup2 grows its kept dimension by the same rule
        (Lehoucq, Sorensen & Yang, 1998).
        """
        base = self.l + min(self.adjust, self.kmax - self.l - 1)
        return base + min(nconv, (self.kmax - base) // 2)


@dataclass
class RitzSet:
    """Extraction snapshot, extreme-first: values, small vectors, bounds, flags."""

    small: object
    bounds: np.ndarray
    converged: np.ndarray
    diag_product: float

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
    relative_residual: float = np.nan
    bound: float = np.nan
    converged: bool = False

    @property
    def value(self):
        """The generalized singular value c / s."""
        return self.c / self.s if self.s != 0.0 else float("inf")


@dataclass
class ConvergenceRecord:
    """One extraction: its bounds, and the restart that led to it.

    ``shifts_used``, ``kept`` and ``shifts_replaced`` describe that restart:
    its shifts, the columns it kept (``len(shifts_used) == kmax - kept``)
    and how many shifts the adaptive rule replaced.  Only implicit mode
    applies the rule; a thick record holds the unwanted values its restart
    purged.  The first record follows no restart, so no shifts and
    ``kept == 0``; a refused restart has none.
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
    that is refused ends the run on the previous extraction uncounted, and
    one whose re-expansion breaks down is extracted and counted, so a run
    with a history has ``len(history) == restarts + 1``.
    ``lsqr_iterations`` and ``lsqr_failures`` count the iterations and the
    non-convergences of every inner solve.  Only the expansion makes inner
    solves, and neither a refused restart nor recovery makes any, so a run
    with a history has ``lsqr_iterations == history[-1].lsqr_iters_total``.
    ``lsqr_defect`` is the operator's ``defect``: a bound on how far
    [A; L] M is from orthonormal columns, inf on the diagonal path.
    """

    components: list
    history: list
    status: str
    message: str = ""
    seed: int = 0
    restarts: int = 0
    lsqr_iterations: int = 0
    lsqr_failures: int = 0
    lsqr_defect: float = inf


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
    the columns of W, P and Pbar (not ``null``) are reversed, so the wanted
    components lead in both modes and the shifts, the kept set and the
    output order need no mode.  Bounds are those of ``residual_bound_pq``; a
    component's bound converges when it falls below tol.
    """
    sg = small_gsvd(state.Bdense, state.Bbardense)
    if cfg.target < 0:
        sg = replace(sg, C=sg.C[::-1], S=sg.S[::-1], W=sg.W[:, ::-1], P=sg.P[:, ::-1],
                     Pbar=sg.Pbar[:, ::-1])
    inv_lead, inv_hat = inverse_norm_estimates(state.Bdense, sg.S)
    bounds = residual_bound_pq(sg, state.alpha_next, state.betabar)
    return RitzSet(small=sg, bounds=bounds, converged=bounds < cfg.tol,
                   diag_product=inv_lead * inv_hat)


def compute_residual(comp, A, L, rnorm):
    """Relative norm of the stacked three-block residual of a component.

    Each block is measured against its own scale: A x - c y and L x - s z
    against ||(c y; s z)|| = 1, and s A^T y - c L^T z against ``rnorm``, an
    upper bound on ||[A; L]||_2.  A common scale of {A, L} scales x by its
    inverse and leaves y and z, so no block moves with it, and each is of
    order 1, so no square overflows.
    """
    r1 = A.matvec(comp.x) - comp.c * comp.y
    r2 = L.matvec(comp.x) - comp.s * comp.z
    r3 = (comp.s * A.matvec_transpose(comp.y) - comp.c * L.matvec_transpose(comp.z)) / rnorm
    return sqrt(float(r1 @ r1) + float(r2 @ r2) + float(r3 @ r3))


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
    comp.relative_residual = compute_residual(comp, op.A, op.L, op.rnorm_estimate)
    return comp


def irjbd_solve(A, L, cfg):
    """Compute the |target| extreme GSVD components of the pair {A, L}.

    Runs the joint bidiagonalization to kmax columns, then alternates
    extraction with restarts until every targeted bound falls below
    ``cfg.tol`` or the restart budget runs out.  Each restart keeps
    ``cfg.kept_columns`` columns, a count that grows as wanted values
    converge, and takes the other kmax - kept unwanted values as shifts; in
    implicit mode the adaptive rule may replace some of them.  A restart is
    one ``thick_restart`` call: it purges the exact shifts by truncation and
    sweeps the replaced ones out of the truncated factor.  Components
    are recovered only on exit, most extreme first, and certified
    (``converged``) when the bound is below tol, c * s >= 10 eps and the
    recovered relative residual is at most tol.

    A run ends ``breakdown``, with the reason as its message, when the
    process stops (``JbdState.stop``) before every targeted bound has
    converged, or when a restart refuses with ``BreakdownError``; the last
    extraction then stands.  A stop before the first column ends the run
    with no extraction at all.

    Returns a SolveResult.
    """
    op = StackedOperator(A, L)
    op.tol = op.default_tol(cfg.tol)
    l = cfg.l

    rng = np.random.default_rng(cfg.seed)
    u1 = rng.standard_normal(op.m)
    u1 /= sqrt(u1 @ u1)

    history = []
    restarts = 0
    last_shifts = ShiftSet(np.zeros(0))
    keep = 0

    state = jbd_init(op, u1, capacity=cfg.kmax)
    jbd_expand(state, op, cfg.kmax)
    if state.k == 0:  # stopped before its first column: nothing to extract
        return SolveResult([], [], "breakdown", message=_note_failures(state.stop, op),
                           seed=cfg.seed, lsqr_iterations=op.iterations,
                           lsqr_failures=op.failures, lsqr_defect=op.defect)

    # one extraction per pass, and a restart counts once its state is
    # extracted; every exit but convergence and the budget is a breakdown
    status, message = "breakdown", ""
    while True:
        ritz = extract_ritz(state, cfg)
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
                # only a stopped process holds fewer than kmax >= l columns
                message = (f"subspace exhausted at k={ritz.k} < {l} requested components "
                           f"({state.stop})")
            break
        if state.stop is not None:
            message = state.stop
            break
        if restarts >= cfg.maxit:
            status = "maxit_exhausted"
            message = f"restart budget maxit={cfg.maxit} exhausted"
            break

        keep = cfg.kept_columns(int(np.count_nonzero(ritz.converged[:l])))
        # the state holds kmax columns here, so these are kmax - keep shifts
        last_shifts = ShiftSet(ritz.small.C[keep:])
        if cfg.restart_mode == "implicit":
            last_shifts = apply_adaptive_rule(last_shifts, ritz.small, l)
        # the rule replaces the shifts nearest the wanted values, a leading
        # run of the nearest-first list: the restart truncates onto keep + r
        # triplets, which purges the other, exact shifts, and sweeps only the
        # r replaced ones
        try:
            state = thick_restart(state, ritz.small, keep,
                                  last_shifts.lambdas[last_shifts.replaced_flags])
        except BreakdownError as exc:
            # a refused restart: the last extraction stands
            message = str(exc)
            break
        jbd_expand(state, op, cfg.kmax)
        restarts += 1

    components = []
    uncertified = []
    for idx in range(min(l, ritz.k)):
        comp = recover_component(state, op, ritz, idx)
        if comp.c * comp.s < 10.0 * EPS:
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
        message=_note_failures(message, op),
        seed=cfg.seed,
        restarts=restarts,
        lsqr_iterations=op.iterations,
        lsqr_failures=op.failures,
        lsqr_defect=op.defect,
    )


def _note_failures(message, op):
    """Append the count of non-converged inner solves, when there are any."""
    if not op.failures:
        return message
    note = (f"{op.failures} inner least-squares "
            f"{'solve' if op.failures == 1 else 'solves'} did not converge")
    return f"{message}; {note}" if message else note
