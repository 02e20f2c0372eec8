"""Least-squares machinery on the stacked operator [A; L].

The operator holds [A; L] as one slot-major ELL copy (Bell & Garland,
2009), built once, with each block padded only to its own width: slot j
holds the j-th entry of every row, the slots below the narrower block's
width span all m+p rows and the slots above it only the wider block's rows,
so a product runs each numpy operation over one slot of rows at once.  Rows
longer than the width cap form a CSR tail whose product is added.  LSQR is
implemented natively on the operator and runs on [A; L] M for a right
preconditioner M built once with the operator.  When the dense n x n map
fits under ``_FACTOR_BYTES``, M = D R^-1, with D the scaling to unit column
norms and R the Cholesky factor of the Gram matrix of [A; L] D: [A; L] M
then has orthonormal columns up to rounding and every solve converges in
one or two iterations.  Otherwise, or when that factor is not numerically
nonsingular, M = D.  Either way range([A; L] M) = range([A; L]).  The
operator owns the inner-solve controls and counts the work of every solve
made through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite, sqrt

import numpy as np

from .sparsemat import _csr_product

__all__ = ["StackedOperator", "LsqrOutcome", "lsqr_solve", "stack_norm_estimate"]

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)

# largest dense right preconditioner, in bytes, an operator keeps (n <= 512)
_FACTOR_BYTES = 2 * 1024 * 1024


def stack_norm_estimate(A, L):
    """Cheap upper bound on the spectral norm of the stacked matrix [A; L]."""
    a1, ai, l1, li = A.norm1(), A.norminf(), L.norm1(), L.norminf()
    sq = a1 * ai + l1 * li
    if isfinite(sq):
        return sqrt(sq)
    # the products overflow: take the square roots first
    return hypot(sqrt(a1) * sqrt(ai), sqrt(l1) * sqrt(li))


def _column_norms(col_indices, values, n):
    """2-norm of each column of a sparse matrix given by its entries.

    The plain sum of squares is kept wherever it is a normal float.  A column
    whose squares overflow or underflow is summed again scaled by its largest
    entry, so entries beyond about 1e154 (or below 1e-154) do not turn its
    norm into inf (or 0).
    """
    with np.errstate(over="ignore"):
        sq = np.bincount(col_indices, weights=values**2, minlength=n)
    norms = np.sqrt(sq)
    redo = (sq < _TINY) | np.isinf(sq)
    if np.any(redo):
        big = np.zeros(n)
        np.maximum.at(big, col_indices, np.abs(values))
        per_entry = big[col_indices]
        unit = np.divide(values, per_entry, out=np.zeros_like(values), where=per_entry > 0.0)
        safe = big * np.sqrt(np.bincount(col_indices, weights=unit**2, minlength=n))
        norms[redo] = safe[redo]
    return norms


def _block_ell(offsets, row_ids, col_indices, values, m):
    """Slot-major ELL copy of a fused CSR stack [A; L], each block to its own
    width, plus a CSR tail of long rows.

    The first ``m`` rows are A's.  A row longer than 2 nnz // nrows (the cap)
    keeps only padded slots, and all of its entries go to ``tail`` = (row
    ids, column indices, values) in storage order; ``tail`` is None when
    every row fits.  Among the rows that fit, w_A and w_L are the longest
    rows of the two blocks.  Slot j holds the j-th stored entry of a row;
    slots below min(w_A, w_L) span all rows, and the slots from there up to
    max(w_A, w_L) span only the wider block's rows.  A slot past its row's
    end holds the row's own last column (column 0 for an empty row) with
    the value +0.0, so for finite input it adds an exact zero.

    Returns (cols, vals, groups, tail): the flat slot-major column indices
    and values, and for each nonempty group of slots its (row slice, number
    of slots); group g's slots follow group g - 1's in the flat arrays.
    """
    nrows = len(offsets) - 1
    counts = np.diff(offsets)
    fits = counts <= (2 * len(values) // nrows if nrows else 0)
    w_A = int(counts[:m][fits[:m]].max(initial=0))
    w_L = int(counts[m:][fits[m:]].max(initial=0))
    wide = slice(0, m) if w_A > w_L else slice(m, nrows)
    groups = [(rows, width) for rows, width in
              ((slice(0, nrows), min(w_A, w_L)), (wide, abs(w_A - w_L))) if width]
    last = np.zeros(nrows, dtype=np.int64)
    filled = counts > 0
    last[filled] = col_indices[offsets[1:][filled] - 1]
    # every slot starts as padding; the empty array covers a stack without entries
    cols = np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [np.tile(last[rows], width) for rows, width in groups])
    vals = np.zeros(len(cols))
    keep = fits[row_ids]
    rows, slots = row_ids[keep], (np.arange(len(values)) - offsets[row_ids])[keep]
    narrow = min(w_A, w_L)
    pos = np.where(slots < narrow, slots * nrows + rows,
                   narrow * nrows + (slots - narrow) * (wide.stop - wide.start)
                   + rows - wide.start)
    cols[pos] = col_indices[keep]
    vals[pos] = values[keep]
    long = ~keep
    tail = (row_ids[long], col_indices[long], values[long]) if np.any(long) else None
    return cols, vals, groups, tail


class StackedOperator:
    """The operator x -> (A x; L x) for a conformable pair {A, L}.

    [A; L] is stored fused, L's rows after A's, as flat slot-major ELL
    arrays (``_cols``, ``_vals``), each block padded to its own width, with
    an optional CSR tail (``_tail``); see ``_block_ell``.  Both products
    work in one scratch buffer (``_buf``) the size of ``_vals``, so one
    operator must not run two products at once.  ``scale`` holds
    1 / ||column j of [A; L]|| (1 for a zero column, and at most the largest
    double).  The right preconditioner M under which ``lsqr_solve`` iterates
    is built here once: D R^-1 (D = diag(``scale``), R the Cholesky
    factor of the Gram matrix of [A; L] D) when the n x n map fits under
    ``_FACTOR_BYTES`` and R is numerically nonsingular, and D otherwise.
    ``rnorm_estimate`` is ``stack_norm_estimate(A, L)``, computed once.
    The operator also holds the inner-solve controls — ``tol`` (default
    ``default_tol``, 10 eps) and ``maxit`` (default ``resolve_maxit(None,
    n)``) — and two counters, ``iterations`` and ``failures``, that every
    ``lsqr_solve`` through it adds to.
    """

    default_tol = 10.0 * _EPS

    def __init__(self, A, L, tol=default_tol, maxit=None):
        if A.ncols != L.ncols:
            raise ValueError(f"A has {A.ncols} columns but L has {L.ncols}")
        if A.nrows + L.nrows < A.ncols:
            raise ValueError("stacked operator must have at least as many rows as columns")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.A = A
        self.L = L
        self.m = A.nrows
        self.p = L.nrows
        self.n = A.ncols
        self.tol = tol
        self.maxit = self.resolve_maxit(maxit, self.n)
        self.iterations = 0
        self.failures = 0
        self.rnorm_estimate = stack_norm_estimate(A, L)

        offsets = np.concatenate([A.row_offsets, L.row_offsets[1:] + A.nnz])
        row_ids = np.repeat(np.arange(self.m + self.p, dtype=np.int64), np.diff(offsets))
        col_indices = np.concatenate([A.col_indices, L.col_indices])
        values = np.concatenate([A.values, L.values])
        self._cols, self._vals, groups, self._tail = _block_ell(
            offsets, row_ids, col_indices, values, self.m)
        # apply gathers x into _buf and apply_transpose multiplies y into it.
        # Each group is (row slice, its values and its part of _buf, viewed
        # as (slots, rows), and its slots as a list of views of _buf).  The
        # views are made once: at n = 200 a view per slot and call costs
        # about as much as the slot's arithmetic.
        self._buf = np.empty_like(self._vals)
        bounds = np.cumsum([width * (rows.stop - rows.start) for rows, width in groups])
        self._groups = []
        for (rows, width), vals, terms in zip(groups, np.split(self._vals, bounds[:-1]),
                                              np.split(self._buf, bounds[:-1])):
            terms = terms.reshape(width, -1)
            self._groups.append((rows, vals.reshape(width, -1), terms, list(terms)))
        colnorm = _column_norms(col_indices, values, self.n)
        # 1 / colnorm overflows for a subnormal norm: cap it at the largest double
        self.scale = np.ones(self.n)
        with np.errstate(over="ignore"):
            np.divide(1.0, colnorm, out=self.scale, where=colnorm > 0.0)
        np.minimum(self.scale, _HUGE, out=self.scale)
        self._factor = None
        if 8 * self.n * self.n <= _FACTOR_BYTES:
            self._factor = self._inverse_cholesky_factor(row_ids, col_indices, values)

    @staticmethod
    def resolve_maxit(maxit, n):
        """The inner iteration cap for n columns: ``maxit``, or 10 n when None."""
        return maxit if maxit is not None else 10 * n

    def _inverse_cholesky_factor(self, row_ids, col_indices, values):
        """D R^-1 for the Cholesky factor R of the Gram matrix of [A; L] D, or None.

        The entries of [A; L] D are at most 1 in magnitude, so its Gram
        matrix cannot overflow.  None when the Cholesky factorization fails,
        when min |r_ii| <= sqrt(n eps) max |r_ii| (a stack that is rank
        deficient to working precision) or when the map has a non-finite
        entry.
        """
        try:
            gram = self._equilibrated_gram(row_ids, col_indices, values)
            lower = np.linalg.cholesky(gram)   # R = lower^T
            diag = np.abs(np.diag(lower))
            if not diag.min() > sqrt(self.n * _EPS) * diag.max():
                return None
            # a capped scale can overflow the product: that falls back below
            with np.errstate(over="ignore"):
                factor = self.scale[:, None] * np.linalg.inv(lower).T
        except np.linalg.LinAlgError:
            return None
        return factor if np.all(np.isfinite(factor)) else None

    def _equilibrated_gram(self, row_ids, col_indices, values):
        """(S^T S) for S = [A; L] D, summed over dense blocks of n rows of S.

        The fused stack is given by its entries in CSR order.
        """
        n, rows = self.n, self.m + self.p
        unit = values * self.scale[col_indices]
        gram = np.zeros((n, n))
        for first in range(0, rows, n):
            lo, hi = np.searchsorted(row_ids, [first, first + n])
            block = np.zeros((min(n, rows - first), n))
            block[row_ids[lo:hi] - first, col_indices[lo:hi]] = unit[lo:hi]
            gram += block.T @ block
        return gram

    def _precondition(self, v):
        """Return M v for the right preconditioner M of ``lsqr_solve``."""
        if self._factor is None:
            return self.scale * v
        return self._factor @ v

    def _precondition_transpose(self, w):
        """Return M.T w for the right preconditioner M of ``lsqr_solve``."""
        if self._factor is None:
            return self.scale * w
        return w @ self._factor

    def apply(self, x):
        """Return the stacked product (A x; L x).

        Each row sums its terms in storage order from +0.0, one ELL slot
        after another, so the result is bitwise (A.matvec(x); L.matvec(x)).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"apply expects a vector of length {self.n}, got {x.shape}")
        rows = self.m + self.p
        out = np.zeros(rows)
        # every index is in range: "clip" only skips the buffered bounds check
        x.take(self._cols, out=self._buf, mode="clip")
        np.multiply(self._buf, self._vals, self._buf)
        for block, _, _, slots in self._groups:
            part = out[block]
            for slot in slots:
                part += slot
        if self._tail is not None:
            # a tail row has only padded slots, so out holds +0.0 there
            out += _csr_product(*self._tail, x, rows)
        return out

    def apply_transpose(self, y):
        """Return A.T y_upper + L.T y_lower for a stacked y.

        One bincount over the slots: each column sums its terms in (slot,
        stacked row) order from +0.0, then the tail's sum is added.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m + self.p,):
            raise ValueError(f"apply_transpose expects a vector of length {self.m + self.p}, "
                             f"got {y.shape}")
        for block, vals, terms, _ in self._groups:
            np.multiply(vals, y[block], terms)
        if self._groups:
            out = np.bincount(self._cols, weights=self._buf, minlength=self.n)
        else:
            out = np.zeros(self.n)
        if self._tail is not None:
            rows, cols, vals = self._tail
            out += _csr_product(cols, rows, vals, y, self.n)
        return out


@dataclass
class LsqrOutcome:
    solution: np.ndarray
    iterations: int
    converged: bool


def lsqr_solve(op, rhs):
    """Minimize ||[A; L] x - rhs|| over x by the LSQR recurrence.

    Runs the Golub-Kahan bidiagonalization of the preconditioned operator
    [A; L] M, M the right preconditioner built with ``op``, with the usual
    pair of plane rotations and returns x = M y for its iterate y.  M
    changes the conditioning LSQR sees, not the least-squares fit [A; L] x.
    It stops when either backward-error test (compatible-system or
    least-squares) of the preconditioned system falls below ``op.tol``,
    which serves as both atol and btol.  Non-convergence within
    ``op.maxit`` is reported through the flag, never raised: ill
    conditioning can legitimately push the iteration count past n.  The
    iteration count and any non-convergence are added to the operator's
    counters.  A finite rhs whose squared norm overflows is solved scaled
    by its largest entry; a non-finite rhs raises ValueError.

    Parameters
    ----------
    op : StackedOperator
    rhs : (m+p,) ndarray

    Returns
    -------
    LsqrOutcome
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.m + op.p,):
        raise ValueError(f"rhs must have length {op.m + op.p}, got {rhs.shape}")

    tol = op.tol
    y = np.zeros(op.n)

    u = rhs.copy()
    with np.errstate(over="ignore"):
        beta = sqrt(u @ u)
    if not isfinite(beta):
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs must be finite")
        # only the square overflowed: solve for rhs / max |rhs| and scale back
        big = float(np.max(np.abs(rhs)))
        outcome = lsqr_solve(op, rhs / big)
        outcome.solution *= big
        return outcome
    bnorm = beta
    if beta == 0.0:
        return LsqrOutcome(y, 0, True)
    u /= beta
    v = op._precondition_transpose(op.apply_transpose(u))
    alfa = sqrt(v @ v)
    if alfa == 0.0:
        # rhs is orthogonal to the range: x = 0 is the least-squares solution
        return LsqrOutcome(y, 0, True)
    v /= alfa
    w = v.copy()

    rhobar = alfa
    phibar = beta
    anorm = 0.0
    xnorm = 0.0
    converged = False
    itn = 0

    while itn < op.maxit:
        itn += 1
        # in place: negation is exact, so -alfa * u + Av rounds like Av - alfa * u
        u *= -alfa
        u += op.apply(op._precondition(v))
        beta = sqrt(u @ u)
        if beta > 0.0:
            u /= beta
            anorm = sqrt(anorm**2 + alfa**2 + beta**2)
            v *= -beta
            v += op._precondition_transpose(op.apply_transpose(u))
            alfa = sqrt(v @ v)
            if alfa > 0.0:
                v /= alfa

        # rotate out the subdiagonal of the growing bidiagonal factor
        rho = sqrt(rhobar**2 + beta**2)
        cs = rhobar / rho
        sn = beta / rho
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar

        y += (phi / rho) * w
        w *= -(theta / rho)
        w += v
        xnorm = sqrt(y @ y)

        rnorm = phibar
        arnorm = alfa * abs(sn * phi)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + _EPS)
        rtol = tol + tol * anorm * xnorm / bnorm
        if test1 <= rtol or test2 <= tol:
            converged = True
            break

    # the zero-norm returns above take no iteration and converge, and the
    # rescaled one counts through its own call, so only this exit moves the
    # operator's counters
    op.iterations += itn
    op.failures += 0 if converged else 1
    return LsqrOutcome(op._precondition(y), itn, converged)
