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
then has orthonormal columns up to a defect F = ([A; L] M)^T [A; L] M - I,
and every solve converges in one or two iterations.  The operator bounds
||F||_2 once, as ``defect``, and a solve whose first stopping test passes
on the bounds ``defect`` gives beta_2 and rho_1 returns after its first
product with [A; L]^T, with no forward product.  Otherwise, or when that
factor is not numerically nonsingular, M = D and ``defect`` is inf.  Either
way range([A; L] M) = range([A; L]).  The operator owns the inner-solve
controls and counts the work of every solve made through it.  A solve need
only be accurate relative to the outer tolerance ``tol`` of the GSVD, not
to the last bit, so its stopping tolerance is
``StackedOperator.default_tol(tol)`` = max(10 eps, tol / 100); an operator
built on its own starts at the floor, 10 eps.  The per-iteration products
with M and the norms call ``ndarray.dot``: at n = 200 the ``@`` operator's
dispatch costs about as much as the arithmetic, and the results are the
same.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, inf, isfinite, sqrt

import numpy as np

from .sparsemat import _csr_product

__all__ = ["StackedOperator", "LsqrOutcome", "lsqr_solve", "stack_norm_estimate"]

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# the inner tolerance an operator starts at, and the lowest default_tol gives
_TOL_FLOOR = 10.0 * _EPS

# largest dense right preconditioner, in bytes, an operator keeps (n <= 512)
_FACTOR_BYTES = 2 * 1024 * 1024

# probe columns of the orthonormality defect estimate (fewer when n is smaller)
_PROBES = 8


def stack_norm_estimate(A, L):
    """Cheap upper bound on the spectral norm of the stacked matrix [A; L]."""
    a1, ai, l1, li = A.norm1(), A.norminf(), L.norm1(), L.norminf()
    sq = a1 * ai + l1 * li
    if _TINY <= sq < inf:
        return sqrt(sq)
    # the products overflow or underflow: take the square roots first
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


def _lower_inverse(lower):
    """The inverse X of a lower triangular matrix with a nonzero diagonal.

    The block recursion of a recursive triangular inverse: with the leading
    block of the matrix inverted as X11 and the trailing one as X22, the
    inverse's off-diagonal block is -X22 L21 X11.  It runs bottom up over
    diagonal blocks of size b = 1, 2, 4, ..., every pair of one size in one
    batched product, plus one product for a shorter last pair; X's upper
    triangle stays exactly zero.  Over 12,800 factors of sizes 1 to 64,
    graded ones with kappa_2(L) up to 2.5e7 included, ||X L - I||_2 stayed
    below 0.9 n eps kappa_2(L).
    """
    n = len(lower)
    X = np.diag(1.0 / np.diagonal(lower))
    b = 1
    while b < n:
        pairs = n // (2 * b)
        end = 2 * b * pairs
        if pairs:
            # (pair, row in pair, pair, column in pair) views of both matrices
            X4 = X[:end, :end].reshape(pairs, 2 * b, pairs, 2 * b)
            L4 = lower[:end, :end].reshape(pairs, 2 * b, pairs, 2 * b)
            d = np.arange(pairs)
            X4[d, b:, d, :b] = -(X4[d, b:, d, b:] @ L4[d, b:, d, :b]) @ X4[d, :b, d, :b]
        if n - end > b:
            mid = end + b
            X[mid:, end:mid] = -(X[mid:, mid:] @ lower[mid:, end:mid]) @ X[end:mid, end:mid]
        b *= 2
    return X


class StackedOperator:
    """The operator x -> (A x; L x) for a conformable pair {A, L}.

    [A; L] is stored fused, L's rows after A's, as flat slot-major ELL
    arrays (``_cols``, ``_vals``), each block padded to its own width, with
    an optional CSR tail (``_tail``); see ``_block_ell``.  Both products
    work in one scratch buffer (``_buf``) the size of ``_vals``, so one
    operator must not run two products at once.  ``scale`` holds
    1 / ||column j of [A; L]||, and 1 for a column whose norm is zero or
    subnormal: such a column counts as empty.  The right preconditioner M
    under which ``lsqr_solve`` iterates is built here once: D R^-1
    (D = diag(``scale``), R the Cholesky factor of the Gram matrix of
    [A; L] D) when the n x n map fits under ``_FACTOR_BYTES`` and R is
    numerically nonsingular, and D otherwise.  ``defect`` bounds how far
    [A; L] M is from orthonormal columns (``_orthonormality_defect``); it is
    inf for M = D.
    ``rnorm_estimate`` is ``stack_norm_estimate(A, L)``, computed once.
    The operator also holds the inner-solve controls — ``tol`` (10 eps;
    ``irjbd_solve`` resets it to ``default_tol`` of its outer tolerance)
    and ``maxit`` (``default_maxit(n)``, 10 n), either of which may be reset
    after construction — and two counters, ``iterations`` and
    ``failures``, that every ``lsqr_solve`` through it adds to.
    """

    def __init__(self, A, L):
        if A.ncols != L.ncols:
            raise ValueError(f"A has {A.ncols} columns but L has {L.ncols}")
        if A.nrows == 0 or A.ncols == 0:
            raise ValueError(f"A is {A.nrows} x {A.ncols}: the pair needs a row of A "
                             f"and a column")
        if A.nrows + L.nrows < A.ncols:
            raise ValueError("stacked operator must have at least as many rows as columns")
        self.A = A
        self.L = L
        self.m = A.nrows
        self.p = L.nrows
        self.n = A.ncols
        self.tol = _TOL_FLOOR
        self.maxit = self.default_maxit(self.n)
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
        # a column of subnormal norm counts as empty: its entries have lost
        # bits, and 1 / colnorm, at or past the float range's end, would let
        # M w and x overflow mid-solve.  It keeps scale 1, and its zero Gram
        # diagonal falls back to M = D
        self.scale = np.ones(self.n)
        np.divide(1.0, colnorm, out=self.scale, where=colnorm >= _TINY)
        self._factor, self.defect = None, inf
        if 8 * self.n * self.n <= _FACTOR_BYTES:
            self._factor = self._inverse_cholesky_factor(offsets, row_ids, col_indices,
                                                         values)
        if self._factor is not None:
            self.defect = self._orthonormality_defect()

    @staticmethod
    def default_tol(tol):
        """The inner tolerance for an outer tolerance ``tol``: max(10 eps, tol / 100).

        The residual bounds of the outer iteration hold in finite precision,
        so an inner solve need only be accurate relative to ``tol``; 10 eps
        is the floor for a ``tol`` below about 2.2e-13.
        """
        return max(_TOL_FLOOR, tol / 100.0)

    @staticmethod
    def default_maxit(n):
        """The inner iteration cap for n columns: 10 n."""
        return 10 * n

    def _inverse_cholesky_factor(self, offsets, row_ids, col_indices, values):
        """D R^-1 for the Cholesky factor R of the Gram matrix of [A; L] D, or None.

        The entries of [A; L] D are at most 1 in magnitude, so its Gram
        matrix cannot overflow.  None when the Cholesky factorization fails,
        when min |r_ii| <= sqrt(n eps) max |r_ii| (a stack that is rank
        deficient to working precision) or when the map has a non-finite
        entry.
        """
        try:
            gram = self._equilibrated_gram(offsets, row_ids, col_indices, values)
            lower = np.linalg.cholesky(gram)   # R = lower^T
            diag = np.abs(np.diag(lower))
            if not diag.min() > sqrt(self.n * _EPS) * diag.max():
                return None
            # an inverse can overflow: that falls back below
            with np.errstate(over="ignore", invalid="ignore"):
                factor = self.scale[:, None] * _lower_inverse(lower).T
        except np.linalg.LinAlgError:
            return None
        return factor if np.all(np.isfinite(factor)) else None

    def _orthonormality_defect(self):
        """delta >= ||F||_2 for F = ([A; L] M)^T [A; L] M - I, with the
        rounding of one LSQR product pair, or inf.

        [A; L] M has orthonormal columns up to F.  est estimates ||F||_F by
        Hutchinson's (1989) estimator on k = min(n, ``_PROBES``) orthonormal
        fixed-seed probe columns Q: (n / k) ||F Q||_F^2 has mean ||F||_F^2
        >= ||F||_2^2, and equals it when k = n.  F Q is formed by the
        products LSQR makes, M^T [A; L]^T [A; L] M Q - Q, so est carries
        their rounding and that of the Gram matrix, which R^-1 amplifies on
        a graded stack.  delta = 2 est + 4 n eps: twice est for the spread of
        the probes, plus a multiple of the n eps rounding of a product pair
        that est need not show (at n = 1, F is 0 in exact arithmetic).
        """
        n = self.n
        probes = np.linalg.qr(np.random.default_rng(0).standard_normal((n, min(n, _PROBES))))[0]
        with np.errstate(over="ignore", invalid="ignore"):
            images = np.stack([self.apply_transpose(self.apply(column))
                               for column in self._factor.dot(probes).T], axis=1)
            residual = self._factor.T.dot(images) - probes
            estimate = sqrt(float(np.vdot(residual, residual)) * n / probes.shape[1])
        return 2.0 * estimate + 4.0 * n * _EPS if isfinite(estimate) else inf

    def _equilibrated_gram(self, offsets, row_ids, col_indices, values):
        """(S^T S) for S = [A; L] D, given by its entries in CSR order.

        A short row, of at most n // 16 entries, adds the products of its
        own entry pairs, summed by bincount over chunks of 16 n entries: an
        entry heads at most n // 16 pairs, so the temporaries stay O(n^2)
        however tall the stack.  The long rows, gathered in dense blocks of
        n rows, add block^T block instead: a pair costs several times a dense
        product's flop, so with A 600 x 512 over ``second_order_L(512)``
        pairs alone ran 5x slower than the blocks at 10% density and 32x
        slower at 30% (one BLAS thread).
        """
        n = self.n
        unit = values * self.scale[col_indices]
        counts = np.diff(offsets)
        short = counts <= n // 16
        in_short = short[row_ids]
        # every ordered pair (a, b) of entries of one short row, a and b in
        # storage order: entry a of a row of w entries heads w pairs
        first = np.flatnonzero(in_short)
        gram = None
        for lo in range(0, len(first), 16 * n):
            entries = first[lo:lo + 16 * n]
            rows = row_ids[entries]
            width = counts[rows]
            a = np.repeat(entries, width)
            heads = np.cumsum(width) - width   # where each entry's pairs start in a
            b = np.repeat(offsets[rows] - heads, width) + np.arange(len(a))
            part = np.bincount(col_indices[a] * n + col_indices[b], weights=unit[a] * unit[b],
                               minlength=n * n)
            # the first chunk's sums become the Gram matrix: a fresh n x n
            # array of zeros to add them to costs more than the pairs
            if gram is None:
                gram = part
            else:
                gram += part
        gram = np.zeros((n, n)) if gram is None else gram.reshape(n, n)
        # the entries of the long rows, their rows renumbered 0, 1, ... in order
        lengths = counts[~short]
        nlong = len(lengths)
        ranks = np.repeat(np.arange(nlong), lengths)
        cols, vals = col_indices[~in_short], unit[~in_short]
        for top in range(0, nlong, n):
            lo, hi = np.searchsorted(ranks, [top, top + n])
            block = np.zeros((min(n, nlong - top), n))
            block[ranks[lo:hi] - top, cols[lo:hi]] = vals[lo:hi]
            gram += block.T @ block
        return gram

    def _precondition(self, v):
        """Return M v for the right preconditioner M of ``lsqr_solve``."""
        if self._factor is None:
            return self.scale * v
        return self._factor.dot(v)

    def _precondition_transpose(self, w):
        """Return M.T w for the right preconditioner M of ``lsqr_solve``."""
        if self._factor is None:
            return self.scale * w
        return w.dot(self._factor)

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
    pair of plane rotations.  M changes the conditioning LSQR sees, not the
    least-squares fit [A; L] x.  The iterate y of the preconditioned system
    is never formed: x = M y is updated through M w, the search direction
    under M, from M v, the product that already feeds [A; L], and ||y||
    comes from the recurrence of Paige & Saunders (1982) that rotates the
    bidiagonal factor from the right.  It stops when either backward-error
    test (compatible-system or least-squares) of the preconditioned system
    falls below ``op.tol``, which serves as both atol and btol;
    ``irjbd_solve`` sets it to ``StackedOperator.default_tol`` of its outer
    tolerance.  The compatible-system test runs once beta_{i+1} is known,
    before the product pair that gives alpha_{i+1}, on which it does not
    depend.  The first least-squares test is decided before the first
    forward product: u_1 and v_1 are unit, so rho_1^2 = ||[A; L] M v_1||^2
    is within delta = ``op.defect`` of 1, beta_2^2 = rho_1^2 - alpha_1^2 and
    alpha_2 <= delta / beta_2, and the test delta alpha_1 / (beta_2 rho_1^2)
    <= tol holds whenever delta alpha_1 <= tol (1 - delta) sqrt(1 - delta -
    alpha_1^2).  The solve then returns x = alpha_1 beta_1 M v_1, LSQR's x_1
    with rho_1^2 taken as 1 (within delta / (1 - delta), relative), as one
    iteration.  The exit never passes for M = D (delta = inf), nor at the
    10 eps floor once delta alpha_1 > 10 eps, nor when 1 - alpha_1^2 <=
    delta, a rhs almost in the range.
    Non-convergence within ``op.maxit`` is reported through the flag, never
    raised: ill conditioning can legitimately push the iteration count past
    n.  The iteration count and any non-convergence are added to the
    operator's counters.  A finite rhs whose squared norm overflows is
    solved scaled by its largest entry; a non-finite rhs raises ValueError.

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
    x = np.zeros(op.n)

    u = rhs.copy()
    with np.errstate(over="ignore"):
        beta = sqrt(u.dot(u))
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
        return LsqrOutcome(x, 0, True)
    u /= beta
    v = op._precondition_transpose(op.apply_transpose(u))
    alfa = sqrt(v.dot(v))
    if alfa == 0.0:
        # rhs is orthogonal to the range: x = 0 is the least-squares solution
        return LsqrOutcome(x, 0, True)
    v /= alfa
    # M w for the search direction w: w_1 = v_1, and each later
    # w_i = v_i - (theta / rho) w_{i-1} is formed in place of M v_i
    # once M v_i has fed [A; L]
    mw = None
    ratio = 0.0

    rhobar = alfa
    phibar = beta
    anorm = 0.0
    # the right rotations of the norm recurrence and its running sum
    cs2, sn2, z, xxnorm = -1.0, 0.0, 0.0, 0.0
    converged = False
    itn = 0
    # the first test on the defect's bounds for beta_2 and rho_1 (see above)
    gap = 1.0 - op.defect - alfa * alfa
    if op.maxit > 0 and gap > 0.0 and op.defect * alfa <= tol * (1.0 - op.defect) * sqrt(gap):
        x = (alfa * bnorm) * op._precondition(v)
        itn, converged = 1, True

    while not converged and itn < op.maxit:
        itn += 1
        mv = op._precondition(v)
        # in place: negation is exact, so -alfa * u + Av rounds like Av - alfa * u
        u *= -alfa
        u += op.apply(mv)
        beta = sqrt(u.dot(u))
        if beta > 0.0:
            u /= beta
            anorm = sqrt(anorm**2 + alfa**2 + beta**2)

        # rotate out the subdiagonal of the growing bidiagonal factor
        rho = sqrt(rhobar**2 + beta**2)
        cs = rhobar / rho
        sn = beta / rho
        phi = cs * phibar
        phibar = sn * phibar

        if mw is not None:
            mw *= -ratio
            mv += mw
        mw = mv
        x += (phi / rho) * mw

        # ||y|| by rotating the super-diagonal theta out from the right; its
        # first half needs only rho
        delta = sn2 * rho
        gambar = -cs2 * rho
        rhs_z = phi - delta * z
        zbar = rhs_z / gambar
        xnorm = sqrt(xxnorm + zbar * zbar)

        # neither x nor test1 depends on the next alfa, so test1 comes first
        rnorm = phibar
        test1 = rnorm / bnorm
        rtol = tol + tol * anorm * xnorm / bnorm
        if test1 <= rtol:
            converged = True
            break

        if beta > 0.0:
            v *= -beta
            v += op._precondition_transpose(op.apply_transpose(u))
            alfa = sqrt(v.dot(v))
            if alfa > 0.0:
                v /= alfa
        theta = sn * alfa
        rhobar = -cs * alfa
        ratio = theta / rho

        gamma = sqrt(gambar * gambar + theta * theta)
        cs2 = gambar / gamma
        sn2 = theta / gamma
        z = rhs_z / gamma
        xxnorm += z * z

        arnorm = alfa * abs(sn * phi)
        test2 = arnorm / (anorm * rnorm + _EPS)
        if test2 <= tol:
            converged = True
            break

    # the zero-norm returns above take no iteration and converge, and the
    # rescaled one counts through its own call, so only this exit moves the
    # operator's counters
    op.iterations += itn
    op.failures += 0 if converged else 1
    return LsqrOutcome(x, itn, converged)
