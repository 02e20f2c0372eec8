"""Compressed sparse row matrices with the few operations the solver needs.

The solver only ever multiplies by A and L (and their transposes), takes
1- and infinity-norms, and reads Matrix Market files, so this module stays
deliberately small instead of depending on a full sparse-matrix library.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "SparseMatrix",
    "MatrixMarketError",
    "identity",
    "second_order_L",
    "read_matrix_market",
    "write_matrix_market",
]

_DENSE_GUARD = 2000


class MatrixMarketError(ValueError):
    """Raised when a Matrix Market file cannot be parsed."""


def _csr_product(out_ids, in_ids, values, vec, size):
    """Return out with out[out_ids[k]] += values[k] * vec[in_ids[k]] over all k.

    One bincount: with (out_ids, in_ids) = (row ids, column indices) it is
    M x, swapped it is M.T y.  Each entry of out sums its terms in storage
    order.
    """
    if len(values) == 0:
        return np.zeros(size)
    return np.bincount(out_ids, weights=values * vec[in_ids], minlength=size)


class SparseMatrix:
    """Immutable real matrix in canonical CSR form.

    ``row_offsets`` has length ``nrows + 1`` and is nondecreasing; within
    each row the column indices are strictly increasing.  All arrays are
    marked read-only after construction, so one matrix can be shared freely
    between concurrent solver runs.
    """

    __slots__ = ("nrows", "ncols", "row_offsets", "col_indices", "values", "_row_ids")

    def __init__(self, nrows, ncols, row_offsets, col_indices, values):
        nrows = int(nrows)
        ncols = int(ncols)
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)

        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if row_offsets.shape != (nrows + 1,):
            raise ValueError("row_offsets must have length nrows + 1")
        if row_offsets[0] != 0 or row_offsets[-1] != len(values):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(col_indices) != len(values):
            raise ValueError("col_indices and values must have equal length")
        if len(col_indices) and (col_indices.min() < 0 or col_indices.max() >= ncols):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values must be finite")

        row_ids = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(row_offsets))
        if len(col_indices) > 1:
            same_row = row_ids[1:] == row_ids[:-1]
            if np.any(same_row & (np.diff(col_indices) <= 0)):
                raise ValueError("column indices must be strictly increasing within each row")

        self.nrows = nrows
        self.ncols = ncols
        self.row_offsets = row_offsets
        self.col_indices = col_indices
        self.values = values
        self._row_ids = row_ids
        for arr in (row_offsets, col_indices, values, row_ids):
            arr.setflags(write=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, values):
        """Build from coordinate triplets, summing duplicate coordinates.

        Explicit zeros are retained.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows, cols and values must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
            raise ValueError("row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("column index out of range")

        drow = np.diff(rows)
        if np.all((drow > 0) | ((drow == 0) & (np.diff(cols) > 0))):
            # strictly row-major already: nothing to sort or sum (copies keep inputs writable)
            cols, values = cols.copy(), values.copy()
        else:
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            new_group = np.empty(len(rows), dtype=bool)
            new_group[0] = True
            new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new_group)
            values = np.add.reduceat(values, starts)
            rows = rows[starts]
            cols = cols[starts]
        counts = np.bincount(rows, minlength=nrows)
        offsets = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(nrows, ncols, offsets, cols, values)

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("expected a 2-d array")
        rows, cols = np.nonzero(array)
        return cls.from_coo(array.shape[0], array.shape[1], rows, cols, array[rows, cols])

    def to_dense(self):
        """Dense copy, guarded to small sizes (oracle/test use only)."""
        if self.nrows > _DENSE_GUARD or self.ncols > _DENSE_GUARD:
            raise ValueError(
                f"refusing to densify a {self.nrows}x{self.ncols} matrix "
                f"(guard is {_DENSE_GUARD})"
            )
        out = np.zeros((self.nrows, self.ncols))
        out[self._row_ids, self.col_indices] = self.values
        return out

    # -- products and norms ------------------------------------------------

    @property
    def nnz(self):
        return len(self.values)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def matvec(self, x):
        """Return ``M @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"matvec expects a vector of length {self.ncols}, got {x.shape}")
        return _csr_product(self._row_ids, self.col_indices, self.values, x, self.nrows)

    def matvec_transpose(self, y):
        """Return ``M.T @ y``."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(f"matvec_transpose expects a vector of length {self.nrows}, "
                             f"got {y.shape}")
        return _csr_product(self.col_indices, self._row_ids, self.values, y, self.ncols)

    def norm1(self):
        """Maximum absolute column sum."""
        if self.nnz == 0:
            return 0.0
        return float(np.bincount(self.col_indices, weights=np.abs(self.values),
                                 minlength=self.ncols).max())

    def norminf(self):
        """Maximum absolute row sum."""
        if self.nnz == 0:
            return 0.0
        return float(np.bincount(self._row_ids, weights=np.abs(self.values),
                                 minlength=self.nrows).max())

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def identity(n):
    """n-by-n identity."""
    idx = np.arange(n, dtype=np.int64)
    return SparseMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))


def second_order_L(n):
    """Tridiagonal regularization matrix with diagonal 3 and off-diagonals 1.

    Well conditioned for every n: Gershgorin confines its eigenvalues
    to [1, 5].
    """
    if n < 2:
        raise ValueError("second_order_L requires n >= 2")
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([np.full(n, 3.0), np.ones(n - 1), np.ones(n - 1)])
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


# -- Matrix Market I/O -----------------------------------------------------

def _mm_fail(lineno, message):
    raise MatrixMarketError(f"line {lineno}: {message}")


def _mm_parse(lines, coordinate, nrows, ncols):
    """Parse and check data lines in one ``np.loadtxt`` call: (entries, None) or (None, why).

    ``why`` is None when a line does not parse.  numpy < 2 parses ``1.0``
    into an int with only a DeprecationWarning, raised here so that every
    supported numpy accepts the same files; an empty section's warning is muted.
    """
    entry = [("row", np.int64), ("col", np.int64), ("value", np.float64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.simplefilter("ignore", UserWarning)
        try:
            data = np.loadtxt(lines, dtype=entry if coordinate else np.float64,
                              comments="%", usecols=None if coordinate else 0, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None, None
    if coordinate:
        r, c = data["row"], data["col"]
        outside = (r < 1) | (r > nrows) | (c < 1) | (c > ncols)
        if outside.any():
            return None, f"index ({r[outside][0]}, {c[outside][0]}) outside {nrows}x{ncols}"
    if not np.isfinite(data["value"] if coordinate else data).all():
        return None, "value must be finite"
    return data, None


def _mm_locate(lines, lo, coordinate, nrows, ncols):
    """Raise naming the first of ``lines[lo:]`` (known to hold one) that ``_mm_parse`` rejects.

    A run of lines is rejected exactly when one of its lines is, so halving
    the rejected run finds it after parsing O(len(lines)) lines in all.
    """
    hi = len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        first_half_bad = _mm_parse(lines[lo:mid], coordinate, nrows, ncols)[0] is None
        lo, hi = (lo, mid) if first_half_bad else (mid, hi)
    why = _mm_parse(lines[lo:hi], coordinate, nrows, ncols)[1]
    raw = lines[lo].strip()
    if why is None and not coordinate:
        why = f"cannot parse value {raw!r}"
    elif why is None:
        ntokens = len(raw.split("%", 1)[0].split())
        why = "entry must be 'row col value'" if ntokens != 3 else f"cannot parse entry {raw!r}"
    _mm_fail(lo + 1, why)


def read_matrix_market(path):
    """Read a real coordinate or array Matrix Market file.

    Accepts ``general`` and ``symmetric`` symmetry (symmetric storage is
    expanded to the full matrix) and ``real``/``integer`` fields.  Duplicate
    coordinates are summed; explicit zeros are retained.  numpy's C parser
    reads the data section in O(nnz).  Parse failures, indices out of range
    and non-finite values report the offending line number.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.readlines()
    if not lines:
        _mm_fail(1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        _mm_fail(1, "expected '%%MatrixMarket object format field symmetry' header")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        _mm_fail(1, f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        _mm_fail(1, f"unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        _mm_fail(1, f"unsupported field type {field!r} (real/integer only)")
    if symmetry not in ("general", "symmetric"):
        _mm_fail(1, f"unsupported symmetry {symmetry!r} (general/symmetric only)")

    # skip comments and blank lines
    i = 1
    while i < len(lines) and (lines[i].startswith("%") or not lines[i].strip()):
        i += 1
    if i == len(lines):
        _mm_fail(len(lines), "missing size line")

    size_tokens = lines[i].split()
    sizeline = i + 1
    coordinate = fmt == "coordinate"
    if len(size_tokens) != (3 if coordinate else 2):
        _mm_fail(sizeline, "coordinate size line must be 'nrows ncols nnz'" if coordinate
                 else "array size line must be 'nrows ncols'")
    try:
        sizes = [int(t) for t in size_tokens]
    except ValueError:
        _mm_fail(sizeline, "size line entries must be integers")
    if min(sizes) < 0:
        _mm_fail(sizeline, "size line entries must be nonnegative")
    nrows, ncols = sizes[:2]
    if symmetry == "symmetric" and nrows != ncols:
        _mm_fail(sizeline, "symmetric storage requires a square matrix")
    data, _ = _mm_parse(lines[i + 1:], coordinate, nrows, ncols)
    if data is None:
        _mm_locate(lines, i + 1, coordinate, nrows, ncols)

    if coordinate:
        if len(data) != sizes[2]:
            _mm_fail(len(lines), f"expected {sizes[2]} entries, found {len(data)}")
        rows, cols, vals = data["row"] - 1, data["col"] - 1, data["value"]
    elif symmetry == "general":
        if len(data) != nrows * ncols:
            _mm_fail(len(lines), f"expected {nrows * ncols} values, found {len(data)}")
        cols, rows = np.divmod(np.arange(nrows * ncols), nrows)  # column-major values
        vals = data
    else:
        if len(data) != nrows * (nrows + 1) // 2:
            _mm_fail(len(lines), f"expected {nrows * (nrows + 1) // 2} lower-triangle values, "
                                 f"found {len(data)}")
        cols, rows = np.triu_indices(nrows)  # column c of the lower triangle holds rows c..n-1
        vals = data
    if symmetry == "symmetric":
        # the stored entries in file order, then the mirrored off-diagonal ones
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, vals[off]])
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


def write_matrix_market(matrix, path):
    """Write in coordinate/real/general form with round-trippable precision."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{matrix.nrows} {matrix.ncols} {matrix.nnz}\n")
        for r, c, v in zip(matrix._row_ids, matrix.col_indices, matrix.values):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")
