import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irjbd.sparsemat import (MatrixMarketError, SparseMatrix, identity,
                             read_matrix_market, second_order_L, write_matrix_market)


class TestProducts:
    def test_scalar_matvec(self):
        M = SparseMatrix.from_dense([[3.0]])
        np.testing.assert_allclose(M.matvec([2.0]), [6.0])

    def test_identity_matvec(self):
        M = identity(3)
        np.testing.assert_allclose(M.matvec([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_second_order_matvec(self):
        # hand expansion of the tridiagonal rows (3+1, 1+3+1, 1+3) on ones
        M = second_order_L(3)
        np.testing.assert_allclose(M.matvec(np.ones(3)), [4.0, 5.0, 4.0])

    def test_scalar_transpose(self):
        M = SparseMatrix.from_dense([[3.0]])
        np.testing.assert_allclose(M.matvec_transpose([2.0]), [6.0])

    def test_projection_transpose(self):
        M = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(M.matvec_transpose([5.0, 7.0]), [5.0, 0.0])

    def test_transpose_rows_match_dense(self, rng):
        dense = rng.standard_normal((5, 3))
        M = SparseMatrix.from_dense(dense)
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            np.testing.assert_allclose(M.matvec_transpose(e), dense[i], atol=1e-15)

    def test_dimension_mismatch(self):
        M = identity(3)
        with pytest.raises(ValueError):
            M.matvec(np.ones(4))
        with pytest.raises(ValueError):
            M.matvec_transpose(np.ones(2))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_consistency(self, seed):
        gen = np.random.default_rng(seed)
        m, n = int(gen.integers(1, 12)), int(gen.integers(1, 12))
        dense = np.where(gen.random((m, n)) < 0.6, gen.standard_normal((m, n)), 0.0)
        M = SparseMatrix.from_dense(dense)
        x = gen.standard_normal(n)
        y = gen.standard_normal(m)
        left = y @ M.matvec(x)
        right = M.matvec_transpose(y) @ x
        scale = max(1.0, abs(left), abs(right))
        assert abs(left - right) <= 1e-14 * scale


class TestNorms:
    def test_small_dense(self):
        M = SparseMatrix.from_dense([[1.0, -2.0], [3.0, 4.0]])
        assert M.norm1() == 6.0
        assert M.norminf() == 7.0

    def test_zero_matrix(self):
        M = SparseMatrix.from_coo(3, 3, [], [], [])
        assert M.norm1() == 0.0
        assert M.norminf() == 0.0

    def test_second_order_norms(self):
        M = second_order_L(4)
        assert M.norm1() == 5.0
        assert M.norminf() == 5.0


class TestSecondOrderL:
    def test_n2(self):
        np.testing.assert_array_equal(second_order_L(2).to_dense(), [[3, 1], [1, 3]])

    def test_n3(self):
        expected = [[3, 1, 0], [1, 3, 1], [0, 1, 3]]
        np.testing.assert_array_equal(second_order_L(3).to_dense(), expected)

    def test_eigenvalues_in_gershgorin_band(self):
        eigs = np.linalg.eigvalsh(second_order_L(4).to_dense())
        assert np.all(eigs >= 1.0 - 1e-12) and np.all(eigs <= 5.0 + 1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError):
            second_order_L(1)


class TestConstruction:
    def test_duplicates_summed_against_scalar_accumulation(self, rng):
        rows = rng.integers(0, 4, size=30)
        cols = rng.integers(0, 5, size=30)
        vals = rng.standard_normal(30)
        expected = np.zeros((4, 5))
        for r, c, v in zip(rows, cols, vals):
            expected[r, c] += v
        M = SparseMatrix.from_coo(4, 5, rows, cols, vals)
        np.testing.assert_allclose(M.to_dense(), expected, atol=1e-15)

    def test_explicit_zeros_retained(self):
        M = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [0.0, 2.0])
        assert M.nnz == 2

    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 2.0])  # decreasing cols in row
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 1], [0], [1.0])  # offsets wrong length
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 1, 1], [5], [1.0])  # column out of range

    def test_immutable_after_construction(self):
        M = identity(2)
        with pytest.raises(ValueError):
            M.values[0] = 7.0

    def test_dense_guard(self):
        big = SparseMatrix.from_coo(2001, 3, [0], [0], [1.0])
        with pytest.raises(ValueError):
            big.to_dense()


class TestMatrixMarket:
    def _write(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        return str(path)

    def test_diagonal_coordinate(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                     "2 2 2\n1 1 1.0\n2 2 2.0\n")
        M = read_matrix_market(path)
        np.testing.assert_array_equal(M.to_dense(), [[1.0, 0.0], [0.0, 2.0]])

    def test_symmetric_expansion(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                                     "2 2 1\n2 1 5.0\n")
        M = read_matrix_market(path)
        np.testing.assert_array_equal(M.to_dense(), [[0.0, 5.0], [5.0, 0.0]])

    def test_duplicates_summed(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                     "1 1 3\n1 1 1.5\n1 1 2.0\n1 1 -0.25\n")
        M = read_matrix_market(path)
        np.testing.assert_allclose(M.to_dense(), [[3.25]])

    def test_array_format(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix array real general\n"
                                     "2 2\n1.0\n2.0\n3.0\n4.0\n")
        M = read_matrix_market(path)
        np.testing.assert_array_equal(M.to_dense(), [[1.0, 3.0], [2.0, 4.0]])

    def test_array_symmetric(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix array real symmetric\n"
                                     "2 2\n1.0\n5.0\n2.0\n")
        M = read_matrix_market(path)
        np.testing.assert_array_equal(M.to_dense(), [[1.0, 5.0], [5.0, 2.0]])

    def test_integer_field_accepted(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                                     "1 1 1\n1 1 7\n")
        np.testing.assert_array_equal(read_matrix_market(path).to_dense(), [[7.0]])

    def test_parse_error_reports_line(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                     "2 2 1\n1 bogus 1.0\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(path)

    def test_index_out_of_range_reports_line(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                     "2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate complex general\n"
                                     "1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(MatrixMarketError, match="field"):
            read_matrix_market(path)

    def test_unsupported_symmetry(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real skew-symmetric\n"
                                     "2 2 1\n2 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="symmetry"):
            read_matrix_market(path)

    def test_symmetric_requires_square(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                                     "3 2 1\n2 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="square"):
            read_matrix_market(path)

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        dense = rng.standard_normal((6, 4))
        dense[rng.random((6, 4)) < 0.5] = 0.0
        M = SparseMatrix.from_dense(dense)
        path = str(tmp_path / "rt.mtx")
        write_matrix_market(M, path)
        back = read_matrix_market(path)
        assert back.nrows == M.nrows and back.ncols == M.ncols
        np.testing.assert_array_equal(back.values, M.values)
        np.testing.assert_array_equal(back.col_indices, M.col_indices)
        np.testing.assert_array_equal(back.row_offsets, M.row_offsets)

    def test_non_finite_value_reports_line(self, tmp_path):
        for value in ("nan", "1e400", "-inf"):
            path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                         f"2 2 2\n1 1 1.0\n2 1 {value}\n")
            with pytest.raises(MatrixMarketError, match="line 4: value must be finite"):
                read_matrix_market(path)

    @pytest.mark.parametrize("fmt, sizes", [("coordinate", "-1 3 0"), ("coordinate", "1 3 -2"),
                                            ("array", "2 -1")])
    def test_negative_size_reports_size_line(self, tmp_path, fmt, sizes):
        path = self._write(tmp_path, f"%%MatrixMarket matrix {fmt} real general\n"
                                     f"% comment\n{sizes}\n")
        with pytest.raises(MatrixMarketError, match="line 3: size line entries must be "
                                                    "nonnegative"):
            read_matrix_market(path)

    def test_empty_data_section_is_silent(self, tmp_path):
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real general\n3 4 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = read_matrix_market(path)
        assert M.shape == (3, 4) and M.nnz == 0

    def test_int_parsed_via_float_warning_is_a_failure(self, tmp_path, monkeypatch):
        """numpy < 2 reads the index '1.0' as 1 and only warns; the line is still rejected."""
        real_loadtxt = np.loadtxt

        def numpy1_loadtxt(lines, *args, **kwargs):
            lines = list(lines)
            if any(line.startswith("1.0 ") for line in lines):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
                lines = [line.replace("1.0 ", "1 ", 1) for line in lines]
            return real_loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", numpy1_loadtxt)
        path = self._write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                     "2 2 2\n2 2 1.0\n1.0 2 3.0\n")
        with pytest.raises(MatrixMarketError, match=r"line 4: cannot parse entry '1\.0 2 3\.0'"):
            read_matrix_market(path)

    def test_streamed_read_holds_no_lines(self, tmp_path):
        """The data section streams through the parser: no list of its lines is held.

        200,000 entries of a 1000 x 1000 matrix with 200 per row, as
        write_matrix_market writes them.  The read peaks below twice the
        arrays of the matrix it returns; holding the lines as Python strings
        would cost about 7x.
        """
        k = np.arange(200_000)
        M = SparseMatrix.from_coo(1000, 1000, k // 200, (k % 200) * 5 + k // 200 % 5,
                                  np.random.default_rng(0).standard_normal(len(k)))
        path = tmp_path / "big.mtx"
        write_matrix_market(M, path)
        tracemalloc.start()
        try:
            back = read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        final = sum(getattr(back, name).nbytes for name in SparseMatrix.__slots__
                    if isinstance(getattr(back, name), np.ndarray))
        assert peak < 2 * final, (peak, final)
        assert np.array_equal(back.values, M.values)
        assert np.array_equal(back.col_indices, M.col_indices)
        assert np.array_equal(back.row_offsets, M.row_offsets)


_COORD_HEAD = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n% note\n\n"


class TestMatrixMarketMalformed:
    """Each malformed data section names its line; the bad line is line 6 unless noted."""

    @pytest.mark.parametrize("text, message", [
        (_COORD_HEAD + "2 2\n3 3 3.0\n", "line 6: entry must be 'row col value'"),
        (_COORD_HEAD + "2 2 1.0 4\n3 3 3.0\n", "line 6: entry must be 'row col value'"),
        (_COORD_HEAD + "1.0 2 3.0\n3 3 3.0\n", r"line 6: cannot parse entry '1\.0 2 3\.0'"),
        (_COORD_HEAD + "1 1 x\n3 3 3.0\n", "line 6: cannot parse entry '1 1 x'"),
        (_COORD_HEAD + "4 1 1.0\n3 3 3.0\n", r"line 6: index \(4, 1\) outside 3x3"),
        (_COORD_HEAD + "1 0 1.0\n3 3 3.0\n", r"line 6: index \(1, 0\) outside 3x3"),
        (_COORD_HEAD + "2 2 2.0\n3 3 3.0\n1 3 1.0\n", "line 8: expected 3 entries, found 4"),
        (_COORD_HEAD + "2 2 2.0\n", "line 6: expected 3 entries, found 2"),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n\nfoo\n",
         "line 5: cannot parse value 'foo'"),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n% c\ninf\n",
         "line 5: value must be finite"),
        # the header, the size line and the array value count
        ("", "line 1: empty file"),
        ("%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1.0\n",
         "line 1: expected '%%MatrixMarket object format field symmetry' header"),
        ("%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1.0\n",
         "line 1: unsupported object 'vector'"),
        ("%%MatrixMarket matrix foo real general\n1 1 1\n1 1 1.0\n",
         "line 1: unsupported format 'foo'"),
        ("%%MatrixMarket matrix coordinate real general\n% only a comment\n\n",
         "line 3: missing size line"),
        ("%%MatrixMarket matrix coordinate real general\n% c\n3 3\n",
         "line 3: coordinate size line must be 'nrows ncols nnz'"),
        ("%%MatrixMarket matrix array real general\n3 3 9\n",
         "line 2: array size line must be 'nrows ncols'"),
        ("%%MatrixMarket matrix coordinate real general\n3 3.5 1\n1 1 1.0\n",
         "line 2: size line entries must be integers"),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n",
         "line 5: expected 4 values, found 3"),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n",
         "line 4: expected 3 lower-triangle values, found 2"),
    ])
    def test_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError, match=message):
            read_matrix_market(str(path))

    def test_bad_last_line_of_a_large_file(self, tmp_path, monkeypatch):
        """The locator bisects: it parses O(nnz) lines in all, not one pass per line."""
        nnz = 10_000
        body = "".join(f"{k % 100 + 1} {k // 100 + 1} 0.5\n" for k in range(nnz - 1))
        path = tmp_path / "big.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"100 100 {nnz}\n{body}100 100 0.5.\n")
        parsed = []
        real_loadtxt = np.loadtxt

        def counting_loadtxt(lines, *args, **kwargs):
            # the first parse streams the open file, the locator's take lists:
            # count the lines each one hands to the parser
            def counted():
                for line in lines:
                    parsed.append(1)
                    yield line
            return real_loadtxt(counted(), *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        with pytest.raises(MatrixMarketError, match=f"line {nnz + 2}: cannot parse entry"):
            read_matrix_market(str(path))
        assert sum(parsed) <= 3 * nnz


def _triplets(draw, nrows, ncols):
    value = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
    entry = st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, max(ncols - 1, 0)), value)
    return draw(st.lists(entry, max_size=24 if nrows and ncols else 0))


class TestMatrixMarketParity:
    """Reading a written file gives bitwise the matrix ``from_coo`` builds from its entries."""

    @staticmethod
    def _assert_bitwise(M, expected):
        assert M.shape == expected.shape
        np.testing.assert_array_equal(M.row_offsets, expected.row_offsets)
        np.testing.assert_array_equal(M.col_indices, expected.col_indices)
        np.testing.assert_array_equal(M.values.view(np.int64), expected.values.view(np.int64))

    @given(data=st.data(),
           storage=st.sampled_from(["coordinate general", "coordinate symmetric",
                                    "array general", "array symmetric"]))
    @settings(max_examples=80, deadline=None)
    def test_read_back_bitwise_equal(self, tmp_path_factory, data, storage):
        fmt, symmetry = storage.split()
        nrows = data.draw(st.integers(0, 6))
        ncols = nrows if symmetry == "symmetric" else data.draw(st.integers(0, 6))
        if fmt == "coordinate":
            triplets = _triplets(data.draw, nrows, ncols)
            if symmetry == "symmetric":
                triplets = [(max(r, c), min(r, c), v) for r, c, v in triplets]
            rows, cols, vals = ([t[i] for t in triplets] for i in range(3))
            body = [f"{r + 1} {c + 1} {v:.17g}" for r, c, v in triplets]
            size = f"{nrows} {ncols} {len(body)}"
            if symmetry == "symmetric":  # reference: the stored entries, then their mirrors
                mirrored = [t for t in triplets if t[0] != t[1]]
                rows = rows + [c for _, c, _ in mirrored]
                cols = cols + [r for r, _, _ in mirrored]
                vals = vals + [v for _, _, v in mirrored]
            expected = SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)
        else:
            dense = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
                                                min_size=nrows * ncols,
                                                max_size=nrows * ncols)))
            dense = dense.reshape((nrows, ncols))
            if symmetry == "symmetric":
                dense = np.tril(dense) + np.tril(dense, -1).T
                stored = [dense[r, c] for c in range(ncols) for r in range(c, nrows)]
            else:
                stored = list(dense.T.ravel())
            body = [f"{v:.17g}" for v in stored]
            size = f"{nrows} {ncols}"
            rows, cols = (ix.ravel() for ix in np.indices(dense.shape))
            expected = SparseMatrix.from_coo(nrows, ncols, rows, cols, dense.ravel())
        fillers = data.draw(st.lists(st.sampled_from(["", "\n", "% note 1 2 3\n", " \t \n"]),
                                     min_size=len(body), max_size=len(body)))
        text = (f"%%MatrixMarket matrix {fmt} real {symmetry}\n% comment\n\n{size}\n"
                + "".join(f"{line}\n{filler}" for line, filler in zip(body, fillers)))
        path = tmp_path_factory.mktemp("mm") / "m.mtx"
        path.write_text(text)
        self._assert_bitwise(read_matrix_market(str(path)), expected)


class TestFromCooEarlyOut:
    """Row-major triplets skip the sort; anything else is still sorted and summed."""

    def _canonical(self, rng):
        dense = np.where(rng.random((7, 6)) < 0.4, rng.standard_normal((7, 6)), 0.0)
        rows, cols = np.nonzero(dense)
        return rows, cols, dense[rows, cols]

    def test_canonical_matches_sorted_path(self, rng):
        rows, cols, vals = self._canonical(rng)
        perm = rng.permutation(len(rows))
        M = SparseMatrix.from_coo(7, 6, rows, cols, vals)
        S = SparseMatrix.from_coo(7, 6, rows[perm], cols[perm], vals[perm])
        np.testing.assert_array_equal(M.row_offsets, S.row_offsets)
        np.testing.assert_array_equal(M.col_indices, S.col_indices)
        np.testing.assert_array_equal(M.values.view(np.int64), S.values.view(np.int64))
        assert cols.flags.writeable and vals.flags.writeable

    @pytest.mark.parametrize("index", [np.int64, np.int32])
    @pytest.mark.parametrize("strided", [False, True])
    def test_matrix_owns_its_arrays(self, rng, index, strided):
        # a converted input is kept, any other copied: the inputs stay
        # writable and share no memory with the matrix
        rows, cols, vals = self._canonical(rng)
        triplets = np.empty(len(rows), dtype=[("col", index), ("value", np.float64)])
        triplets["col"], triplets["value"] = cols, vals
        cols, vals = ((triplets["col"], triplets["value"]) if strided
                      else (triplets["col"].copy(), triplets["value"].copy()))
        M = SparseMatrix.from_coo(7, 6, rows, cols, vals)
        assert not np.shares_memory(M.col_indices, cols)
        assert not np.shares_memory(M.values, vals)
        assert cols.flags.writeable and vals.flags.writeable
        np.testing.assert_array_equal(M.to_dense()[rows, cols], vals)

    def test_one_duplicate_is_summed(self, rng):
        rows, cols, vals = self._canonical(rng)
        k = len(rows) // 2
        M = SparseMatrix.from_coo(7, 6, np.insert(rows, k, rows[k]), np.insert(cols, k, cols[k]),
                                  np.insert(vals, k, 0.25))
        assert M.nnz == len(rows)
        expected = vals.copy()
        expected[k] = 0.25 + vals[k]
        np.testing.assert_array_equal(M.values, expected)

    def test_one_descending_pair_is_sorted(self, rng):
        rows, cols, vals = self._canonical(rng)
        k = int(np.flatnonzero(np.diff(rows) == 0)[0])
        swap = np.arange(len(rows))
        swap[[k, k + 1]] = swap[[k + 1, k]]
        M = SparseMatrix.from_coo(7, 6, rows[swap], cols[swap], vals[swap])
        np.testing.assert_array_equal(M.col_indices, cols)
        np.testing.assert_array_equal(M.values, vals)
