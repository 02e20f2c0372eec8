import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import irjbd.driver
import irjbd.stackedls
from irjbd.sparsemat import SparseMatrix, identity, second_order_L
from irjbd.stackedls import StackedOperator, _lower_inverse, lsqr_solve, stack_norm_estimate

from conftest import reference_lsqr, reference_stacked_products, starve_inner_solves

EPS = np.finfo(np.float64).eps


def _zero_matrix(nrows, ncols):
    return SparseMatrix.from_coo(nrows, ncols, [], [], [])


def _project(op, u):
    """Projection of (u; 0) onto range([A; L]) through one inner solve."""
    rhs = np.concatenate([u, np.zeros(op.p)])
    out = lsqr_solve(op, rhs)
    return op.apply(out.solution), out


def _bits(v):
    """The bit patterns of a float vector: compares signed zeros too."""
    return np.asarray(v, dtype=np.float64).view(np.uint64)


_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False)


def _block(draw, nrows, ncols, zero, long_row):
    """A random nrows x ncols block from duplicate-heavy triplets.

    Indices drawn from a few rows and columns make repeated coordinates (and
    empty rows) common.  ``zero`` gives the all-zero block; ``long_row``
    adds a full row 0 of length ncols.
    """
    if zero or nrows == 0:
        return SparseMatrix.from_coo(nrows, ncols, [], [], [])
    k = draw(st.integers(0, 3 * nrows * ncols))
    rows = draw(arrays(np.int64, k, elements=st.integers(0, nrows - 1)))
    cols = draw(arrays(np.int64, k, elements=st.integers(0, ncols - 1)))
    vals = draw(arrays(np.float64, k, elements=_ENTRIES))
    if long_row:
        rows = np.concatenate([rows, np.zeros(ncols, dtype=np.int64)])
        cols = np.concatenate([cols, np.arange(ncols)])
        vals = np.concatenate([vals, draw(arrays(np.float64, ncols, elements=_ENTRIES))])
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


@st.composite
def _stacks(draw):
    """(A, L, x, y) for a random conformable stack with m >= 1 and m + p >= n."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    p = draw(st.integers(max(0, n - m), 8))
    zero_A = draw(st.integers(0, 3)) == 0
    long_row = draw(st.sampled_from([None, "A", "L"]))
    A = _block(draw, m, n, zero_A, long_row == "A")
    L = _block(draw, p, n, False, long_row == "L")
    x = draw(arrays(np.float64, n, elements=_ENTRIES))
    y = draw(arrays(np.float64, m + p, elements=_ENTRIES))
    return A, L, x, y


def _long_row_stack():
    """A 7 x 6 A whose dense first row is longer than the padded width."""
    A = SparseMatrix.from_coo(7, 6, [0] * 6 + [3, 5], list(range(6)) + [2, 4],
                              [1.5, -2.0, 0.25, 3.0, -1.0, 0.5, 2.0, -4.0])
    L = SparseMatrix.from_coo(1, 6, [0], [1], [1.0])
    return A, L, np.linspace(-1.0, 2.0, 6), np.linspace(3.0, -1.0, 8)


def _wider_L_stack():
    """A = I and a tridiagonal L: L's rows are wider than A's."""
    n = 5
    return (identity(n), second_order_L(n), np.linspace(-2.0, 1.0, n),
            np.linspace(1.0, -3.0, 2 * n))


def _equal_widths_stack():
    """Rows of up to three entries in A and in a tridiagonal L: equal widths."""
    n = 4
    A = SparseMatrix.from_coo(5, n, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 4],
                              [0, 1, 2, 1, 2, 3, 2, 3, 0, 3, 0, 1, 3],
                              [1.0, -0.0, 2.5, -1.0, 0.5, 4.0, -2.0, 3.0, 1.5, -0.5, 2.0,
                               -3.0, 0.25])
    return A, second_order_L(n), np.array([1.0, -0.5, 0.0, 2.0]), np.linspace(-1.0, 1.0, 9)


def _empty_L_stack():
    """p = 0: the stack is A alone."""
    A = SparseMatrix.from_coo(4, 3, [0, 0, 1, 2, 3, 3], [0, 2, 1, 0, 1, 2],
                              [1.0, -2.0, 3.0, 0.5, -1.5, 2.0])
    return A, _zero_matrix(0, 3), np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.0, -2.0, 3.0])


def _wide_block_tail_stack():
    """A 6 x 6 A of two entries a row plus a dense row 0, which goes to the
    tail, over L = I: the tail row is in the wider block."""
    n = 6
    rows = np.concatenate([np.repeat(np.arange(1, n), 2), np.zeros(n, dtype=np.int64)])
    cols = np.concatenate([np.stack([np.arange(1, n), np.arange(n - 1)], 1).ravel(),
                           np.arange(n)])
    vals = np.linspace(-3.0, 3.0, len(rows))
    A = SparseMatrix.from_coo(n, n, rows, cols, vals)
    return A, identity(n), np.linspace(1.0, -1.0, n), np.linspace(-2.0, 2.0, 2 * n)


class TestApply:
    def test_scalars(self):
        op = StackedOperator(SparseMatrix.from_dense([[2.0]]), SparseMatrix.from_dense([[1.0]]))
        np.testing.assert_allclose(op.apply([1.0]), [2.0, 1.0])

    def test_zero_input(self):
        op = StackedOperator(identity(3), identity(3))
        np.testing.assert_array_equal(op.apply(np.zeros(3)), np.zeros(6))

    def test_matches_dense_stack(self, rng):
        Ad = rng.standard_normal((4, 3))
        Ld = rng.standard_normal((5, 3))
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        x = rng.standard_normal(3)
        np.testing.assert_allclose(op.apply(x), np.vstack([Ad, Ld]) @ x, atol=1e-14)
        y = rng.standard_normal(9)
        np.testing.assert_allclose(op.apply_transpose(y), np.vstack([Ad, Ld]).T @ y, atol=1e-14)

    def test_fused_product_pinned_to_the_two_blocks(self, rng):
        # [A; L] is stored as one set of arrays; each row of the product sums
        # its terms in the same order as A.matvec and L.matvec do
        Ad = rng.standard_normal((30, 20)) * (rng.random((30, 20)) < 0.3)
        A, L = SparseMatrix.from_dense(Ad), second_order_L(20)
        op = StackedOperator(A, L)
        x = rng.standard_normal(20)
        np.testing.assert_array_equal(op.apply(x), np.concatenate([A.matvec(x), L.matvec(x)]))
        # the transpose adds the L terms of a column after the A terms instead
        # of adding two finished sums, so only the order of summation differs
        y = rng.standard_normal(50)
        blocks = A.matvec_transpose(y[:30]) + L.matvec_transpose(y[30:])
        assert np.max(np.abs(op.apply_transpose(y) - blocks)) <= 4 * EPS * np.max(np.abs(blocks))

    @given(_stacks())
    @example(_long_row_stack())
    @example(_wider_L_stack())
    @example(_equal_widths_stack())
    @example(_empty_L_stack())
    @example(_wide_block_tail_stack())
    @settings(max_examples=300, deadline=None)
    def test_padded_ell_matches_the_two_blocks(self, stack):
        # empty rows, an all-zero A, rectangular A, summed duplicates, either
        # block the wider one and a row long enough to go to the CSR tail
        A, L, x, y = stack
        op = StackedOperator(A, L)
        blocks = np.concatenate([A.matvec(x), L.matvec(x)])
        ax = op.apply(x)
        np.testing.assert_array_equal(_bits(ax), _bits(blocks))
        # both products are bitwise those of one padded-ELL copy of [A; L]
        ref_apply, ref_transpose = reference_stacked_products(A, L, x, y)
        np.testing.assert_array_equal(_bits(ax), _bits(ref_apply))
        np.testing.assert_array_equal(_bits(op.apply_transpose(y)), _bits(ref_transpose))
        # the transpose sums each column in another order: both orders stay
        # within the rounding bound of a sum of that many terms
        m = A.nrows
        dense = np.vstack([A.to_dense(), L.to_dense()])
        abs_terms = np.abs(dense).T @ np.abs(y)
        count = np.count_nonzero(dense, axis=0)
        expected = A.matvec_transpose(y[:m]) + L.matvec_transpose(y[m:])
        err = np.abs(op.apply_transpose(y) - expected)
        assert np.all(err <= count * EPS * abs_terms)

    def test_storage_capped_at_twice_the_entries(self, rng):
        # one dense row of length n would pad every row to n slots; the cap
        # keeps the padded slots within 2 nnz and sends that row to the tail
        n = 40
        Ad = rng.standard_normal((60, n)) * (rng.random((60, n)) < 0.05)
        Ad[7] = rng.standard_normal(n)
        A, L = SparseMatrix.from_dense(Ad), second_order_L(n)
        op = StackedOperator(A, L)
        assert op._cols.size == op._vals.size <= 2 * (A.nnz + L.nnz)
        assert op._tail is not None
        stack = np.vstack([Ad, L.to_dense()])
        x = rng.standard_normal(n)
        np.testing.assert_allclose(op.apply(x), stack @ x, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(op.apply(x), np.concatenate([A.matvec(x), L.matvec(x)]))
        y = rng.standard_normal(60 + L.nrows)
        np.testing.assert_allclose(op.apply_transpose(y), stack.T @ y, rtol=1e-13, atol=1e-13)

    def test_each_block_stored_to_its_own_width(self, rng):
        # A rows of 8 entries over a tridiagonal L: padding L's rows to A's
        # width would store 8 (m + p) slots
        m, n = 60, 40
        cols = np.concatenate([rng.choice(n, 8, replace=False) for _ in range(m)])
        A = SparseMatrix.from_coo(m, n, np.repeat(np.arange(m), 8), cols,
                                  rng.standard_normal(8 * m))
        L = second_order_L(n)
        op = StackedOperator(A, L)
        assert op._tail is None
        assert op._cols.size == op._vals.size == 8 * m + 3 * n
        x, y = rng.standard_normal(n), rng.standard_normal(m + n)
        ref_apply, ref_transpose = reference_stacked_products(A, L, x, y)
        np.testing.assert_array_equal(_bits(op.apply(x)), _bits(ref_apply))
        np.testing.assert_array_equal(_bits(op.apply_transpose(y)), _bits(ref_transpose))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            StackedOperator(identity(3), identity(4))

    @pytest.mark.parametrize("m, n", [(0, 8), (5, 0), (0, 0)])
    def test_no_rows_in_A_or_no_columns(self, m, n):
        # the solve starts from a unit vector in R^m and equilibrates n
        # columns: either size zero is an error naming the shape
        with pytest.raises(ValueError, match=f"A is {m} x {n}"):
            StackedOperator(_zero_matrix(m, n), identity(n))


class TestLsqr:
    def test_consistent_identity_block(self, rng):
        op = StackedOperator(identity(2), _zero_matrix(2, 2))
        op.tol = 1e-12
        b = rng.standard_normal(2)
        rhs = np.concatenate([b, np.zeros(2)])
        out = lsqr_solve(op, rhs)
        assert out.converged
        np.testing.assert_allclose(out.solution, b, atol=1e-12)

    def test_rhs_orthogonal_to_range(self):
        # range([I_2; 0] padded) misses the third row entirely
        Ad = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(1, 2))
        op.tol = 1e-12
        rhs = np.array([0.0, 0.0, 1.0, 0.0])
        out = lsqr_solve(op, rhs)
        np.testing.assert_allclose(out.solution, np.zeros(2), atol=1e-12)

    def test_matches_dense_normal_equations(self, rng):
        Ad = rng.standard_normal((5, 5))
        Ld = rng.standard_normal((3, 5))
        stack = np.vstack([Ad, Ld])
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        rhs = rng.standard_normal(8)
        expected = np.linalg.solve(stack.T @ stack, stack.T @ rhs)
        out = lsqr_solve(op, rhs)
        assert out.converged
        np.testing.assert_allclose(out.solution, expected, atol=1e-10)

    def test_normal_equation_residual_small_when_converged(self, rng):
        Ad = rng.standard_normal((6, 4))
        Ld = rng.standard_normal((5, 4))
        tol = 1e-10
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        op.tol = tol
        rhs = rng.standard_normal(11)
        out = lsqr_solve(op, rhs)
        assert out.converged
        stack = np.vstack([Ad, Ld])
        grad = stack.T @ (rhs - stack @ out.solution)
        bound = 100 * tol * np.linalg.norm(stack, 2) * np.linalg.norm(rhs)
        assert np.linalg.norm(grad) <= bound

    def test_nonconvergence_reported_not_raised(self, rng, monkeypatch):
        # on the diagonal preconditioner: the factored one converges in one step
        monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        Ad = rng.standard_normal((6, 4))
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(2, 4))
        op.tol = 1e-16
        op.maxit = 2
        rhs = rng.standard_normal(8)
        out = lsqr_solve(op, rhs)
        assert not out.converged
        assert out.iterations == 2

    def test_iterations_capped(self, rng):
        Ad = rng.standard_normal((6, 4))
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(2, 4))
        op.tol = 1e-16
        op.maxit = 7
        out = lsqr_solve(op, rng.standard_normal(8))
        assert out.iterations <= 7

    def test_zero_rhs_needs_no_iteration(self):
        # a zero right-hand side needs no iteration: x = 0 is exact
        op = StackedOperator(identity(2), identity(2))
        op.tol = 1e-12
        out = lsqr_solve(op, np.zeros(4))
        np.testing.assert_array_equal(out.solution, np.zeros(2))
        assert out.iterations == 0
        assert out.converged
        assert op.iterations == 0 and op.failures == 0


class TestEquilibration:
    def test_scale_is_inverse_column_norm(self, rng):
        Ad = rng.standard_normal((4, 3))
        Ld = rng.standard_normal((2, 3))
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        np.testing.assert_allclose(op.scale, 1.0 / np.linalg.norm(np.vstack([Ad, Ld]), axis=0),
                                   rtol=1e-14)

    def test_badly_column_scaled_stack(self, rng):
        # columns graded over eight decades: unscaled, LSQR stalls at maxit
        # with no correct digit; equilibrated, it converges in about n steps
        n = 40
        d = 10.0 ** np.linspace(-4, 4, n)
        Ad = rng.standard_normal((60, n)) * d
        Ld = second_order_L(n).to_dense() * d
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        rhs = rng.standard_normal(60 + n)
        out = lsqr_solve(op, rhs)
        assert out.converged
        assert out.iterations <= 10 * n
        expected = np.linalg.lstsq(np.vstack([Ad, Ld]), rhs, rcond=None)[0]
        assert np.linalg.norm(out.solution - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_zero_column_of_the_stack(self, rng):
        # column 1 is empty in both A and L: the stack is not regular, the
        # column keeps scale 1 and its entry of the solution stays 0
        Ad = rng.standard_normal((5, 3))
        Ld = rng.standard_normal((2, 3))
        Ad[:, 1] = 0.0
        Ld[:, 1] = 0.0
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        op.tol = 1e-12
        assert op.scale[1] == 1.0
        rhs = rng.standard_normal(7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lsqr_solve(op, rhs)
        assert np.all(np.isfinite(out.solution))
        assert out.solution[1] == 0.0
        keep = [0, 2]
        expected = np.linalg.lstsq(np.vstack([Ad, Ld])[:, keep], rhs, rcond=None)[0]
        np.testing.assert_allclose(out.solution[keep], expected, atol=1e-10)


def _diagonal_twin(monkeypatch, A, L):
    """The operator of {A, L} with the factored preconditioner switched off."""
    with monkeypatch.context() as m:
        m.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        return StackedOperator(A, L)


def _assert_on_diagonal_path(monkeypatch, A, L, rhs):
    """Build the operator with no warning and check it solves like its twin."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = StackedOperator(A, L)
        op.tol = 1e-12
        out = lsqr_solve(op, rhs)
    twin = _diagonal_twin(monkeypatch, A, L)
    twin.tol = 1e-12
    ref = lsqr_solve(twin, rhs)
    np.testing.assert_array_equal(op.scale, twin.scale)
    np.testing.assert_array_equal(out.solution, ref.solution)
    assert out.iterations == ref.iterations
    return out


class TestFactoredPreconditioner:
    @staticmethod
    def pair(rng, m=45, n=30):
        Ad = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.2)
        return SparseMatrix.from_dense(Ad), second_order_L(n)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_matches_diagonal_path(self, rng, monkeypatch, consistent):
        A, L = self.pair(rng)
        op = StackedOperator(A, L)
        twin = _diagonal_twin(monkeypatch, A, L)
        rhs = op.apply(rng.standard_normal(30)) if consistent else rng.standard_normal(75)
        out = lsqr_solve(op, rhs)
        ref = lsqr_solve(twin, rhs)
        assert out.converged and ref.converged
        assert out.iterations <= 3 < ref.iterations
        err = np.linalg.norm(out.solution - ref.solution)
        assert err <= 1e-12 * np.linalg.norm(ref.solution)

    def test_graded_columns_on_the_diagonal_path(self, rng, monkeypatch):
        # the column scaling alone still carries a stack graded over eight
        # decades, as it does for every n above the cap
        monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        n = 40
        d = 10.0 ** np.linspace(-4, 4, n)
        Ad = rng.standard_normal((60, n)) * d
        Ld = second_order_L(n).to_dense() * d
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        rhs = rng.standard_normal(60 + n)
        out = lsqr_solve(op, rhs)
        assert out.converged
        assert 3 < out.iterations <= 10 * n
        expected = np.linalg.lstsq(np.vstack([Ad, Ld]), rhs, rcond=None)[0]
        assert np.linalg.norm(out.solution - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_zero_column_falls_back(self, rng, monkeypatch):
        Ad = rng.standard_normal((8, 5))
        Ld = rng.standard_normal((3, 5))
        Ad[:, 2] = 0.0
        Ld[:, 2] = 0.0
        _assert_on_diagonal_path(monkeypatch, SparseMatrix.from_dense(Ad),
                                 SparseMatrix.from_dense(Ld), rng.standard_normal(11))

    def test_rank_deficient_stack_falls_back(self, rng, monkeypatch):
        # column 3 repeats column 1 in both blocks
        Ad = rng.standard_normal((8, 5))
        Ld = rng.standard_normal((3, 5))
        Ad[:, 3] = Ad[:, 1]
        Ld[:, 3] = Ld[:, 1]
        rhs = rng.standard_normal(11)
        out = _assert_on_diagonal_path(monkeypatch, SparseMatrix.from_dense(Ad),
                                       SparseMatrix.from_dense(Ld), rhs)
        stack = np.vstack([Ad, Ld])
        fit = np.linalg.lstsq(stack, rhs, rcond=None)[0]
        np.testing.assert_allclose(stack @ out.solution, stack @ fit, atol=1e-9)

    def test_above_the_byte_cap_falls_back(self, rng, monkeypatch):
        n = 513                      # 8 n^2 bytes is just over 2 MiB
        assert 8 * n * n > irjbd.stackedls._FACTOR_BYTES >= 8 * 512 * 512
        _assert_on_diagonal_path(monkeypatch, identity(n), second_order_L(n),
                                 rng.standard_normal(2 * n))

    def test_non_finite_factor_falls_back(self, rng, monkeypatch):
        A, L = self.pair(rng)
        monkeypatch.setattr(irjbd.stackedls, "_lower_inverse", lambda a: np.full_like(a, np.inf))
        _assert_on_diagonal_path(monkeypatch, A, L, rng.standard_normal(75))


def _regular_stack(seed, m, n, density):
    """Random m x n A and n x n L of the given density, I added to L so that
    the stack is regular whatever the draw; dense and sparse."""
    gen = np.random.default_rng(seed)
    Ad = gen.standard_normal((m, n)) * (gen.random((m, n)) < density)
    Ld = gen.standard_normal((n, n)) * (gen.random((n, n)) < density) + np.eye(n)
    return Ad, Ld, SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)


class TestAgainstReferenceLoop:
    # x through M w and the recurrence for ||y|| change only the rounding
    # of x and of the stopping test's ||y||: the iteration must stop where
    # the y-based loop stops, with the same flag and the same x to 1e-13

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), extra=st.integers(0, 12),
           density=st.sampled_from([0.3, 0.6, 1.0]), factored=st.booleans(),
           consistent=st.booleans())
    def test_matches_y_based_loop(self, seed, n, extra, density, factored, consistent):
        m = n + extra
        _, _, A, L = _regular_stack(seed, m, n, density)
        with pytest.MonkeyPatch.context() as patch:
            if not factored:
                patch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
            op = StackedOperator(A, L)
        assert (op._factor is not None) == factored
        gen = np.random.default_rng(seed + 1)
        rhs = op.apply(gen.standard_normal(n)) if consistent else gen.standard_normal(m + n)
        ref, ref_iterations, ref_converged = reference_lsqr(op, rhs)
        out = lsqr_solve(op, rhs)
        assert out.iterations == ref_iterations
        assert out.converged == ref_converged
        assert np.linalg.norm(out.solution - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_dense_products_in_a_one_iteration_solve(self, rng, monkeypatch):
        # M^T A^T u and M v; the second pair's M^T A^T u only where the
        # defect cannot certify the stop, and no product forms x = M y
        A, L = TestFactoredPreconditioner.pair(rng)
        rhs = rng.standard_normal(75)
        solutions = []
        for defect, extra in ((None, []), (np.inf, ["_precondition_transpose"])):
            op = StackedOperator(A, L)
            op.tol = 1e-10
            if defect is not None:
                op.defect = defect
            calls = []
            for name in ("_precondition", "_precondition_transpose"):
                method = getattr(op, name)
                monkeypatch.setattr(op, name, lambda v, method=method, name=name:
                                    calls.append(name) or method(v))
            out = lsqr_solve(op, rhs)
            assert out.iterations == 1 and out.converged
            assert calls == ["_precondition_transpose", "_precondition"] + extra
            solutions.append(out.solution)
        # x_1 does not depend on alpha_2: the early stop returns the same bits
        np.testing.assert_array_equal(_bits(solutions[0]), _bits(solutions[1]))


class TestOrthonormalityDefect:
    @staticmethod
    def first_alpha(op, rhs):
        """(alpha_2, beta_2) of LSQR's first step on [A; L] M, as it computes them."""
        u = rhs / np.linalg.norm(rhs)
        v = op._precondition_transpose(op.apply_transpose(u))
        alfa = np.linalg.norm(v)
        v /= alfa
        u = op.apply(op._precondition(v)) - alfa * u
        beta = np.linalg.norm(u)
        w = op._precondition_transpose(op.apply_transpose(u / beta)) - beta * v
        return np.linalg.norm(w), beta

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), extra=st.integers(0, 12),
           decades=st.sampled_from([0, 3, 7]))
    def test_bounds_the_computed_second_alpha(self, seed, n, extra, decades):
        # singular values graded down to 10^-decades: R^-1 amplifies the
        # rounding of the Gram matrix, and with it F
        m = n + extra
        gen = np.random.default_rng(seed)
        U = np.linalg.qr(gen.standard_normal((m + n, n)))[0]
        V = np.linalg.qr(gen.standard_normal((n, n)))[0]
        S = U * np.logspace(0, -decades, n) @ V.T
        op = StackedOperator(SparseMatrix.from_dense(S[:m]), SparseMatrix.from_dense(S[m:]))
        if op._factor is None:
            assert op.defect == np.inf
            return
        K = S @ op._factor
        assert op.defect >= np.linalg.norm(K.T @ K - np.eye(n), 2)
        for rhs in (gen.standard_normal(m + n), S @ gen.standard_normal(n)
                    + 1e-9 * gen.standard_normal(m + n)):
            alfa, beta = self.first_alpha(op, rhs)
            assert alfa * beta <= op.defect
            # a stop on the bound is a stop the full test makes as well
            assert lsqr_solve(op, rhs).iterations == reference_lsqr(op, rhs)[1]

    def test_infinite_on_the_diagonal_path(self, rng, monkeypatch):
        A, L = TestFactoredPreconditioner.pair(rng)
        assert StackedOperator(A, L).defect < 1e-12
        assert _diagonal_twin(monkeypatch, A, L).defect == np.inf

    def test_non_finite_estimate_is_infinite(self, rng):
        A, L = TestFactoredPreconditioner.pair(rng)
        op = StackedOperator(A, L)
        op._factor = op._factor * 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op._orthonormality_defect() == np.inf


def _fused_entries(A, L):
    """(offsets, row_ids, col_indices, values) of [A; L] in CSR order."""
    offsets = np.concatenate([A.row_offsets, L.row_offsets[1:] + A.nnz])
    row_ids = np.repeat(np.arange(A.nrows + L.nrows, dtype=np.int64), np.diff(offsets))
    return (offsets, row_ids, np.concatenate([A.col_indices, L.col_indices]),
            np.concatenate([A.values, L.values]))


class TestEquilibratedGram:
    # at n = 128 a row of at most 8 entries is short and adds its own entry
    # pairs, in chunks of 16 n = 2,048 entries (the tall stack has up to eight);
    # a longer row goes through a dense block

    @staticmethod
    def stack(rng, m, n, per_row_A, per_row_L):
        """An m x n A over an n x n L, each row of the given number of
        entries in random columns."""
        blocks = []
        for rows, per_row in ((m, per_row_A), (n, per_row_L)):
            dense = np.zeros((rows, n))
            for i in range(rows):
                dense[i, rng.choice(n, size=per_row, replace=False)] = rng.standard_normal(per_row)
            blocks.append(dense)
        return blocks

    @pytest.mark.parametrize("m, per_row_A, per_row_L",
                             [(300, 3, 2), (300, 20, 12), (300, 3, 30), (40, 3, 2), (300, 128, 4),
                              (1900, 8, 8)],
                             ids=["short", "long", "both", "few-short", "dense-over-few-short",
                                  "tall"])
    @pytest.mark.parametrize("holes", [False, True], ids=["full", "empty-rows-and-columns"])
    def test_matches_dense_gram(self, rng, m, per_row_A, per_row_L, holes):
        n = 128
        Ad, Ld = self.stack(rng, m, n, per_row_A, per_row_L)
        if holes:
            Ad[::7] = 0.0
            Ld[1::5] = 0.0
            Ad[:, [0, 17, 40]] = 0.0
            Ld[:, [0, 17, 40]] = 0.0
        A, L = SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)
        op = StackedOperator(A, L)
        S = np.vstack([A.to_dense(), L.to_dense()]) * op.scale
        gram = op._equilibrated_gram(*_fused_entries(A, L))
        assert gram.shape == (n, n) and gram.dtype == np.float64
        assert np.max(np.abs(gram - S.T @ S)) <= 1e-14

    def test_no_entries(self):
        A, L = _zero_matrix(3, 2), _zero_matrix(1, 2)
        op = StackedOperator(A, L)
        gram = op._equilibrated_gram(*_fused_entries(A, L))
        assert gram.dtype == np.float64
        np.testing.assert_array_equal(gram, np.zeros((2, 2)))


@st.composite
def _degenerate_stacks(draw):
    """(Ad, Ld, rhs) for a small stack with one kind of degenerate column.

    Kinds: columns empty in A only; columns empty in both blocks or one
    column repeated in both (a non-regular stack); one column scaled into
    the subnormals or by 1e200.  p is below n about half the time, and
    m + p may fall short of n.
    """
    n = draw(st.integers(2, 9))
    p = draw(st.integers(0, n - 1)) if draw(st.booleans()) else draw(st.integers(n, n + 3))
    m = draw(st.integers(0, 2 * n))
    kind = draw(st.sampled_from(["empty-A", "empty", "repeated", "subnormal", "huge"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Ad = gen.standard_normal((m, n))
    Ld = gen.standard_normal((p, n))
    cols = gen.choice(n, size=draw(st.integers(1, max(1, n // 2))), replace=False)
    j = int(cols[0])
    if kind == "empty-A":
        Ad[:, cols] = 0.0
    elif kind == "empty":
        Ad[:, cols] = 0.0
        Ld[:, cols] = 0.0
    elif kind == "repeated":
        k = (j + 1) % n
        Ad[:, k] = Ad[:, j]
        Ld[:, k] = Ld[:, j]
    else:
        factor = 1e-310 if kind == "subnormal" else 1e200
        Ad[:, j] *= factor
        Ld[:, j] *= factor
    stack = np.vstack([Ad, Ld])
    if draw(st.booleans()):
        rhs = stack @ gen.standard_normal(n)
    else:
        rhs = gen.standard_normal(m + p) * (1e200 if kind == "huge" else 1.0)
    return Ad, Ld, rhs


class TestDegenerateInputs:
    """A degenerate stack gets a finite factor, a clean fall back to M = D
    or a clean error; a converged solve fits like ``np.linalg.lstsq``."""

    @settings(max_examples=80, deadline=None)
    @given(_degenerate_stacks())
    def test_factor_fallback_or_error(self, case):
        Ad, Ld, rhs = case
        A, L = SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)
        m, n = Ad.shape
        if m == 0:
            with pytest.raises(ValueError, match=f"A is 0 x {n}"):
                StackedOperator(A, L)
            return
        if m + len(Ld) < n:
            with pytest.raises(ValueError, match="at least as many rows"):
                StackedOperator(A, L)
            return
        op = StackedOperator(A, L)
        assert np.all(np.isfinite(op.scale)) and np.all(op.scale > 0.0)
        assert op._factor is None or np.all(np.isfinite(op._factor))
        out = lsqr_solve(op, rhs)
        assert np.all(np.isfinite(out.solution))
        assert out.converged
        if op._factor is None:
            # the fall back is exactly the diagonal path
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
                twin = StackedOperator(A, L)
            ref = lsqr_solve(twin, rhs)
            np.testing.assert_array_equal(out.solution, ref.solution)
            assert out.iterations == ref.iterations
        self.assert_matches_lstsq(op, np.vstack([Ad, Ld]), rhs, out.solution)

    @staticmethod
    def assert_matches_lstsq(op, stack, rhs, x):
        """Compare x with lstsq on the equilibrated stack S D, whose columns
        are O(1), all scaled by 1 / max |rhs|: the fit always, and y = D^-1 x
        on the nonempty columns when S D restricted to them is well
        conditioned.  An empty column keeps x = 0."""
        scaled = stack * op.scale
        empty = ~np.any(stack != 0.0, axis=0)
        assert np.all(x[empty] == 0.0)
        big = float(np.max(np.abs(rhs), initial=0.0)) or 1.0
        y = x / op.scale / big
        y_ls = np.linalg.lstsq(scaled, rhs / big, rcond=None)[0]
        fit = scaled @ y - scaled @ y_ls
        assert np.linalg.norm(fit) <= 1e-9 * max(1.0, np.linalg.norm(rhs / big))
        live = scaled[:, ~empty]
        if live.shape[1] and np.linalg.cond(live) <= 1e6:
            assert np.linalg.norm(y[~empty] - y_ls[~empty]) <= 1e-8 * max(
                1.0, np.linalg.norm(y_ls))

    @pytest.mark.parametrize("factored", [True, False])
    def test_starved_inner_solve(self, rng, monkeypatch, factored):
        # a cap of one iteration: the factored operator still converges, the
        # diagonal one reports the failure through its flag and counter
        if not factored:
            monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        starve_inner_solves(monkeypatch, 1)
        Ad, Ld, A, L = _regular_stack(7, 40, 25, 0.3)
        op = irjbd.driver.StackedOperator(A, L)
        assert op.maxit == 1 and (op._factor is not None) == factored
        rhs = rng.standard_normal(65)
        out = lsqr_solve(op, rhs)
        assert out.iterations == 1 and np.all(np.isfinite(out.solution))
        assert out.converged == factored
        assert op.failures == (0 if factored else 1)
        if out.converged:
            TestDegenerateInputs.assert_matches_lstsq(op, np.vstack([Ad, Ld]), rhs, out.solution)


def _equilibrated_cholesky(S):
    """The Cholesky factor of the Gram matrix of S with unit column norms."""
    gram = S.T @ S
    scale = 1.0 / np.sqrt(np.diagonal(gram))
    return np.linalg.cholesky(gram * scale * scale[:, None])


class TestLowerInverse:
    # the doubling runs over diagonal blocks of 1, 2, 4, ... rows, so sizes
    # 1 to 64 give every short last pair (odd sizes, 2^j + 1, 2^j - 1) and
    # the exact powers of two; over 6,400 draws of each kind below the
    # residual stayed within 0.9 n eps kappa(L)

    @staticmethod
    def assert_inverse(lower):
        n = len(lower)
        X = _lower_inverse(lower)
        assert np.all(np.triu(X, 1) == 0.0)
        residual = np.linalg.norm(X @ lower - np.eye(n), 2)
        assert residual <= 4.0 * n * EPS * np.linalg.cond(lower)

    def test_every_size_to_64(self, rng):
        for n in range(1, 65):
            self.assert_inverse(_equilibrated_cholesky(rng.standard_normal((n + 3, n))))

    def test_graded_factor_near_the_rank_cut(self, rng):
        # singular values of the stack graded down to 2 sqrt(n eps) put the
        # factor's diagonal ratio a few times above the operator's cut-off
        # min |r_ii| > sqrt(n eps) max |r_ii|, with kappa(L) up to ~1e7
        for n in range(2, 65):
            U, _ = np.linalg.qr(rng.standard_normal((n + 3, n)))
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lower = _equilibrated_cholesky(U * np.geomspace(1.0, 2.0 * np.sqrt(n * EPS), n) @ V.T)
            diag = np.abs(np.diagonal(lower))
            assert diag.min() < 1e3 * np.sqrt(n * EPS) * diag.max()
            self.assert_inverse(lower)


class TestExtremeScaling:
    # entries near 1e160 square past the float range; the column norms, the
    # norm estimate and the rhs norm must not overflow
    A = SparseMatrix.from_dense([[1e160, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rhs = np.array([1e160, 1.0, 2.0, 1.0, 1.0])

    def test_norms_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = StackedOperator(self.A, identity(2))
            tiny = StackedOperator(SparseMatrix.from_dense([[1e-170], [2e-170]]),
                                   SparseMatrix.from_dense([[0.0]]))
        np.testing.assert_allclose(op.scale, [1e-160, 1 / np.sqrt(3)], rtol=1e-15)
        np.testing.assert_allclose(tiny.scale, [1e170 / np.sqrt(5)], rtol=1e-15)
        assert np.isfinite(op.rnorm_estimate)
        assert op.rnorm_estimate >= 1e160

    @pytest.mark.parametrize("factored", [True, False])
    def test_huge_entry_solved(self, monkeypatch, factored):
        # the exact solution is (1, 1), but its second entry is fixed only by
        # entries 1e160 times smaller than ||rhs||: a normwise tolerance
        # determines x[0] and the backward error, never x = 0
        if not factored:
            monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        op = StackedOperator(self.A, identity(2))
        assert (op._factor is not None) == factored
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lsqr_solve(op, self.rhs)
        assert out.converged
        assert np.all(np.isfinite(out.solution))
        assert abs(out.solution[0] - 1.0) <= 1e-12
        resid = self.rhs / 1e160 - op.apply(out.solution) / 1e160
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(self.rhs / 1e160)

    def test_subnormal_column_solved(self):
        # a column of subnormal norm counts as empty: it keeps scale 1, its
        # zero Gram diagonal falls back to M = D, and 1 / ||column 0|| = 1e310
        # never enters M w or x
        A = SparseMatrix.from_dense([[1e-310, 0.0], [0.0, 1.0]])
        rhs = np.array([1e-310, 2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = StackedOperator(A, _zero_matrix(1, 2))
            out = lsqr_solve(op, rhs)
        assert op.scale[0] == 1.0 and op._factor is None
        assert out.converged
        resid = op.apply(out.solution) - rhs
        assert np.linalg.norm(resid) <= 10 * EPS * np.linalg.norm(rhs)

    def test_non_finite_rhs_rejected(self):
        op = StackedOperator(self.A, identity(2))
        with pytest.raises(ValueError, match="finite"):
            lsqr_solve(op, np.array([np.inf, 1.0, 2.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            lsqr_solve(op, np.array([np.nan, 1.0, 2.0, 1.0, 1.0]))


class TestProjection:
    def test_full_range_upper_block(self, rng):
        # with A square invertible and L = 0, (u; 0) already lies in the range
        op = StackedOperator(identity(4), _zero_matrix(2, 4))
        op.tol = 1e-13
        u = rng.standard_normal(4)
        proj, out = _project(op, u)
        assert out.converged
        np.testing.assert_allclose(proj, np.concatenate([u, np.zeros(2)]), atol=1e-12)

    def test_vector_outside_range_projects_to_zero(self):
        Ad = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(1, 2))
        op.tol = 1e-13
        proj, _ = _project(op, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(proj, np.zeros(4), atol=1e-12)

    def test_matches_dense_projector(self, rng):
        Ad = rng.standard_normal((5, 5))
        Ld = rng.standard_normal((3, 5))
        stack = np.vstack([Ad, Ld])
        Q, _ = np.linalg.qr(stack)
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        proj, out = _project(op, u)
        expected = Q @ (Q.T @ np.concatenate([u, np.zeros(3)]))
        np.testing.assert_allclose(proj, expected, atol=1e-10)

    def test_idempotent_on_range_vectors(self, rng):
        Ad = rng.standard_normal((6, 4))
        Ld = rng.standard_normal((5, 4))
        tol = 1e-12
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
        op.tol = tol
        w = op.apply(rng.standard_normal(4))
        # feed the in-range vector back through the least-squares projection
        out = lsqr_solve(op, w)
        again = op.apply(out.solution)
        assert np.linalg.norm(again - w) <= 10 * tol * np.linalg.norm(w) + 1e-12


def test_stack_norm_estimate_bounds_spectral_norm(rng):
    Ad = rng.standard_normal((5, 4))
    Ld = rng.standard_normal((6, 4))
    est = stack_norm_estimate(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
    true = np.linalg.norm(np.vstack([Ad, Ld]), 2)
    assert est >= true - 1e-12


def test_stack_norm_estimate_survives_underflow(rng):
    # at 2^-600 the products of the 1- and inf-norms underflow to zero; the
    # estimate still bounds the norm, which scales exactly by the power of two
    Ad = rng.standard_normal((60, 40))
    Ld = rng.standard_normal((40, 40))
    alpha = 2.0 ** -600
    est = stack_norm_estimate(SparseMatrix.from_dense(alpha * Ad),
                              SparseMatrix.from_dense(alpha * Ld))
    assert est > 0.0
    assert est >= alpha * np.linalg.norm(np.vstack([Ad, Ld]), 2)


def test_inner_tolerance_rule():
    # a hundredth of the outer tolerance, floored at 10 eps
    assert StackedOperator.default_tol(1e-8) == 1e-10
    assert StackedOperator.default_tol(1e-14) == 10 * EPS


def test_operator_defaults_and_counters(rng, monkeypatch):
    # on the diagonal preconditioner, where a cap of 2 iterations fails
    monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
    op = StackedOperator(identity(37), identity(37))
    assert op.tol == 10 * EPS
    assert op.maxit == 370

    # the counters sum over every solve made through the operator
    Ad = rng.standard_normal((6, 4))
    op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(2, 4))
    op.tol = 1e-16
    op.maxit = 2
    first = lsqr_solve(op, rng.standard_normal(8))
    second = lsqr_solve(op, rng.standard_normal(8))
    assert op.iterations == first.iterations + second.iterations == 4
    assert op.failures == int(not first.converged) + int(not second.converged) == 2
