import warnings

import numpy as np
import pytest

import irjbd.stackedls
from irjbd.sparsemat import SparseMatrix, identity, second_order_L
from irjbd.stackedls import StackedOperator, lsqr_solve, stack_norm_estimate

EPS = np.finfo(np.float64).eps


def _zero_matrix(nrows, ncols):
    return SparseMatrix.from_coo(nrows, ncols, [], [], [])


def _project(op, u):
    """Projection of (u; 0) onto range([A; L]) through one inner solve."""
    rhs = np.concatenate([u, np.zeros(op.p)])
    out = lsqr_solve(op, rhs)
    return op.apply(out.solution), out


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

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            StackedOperator(identity(3), identity(4))
        with pytest.raises(ValueError):
            StackedOperator(identity(3), identity(3), tol=0)


class TestLsqr:
    def test_consistent_identity_block(self, rng):
        op = StackedOperator(identity(2), _zero_matrix(2, 2), tol=1e-12, maxit=50)
        b = rng.standard_normal(2)
        rhs = np.concatenate([b, np.zeros(2)])
        out = lsqr_solve(op, rhs)
        assert out.converged
        np.testing.assert_allclose(out.solution, b, atol=1e-12)

    def test_rhs_orthogonal_to_range(self):
        # range([I_2; 0] padded) misses the third row entirely
        Ad = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(1, 2), tol=1e-12,
                             maxit=50)
        rhs = np.array([0.0, 0.0, 1.0, 0.0])
        out = lsqr_solve(op, rhs)
        np.testing.assert_allclose(out.solution, np.zeros(2), atol=1e-12)

    def test_matches_dense_normal_equations(self, rng):
        Ad = rng.standard_normal((5, 5))
        Ld = rng.standard_normal((3, 5))
        stack = np.vstack([Ad, Ld])
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld),
                             tol=10 * EPS, maxit=100)
        rhs = rng.standard_normal(8)
        expected = np.linalg.solve(stack.T @ stack, stack.T @ rhs)
        out = lsqr_solve(op, rhs)
        assert out.converged
        np.testing.assert_allclose(out.solution, expected, atol=1e-10)

    def test_normal_equation_residual_small_when_converged(self, rng):
        Ad = rng.standard_normal((6, 4))
        Ld = rng.standard_normal((5, 4))
        tol = 1e-10
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld),
                             tol=tol, maxit=200)
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
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(2, 4), tol=1e-16,
                             maxit=2)
        rhs = rng.standard_normal(8)
        out = lsqr_solve(op, rhs)
        assert not out.converged
        assert out.iterations == 2

    def test_iterations_capped(self, rng):
        Ad = rng.standard_normal((6, 4))
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(2, 4), tol=1e-16,
                             maxit=7)
        out = lsqr_solve(op, rng.standard_normal(8))
        assert out.iterations <= 7

    def test_zero_rhs_needs_no_iteration(self):
        # a zero right-hand side needs no iteration: x = 0 is exact
        op = StackedOperator(identity(2), identity(2), tol=1e-12, maxit=10)
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
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld),
                             tol=1e-12, maxit=50)
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


def _diagonal_twin(monkeypatch, A, L, **kw):
    """The operator of {A, L} with the factored preconditioner switched off."""
    with monkeypatch.context() as m:
        m.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        return StackedOperator(A, L, **kw)


def _assert_on_diagonal_path(monkeypatch, A, L, rhs):
    """Build the operator with no warning and check it solves like its twin."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = StackedOperator(A, L, tol=1e-12, maxit=200)
        out = lsqr_solve(op, rhs)
    twin = _diagonal_twin(monkeypatch, A, L, tol=1e-12, maxit=200)
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
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.full_like(a, np.inf))
        _assert_on_diagonal_path(monkeypatch, A, L, rng.standard_normal(75))


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

    def test_non_finite_rhs_rejected(self):
        op = StackedOperator(self.A, identity(2))
        with pytest.raises(ValueError, match="finite"):
            lsqr_solve(op, np.array([np.inf, 1.0, 2.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            lsqr_solve(op, np.array([np.nan, 1.0, 2.0, 1.0, 1.0]))


class TestProjection:
    def test_full_range_upper_block(self, rng):
        # with A square invertible and L = 0, (u; 0) already lies in the range
        op = StackedOperator(identity(4), _zero_matrix(2, 4), tol=1e-13, maxit=100)
        u = rng.standard_normal(4)
        proj, out = _project(op, u)
        assert out.converged
        np.testing.assert_allclose(proj, np.concatenate([u, np.zeros(2)]), atol=1e-12)

    def test_vector_outside_range_projects_to_zero(self):
        Ad = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(1, 2), tol=1e-13,
                             maxit=50)
        proj, _ = _project(op, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(proj, np.zeros(4), atol=1e-12)

    def test_matches_dense_projector(self, rng):
        Ad = rng.standard_normal((5, 5))
        Ld = rng.standard_normal((3, 5))
        stack = np.vstack([Ad, Ld])
        Q, _ = np.linalg.qr(stack)
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld),
                             tol=10 * EPS, maxit=200)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        proj, out = _project(op, u)
        expected = Q @ (Q.T @ np.concatenate([u, np.zeros(3)]))
        np.testing.assert_allclose(proj, expected, atol=1e-10)

    def test_idempotent_on_range_vectors(self, rng):
        Ad = rng.standard_normal((6, 4))
        Ld = rng.standard_normal((5, 4))
        tol = 1e-12
        op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld),
                             tol=tol, maxit=200)
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


def test_operator_defaults_and_counters(rng, monkeypatch):
    # on the diagonal preconditioner, where a cap of 2 iterations fails
    monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
    op = StackedOperator(identity(37), identity(37))
    assert op.tol == 10 * EPS
    assert op.maxit == 370
    assert StackedOperator(identity(37), identity(37), maxit=5).maxit == 5

    # the counters sum over every solve made through the operator
    Ad = rng.standard_normal((6, 4))
    op = StackedOperator(SparseMatrix.from_dense(Ad), _zero_matrix(2, 4), tol=1e-16,
                         maxit=2)
    first = lsqr_solve(op, rng.standard_normal(8))
    second = lsqr_solve(op, rng.standard_normal(8))
    assert op.iterations == first.iterations + second.iterations == 4
    assert op.failures == int(not first.converged) + int(not second.converged) == 2
