import numpy as np
import pytest

from irjbd.oracle import dense_gsvd, stack_qr

from conftest import dense_joint_lanczos, explicit_shifted_qr, first_difference, gaussian_pair


class TestDenseGsvd:
    def test_single_column_pair(self):
        out = dense_gsvd(np.diag([2.0]), np.diag([1.0]))
        np.testing.assert_allclose(out.C, [2.0 / np.sqrt(5.0)], atol=1e-14)
        np.testing.assert_allclose(out.S, [1.0 / np.sqrt(5.0)], atol=1e-14)
        np.testing.assert_allclose(np.abs(out.X), [[1.0 / np.sqrt(5.0)]], atol=1e-14)

    def test_equal_pair_is_balanced(self):
        out = dense_gsvd(np.eye(4), np.eye(4))
        np.testing.assert_allclose(out.C, np.full(4, np.sqrt(0.5)), atol=1e-14)
        np.testing.assert_allclose(out.S, np.full(4, np.sqrt(0.5)), atol=1e-14)

    def test_reconstruction_defects(self, rng):
        Ad, Ld, _, _ = gaussian_pair(rng, 12, 9, 7)
        out = dense_gsvd(Ad, Ld)
        ca = out.PA.T @ Ad @ out.X
        sl_mat = out.PL.T @ Ld @ out.X
        diag_c = np.zeros((12, 7))
        diag_c[np.arange(7), np.arange(7)] = out.C
        diag_s = np.zeros((9, 7))
        diag_s[np.arange(7), np.arange(7)] = out.S
        assert np.max(np.abs(ca - diag_c)) < 1e-10
        assert np.max(np.abs(sl_mat - diag_s)) < 1e-10
        assert np.max(np.abs(out.C**2 + out.S**2 - 1.0)) < 1e-12

    def test_against_generalized_eigenvalue_oracle(self, rng):
        # independent route: squared values solve the pencil (A^T A, L^T L)
        Ad, Ld, _, _ = gaussian_pair(rng, 10, 8, 6)
        out = dense_gsvd(Ad, Ld)
        pencil = np.linalg.solve(Ld.T @ Ld, Ad.T @ Ad)
        eigs = np.sort(np.linalg.eigvals(pencil).real)[::-1]
        ratios = (out.C / out.S) ** 2
        np.testing.assert_allclose(ratios, eigs, rtol=1e-8)

    def test_trivial_part_counts(self, rng):
        # one zero direction in A, one in L, at distinct coordinates
        Ad = rng.standard_normal((6, 4))
        Ld = rng.standard_normal((7, 4))
        u, s, vt = np.linalg.svd(Ad, full_matrices=False)
        s[-1] = 0.0
        Ad = u @ np.diag(s) @ vt
        # L annihilates the first right-singular direction of A instead
        w = vt[0]
        Ld = Ld @ (np.eye(4) - np.outer(w, w))
        out = dense_gsvd(Ad, Ld)
        assert out.q1 == 1 and out.q2 == 1 and out.q == 2
        assert out.l1 == 6 - 3 and out.l2 == 7 - 3

    def test_fewer_rows_in_l_than_columns(self, rng):
        # L = first difference (7 x 8) annihilates the constants, so the pair
        # has one infinite component and PL has no column for it
        Ad = rng.standard_normal((10, 8))
        Ld = first_difference(8)
        out = dense_gsvd(Ad, Ld)
        assert out.q2 == 1
        # independent route: s^2 / c^2 are the eigenvalues of (A^T A)^-1 L^T L,
        # the zero one belonging to the infinite component
        mu = np.sort(np.linalg.eigvals(np.linalg.solve(Ad.T @ Ad, Ld.T @ Ld)).real)
        np.testing.assert_allclose(out.C[out.nontrivial_slice()], 1.0 / np.sqrt(1.0 + mu[1:]),
                                   atol=1e-10)
        infinite = out.X[:, 0]
        assert np.linalg.norm(Ld @ infinite) < 1e-10 * np.linalg.norm(infinite)

    def test_rank_deficient_stack_rejected(self):
        A = np.zeros((3, 2))
        L = np.zeros((3, 2))
        with pytest.raises(ValueError):
            dense_gsvd(A, L)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense_gsvd(np.eye(501), np.eye(501))


class TestDenseJointLanczos:
    def test_sign_alternation_between_right_bases(self, rng):
        Ad, Ld, _, _ = gaussian_pair(rng, 14, 12, 9)
        Q, _ = stack_qr(Ad, Ld)
        u1 = rng.standard_normal(14)
        B, Bhat, U, Uhat, V, Vhat = dense_joint_lanczos(Q[:14], Q[14:], u1, 6)
        for i in range(6):
            sign = -1.0 if i % 2 else 1.0
            np.testing.assert_allclose(Vhat[:, i], sign * V[:, i], atol=1e-10)

    def test_three_term_relation_defect(self, rng):
        Ad, Ld, _, _ = gaussian_pair(rng, 14, 12, 9)
        Q, _ = stack_qr(Ad, Ld)
        QA = Q[:14]
        u1 = rng.standard_normal(14)
        k = 6
        B, Bhat, U, Uhat, V, Vhat = dense_joint_lanczos(QA, Q[14:], u1, k)
        Vk = V[:, :k]
        alpha_next = float(QA.T @ U[:, k] @ V[:, k] if False else 0.0)
        # recurrence residue: QA^T QA V_k - V_k B^T B lands on the next vector
        resid = QA.T @ (QA @ Vk) - Vk @ (B.T @ B)
        outer = np.outer(V[:, k], np.eye(k)[k - 1])
        coeff = float(V[:, k] @ resid[:, k - 1])
        assert np.max(np.abs(resid - coeff * outer)) < 1e-10

    def test_factor_shapes_and_positivity(self, rng):
        Ad, Ld, _, _ = gaussian_pair(rng, 14, 12, 9)
        Q, _ = stack_qr(Ad, Ld)
        B, Bhat, *_ = dense_joint_lanczos(Q[:14], Q[14:], rng.standard_normal(14), 5)
        assert B.shape == (6, 5) and Bhat.shape == (5, 5)
        assert np.all(np.diagonal(B) > 0) and np.all(np.diagonal(Bhat) > 0)

    def test_orthonormal_bases(self, rng):
        Ad, Ld, _, _ = gaussian_pair(rng, 14, 12, 9)
        Q, _ = stack_qr(Ad, Ld)
        B, Bhat, U, Uhat, V, Vhat = dense_joint_lanczos(Q[:14], Q[14:],
                                                        rng.standard_normal(14), 6)
        for M in (U, Uhat, V, Vhat):
            np.testing.assert_allclose(M.T @ M, np.eye(M.shape[1]), atol=1e-12)


class TestExplicitShiftedQr:
    def test_zero_shift_diagonal_gives_signed_identity(self):
        Q, R = explicit_shifted_qr(np.diag([3.0, 2.0, 1.0]), 0.0)
        np.testing.assert_allclose(np.abs(Q), np.eye(3), atol=1e-14)

    def test_first_column_proportional_to_shifted_first_column(self, rng):
        M = rng.standard_normal((5, 5))
        M = M + M.T
        shift = 0.7
        Q, R = explicit_shifted_qr(M, shift)
        col = (M - shift * np.eye(5))[:, 0]
        col = col / np.linalg.norm(col)
        assert min(np.linalg.norm(Q[:, 0] - col), np.linalg.norm(Q[:, 0] + col)) < 1e-13

    def test_factorization_reconstructs(self, rng):
        M = rng.standard_normal((6, 6))
        M = M + M.T
        Q, R = explicit_shifted_qr(M, 0.4)
        np.testing.assert_allclose(Q @ R, M - 0.4 * np.eye(6), atol=1e-13)
