import numpy as np
import pytest

from irjbd.jbd import _gram_schmidt, jbd_expand, jbd_init
from irjbd.oracle import stack_qr
from irjbd.sparsemat import SparseMatrix, identity
from irjbd.stackedls import StackedOperator

from conftest import (bidiagonal_parts, dense_joint_lanczos, expanded_state, gaussian_pair,
                      verify_state)


def _zero_matrix(nrows, ncols):
    return SparseMatrix.from_coo(nrows, ncols, [], [], [])


def _companion_unsigned(state):
    """The companion factor with its alternating column signs folded out."""
    return state.Bbardense * (-1.0) ** np.arange(state.k)


class TestInit:
    def test_vanishing_lower_block_is_breakdown(self, rng):
        # with L = 0 the projected vector has no lower block at all, which the
        # first expansion step finds before it commits a column
        op = StackedOperator(identity(2), _zero_matrix(2, 2))
        state = jbd_init(op, np.array([1.0, 0.0]), capacity=2)
        assert state.stop is None
        assert jbd_expand(state, op, 1) is state
        assert state.stop == "joint bidiagonalization breakdown: alphahat_1 = 0.000e+00"
        assert state.k == 0

    def test_start_orthogonal_to_the_range_stops(self):
        # range([A; L]) is spanned by (1, 0, 1), so (e2; 0) projects to zero:
        # the state stops at k = 0 and no expansion step runs
        op = StackedOperator(SparseMatrix.from_dense([[1.0], [0.0]]),
                             SparseMatrix.from_dense([[1.0]]))
        state = jbd_init(op, np.array([0.0, 1.0]), capacity=2)
        assert state.stop == "joint bidiagonalization breakdown: alpha_1 = 0.000e+00"
        jbd_expand(state, op, 2)
        assert state.k == 0

    def test_diagonal_pair_seed(self):
        # stack is the single column (2, 1)/sqrt(5); projecting (1, 0) onto it
        # leaves a vector of norm 2/sqrt(5)
        op = StackedOperator(SparseMatrix.from_dense([[2.0]]),
                             SparseMatrix.from_dense([[1.0]]))
        state = jbd_init(op, np.array([1.0]), capacity=1)
        np.testing.assert_allclose(state.alpha_next, 2.0 / np.sqrt(5.0), atol=1e-14)
        np.testing.assert_allclose(state.vp_next,
                                   np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-14)

    def test_seed_norm_matches_dense_projector(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 8, 8, 5)
        Q, _ = stack_qr(Ad, Ld)
        op = StackedOperator(A, L)
        u1 = rng.standard_normal(8)
        u1 /= np.linalg.norm(u1)
        state = jbd_init(op, u1, capacity=4)
        stacked = np.concatenate([u1, np.zeros(8)])
        expected = np.linalg.norm(Q @ (Q.T @ stacked))
        np.testing.assert_allclose(state.alpha_next, expected, atol=1e-12)

    def test_non_unit_start_rejected(self):
        op = StackedOperator(identity(2), identity(2))
        with pytest.raises(ValueError):
            jbd_init(op, np.array([1.0, 1.0]), capacity=2)


class TestExpand:
    def test_aligned_start_closes_square(self):
        # u1 = e1 is already a left singular direction of the diagonal pair, so
        # the left recurrence terminates immediately and the run closes with a
        # square 1x1 factor holding the exact value 3/sqrt(10)
        op = StackedOperator(SparseMatrix.from_dense(np.diag([3.0, 1.0])),
                             SparseMatrix.from_dense(np.diag([1.0, 1.0])))
        state = jbd_init(op, np.array([1.0, 0.0]), capacity=2)
        jbd_expand(state, op, 2)
        assert state.stop == "invariant subspace found at k=1"  # closed on the left
        assert state.k == 1 and state.n_left == 1
        np.testing.assert_allclose(state.Bdense, [[3.0 / np.sqrt(10.0)]], atol=1e-12)
        # a closed run has no pending right vector and no couplings
        np.testing.assert_array_equal(state.vp_next, np.zeros(4))
        assert state.alpha_next == 0.0 and state.betabar == 0.0

    def test_coupled_coefficient_identity(self, rng):
        # alphahat_i * betahat_i = alpha_{i+1} * beta_{i+1} for a fresh run;
        # betas[0] already holds the first subdiagonal entry beta_2
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        b_alphas, b_betas = bidiagonal_parts(state.Bdense)
        hat_alphas, hat_betas = bidiagonal_parts(_companion_unsigned(state), upper=True)
        lhs = hat_alphas[:-1] * hat_betas
        rhs = b_alphas[1:] * b_betas[:-1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_fresh_run_has_positive_factors(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 7)
        for parts in (bidiagonal_parts(state.Bdense),
                      bidiagonal_parts(_companion_unsigned(state), upper=True)):
            assert all(np.all(part > 0) for part in parts)

    def test_matches_dense_two_process_oracle(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 16, 14, 10)
        Q, _ = stack_qr(Ad, Ld)
        op = StackedOperator(A, L)
        u1 = rng.standard_normal(16)
        u1 /= np.linalg.norm(u1)
        state = jbd_init(op, u1, capacity=7)
        jbd_expand(state, op, 7)
        B_ref, Bhat_ref, *_ = dense_joint_lanczos(Q[:16], Q[16:], u1, 7)
        Bhat = _companion_unsigned(state)
        bidiagonal_parts(state.Bdense)
        bidiagonal_parts(Bhat, upper=True)
        np.testing.assert_allclose(state.Bdense, B_ref, atol=1e-8)
        np.testing.assert_allclose(Bhat, Bhat_ref, atol=1e-8)

    def test_right_basis_stays_in_range(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 16, 14, 10)
        Q, _ = stack_qr(Ad, Ld)
        op = StackedOperator(A, L)
        u1 = rng.standard_normal(16)
        u1 /= np.linalg.norm(u1)
        state = jbd_init(op, u1, capacity=8)
        jbd_expand(state, op, 8)
        Vp = state.Vprime
        deviation = np.max(np.abs(Vp - Q @ (Q.T @ Vp)))
        assert deviation < 1e-8
        realized = np.vstack([Ad, Ld]) @ state.preimages
        np.testing.assert_allclose(realized, Vp, atol=1e-12)

    def test_exhaustion_at_full_dimension(self, rng):
        # k cannot exceed n: the right space runs out and couplings become zero
        state, op, _, _ = expanded_state(rng, 12, 11, 6, 6)
        assert state.stop == f"invariant subspace found at k={state.k}"
        assert state.n_left == state.k + 1  # ran out on the right
        assert state.alpha_next == 0.0 and state.betabar == 0.0

    def test_set_pending_writes_the_canonical_couplings(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 5)
        # a vanishing vector is refused and leaves the state as it was
        names = ("pending", "alpha_next", "betabar")
        before = [getattr(state, name) for name in names]
        tiny = np.full(state.m + state.p, state.breakdown_tol / 100)
        assert state.set_pending(np.concatenate([tiny, np.ones(state.n)])) < state.breakdown_tol
        assert all(getattr(state, name) is x for name, x in zip(names, before))

        # the pending vector is the part of vp outside span(Vprime), normalized
        k = state.k
        t = rng.standard_normal(10)
        vp = op.apply(t)
        alpha = state.set_pending(np.concatenate([vp, t]))
        projected = vp - state.Vprime @ np.linalg.lstsq(state.Vprime, vp, rcond=None)[0]
        np.testing.assert_allclose(alpha, np.linalg.norm(projected), rtol=1e-13)
        np.testing.assert_allclose(state.vp_next, projected / alpha, rtol=0, atol=1e-13)
        assert np.max(np.abs(state.Vprime.T @ state.vp_next)) <= 1e-14
        # the preimage follows: [A; L] t_next is the pending vector
        np.testing.assert_allclose(op.apply(state.t_next), state.vp_next, rtol=0, atol=1e-13)
        assert state.alpha_next == alpha
        assert state.betabar == -alpha * state.Bdense[k, k - 1] / state.Bbardense[k - 1, k - 1]

    def test_determinism(self, rng):
        seed = rng.standard_normal(16)
        gen1 = np.random.default_rng(99)
        s1, _, _, _ = expanded_state(gen1, 16, 14, 10, 7, seed_vec=seed)
        gen2 = np.random.default_rng(99)
        s2, _, _, _ = expanded_state(gen2, 16, 14, 10, 7, seed_vec=seed)
        np.testing.assert_array_equal(s1.U, s2.U)
        np.testing.assert_array_equal(s1.Bdense, s2.Bdense)
        np.testing.assert_array_equal(s1.vp_next, s2.vp_next)

    def test_capacity_guard(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 5)
        with pytest.raises(ValueError):
            jbd_expand(state, op, 20)


class TestVerifyState:
    def test_fresh_state_defects_small(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        defects = verify_state(state, op)
        assert defects.max_defect() < 1e-10

    def test_corruption_localizes_to_relation(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 7)
        clean = verify_state(state)
        state._B[3, 2] += 1e-3
        dirty = verify_state(state)
        assert dirty.relation_upper > 1e-4
        assert dirty.u_orthogonality <= clean.u_orthogonality * 10 + 1e-14

    def test_k1_identity_exact(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 1)
        defects = verify_state(state)
        assert defects.joint_identity < 1e-12

    def test_never_mutates(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        before = state.Bdense.copy()
        verify_state(state, op)
        np.testing.assert_array_equal(state.Bdense, before)


EPS = np.finfo(np.float64).eps


class TestSecondPassOnCancellation:
    # a second Gram-Schmidt pass runs only when the first leaves less than
    # 1/sqrt(2) of its input's norm; an input within 1e-10 of the span
    # cancels, and one pass alone would leave it orthogonal only to
    # eps * ||input|| / ||output||, about 1e-6

    @staticmethod
    def basis(rng, m, k):
        Q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        return np.asfortranarray(Q)

    @pytest.mark.parametrize("m, k", [(30, 1), (50, 10), (200, 25)])
    def test_cancelling_input_gets_the_second_pass(self, rng, m, k):
        for _ in range(20):
            Q = self.basis(rng, m, k)
            c = rng.standard_normal(k)
            vec = Q @ c + 1e-10 * rng.standard_normal(m)
            out, coefficients, square = _gram_schmidt(vec, Q, seed=c[-1])
            assert square == out.dot(out)
            assert np.linalg.norm(Q.T @ out) <= 8 * EPS * np.linalg.norm(out)
            np.testing.assert_allclose(coefficients, c, rtol=0, atol=1e-9)

    def test_no_cancellation_is_exactly_one_pass(self, rng):
        Q = self.basis(rng, 50, 10)
        vec = rng.standard_normal(50)
        seed = 0.3
        once = vec - seed * Q[:, -1]
        extra = Q.T.dot(once)
        once = once - Q.dot(extra)
        expected = np.zeros(10)
        expected[-1] = seed
        expected += extra
        out, coefficients, square = _gram_schmidt(vec, Q, seed=seed)
        np.testing.assert_array_equal(out, once)
        np.testing.assert_array_equal(coefficients, expected)
        assert square == once.dot(once)

    def test_seed_is_skipped_on_an_empty_basis(self, rng):
        # the companion basis is empty at the first step
        vec = rng.standard_normal(20)
        out, coefficients, square = _gram_schmidt(vec, np.empty((20, 0), order="F"), seed=0.7)
        np.testing.assert_array_equal(out, vec)
        assert coefficients.shape == (0,)
        assert square == vec.dot(vec)

    @staticmethod
    def right_basis(rng, rows, extra, k):
        """Vprime-shaped: orthonormal leading rows over unconstrained preimage rows."""
        return np.asfortranarray(np.vstack([TestSecondPassOnCancellation.basis(rng, rows, k),
                                            rng.standard_normal((extra, k))]))

    def test_leading_rows_no_cancellation_is_exactly_one_pass(self, rng):
        # coefficients from the leading rows alone, no seed taken off, and the
        # trailing (preimage) rows move by exactly the basis times those
        # coefficients, as the leading rows do
        rows, extra, k = 40, 15, 8
        basis = self.right_basis(rng, rows, extra, k)
        vec = rng.standard_normal(rows + extra)
        out, coefficients, square = _gram_schmidt(vec, basis, rows)
        np.testing.assert_array_equal(coefficients, vec[:rows] @ basis[:rows])
        np.testing.assert_array_equal(out, vec - basis.dot(coefficients))
        assert square == out[:rows].dot(out[:rows])

    def test_leading_rows_cancelling_input(self, rng):
        rows, extra, k = 40, 15, 8
        for _ in range(10):
            basis = self.right_basis(rng, rows, extra, k)
            c = rng.standard_normal(k)
            vec = basis @ c + 1e-10 * rng.standard_normal(rows + extra)
            out, coefficients, square = _gram_schmidt(vec, basis, rows)
            head = out[:rows]
            assert square == head.dot(head)
            assert np.linalg.norm(basis[:rows].T @ head) <= 8 * EPS * np.linalg.norm(head)
            np.testing.assert_allclose(coefficients, c, rtol=0, atol=1e-9)
            np.testing.assert_allclose(out[rows:], vec[rows:] - basis[rows:] @ coefficients,
                                       rtol=0, atol=1e-13)

    def test_set_pending_cancelling_input(self, rng):
        for _ in range(10):
            state, op, _, _ = expanded_state(rng, 40, 36, 30, 12)
            c = rng.standard_normal(state.k)
            t = state.preimages @ c + 1e-10 * rng.standard_normal(state.n)
            alpha = state.set_pending(np.concatenate([op.apply(t), t]))
            assert alpha >= state.breakdown_tol
            vp = state.vp_next
            assert np.linalg.norm(state.Vprime.T @ vp) <= 8 * EPS * np.linalg.norm(vp)
            # the preimage still maps onto the pending vector
            np.testing.assert_allclose(op.apply(state.t_next), vp, rtol=0, atol=1e-6)

    def test_set_pending_no_cancellation_is_exactly_one_pass(self, rng):
        state, op, _, _ = expanded_state(rng, 40, 36, 30, 12)
        t = rng.standard_normal(state.n)
        pending = np.concatenate([op.apply(t), t])
        mp = state.m + state.p
        right = state.right
        once = pending - right.dot(right[:mp].T @ pending[:mp])
        alpha = np.sqrt(once[:mp].dot(once[:mp]))
        assert state.set_pending(pending) == alpha
        np.testing.assert_array_equal(state.pending, once / alpha)
