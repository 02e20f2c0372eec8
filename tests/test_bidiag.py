import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irjbd.bidiag import givens, inverse_norm_estimates, small_gsvd
from irjbd.jbd import BreakdownError
from irjbd.oracle import stack_qr
from irjbd.restart import thick_restart

from conftest import dense_joint_lanczos, expanded_state


def random_joint_factors(rng, m, p, n, k):
    """A valid (B, Bbar) pair from the two explicit recurrences on a random pair."""
    Q, _ = stack_qr(rng.standard_normal((m, n)), rng.standard_normal((p, n)))
    u1 = rng.standard_normal(m)
    B, Bhat, *_ = dense_joint_lanczos(Q[:m], Q[m:], u1, k)
    signs = np.ones(k)
    signs[1::2] = -1.0
    return B, Bhat * signs[None, :]


def assert_joint_values(out):
    """Every companion value is live and C**2 + S**2 = 1 to 1e-8."""
    assert np.all(out.S > 0)
    assert np.max(np.abs(out.C**2 + out.S**2 - 1.0)) <= 1e-8


def assert_matches_lapack(B, Bbar):
    """small_gsvd(B, Bbar) against LAPACK values, with reconstruction of B."""
    out = small_gsvd(B, Bbar)
    np.testing.assert_allclose(out.C, np.linalg.svd(B, compute_uv=False), rtol=0, atol=1e-13)
    np.testing.assert_allclose(out.P @ np.diag(out.C) @ out.W.T, B, rtol=0, atol=1e-13)
    assert_joint_values(out)
    return out


class TestGivens:
    def test_already_zero(self):
        assert givens(1.0, 0.0) == (1.0, 0.0, 1.0)

    def test_swap(self):
        assert givens(0.0, 1.0) == (0.0, 1.0, 1.0)

    def test_345_triangle(self):
        c, s, r = givens(3.0, 4.0)
        np.testing.assert_allclose([c, s, r], [0.6, 0.8, 5.0])

    @given(st.floats(-1e6, 1e6, allow_subnormal=False),
           st.floats(-1e6, 1e6, allow_subnormal=False))
    @settings(max_examples=100, deadline=None)
    def test_rotation_properties(self, a, b):
        c, s, r = givens(a, b)
        assert r >= 0.0
        assert abs(c * c + s * s - 1.0) < 1e-14
        rotated = np.array([[c, s], [-s, c]]) @ np.array([a, b])
        scale = max(1.0, abs(a), abs(b))
        assert abs(rotated[0] - r) < 1e-12 * scale
        assert abs(rotated[1]) < 1e-12 * scale


class TestJacobiSvd:
    """small_gsvd against LAPACK; the names predate the deleted Jacobi SVD."""

    def test_matches_lapack_values(self, rng):
        for m, p, n, k in [(8, 7, 5, 1), (14, 12, 10, 6), (40, 36, 30, 25)]:
            B, Bbar = random_joint_factors(rng, m, p, n, k)
            assert B.shape == (k + 1, k)
            assert_matches_lapack(B, Bbar)

    @pytest.mark.parametrize("k", [1, 2, 3, 24, 25])
    @pytest.mark.parametrize("extra_rows", [0, 1])
    def test_both_round_robin_parities(self, rng, k, extra_rows):
        """small_gsvd on a square and a (k+1) x k B, for odd and even k."""
        M = rng.standard_normal((k + extra_rows, k))
        B = M / (1.1 * np.linalg.norm(M, 2))
        Bbar = np.linalg.cholesky(np.eye(k) - B.T @ B).T
        out = assert_matches_lapack(B, Bbar)
        assert np.max(np.abs(out.C**2 + out.S**2 - 1.0)) < 1e-13

    def test_rank_deficient(self):
        B = np.array([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]])
        out = small_gsvd(B, np.diag([0.8, 1.0]))
        np.testing.assert_allclose(out.C, [0.6, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.S, [0.8, 1.0], atol=1e-15)
        np.testing.assert_allclose(out.P.T @ out.P, np.eye(2), atol=1e-15)
        assert_joint_values(out)


class TestSmallGsvd:
    def test_scalar_pair(self):
        out = small_gsvd(np.array([[0.6], [0.0]]), np.array([[0.8]]))
        np.testing.assert_allclose(out.C, [0.6])
        np.testing.assert_allclose(out.S, [0.8])
        np.testing.assert_allclose(np.abs(out.W), [[1.0]])
        assert_joint_values(out)

    def test_k2_values_match_svd_oracle(self, rng):
        B, Bbar = random_joint_factors(rng, 8, 7, 5, 2)
        out = small_gsvd(B, Bbar)
        ref = np.linalg.svd(B, compute_uv=False)
        np.testing.assert_allclose(out.C, ref, atol=1e-13)

    def test_unit_circle_identity(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        out = small_gsvd(B, Bbar)
        assert np.max(np.abs(out.C**2 + out.S**2 - 1.0)) < 1e-13
        assert_joint_values(out)

    def test_reconstruction_invariants(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        out = small_gsvd(B, Bbar)
        b_defect = np.linalg.norm(B - out.P @ np.diag(out.C) @ out.W.T)
        bbar_defect = np.linalg.norm(Bbar - out.Pbar @ np.diag(out.S) @ out.W.T)
        assert b_defect <= 1e-12 * max(1.0, np.linalg.norm(B))
        assert bbar_defect <= 1e-11 * max(1.0, np.linalg.norm(Bbar))

    def test_orthogonality(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        out = small_gsvd(B, Bbar)
        for M in (out.W, out.P, out.Pbar):
            np.testing.assert_allclose(M.T @ M, np.eye(6), atol=1e-12)

    def test_ordering_and_range(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        out = small_gsvd(B, Bbar)
        assert np.all(np.diff(out.C) < 0)
        assert np.all(np.diff(out.S) > 0)
        assert np.all((out.C > 0) & (out.C < 1))
        assert np.all((out.S > 0) & (out.S < 1))

    def test_deterministic_signs(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        a = small_gsvd(B, Bbar)
        b = small_gsvd(B.copy(), Bbar.copy())
        np.testing.assert_array_equal(a.W, b.W)
        for j in range(6):
            lead = np.argmax(np.abs(a.W[:, j]))
            assert a.W[lead, j] > 0

    def test_identity_defect_flagged(self, rng):
        # the joint identity is policed where its loss would be amplified:
        # a restart that would sweep refuses the pair
        state, _, _, _ = expanded_state(rng, 14, 12, 10, 6)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        state.Bbardense[...] *= 1.001
        with pytest.raises(BreakdownError, match="too degraded"):
            thick_restart(state, ritz, 4, [0.5])

    @pytest.mark.parametrize("k", [1, 2, 5, 16, 39])
    def test_full_svd_keeps_the_economy_factors(self, rng, k):
        # the full SVD adds U's last column as the null vector; C and W are
        # bitwise those of the economy SVD with the same sign fix, and so is
        # P, except where LAPACK forms the full U by another blocking: with
        # OpenBLAS 0.3.31 that happens at k = 39 to 41, where P moves by an
        # ulp or two (bench and CI solves stay at k <= 30)
        for _ in range(10):
            B = np.tril(np.triu(rng.standard_normal((k + 1, k)), -1))
            Bbar = np.triu(rng.standard_normal((k, k)))
            out = small_gsvd(B, Bbar)
            P, C, Wt = np.linalg.svd(B, full_matrices=False)
            W = Wt.T
            flip = W[np.argmax(np.abs(W), axis=0), np.arange(k)] < 0.0
            W[:, flip] = -W[:, flip]
            P[:, flip] = -P[:, flip]
            np.testing.assert_array_equal(out.C, C)
            np.testing.assert_array_equal(out.W, W)
            np.testing.assert_allclose(out.P, P, rtol=0.0, atol=4.0 * np.finfo(float).eps)
            assert out.null.shape == (k + 1,)
            assert small_gsvd(B[:k], Bbar).null is None

    def test_strict_interlacing_of_squared_values(self, rng):
        # the same unreduced run, viewed at consecutive sizes
        B6, _ = random_joint_factors(rng, 14, 12, 10, 6)
        ck = np.linalg.svd(B6, compute_uv=False) ** 2
        ckm1 = np.linalg.svd(B6[:6, :5], compute_uv=False) ** 2
        for i in range(5):
            assert ck[i] > ckm1[i] > ck[i + 1]


class TestInverseNormEstimates:
    def test_identity_leading_block(self):
        B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.7]])
        inv_lead, inv_hat = inverse_norm_estimates(B, np.array([0.5, 0.5]))
        np.testing.assert_allclose(inv_lead, 1.0, atol=1e-14)
        np.testing.assert_allclose(inv_hat, 2.0, atol=1e-14)

    def test_matches_dense_oracle(self, rng):
        # the extraction's S are the companion's singular values while the
        # joint identity holds
        B, Bbar = random_joint_factors(rng, 12, 11, 9, 5)
        inv_lead, inv_hat = inverse_norm_estimates(B, small_gsvd(B, Bbar).S)
        ref_lead = 1.0 / np.linalg.svd(B[:5, :5], compute_uv=False)[-1]
        ref_hat = 1.0 / np.linalg.svd(Bbar, compute_uv=False)[-1]
        np.testing.assert_allclose(inv_lead, ref_lead, rtol=1e-12)
        np.testing.assert_allclose(inv_hat, ref_hat, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 16, 39])
    def test_one_svd_of_the_leading_block(self, rng, k):
        # the leading block takes one np.linalg.svd call, and the companion
        # estimate is read off S; both are bitwise those references
        for _ in range(10):
            B = np.asfortranarray(np.tril(np.triu(rng.standard_normal((k + 1, k)), -1)))
            S = rng.random(k)
            inv_lead, inv_hat = inverse_norm_estimates(B, S)
            assert inv_lead == 1.0 / float(np.linalg.svd(B[:k, :k], compute_uv=False)[-1])
            assert inv_hat == 1.0 / float(S.min())

    def test_empty_pair_is_zero(self):
        assert inverse_norm_estimates(np.zeros((1, 0)), np.zeros(0)) == (0.0, 0.0)

    def test_singular_block_maps_to_inf(self):
        B = np.array([[0.0, 0.0], [0.5, 1.0], [0.0, 0.5]])
        inv_lead, inv_hat = inverse_norm_estimates(B, np.array([1.0, 0.0]))
        assert not np.isfinite(inv_lead) or inv_lead > 1e15
        assert inv_hat == float("inf")
