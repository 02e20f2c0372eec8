import warnings

import numpy as np
import pytest

from irjbd.bidiag import small_gsvd
from irjbd.jbd import jbd_expand, jbd_init
from irjbd.oracle import explicit_shifted_qr, stack_qr
from irjbd.restart import (CouplingDefectError, _lower_sweep, _upper_sweep, accumulate_sweeps,
                           multi_step_implicit_restart, thick_restart)

from conftest import (bidiagonal_parts, expanded_state, lower_bidiagonal_pair,
                      rotation_band_defect, rotation_orthogonality_defect, verify_state)
from test_bidiag import random_joint_factors


def random_lower_pair(rng, k):
    return lower_bidiagonal_pair(0.2 + rng.random(k), 0.2 + rng.random(k))


class TestLowerSweep:
    def test_zero_shift_similarity(self):
        B, Bbar = lower_bidiagonal_pair([0.6, 0.8], [0.3, 0.2])
        Bp, _, rot = accumulate_sweeps(B, Bbar, [0.0])
        lhs = Bp.T @ Bp
        rhs = rot.P.T @ (B.T @ B) @ rot.P
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_transform_consistency(self, rng):
        B, Bbar = random_lower_pair(rng, 6)
        lam = 0.4
        Bp, _, rot = accumulate_sweeps(B, Bbar, [lam])
        np.testing.assert_allclose(Bp, rot.G.T @ B @ rot.P, atol=1e-13)
        np.testing.assert_allclose(rot.G.T @ rot.G, np.eye(7), atol=1e-13)
        np.testing.assert_allclose(rot.P.T @ rot.P, np.eye(6), atol=1e-13)

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_left_transform_matches_explicit_qr(self, rng, k):
        # accumulated G vs the Householder Q-factor of B B^T - lam^2 I,
        # equal up to a column sign diagonal
        B, Bbar = random_lower_pair(rng, k)
        for lam in (0.0, 0.35, 0.9):
            G = accumulate_sweeps(B, Bbar, [lam])[2].G
            Qr, _ = explicit_shifted_qr(B @ B.T, lam**2)
            signs = np.sign(np.diagonal(G.T @ Qr))
            np.testing.assert_allclose(G, Qr * signs[None, :], atol=1e-12)

    def test_recombination_matches_shifted_qr_step(self, rng):
        # B' B'^T equals the R Q + shift recombination of the explicit step
        B, Bbar = random_lower_pair(rng, 5)
        lam = 0.5
        Bp, _, rot = accumulate_sweeps(B, Bbar, [lam])
        Qr, Rr = explicit_shifted_qr(B @ B.T, lam**2)
        signs = np.sign(np.diagonal(rot.G.T @ Qr))
        D = np.diag(signs)
        recombined = D @ Rr @ Qr @ D + lam**2 * np.eye(6)
        np.testing.assert_allclose(Bp @ Bp.T, recombined, atol=1e-12)

    def test_k4_stays_lower_bidiagonal(self, rng):
        B, Bbar = random_lower_pair(rng, 4)
        Bp, _, _ = accumulate_sweeps(B, Bbar, [0.6])
        bidiagonal_parts(Bp, tol=0.0)

    def test_shift_out_of_range(self, rng):
        with pytest.raises(ValueError):
            accumulate_sweeps(*random_lower_pair(rng, 4), [1.5])
        # a square B is rejected before any sweep, even with no shifts
        B, Bbar = random_lower_pair(rng, 4)
        with pytest.raises(ValueError, match=r"\(k\+1\) x k"):
            accumulate_sweeps(B[:4], Bbar, [])

    def test_reduced_input_sweeps_cleanly(self):
        # composed exact-shift sweeps must tolerate a vanished coupling
        B, Bbar = lower_bidiagonal_pair([0.6, 0.0, 0.5], [0.3, 0.2, 0.4])
        Bp, _, rot = accumulate_sweeps(B, Bbar, [0.3])
        assert rotation_orthogonality_defect(rot) < 1e-13
        assert rotation_band_defect(rot) == 0.0
        assert np.linalg.norm(Bp - rot.G.T @ B @ rot.P) < 1e-13


class TestCoupledSweep:
    def test_joint_identity_preserved(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        lam = 0.45
        Bp, Bbarp, _ = accumulate_sweeps(B, Bbar, [lam])
        gram = Bp.T @ Bp + Bbarp.T @ Bbarp
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_implicit_q_theorem_against_independent_sweep(self, rng):
        # Gbar from the coupled sweep vs the left factor of an independent
        # shifted step on the companion: Bbar P = Gbar Btilde is a QR
        # factorization, so compare against the dense Q of Bbar @ P_explicit
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        lam = 0.45
        mu2 = 1.0 - lam**2
        _, _, rot = accumulate_sweeps(B, Bbar, [lam])

        P_explicit, _ = explicit_shifted_qr(Bbar.T @ Bbar, mu2)
        psign = np.sign(np.diagonal(rot.P.T @ P_explicit))
        P_explicit = P_explicit * psign[None, :]
        Gbar_ref, _ = np.linalg.qr(Bbar @ P_explicit)
        signs = np.sign(np.diagonal(rot.Gbar.T @ Gbar_ref))
        np.testing.assert_allclose(rot.Gbar, Gbar_ref * signs[None, :], atol=1e-10)

    def test_k4_shape_matches_coupled_diagram(self, rng):
        B, Bbar = random_joint_factors(rng, 10, 9, 7, 4)
        _, Bbarp, _ = accumulate_sweeps(B, Bbar, [0.3])
        bidiagonal_parts(Bbarp, upper=True, tol=0.0)

    def test_decoupled_pair_raises_defect(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        rights = _lower_sweep(B, 0.45, np.eye(7), np.eye(6))
        unrelated = np.triu(rng.standard_normal((6, 6)), 0)
        # a companion unrelated to B cannot share its right rotations, even
        # under the loosest residue threshold accumulate_sweeps admits
        loosest = 1e-6 * max(1.0, float(np.linalg.norm(unrelated)))
        with pytest.raises(CouplingDefectError, match="decoupled"):
            _upper_sweep(unrelated, rights, np.eye(6), loosest)


class TestAccumulatedSweeps:
    def test_band_structure_and_orthogonality(self, rng):
        B, Bbar = random_joint_factors(rng, 16, 14, 12, 8)
        shifts = [0.2, 0.5, 0.7]
        _, _, rot = accumulate_sweeps(B, Bbar, shifts)
        assert rotation_orthogonality_defect(rot) < 1e-13
        assert rotation_band_defect(rot) == 0.0

    def test_factors_exactly_bidiagonal(self, rng):
        B, Bbar = random_joint_factors(rng, 16, 14, 12, 8)
        Bp, Bbarp, _ = accumulate_sweeps(B, Bbar, [0.3, 0.6])
        bidiagonal_parts(Bp, tol=0.0)
        bidiagonal_parts(Bbarp, upper=True, tol=0.0)


class TestMultiStepRestart:
    def test_single_shift_filters_starting_vector(self, rng):
        state, op, Ad, Ld = expanded_state(rng, 16, 14, 10, 6)
        Q, _ = stack_qr(Ad, Ld)
        QA = Q[:16]
        lam = float(small_gsvd(state.Bdense, state.Bbardense).C[-1])
        u1 = state.U[:, 0].copy()
        new = multi_step_implicit_restart(state, [lam], 5)
        expected = (QA @ QA.T - lam**2 * np.eye(16)) @ u1
        expected /= np.linalg.norm(expected)
        got = new.U[:, 0]
        assert min(np.linalg.norm(got - expected), np.linalg.norm(got + expected)) < 1e-8

    def test_multi_shift_polynomial_filter(self, rng):
        state, op, Ad, Ld = expanded_state(rng, 16, 14, 10, 7)
        Q, _ = stack_qr(Ad, Ld)
        QA = Q[:16]
        shifts = small_gsvd(state.Bdense, state.Bbardense).C[-3:]
        u1 = state.U[:, 0].copy()
        new = multi_step_implicit_restart(state, shifts, 4)
        expected = u1
        for lam in shifts:
            expected = (QA @ QA.T - lam**2 * np.eye(16)) @ expected
        expected /= np.linalg.norm(expected)
        got = new.U[:, 0]
        assert min(np.linalg.norm(got - expected), np.linalg.norm(got + expected)) < 1e-8

    def test_restarted_state_passes_invariants(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        shifts = small_gsvd(state.Bdense, state.Bbardense).C[-3:]
        new = multi_step_implicit_restart(state, shifts, 4)
        assert verify_state(new, op).max_defect() < 1e-9
        jbd_expand(new, op, 7)
        assert verify_state(new, op).max_defect() < 1e-9

    def test_restart_equivalence_with_filtered_fresh_run(self, rng):
        # the restarted bases span the same subspaces as a fresh short run
        # started from the filtered vector
        state, op, Ad, Ld = expanded_state(rng, 16, 14, 10, 6)
        Q, _ = stack_qr(Ad, Ld)
        QA = Q[:16]
        shifts = small_gsvd(state.Bdense, state.Bbardense).C[-2:]
        u1 = state.U[:, 0].copy()
        l = 4
        new = multi_step_implicit_restart(state, shifts, l)

        filtered = u1
        for lam in shifts:
            filtered = (QA @ QA.T - lam**2 * np.eye(16)) @ filtered
        filtered /= np.linalg.norm(filtered)
        fresh = jbd_init(op, filtered, capacity=l)
        jbd_expand(fresh, op, l)

        # compare column spans through principal angles
        for Mn, Mf in ((new.U, fresh.U), (new.Vprime, fresh.Vprime),
                       (new.Uhat, fresh.Uhat)):
            sv = np.linalg.svd(Mn.T @ Mf, compute_uv=False)
            assert np.max(np.abs(sv - 1.0)) < 1e-6

    def test_no_shift_warns_and_returns_state(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = multi_step_implicit_restart(state, [], 6)
        assert out is state
        assert any("no-op" in str(w.message) for w in caught)

    def test_shift_count_validation(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 6)
        with pytest.raises(ValueError):
            multi_step_implicit_restart(state, [0.3, 0.4], 5)


class TestThickRestart:
    def test_kept_values_form_diagonal_factor(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        new = thick_restart(state, ritz, 3, target="largest")
        np.testing.assert_allclose(np.diagonal(new.Bdense), ritz.C[:3], atol=1e-12)
        np.testing.assert_allclose(new.Bdense[3, :], 0.0, atol=1e-15)
        np.testing.assert_allclose(np.diagonal(new.Bbardense), ritz.S[:3], atol=1e-12)
        # diagonal factor reproduces the kept values exactly on re-extraction
        again = small_gsvd(new.Bdense, new.Bbardense,
                           identity_tol=1e-6, cross_check_tol=1e-6)
        np.testing.assert_allclose(again.C, ritz.C[:3], atol=1e-12)

    def test_expand_after_restart_only_improves_kept_values(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        kept = ritz.C[:3].copy()
        new = thick_restart(state, ritz, 3, target="largest")
        jbd_expand(new, op, 7)
        again = small_gsvd(new.Bdense, new.Bbardense)
        # the kept directions remain in the grown subspace, so the leading
        # Ritz values can only move up toward the true values
        assert np.all(again.C[:3] >= kept - 1e-10)

    def test_smallest_mode_keeps_trailing_values(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        new = thick_restart(state, ritz, 3, target="smallest")
        np.testing.assert_allclose(np.diagonal(new.Bdense), ritz.C[-3:], atol=1e-12)

    def test_rotation_blocks_are_dense_unlike_implicit(self, rng):
        # structural contrast: implicit-restart transforms are banded while
        # the maps thick restart applies to the bases are full
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        _, _, rot = accumulate_sweeps(state.Bdense, state.Bbardense, ritz.C[-3:])
        i, j = np.indices(rot.P.shape)
        assert np.all(rot.P[i - j > 3] == 0.0)
        new = thick_restart(state, ritz, 4)
        right_map = state.Vprime.T @ new.Vprime
        left_map = state.U.T @ new.U
        assert right_map.shape == (7, 4) and left_map.shape == (8, 5)
        # dense: no structural zeros, which would show here as roundoff (~1e-16)
        assert np.min(np.abs(right_map)) > 1e-8
        assert np.min(np.abs(left_map)) > 1e-8

    def test_state_invariants_after_thick_cycle(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        new = thick_restart(state, ritz, 4, target="largest")
        assert verify_state(new, op).max_defect() < 1e-9
        jbd_expand(new, op, 7)
        assert verify_state(new, op).max_defect() < 1e-9

    def test_bad_arguments(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        with pytest.raises(ValueError):
            thick_restart(state, ritz, 7, target="largest")
        with pytest.raises(ValueError):
            thick_restart(state, ritz, 3, target="middle")
