from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irjbd.bidiag import small_gsvd
from irjbd.driver import SolverConfig, extract_ritz
from irjbd.jbd import jbd_expand, jbd_init
from irjbd.oracle import stack_qr
from irjbd.restart import CouplingDefectError, accumulate_sweeps, thick_restart

from conftest import (bidiagonal_parts, expanded_state, explicit_shifted_qr,
                      lower_bidiagonal_pair, reduced_pair, reference_sweeps, rotation_band_defect,
                      rotation_orthogonality_defect, swept_pair, verify_state)
from test_bidiag import random_joint_factors

EPS = float(np.finfo(np.float64).eps)


def random_lower_pair(rng, k):
    return lower_bidiagonal_pair(0.2 + rng.random(k), 0.2 + rng.random(k))


def joint_identity_defect(B, Bbar):
    return float(np.max(np.abs(B.T @ B + Bbar.T @ Bbar - np.eye(B.shape[1]))))


def assert_canonical_companion(Bbar):
    # a restart's companion is an R factor kept whole: nonnegative diagonal,
    # exactly upper triangular, bidiagonal up to rounding
    assert np.all(np.diagonal(Bbar) >= 0.0)
    assert not np.any(np.tril(Bbar, -1))
    bidiagonal_parts(Bbar, upper=True)


class TestLowerSweep:
    def test_zero_shift_similarity(self):
        B, _ = lower_bidiagonal_pair([0.6, 0.8], [0.3, 0.2])
        Bp, _, P = accumulate_sweeps(B, [0.0])
        lhs = Bp.T @ Bp
        rhs = P.T @ (B.T @ B) @ P
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_transform_consistency(self, rng):
        B, _ = random_lower_pair(rng, 6)
        lam = 0.4
        Bp, G, P = accumulate_sweeps(B, [lam])
        np.testing.assert_allclose(Bp, G.T @ B @ P, atol=1e-13)
        np.testing.assert_allclose(G.T @ G, np.eye(7), atol=1e-13)
        np.testing.assert_allclose(P.T @ P, np.eye(6), atol=1e-13)

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_left_transform_matches_explicit_qr(self, rng, k):
        # accumulated G vs the Householder Q-factor of B B^T - lam^2 I,
        # equal up to a column sign diagonal
        B, _ = random_lower_pair(rng, k)
        for lam in (0.0, 0.35, 0.9):
            G = accumulate_sweeps(B, [lam])[1]
            Qr, _ = explicit_shifted_qr(B @ B.T, lam**2)
            signs = np.sign(np.diagonal(G.T @ Qr))
            np.testing.assert_allclose(G, Qr * signs[None, :], atol=1e-12)

    def test_recombination_matches_shifted_qr_step(self, rng):
        # B' B'^T equals the R Q + shift recombination of the explicit step
        B, _ = random_lower_pair(rng, 5)
        lam = 0.5
        Bp, G, _ = accumulate_sweeps(B, [lam])
        Qr, Rr = explicit_shifted_qr(B @ B.T, lam**2)
        signs = np.sign(np.diagonal(G.T @ Qr))
        D = np.diag(signs)
        recombined = D @ Rr @ Qr @ D + lam**2 * np.eye(6)
        np.testing.assert_allclose(Bp @ Bp.T, recombined, atol=1e-12)

    def test_k4_stays_lower_bidiagonal(self, rng):
        B, _ = random_lower_pair(rng, 4)
        Bp, _, _ = accumulate_sweeps(B, [0.6])
        bidiagonal_parts(Bp, tol=0.0)

    def test_shift_out_of_range(self, rng):
        with pytest.raises(ValueError):
            accumulate_sweeps(random_lower_pair(rng, 4)[0], [1.5])
        # a square B is rejected before any sweep, even with no shifts
        B, _ = random_lower_pair(rng, 4)
        with pytest.raises(ValueError, match=r"\(k\+1\) x k"):
            accumulate_sweeps(B[:4], [])

    def test_reduced_input_sweeps_cleanly(self):
        # composed exact-shift sweeps must tolerate a vanished coupling
        B, Bbar = lower_bidiagonal_pair([0.6, 0.0, 0.5], [0.3, 0.2, 0.4])
        Bp, _, G, P, Gbar = swept_pair(B, Bbar, [0.3])
        assert rotation_orthogonality_defect((G, P, Gbar)) < 1e-13
        assert rotation_band_defect((G, P, Gbar), 1) == 0.0
        assert np.linalg.norm(Bp - G.T @ B @ P) < 1e-13


class TestCoupledSweep:
    def test_joint_identity_preserved(self, rng):
        B, Bbar = random_joint_factors(rng, 14, 12, 10, 6)
        lam = 0.45
        Bp, Bbarp, *_ = swept_pair(B, Bbar, [lam])
        gram = Bp.T @ Bp + Bbarp.T @ Bbarp
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_k4_shape_matches_coupled_diagram(self, rng):
        B, Bbar = random_joint_factors(rng, 10, 9, 7, 4)
        _, Bbarp, *_ = swept_pair(B, Bbar, [0.3])
        assert_canonical_companion(Bbarp)

    @pytest.mark.parametrize("rule, k, draw", [("exact", 20, 0), ("exact", 40, 54),
                                               ("exact", 60, 91), ("random", None, 239),
                                               ("random", None, 1460)])
    def test_accurate_pair_restarts(self, rule, k, draw):
        # accurate pairs that a companion chase with a zeroing threshold
        # could not restart as accurately as they came in: with exact shifts
        # the rotation-by-rotation chase left a residue above its threshold
        # (3.8e-13 at k = 20); with random shifts, dropping R's entries
        # beyond the superdiagonal raised on draw 239 (k = 26, one shift) and
        # let the defect of draw 1460 (k = 24, 12 shifts) grow 50-fold.  One
        # QR of Bbar P, kept whole, restores the companion
        if rule == "exact":
            rng = np.random.default_rng(1000 * k + draw)
        else:
            rng = np.random.default_rng(draw)
            k = int(rng.integers(2, 31))
        B, Bbar = random_joint_factors(rng, k + 4, k + 3, k + 2, k)
        if rule == "exact":
            shifts = small_gsvd(B, Bbar).C[k - k // 2:]
        else:
            shifts = rng.random(int(rng.integers(1, k + 1)))
        Bp, Bbarp, *_ = swept_pair(B, Bbar, shifts)
        assert (joint_identity_defect(Bp, Bbarp)
                <= 8.0 * max(joint_identity_defect(B, Bbar), EPS))


class TestAccumulatedSweeps:
    def test_band_structure_and_orthogonality(self, rng):
        B, Bbar = random_joint_factors(rng, 16, 14, 12, 8)
        shifts = [0.2, 0.5, 0.7]
        transforms = swept_pair(B, Bbar, shifts)[2:]
        assert rotation_orthogonality_defect(transforms) < 1e-13
        assert rotation_band_defect(transforms, len(shifts)) == 0.0

    def test_factors_exactly_bidiagonal(self, rng):
        B, Bbar = random_joint_factors(rng, 16, 14, 12, 8)
        Bp, Bbarp, *_ = swept_pair(B, Bbar, [0.3, 0.6])
        bidiagonal_parts(Bp, tol=0.0)
        assert_canonical_companion(Bbarp)


class TestScalarChase:
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1),
           st.sampled_from(["cholesky", "reduced", "lanczos"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_rotations(self, k, seed, kind, data):
        # the scalar chase runs the dense reference's arithmetic on the band
        # entries of B only, and turns G and P by the reference's column
        # rotations, so B', G and P agree bit for bit.  The companion
        # comes from one QR of Bbar P instead of the reference's chase, so
        # Bbar' and Gbar agree up to one sign per row of Bbar' (and column of
        # Gbar): over 4,000 draws of each kind the gap was at most 1.8e-15
        # (cholesky, reduced) and 4.7e-11 (lanczos, on a draw whose own
        # identity defect is 1.2e-11 and where the chase, not the QR, has
        # the larger residual ||Bbar P - Gbar Bbar'||)
        rng = np.random.default_rng(seed)
        if kind == "lanczos":
            B, Bbar = random_joint_factors(rng, k + 4, k + 3, k + 2, k)
        else:
            alphas = 0.2 + rng.random(k)
            if kind == "reduced":
                alphas[rng.integers(k)] = 0.0
            B, Bbar = lower_bidiagonal_pair(alphas, 0.2 + rng.random(k))
        shifts = data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                    max_size=k))
        try:
            ref_B, ref_Bbar, ref_G, ref_P, ref_Gbar = reference_sweeps(B, Bbar, shifts)
        except CouplingDefectError as err:
            if "decoupled" not in str(err):
                with pytest.raises(CouplingDefectError) as raised:
                    swept_pair(B, Bbar, shifts)
                assert str(raised.value) == str(err)
                return
            # the chase's per-rotation residue checks end valid pairs on
            # rounding; one QR of Bbar P, kept whole, restores the companion
            # instead.  Over 4,000 lanczos draws with random shift lists its
            # output defect stayed within 4.0x the input's
            Bp, Bbarp, *_ = swept_pair(B, Bbar, shifts)
            assert (joint_identity_defect(Bp, Bbarp)
                    <= 8.0 * max(joint_identity_defect(B, Bbar), EPS))
            return
        Bp, Bbarp, G, P, Gbar = swept_pair(B, Bbar, shifts)
        for got, want in ((Bp, ref_B), (G, ref_G), (P, ref_P)):
            np.testing.assert_array_equal(got, want)
        signs = np.where(np.sum(Gbar * ref_Gbar, axis=0) < 0.0, -1.0, 1.0)
        atol = 1e-10 if kind == "lanczos" else 1e-14
        np.testing.assert_allclose(Bbarp, ref_Bbar * signs[:, None], rtol=0.0, atol=atol)
        np.testing.assert_allclose(Gbar, ref_Gbar * signs, rtol=0.0, atol=atol)


def reduced_and_chased(k, seed, l, smallest):
    """One random_joint_factors pair restarted to l columns both ways.

    ``reduced_pair`` truncates onto the l leading triplets of the
    extraction at the wanted end, and ``swept_pair`` chases the same pair
    with the other k - l values as exact shifts.  Returns the input pair and
    both (B', Bbar', G, P, Gbar) tuples.
    """
    rng = np.random.default_rng(seed)
    B, Bbar = random_joint_factors(rng, k + 4, k + 3, k + 2, k)
    ritz = small_gsvd(B, Bbar)
    if smallest:
        ritz = replace(ritz, C=ritz.C[::-1], S=ritz.S[::-1], W=ritz.W[:, ::-1],
                       P=ritz.P[:, ::-1], Pbar=ritz.Pbar[:, ::-1])
    return (B, Bbar), reduced_pair(Bbar, ritz, l), swept_pair(B, Bbar, ritz.C[l:])


class TestReduction:
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_shift_chase(self, k, seed, data, smallest):
        # truncation plus reduction and k - l exact-shift sweeps keep the same
        # subspace with the same residual direction, so by the implicit-Q
        # theorem they agree up to one sign per column of each transform.
        # Gbar and Bbar' of the reduction come from a QR of Bbar P_reduced,
        # the chase's from one of Bbar P_chased, so they check the
        # reduction's P.  The gap tracks the chase's own rounding: its
        # deflated entry B'[l, l] vanishes only in exact arithmetic.  Over
        # 60,000 draws the gap reached 6.0e-11 at the largest end and
        # 2.5e-9 at the smallest, and exceeded 4 |B'[l, l]| by 7.8e-11
        l = data.draw(st.integers(1, k - 1))
        (_, (Bp, Bbarp, rG, rP, rGbar),
         (Bc, Bbarc, cG, cP, cGbar)) = reduced_and_chased(k, seed, l, smallest)
        G, P, Gbar = cG[:, : l + 1], cP[:, :l], cGbar[:, :l]
        sg, sp, sgbar = (np.where(np.sum(got * want, axis=0) < 0.0, -1.0, 1.0)
                         for got, want in ((rG, G), (rP, P), (rGbar, Gbar)))
        atol = 2e-10 + 4.0 * abs(Bc[l, l])
        for got, want in ((rG, G * sg), (rP, P * sp), (rGbar, Gbar * sgbar),
                          (Bp, sg[:, None] * Bc[: l + 1, :l] * sp),
                          (Bbarp, sgbar[:, None] * Bbarc[:l, :l] * sp)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_identity_defect_growth(self, k, seed, data, smallest):
        # the companion comes from a QR of Bbar P and is kept whole, so the
        # reduced pair inherits the input's joint-identity defect plus the
        # rounding of the SVD, the reflectors and the QR: over 60,000 draws
        # the output defect reached 21x max(input defect, eps), on draws
        # with k <= 6 and an eps-level input defect (1.8x at most where the
        # input defect exceeded 1e-14); the clustered diagonal pair's 1,000
        # implicit restarts grew it at most 8x per restart, to 2.0e-13
        l = data.draw(st.integers(1, k - 1))
        (B, Bbar), (Bp, Bbarp, *_), _ = reduced_and_chased(k, seed, l, smallest)
        bidiagonal_parts(Bp, tol=0.0)
        assert np.all(Bp >= 0.0) and np.all(np.diagonal(Bbarp) >= 0.0)
        assert np.all(np.tril(Bbarp, -1) == 0.0)
        assert joint_identity_defect(Bp, Bbarp) <= 32.0 * max(joint_identity_defect(B, Bbar), EPS)


class TestLeftNullVector:
    @pytest.mark.parametrize("subdiagonal", ["eps", "mixed", "underflow"])
    def test_converged_ritz_values(self, rng, subdiagonal):
        # subdiagonal entries near eps, as a converged Ritz value leaves
        # them, concentrate B's left null vector on its last entries; the
        # extraction's SVD gives it as U's last column, and over 18,000
        # draws the three measures stayed within 3.7 of their unit
        for k in range(1, 31):
            e = EPS * (0.5 + 1.5 * rng.random(k))
            if subdiagonal == "mixed":
                coupled = rng.random(k) < 0.5
                e[coupled] = 0.2 + rng.random(np.count_nonzero(coupled))
            elif subdiagonal == "underflow":
                e = 1e-200 * rng.random(k)
            B, Bbar = lower_bidiagonal_pair(0.5 + 0.5 * rng.random(k), e)
            out = small_gsvd(B, Bbar)
            P, q = out.P, out.null
            assert abs(np.linalg.norm(q) - 1.0) <= 4.0 * EPS
            assert np.linalg.norm(q @ B) <= 8.0 * EPS * np.linalg.norm(B, 2)
            assert np.linalg.norm(P.T @ q) <= 8.0 * EPS


def start_filter_error(new, QA, u1, values):
    """Distance, up to sign, from the restarted start to u1 filtered at ``values``.

    The filter is the product of (Q_A Q_A^T - v^2 I) over ``values``.
    """
    expected = u1
    for v in values:
        expected = (QA @ QA.T - v**2 * np.eye(len(u1))) @ expected
    expected /= np.linalg.norm(expected)
    got = new.U[:, 0]
    return min(np.linalg.norm(got - expected), np.linalg.norm(got + expected))


class TestMultiStepRestart:
    """Restarts that sweep shifts, the paper's multi-step implicit restart."""

    def test_single_shift_filters_starting_vector(self, rng):
        state, op, Ad, Ld = expanded_state(rng, 16, 14, 10, 6)
        Q, _ = stack_qr(Ad, Ld)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        lam = float(ritz.C[-1])
        u1 = state.U[:, 0].copy()
        new = thick_restart(state, ritz, 5, [lam])
        assert start_filter_error(new, Q[:16], u1, [lam]) < 1e-8

    def test_multi_shift_polynomial_filter(self, rng):
        state, op, Ad, Ld = expanded_state(rng, 16, 14, 10, 7)
        Q, _ = stack_qr(Ad, Ld)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        shifts = ritz.C[-3:]
        u1 = state.U[:, 0].copy()
        new = thick_restart(state, ritz, 4, shifts)
        assert start_filter_error(new, Q[:16], u1, shifts) < 1e-8

    def test_truncation_and_sweeps_in_one_call(self, rng):
        # keep + r < k: the call purges the trailing k - keep - r values by
        # truncation and sweeps r non-Ritz shifts (the adaptive rule's 0 and
        # another) out of the kept part, so the start is filtered at both
        state, op, Ad, Ld = expanded_state(rng, 16, 14, 10, 7)
        Q, _ = stack_qr(Ad, Ld)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        keep, shifts = 3, [0.0, 0.35]
        u1 = state.U[:, 0].copy()
        new = thick_restart(state, ritz, keep, shifts)
        assert new.k == keep
        purged = ritz.C[keep + len(shifts):]
        assert start_filter_error(new, Q[:16], u1, list(purged) + shifts) < 1e-8
        assert verify_state(new, op).max_defect() < 1e-9
        jbd_expand(new, op, 7)
        assert verify_state(new, op).max_defect() < 1e-9

    def test_restarted_state_passes_invariants(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        new = thick_restart(state, ritz, 4, ritz.C[-3:])
        assert verify_state(new, op).max_defect() < 1e-9
        jbd_expand(new, op, 7)
        assert verify_state(new, op).max_defect() < 1e-9

    def test_restart_equivalence_with_filtered_fresh_run(self, rng):
        # the restarted bases span the same subspaces as a fresh short run
        # started from the filtered vector
        state, op, Ad, Ld = expanded_state(rng, 16, 14, 10, 6)
        Q, _ = stack_qr(Ad, Ld)
        QA = Q[:16]
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        shifts = ritz.C[-2:]
        u1 = state.U[:, 0].copy()
        l = 4
        new = thick_restart(state, ritz, l, shifts)

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

    def test_refuses_what_cannot_restart(self, rng):
        # keep < 1, keep + r > k, keep = k without a shift (nothing to
        # purge), an extraction of another size and an exhausted state
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 6)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        for keep, shifts in ((0, [0.3]), (5, [0.3, 0.4]), (6, [])):
            with pytest.raises(ValueError, match="1 <= keep < k"):
                thick_restart(state, ritz, keep, shifts)
        other = small_gsvd(state.Bdense[:6, :5], state.Bbardense[:5, :5])
        with pytest.raises(ValueError, match="extraction size"):
            thick_restart(state, other, 3)
        state.exhausted = True
        with pytest.raises(ValueError, match="exhausted"):
            thick_restart(state, ritz, 3, [0.3])

    def test_shift_count_validation(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 6)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        with pytest.raises(ValueError):
            thick_restart(state, ritz, 5, [0.3, 0.4])


class TestThickRestart:
    def test_restarted_factors_are_canonical(self, rng):
        # the reduction leaves a lower bidiagonal B with nonnegative entries,
        # an upper triangular companion that is bidiagonal up to rounding, and
        # a pending vector coupled only into the last left vector; the kept
        # values come back on re-extraction
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        new = thick_restart(state, ritz, 3)
        assert all(np.all(part >= 0.0) for part in bidiagonal_parts(new.Bdense, tol=0.0))
        assert_canonical_companion(new.Bbardense)
        again = small_gsvd(new.Bdense, new.Bbardense)
        np.testing.assert_allclose(again.C, ritz.C[:3], atol=1e-12)
        np.testing.assert_allclose(again.S, ritz.S[:3], atol=1e-12)
        # alpha shrinks by the norm of the coupling into the kept left space
        np.testing.assert_allclose(new.vp_next, state.vp_next, rtol=0, atol=1e-14)
        qfull, _ = np.linalg.qr(ritz.P, mode="complete")
        coupling = np.append(ritz.P[-1, :3], qfull[-1, -1])
        np.testing.assert_allclose(new.alpha_next, state.alpha_next * np.linalg.norm(coupling),
                                   rtol=1e-13)

    def test_expand_after_restart_only_improves_kept_values(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        kept = ritz.C[:3].copy()
        new = thick_restart(state, ritz, 3)
        jbd_expand(new, op, 7)
        again = small_gsvd(new.Bdense, new.Bbardense)
        # the kept directions remain in the grown subspace, so the leading
        # Ritz values can only move up toward the true values
        assert np.all(again.C[:3] >= kept - 1e-10)

    def test_smallest_mode_keeps_trailing_values(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        # the smallest-mode extraction hands the values over extreme-first
        smallest = extract_ritz(state, SolverConfig(target=-3, kmax=7)).small
        new = thick_restart(state, smallest, 3)
        again = small_gsvd(new.Bdense, new.Bbardense)
        np.testing.assert_allclose(again.C, ritz.C[-3:], atol=1e-12)

    def test_maps_are_banded_like_the_chase(self, rng):
        # truncation onto the kept triplets followed by the reduction gives
        # the state k - l exact-shift sweeps give, whose transforms have lower
        # bandwidth k - l: the maps thick restart applies to the bases are
        # banded too, up to rounding (at most 6e-14 over 200 Gaussian pairs)
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        new = thick_restart(state, ritz, 4)
        maps = (state.U.T @ new.U, state.Vprime.T @ new.Vprime, state.Uhat.T @ new.Uhat)
        assert [M.shape for M in maps] == [(8, 5), (7, 4), (7, 4)]
        for M in maps:
            i, j = np.indices(M.shape)
            assert np.max(np.abs(M[i - j > 3])) < 1e-12
            # within the band the maps are dense
            assert np.min(np.abs(M[i - j == 3])) > 1e-8

    def test_state_invariants_after_thick_cycle(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        new = thick_restart(state, ritz, 4)
        assert verify_state(new, op).max_defect() < 1e-9
        jbd_expand(new, op, 7)
        assert verify_state(new, op).max_defect() < 1e-9

    def test_bad_arguments(self, rng):
        state, _, _, _ = expanded_state(rng, 16, 14, 10, 7)
        ritz = small_gsvd(state.Bdense, state.Bbardense)
        with pytest.raises(ValueError):
            thick_restart(state, ritz, 7)
        with pytest.raises(ValueError):
            thick_restart(state, ritz, 0)
