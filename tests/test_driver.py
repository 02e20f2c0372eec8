import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irjbd.driver
import irjbd.jbd
import irjbd.restart
import irjbd.stackedls
from irjbd.bidiag import SmallGsvd, small_gsvd
from irjbd.driver import (GsvdComponent, SolverConfig, compute_residual, extract_ritz,
                          irjbd_solve, recover_component, residual_bound_pq)
from irjbd.jbd import jbd_init
from irjbd.oracle import dense_gsvd, stack_qr
from irjbd.shifts import ShiftSet
from irjbd.sparsemat import SparseMatrix, identity, second_order_L
from irjbd.stackedls import StackedOperator, lsqr_solve

from conftest import cross_residual_norm, expanded_state, gaussian_pair, starve_inner_solves


def _zero_matrix(nrows, ncols):
    return SparseMatrix.from_coo(nrows, ncols, [], [], [])


class TestRNormEstimate:
    def test_scalar_equality_case(self):
        A = SparseMatrix.from_dense([[3.0]])
        L = SparseMatrix.from_dense([[4.0]])
        assert StackedOperator(A, L).rnorm_estimate == 5.0

    def test_identity_with_zero_block(self):
        assert StackedOperator(identity(2), _zero_matrix(2, 2)).rnorm_estimate == 1.0

    def test_upper_bounds_true_norm(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 7, 6, 5)
        _, R = stack_qr(Ad, Ld)
        assert StackedOperator(A, L).rnorm_estimate >= np.linalg.norm(R, 2) - 1e-12


class TestResidualBounds:
    @staticmethod
    def _small(c, s, p_last, pbar_last, k=4):
        """Extraction data of one component whose left vectors end in p_last, pbar_last."""
        P = np.zeros((k + 1, 1))
        P[-1] = p_last
        Pbar = np.zeros((k, 1))
        Pbar[-1] = pbar_last
        return SmallGsvd(C=np.array([c]), S=np.array([s]), W=np.zeros((k, 1)), P=P,
                         Pbar=Pbar)

    def test_converged_limit_is_zero(self):
        small = self._small(0.8, 0.6, 0.0, 0.0)
        assert residual_bound_pq(small, 0.3, 0.2).tolist() == [0.0]

    def test_forms_agree_on_live_factors(self, rng):
        # the pq form and the w form alpha_next * beta_next / (c s) * |w[-1]|
        # are algebraically identical on a genuine state
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        sg = small_gsvd(state.Bdense, state.Bbardense)
        beta_next = float(state.Bdense[7, 6])
        pq = residual_bound_pq(sg, state.alpha_next, state.betabar)
        wf = np.abs(state.alpha_next * beta_next / (sg.C * sg.S) * sg.W[-1])
        assert pq.shape == (sg.k,)
        assert np.all(np.abs(pq - wf) < 1e-12)

    def test_entries_equal_the_scalar_formula(self, rng):
        # each entry is |s alpha p[-1] - c betabar pbar[-1]| evaluated in
        # scalar float arithmetic, bit for bit
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        sg = small_gsvd(state.Bdense, state.Bbardense)
        alpha, betabar = state.alpha_next, state.betabar
        scalar = [abs(float(sg.S[i]) * alpha * sg.P[-1, i] - float(sg.C[i]) * betabar
                      * sg.Pbar[-1, i]) for i in range(sg.k)]
        assert residual_bound_pq(sg, alpha, betabar).tolist() == scalar


class TestConvergenceFlags:
    def test_flags_follow_tolerance(self, rng):
        # a tolerance between the bounds flags exactly those below it
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        bounds = np.sort(extract_ritz(state, SolverConfig(target=2, kmax=7)).bounds)
        tol = float(np.sqrt(bounds[2] * bounds[3]))
        ritz = extract_ritz(state, SolverConfig(target=2, kmax=7, tol=tol))
        assert ritz.converged.tolist() == [b < tol for b in ritz.bounds]
        assert np.count_nonzero(ritz.converged) == 3

    def test_tolerance_below_machine_precision_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(target=2, kmax=5, tol=1e-17)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # nan would run the whole restart budget; inf would label every
        # component converged at the first extraction
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(target=2, kmax=5, tol=tol)

    def test_negative_seed_rejected(self):
        # numpy's default_rng would raise it from inside the solve instead
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SolverConfig(target=2, kmax=5, seed=-1)


class TestResiduals:
    def test_exact_component_has_zero_residual(self):
        Ad = np.diag([2.0])
        Ld = np.diag([1.0])
        ref = dense_gsvd(Ad, Ld)
        comp = GsvdComponent(c=float(ref.C[0]), s=float(ref.S[0]), x=ref.X[:, 0],
                             y=ref.PA[:, 0], z=ref.PL[:, 0])
        A, L = SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)
        assert compute_residual(comp, A, L, StackedOperator(A, L).rnorm_estimate) < 1e-12

    def test_first_two_blocks_vanish_on_recovered_components(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 12, 11, 8)
        res = irjbd_solve(A, L, SolverConfig(target=2, kmax=8, tol=1e-8, seed=5))
        assert res.status == "converged"
        for comp in res.components:
            r1 = A.matvec(comp.x) - comp.c * comp.y
            r2 = L.matvec(comp.x) - comp.s * comp.z
            assert np.linalg.norm(r1) < 1e-10
            assert np.linalg.norm(r2) < 1e-10

    def test_cross_form_identity(self, rng):
        # the cross-product residual equals the third block of the stacked one
        Ad, Ld, A, L = gaussian_pair(rng, 12, 11, 8)
        res = irjbd_solve(A, L, SolverConfig(target=2, kmax=8, tol=1e-8, seed=5))
        for comp in res.components:
            r3 = comp.s * A.matvec_transpose(comp.y) - comp.c * L.matvec_transpose(comp.z)
            cross = cross_residual_norm(comp, A, L)
            assert abs(cross - np.linalg.norm(r3)) < 1e-12


class TestRecovery:
    def test_single_column_pair(self):
        A = SparseMatrix.from_dense([[2.0]])
        L = SparseMatrix.from_dense([[1.0]])
        res = irjbd_solve(A, L, SolverConfig(target=1, kmax=2, tol=1e-8, seed=0))
        comp = res.components[0]
        np.testing.assert_allclose(comp.c, 2.0 / np.sqrt(5.0), atol=1e-12)
        np.testing.assert_allclose(comp.s, 1.0 / np.sqrt(5.0), atol=1e-12)
        np.testing.assert_allclose(abs(comp.x[0]), 1.0 / np.sqrt(5.0), atol=1e-10)
        np.testing.assert_allclose(A.matvec(comp.x), comp.c * comp.y, atol=1e-12)

    def test_left_vectors_are_unit(self, rng):
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        cfg = SolverConfig(target=2, kmax=7, tol=1e-8)
        ritz = extract_ritz(state, cfg)
        for i in range(3):
            comp = recover_component(state, op, ritz, i)
            np.testing.assert_allclose(np.linalg.norm(comp.y), 1.0, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(comp.z), 1.0, atol=1e-12)

    def test_recovery_makes_no_inner_solve(self, rng):
        # x comes from the kept preimages: [A; L] x = Vprime w with no LSQR call
        state, op, _, _ = expanded_state(rng, 16, 14, 10, 7)
        cfg = SolverConfig(target=2, kmax=7, tol=1e-8)
        ritz = extract_ritz(state, cfg)
        before = (op.iterations, op.failures)
        for i in range(ritz.k):
            comp = recover_component(state, op, ritz, i)
            image = state.Vprime @ ritz.small.W[:, i]
            assert np.linalg.norm(op.apply(comp.x) - image) <= 1e-13 * np.linalg.norm(image)
        assert (op.iterations, op.failures) == before

    def test_quintuples_match_dense_oracle(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 10, 9, 6)
        ref = dense_gsvd(Ad, Ld)
        res = irjbd_solve(A, L, SolverConfig(target=2, kmax=6, tol=1e-8, seed=2))
        sl = ref.nontrivial_slice()
        for j, comp in enumerate(res.components):
            np.testing.assert_allclose(comp.c, ref.C[sl][j], rtol=1e-6)
            for got, want in ((comp.x, ref.X[:, sl][:, j]),
                              (comp.y, ref.PA[:, sl][:, j]),
                              (comp.z, ref.PL[:, sl][:, j])):
                err = min(np.linalg.norm(got - want), np.linalg.norm(got + want))
                assert err < 1e-6


class TestSolverLoop:
    def test_diagonal_pair_closed_form(self):
        A = SparseMatrix.from_dense(np.diag([5.0, 3.0, 1.0]))
        res = irjbd_solve(A, identity(3), SolverConfig(target=1, kmax=3, tol=1e-8, seed=0))
        assert res.status == "converged"
        assert res.restarts == 0
        np.testing.assert_allclose(res.components[0].c, 5.0 / np.sqrt(26.0), atol=1e-12)
        np.testing.assert_allclose(res.components[0].value, 5.0, atol=1e-10)

    def test_history_bookkeeping(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 24, 22, 16)
        cfg = SolverConfig(target=2, kmax=8, tol=1e-8, seed=1, maxit=200)
        res = irjbd_solve(A, L, cfg)
        assert res.status == "converged"
        assert len(res.history) == res.restarts + 1
        assert len(res.history) <= cfg.maxit + 1
        iters = [rec.lsqr_iters_total for rec in res.history]
        assert all(b >= a for a, b in zip(iters, iters[1:]))
        assert len(res.history[0].shifts_used) == 0
        assert res.history[0].kept == 0
        # a restart keeps more columns once wanted values converge, so the
        # shift count follows each record's kept, not the base l + adjust
        for rec in res.history[1:]:
            assert 2 + cfg.adjust <= rec.kept < cfg.kmax
            assert len(rec.shifts_used) == cfg.kmax - rec.kept

    def test_smallest_mode_orders_smallest_first(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 20, 18, 12)
        res = irjbd_solve(A, L, SolverConfig(target=-3, kmax=10, tol=1e-8, seed=3,
                                             maxit=300))
        # the label rests on the recovered residuals; the values themselves
        # must match the dense reference either way
        assert res.status in ("converged", "unreliable")
        cs = [c.c for c in res.components]
        assert cs == sorted(cs)
        ref = dense_gsvd(Ad, Ld)
        np.testing.assert_allclose(cs, sorted(ref.C[ref.nontrivial_slice()])[:3],
                                   rtol=1e-6)

    def test_bound_validity_on_well_conditioned_exit(self, rng):
        # the inverse-norm diagnostic stays bounded only for flat full-row-rank
        # A with full-column-rank L, so that is the regime where the bounds
        # must dominate the actual residuals
        m, n = 30, 40
        Ad = rng.standard_normal((m, n))
        A = SparseMatrix.from_dense(Ad)
        res = irjbd_solve(A, identity(n), SolverConfig(target=2, kmax=10, tol=1e-8,
                                                       seed=4, maxit=400))
        assert res.status == "converged"
        assert res.history[-1].diag_product < 1e4
        for comp in res.components:
            assert comp.relative_residual <= comp.bound * 1.01 + 1e-12

    def test_determinism_for_fixed_seed(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 18, 16, 12)
        cfg = SolverConfig(target=2, kmax=9, tol=1e-8, seed=11, maxit=200)
        r1 = irjbd_solve(A, L, cfg)
        r2 = irjbd_solve(A, L, cfg)
        assert r1.restarts == r2.restarts
        for c1, c2 in zip(r1.components, r2.components):
            assert c1.c == c2.c and c1.s == c2.s
            np.testing.assert_array_equal(c1.x, c2.x)

    def test_maxit_zero_reports_partial(self, rng):
        Ad, Ld, A, L = gaussian_pair(rng, 24, 22, 16)
        res = irjbd_solve(A, L, SolverConfig(target=2, kmax=8, tol=1e-12, seed=1,
                                             maxit=0))
        assert res.status == "maxit_exhausted"
        assert len(res.components) == 2

    def test_flat_pair_converges_through_left_closure(self, rng):
        # the left space of a flat A closes square before kmax; the run then
        # carries exact data and must converge with zero restarts
        Ad, Ld, A, L = gaussian_pair(rng, 6, 12, 10)
        ref = dense_gsvd(Ad, Ld)
        refC = ref.C[ref.nontrivial_slice()]
        res = irjbd_solve(A, L, SolverConfig(target=3, kmax=8, tol=1e-8, seed=1,
                                             maxit=100))
        assert res.status == "converged"
        assert res.restarts == 0
        got = np.array([c.c for c in res.components])
        np.testing.assert_allclose(got, refC[:3], rtol=1e-10)

    def test_badly_column_scaled_pair_matches_unscaled_oracle(self):
        # right scaling by D leaves the generalized values unchanged, so the
        # unscaled pair is the reference; graded columns must not stall the
        # inner solves
        rng = np.random.default_rng(5)
        n = 60
        Ad = rng.standard_normal((90, n))
        Ld = second_order_L(n).to_dense()
        d = 10.0 ** np.linspace(-3, 3, n)
        res = irjbd_solve(SparseMatrix.from_dense(Ad * d), SparseMatrix.from_dense(Ld * d),
                          SolverConfig(target=3, kmax=12, tol=1e-8, seed=1, maxit=300))
        assert res.status == "converged"
        assert res.lsqr_failures == 0
        ref = dense_gsvd(Ad, Ld)
        np.testing.assert_allclose([c.c for c in res.components],
                                   ref.C[ref.nontrivial_slice()][:3], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("target", [3, -3])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_inner_tolerance_follows_tol(self, monkeypatch, target, tol):
        # on the diagonal preconditioner, where an inner solve takes tens of
        # iterations, the inner tolerance derived from tol saves some of
        # them; the restarts, the values and the certification stay as with
        # every inner solve run to 10 eps
        monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        rng = np.random.default_rng(0)
        Ad, Ld = rng.standard_normal((60, 40)), second_order_L(40).to_dense()
        A, L = SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)
        cfg = SolverConfig(target=target, kmax=12, tol=tol, seed=1, maxit=300)
        res = irjbd_solve(A, L, cfg)
        monkeypatch.setattr(StackedOperator, "default_tol",
                            staticmethod(lambda _: 10 * irjbd.driver.EPS))
        floor = irjbd_solve(A, L, cfg)
        assert res.status == floor.status == "converged"
        ref = dense_gsvd(Ad, Ld)
        want = ref.C[ref.nontrivial_slice()]
        want = want[:3] if target > 0 else want[::-1][:3]
        np.testing.assert_allclose([c.c for c in res.components], want, rtol=0, atol=1e-12)
        assert all(c.relative_residual <= tol for c in res.components)
        assert res.lsqr_iterations < floor.lsqr_iterations
        assert res.restarts == floor.restarts

    def test_lsqr_counts_include_recovery(self, rng, monkeypatch):
        """The result counts every inner solve of the run; recovery adds none."""
        # every inner solve goes through the name bound in jbd (the driver's
        # binding is patched too, so a solve made there would be seen); the
        # result must count them all
        seen = []

        def counting(op, rhs):
            out = lsqr_solve(op, rhs)
            seen.append(out)
            return out

        monkeypatch.setattr(irjbd.jbd, "lsqr_solve", counting)
        monkeypatch.setattr(irjbd.driver, "lsqr_solve", counting)
        # the diagonal preconditioner: under the factored one every solve
        # converges in one or two iterations and no cap makes it fail
        monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        _, _, A, L = gaussian_pair(rng, 24, 22, 16)
        # a tight inner cap makes some solves fail, so both counts are exercised
        starve_inner_solves(monkeypatch, 12)
        res = irjbd_solve(A, L, SolverConfig(target=2, kmax=8, tol=1e-10, seed=3,
                                             maxit=50))
        assert len(seen) > len(res.components) == 2
        assert res.lsqr_failures > 0
        assert res.lsqr_iterations == sum(out.iterations for out in seen)
        assert res.lsqr_failures == sum(not out.converged for out in seen)
        # recovery makes no inner solve, and this run ends at an extraction
        assert res.history[-1].lsqr_iters_total == res.lsqr_iterations

    def test_inner_failures_named_in_message(self, rng, monkeypatch):
        # one LSQR iteration per solve cannot converge; the solve must still
        # end cleanly and say why (on the diagonal preconditioner: under the
        # factored one a single iteration converges)
        monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        starve_inner_solves(monkeypatch, 1)
        A = SparseMatrix.from_dense(rng.standard_normal((60, 40)))
        res = irjbd_solve(A, second_order_L(40), SolverConfig(target=3, kmax=10))
        assert res.lsqr_failures > 0
        assert res.status != "converged"
        assert f"{res.lsqr_failures} inner least-squares solves did not converge" \
            in res.message

    @pytest.mark.parametrize("mode", ["implicit", "thick"])
    @pytest.mark.parametrize("lsqr_maxit", [1, 2, 3, 4])
    def test_refused_restart_is_not_counted(self, rng, monkeypatch, mode, lsqr_maxit):
        # starved inner solves leave off-pattern noise in the factors; every
        # restart, in both modes, refuses such a pair, and the run must end
        # on its one extraction instead of counting the refused restart and
        # re-recording that extraction under the restart's shifts
        monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        starve_inner_solves(monkeypatch, lsqr_maxit)
        A = SparseMatrix.from_dense(rng.standard_normal((60, 40)))
        res = irjbd_solve(A, second_order_L(40), SolverConfig(
            target=3, kmax=10, maxit=20, restart_mode=mode))
        assert len(res.history) == res.restarts + 1
        assert [rec.restart_index for rec in res.history] == list(range(res.restarts + 1))
        assert res.history[-1].lsqr_iters_total == res.lsqr_iterations
        assert res.status == "breakdown"
        assert "too degraded" in res.message
        assert res.restarts == 0

    @pytest.mark.parametrize("mode", ["implicit", "thick"])
    def test_start_breakdown_ends_before_any_extraction(self, mode):
        # with L = 0 the first right vector has no lower block: the first
        # expansion step breaks down at k == 0, after the one inner solve
        res = irjbd_solve(identity(2), SparseMatrix.from_coo(2, 2, [], [], []),
                          SolverConfig(target=1, kmax=2, restart_mode=mode))
        assert res.status == "breakdown"
        assert res.message == "joint bidiagonalization breakdown: alphahat_1 = 0.000e+00"
        assert res.components == [] and res.history == []
        assert res.lsqr_iterations == 1

    def test_thick_restart_replaces_no_shift(self):
        # twenty values clustered within 4e-4 of 1 lie above 100 spread ones:
        # the adaptive rule fires here, but only the implicit sweep applies
        # shifts, so a thick record keeps the purged unwanted values (all
        # positive, where the rule's replacement is 0)
        d = np.concatenate([1.0 - 2e-5 * np.arange(20), np.linspace(0.5, 0.01, 100)])
        A, L = SparseMatrix.from_dense(np.diag(d)), identity(120)
        for seed in range(3):
            res = irjbd_solve(A, L, SolverConfig(target=3, kmax=12, tol=1e-8, seed=seed,
                                                 restart_mode="thick"))
            assert res.status == "converged"
            assert all(rec.shifts_replaced == 0 for rec in res.history)
            assert all(np.all(rec.shifts_used > 0.0) for rec in res.history[1:])
        res = irjbd_solve(A, L, SolverConfig(target=3, kmax=12, tol=1e-8, maxit=10))
        assert any(rec.shifts_replaced > 0 for rec in res.history)

    def test_effective_adjust_clamps_for_short_kmax(self):
        cfg = SolverConfig(target=3, kmax=4, tol=1e-8)
        assert cfg.effective_adjust() == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(target=0, kmax=5)
        with pytest.raises(ValueError):
            SolverConfig(target=5, kmax=5)
        with pytest.raises(ValueError):
            SolverConfig(target=2, kmax=6, restart_mode="explicit")


class TestAdaptiveKeep:
    """A restart keeps l + adjust + min(nconv, nshifts // 2) columns."""

    @staticmethod
    def spy_restarts(monkeypatch):
        """Record every restart call the driver makes, with its sizes.

        Each entry is (k, keep, r) and how often the call ran the degraded-
        pair check, the companion QR and the state build.
        """
        calls = []
        inner = Counter()
        real_thick = irjbd.driver.thick_restart

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                inner[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("_refuse_degraded", "_signed_qr"):
            monkeypatch.setattr(irjbd.restart, name, counted(name, getattr(irjbd.restart, name)))
        monkeypatch.setattr(irjbd.jbd.JbdState, "restarted",
                            counted("restarted", irjbd.jbd.JbdState.restarted))

        def spy_thick(state, ritz, keep, shifts=()):
            inner.clear()
            try:
                return real_thick(state, ritz, keep, shifts)
            finally:
                calls.append((state.k, keep, len(shifts), dict(inner)))

        monkeypatch.setattr(irjbd.driver, "thick_restart", spy_thick)
        return calls

    @staticmethod
    def expected_calls(res, kmax):
        # one call per restart truncates the full state onto keep + r
        # triplets, r being the shifts the adaptive rule replaced (none in
        # thick mode), and sweeps those r shifts down to keep; it checks the
        # pair, takes the companion QR and builds the state once each
        once = {"_refuse_degraded": 1, "_signed_qr": 1, "restarted": 1}
        expected = []
        for rec in res.history[1:]:
            assert len(rec.shifts_used) == kmax - rec.kept
            expected.append((kmax, rec.kept, rec.shifts_replaced, once))
        return expected

    @pytest.mark.parametrize("mode", ["implicit", "thick"])
    def test_restarts_receive_the_grown_keep(self, mode, monkeypatch):
        calls = self.spy_restarts(monkeypatch)
        _, _, A, L = gaussian_pair(np.random.default_rng(1), 40, 36, 30)
        cfg = SolverConfig(target=3, kmax=10, adjust=1, tol=1e-8, seed=1, maxit=300,
                           restart_mode=mode)
        res = irjbd_solve(A, L, cfg)
        assert res.status == "converged"
        assert res.restarts > 0
        nshifts = cfg.kmax - 3 - cfg.adjust
        for i in range(res.restarts):
            # the extraction before restart i is history[i]; the record after
            # it names the keep of restart i
            nconv = int(np.count_nonzero(res.history[i].bounds < cfg.tol))
            assert res.history[i + 1].kept == 3 + cfg.adjust + min(nconv, nshifts // 2)
        assert calls == self.expected_calls(res, cfg.kmax)
        # this pair converges its wanted values one by one, so the rule grows
        assert max(rec.kept for rec in res.history) > 3 + cfg.adjust

    def test_replaced_shifts_are_swept_after_truncation(self, monkeypatch):
        # on the clustered diagonal pair the adaptive rule replaces one to
        # five of the six shifts from the fifth restart on
        calls = self.spy_restarts(monkeypatch)
        d = np.concatenate([1.0 - 2e-5 * np.arange(20), np.linspace(0.5, 0.01, 100)])
        A, L = SparseMatrix.from_dense(np.diag(d)), identity(120)
        res = irjbd_solve(A, L, SolverConfig(target=3, kmax=12, tol=1e-8, maxit=10))
        assert res.restarts == 10
        assert calls == self.expected_calls(res, 12)
        # some restarts both truncate and sweep
        assert any(r and keep + r < k for k, keep, r, _ in calls)

    def test_every_shift_replaced_truncates_nothing(self, monkeypatch):
        # when the rule replaces every shift there is nothing to truncate:
        # each restart keeps every triplet and sweeps every shift
        calls = self.spy_restarts(monkeypatch)
        monkeypatch.setattr(irjbd.driver, "apply_adaptive_rule", lambda shifts, ritz, l: ShiftSet(
            np.zeros(len(shifts)), np.ones(len(shifts), dtype=bool)))
        _, _, A, L = gaussian_pair(np.random.default_rng(1), 40, 36, 30)
        res = irjbd_solve(A, L, SolverConfig(target=3, kmax=10, tol=1e-8, seed=1, maxit=5))
        assert res.restarts == 5
        assert calls == self.expected_calls(res, 10)
        assert all(keep + r == k for k, keep, r, _ in calls)

    @given(st.integers(-12, 12).filter(bool), st.integers(0, 30), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_at_least_one_shift_always_remains(self, target, extra, adjust):
        l = abs(target)
        cfg = SolverConfig(target=target, kmax=l + 1 + extra, adjust=adjust)
        base = l + cfg.effective_adjust()
        nshifts = cfg.kmax - base
        kept = [cfg.kept_columns(nconv) for nconv in range(l + 1)]
        assert kept[0] == base
        assert all(b - a in (0, 1) for a, b in zip(kept, kept[1:]))
        for keep in kept:
            assert keep < cfg.kmax
            assert cfg.kmax - keep >= (nshifts + 1) // 2 >= 1


class TestTrivialComponentHandling:
    @staticmethod
    def rank_deficient_pair(rng, n=14, sigma_floor=0.0):
        # square A with a one-dimensional null space; L keeps the pair regular
        M = rng.standard_normal((n, n))
        u, s, vt = np.linalg.svd(M)
        s = sigma_floor + s
        s[-1] = 0.0
        Ad = u @ np.diag(s) @ vt
        return Ad, np.eye(n), u[:, -1]

    def test_left_angle_starts_at_seed_overlap(self, rng):
        # at k = 0 the whole overlap with the unreachable left direction comes
        # from the starting vector itself
        Ad, Ld, p0 = self.rank_deficient_pair(rng)
        A, L = SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)
        op = StackedOperator(A, L)
        gen = np.random.default_rng(0)
        u1 = gen.standard_normal(14)
        u1 /= np.linalg.norm(u1)
        state = jbd_init(op, u1, capacity=10)
        sin_seed = np.sqrt(1.0 - (p0 @ u1) ** 2)
        U = state.U
        sin_state = np.linalg.norm(p0 - U @ (U.T @ p0))
        np.testing.assert_allclose(sin_state, sin_seed, atol=1e-12)

    def test_zero_value_chaser_never_flags_converged(self, rng):
        # large nontrivial values force the smallest-mode run to hunt the
        # trivial zero component; whatever it finds there must not be
        # reported as converged
        Ad, Ld, p0 = self.rank_deficient_pair(rng, sigma_floor=3.0)
        A, L = SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)
        res = irjbd_solve(A, L, SolverConfig(target=-1, kmax=8, tol=1e-8, seed=0,
                                             maxit=40))
        comp = res.components[0]
        assert not comp.converged
        assert res.status != "converged"


_DEGENERATE_KINDS = ["A = 0", "L = 0", "empty", "shared-empty", "subnormal", "huge",
                     "[I 0] over I"]


def _degenerate_pair(kind, gen, n=30):
    """(Ad, Ld) for a 30-column pair of one degenerate kind.

    A is 40 x n and L n x n, both Gaussian, except: A = 0; L = 0; a few
    columns of A empty; a few columns empty in both blocks; a few columns
    scaled by 1e-310 into the subnormals in both; one column of A scaled
    by 1e200; or A = [I_10 0] (10 x n) with L = I.
    """
    Ad, Ld = gen.standard_normal((40, n)), gen.standard_normal((n, n))
    cols = gen.choice(n, size=3, replace=False)
    if kind == "A = 0":
        Ad[:] = 0.0
    elif kind == "L = 0":
        Ld[:] = 0.0
    elif kind == "empty":
        Ad[:, cols] = 0.0
    elif kind == "shared-empty":
        Ad[:, cols] = 0.0
        Ld[:, cols] = 0.0
    elif kind == "subnormal":
        Ad[:, cols] *= 1e-310
        Ld[:, cols] *= 1e-310
    elif kind == "huge":
        Ad[:, cols[0]] *= 1e200
    else:
        Ad, Ld = np.eye(10, n), np.eye(n)
    return Ad, Ld


class TestDegenerateSolves:
    # every degenerate pair ends in a status label: no exception from deep
    # inside the solver, and no warning from the operator's defect estimate

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(_DEGENERATE_KINDS), seed=st.integers(0, 2**32 - 1),
           target=st.sampled_from([3, -3]), mode=st.sampled_from(["implicit", "thick"]))
    def test_every_draw_ends_in_a_status(self, kind, seed, target, mode):
        Ad, Ld = _degenerate_pair(kind, np.random.default_rng(seed))
        A, L = SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = irjbd_solve(A, L, SolverConfig(target=target, kmax=12, maxit=50, seed=seed,
                                                 restart_mode=mode))
        assert res.status in ("converged", "unreliable", "maxit_exhausted", "breakdown")
        assert res.lsqr_defect > 0.0


@pytest.fixture(scope="class")
def scaled_pair_run():
    """Solves of the scaled pair at alpha = 2^k, each made once per class.

    A is an 80 x 60 and L a 70 x 60 Gaussian, both times alpha.
    """
    runs = {}

    def run(k, target, mode):
        if (k, target, mode) not in runs:
            gen = np.random.default_rng(3)
            Ad, Ld = gen.standard_normal((80, 60)), gen.standard_normal((70, 60))
            alpha = 2.0 ** k
            runs[k, target, mode] = irjbd_solve(
                SparseMatrix.from_dense(alpha * Ad), SparseMatrix.from_dense(alpha * Ld),
                SolverConfig(target=target, kmax=15, seed=1, restart_mode=mode))
        return runs[k, target, mode]
    return run


class TestCommonScale:
    # the GSVD of {alpha A, alpha L} is that of {A, L}, and for alpha a power
    # of two every product, inner solve and small factor scales exactly

    @pytest.mark.parametrize("mode", ["implicit", "thick"])
    @pytest.mark.parametrize("target", [3, -3])
    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_run_is_bitwise_that_at_unit_scale(self, scaled_pair_run, k, target, mode):
        ref, res = scaled_pair_run(0, target, mode), scaled_pair_run(k, target, mode)
        assert res.restarts == ref.restarts
        assert res.lsqr_iterations == ref.lsqr_iterations
        assert [comp.c for comp in res.components] == [comp.c for comp in ref.components]
        assert res.status == ref.status

    @pytest.mark.parametrize("mode", ["implicit", "thick"])
    @pytest.mark.parametrize("target", [3, -3])
    def test_status_at_tiny_scale(self, scaled_pair_run, target, mode):
        # each residual block is measured against its own scale, so the
        # recovered relative residual, and with it the status, does not move
        assert scaled_pair_run(-40, target, mode).status == scaled_pair_run(0, target, mode).status

    @pytest.mark.parametrize("mode", ["implicit", "thick"])
    @pytest.mark.parametrize("target", [3, -3])
    @pytest.mark.parametrize("k", [-1000, -540, 520, 1000])
    def test_status_and_restarts_at_extreme_scale(self, scaled_pair_run, k, target, mode):
        # near the ends of the float range the norm estimate's products
        # underflow or the residual's squares would overflow; the last bits
        # of c may differ there, so only the label and the restarts are held
        ref, res = scaled_pair_run(0, target, mode), scaled_pair_run(k, target, mode)
        assert res.status == ref.status
        assert res.restarts == ref.restarts
