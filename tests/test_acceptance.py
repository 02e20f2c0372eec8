"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  For a pair with a zero generalized singular value, the left
direction p0 of that value lies in null(Q_A^T), so the left basis meets it
through an exact identity: U_{k+1}^T p0 = (p0^T u1) x_k, where x_k is the
left null vector of the projected factor B_k with first entry 1.  The angle
from p0 to span(U_{k+1}) is therefore nonincreasing in k and its decay is
fixed by B_k alone; the left-angle check asserts exactly that.  The
companion check asserts that the solver never certifies such a component as
converged.
"""

import os
import time

import numpy as np
import pytest

from irjbd import SolverConfig, SparseMatrix, irjbd_solve
from irjbd.bidiag import small_gsvd
from irjbd.driver import extract_ritz, residual_bound_pq
from irjbd.jbd import jbd_expand, jbd_init
from irjbd.oracle import dense_gsvd, dense_joint_lanczos, explicit_shifted_qr, stack_qr
from irjbd.restart import accumulate_sweeps, multi_step_implicit_restart, thick_restart
from irjbd.shifts import apply_adaptive_rule, select_exact_shifts
from irjbd.sparsemat import identity, read_matrix_market, second_order_L
from irjbd.stackedls import StackedOperator

from conftest import bidiagonal_parts, cross_residual_norm, lower_bidiagonal_pair, verify_state


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _random_regular_pair(rng, cond_cap=1e3):
    """m, p in [6, 30], n in [4, 20], stack condition below the cap.

    m, p are kept above n so every component is nontrivial and the dense
    reference values are unambiguous.
    """
    while True:
        n = int(rng.integers(4, 21))
        m = int(rng.integers(max(6, n + 1), 31))
        p = int(rng.integers(max(6, n + 1), 31))
        Ad = rng.standard_normal((m, n))
        Ld = rng.standard_normal((p, n))
        sv = np.linalg.svd(np.vstack([Ad, Ld]), compute_uv=False)
        if sv[0] / sv[-1] <= cond_cap:
            return Ad, Ld


def _subspace_containment_angle(vectors, reference_block):
    """Largest angle from each column of ``vectors`` to span(reference_block)."""
    q, _ = np.linalg.qr(reference_block)
    worst = 0.0
    for j in range(vectors.shape[1]):
        v = vectors[:, j] / np.linalg.norm(vectors[:, j])
        resid = v - q @ (q.T @ v)
        worst = max(worst, float(np.arcsin(min(1.0, np.linalg.norm(resid)))))
    return worst


def _left_null_vector(B):
    """x with x^T B = 0 and x[0] = 1 for a (k+1) x k lower-bidiagonal B.

    Column j of B gives x[j] B[j, j] + x[j+1] B[j+1, j] = 0.
    """
    x = np.ones(B.shape[0])
    for j in range(B.shape[1]):
        x[j + 1] = -x[j] * B[j, j] / B[j + 1, j]
    return x


def _compare_component_vectors(components, ref, targeted_positions, cluster_gap=2e-3):
    """Vector agreement up to sign, with subspace containment for clusters."""
    worst = 0.0
    sl = ref.nontrivial_slice()
    refC = ref.C[sl]
    refX = ref.X[:, sl]
    refY = ref.PA[:, sl]
    refZ = ref.PL[:, sl]
    for comp, pos in zip(components, targeted_positions):
        cluster = np.flatnonzero(np.abs(refC - refC[pos]) < cluster_gap)
        for got, block in ((comp.x, refX), (comp.y, refY), (comp.z, refZ)):
            if len(cluster) == 1:
                want = block[:, pos]
                got_n = got / np.linalg.norm(got)
                want_n = want / np.linalg.norm(want)
                err = min(np.linalg.norm(got_n - want_n), np.linalg.norm(got_n + want_n))
            else:
                err = _subspace_containment_angle(got[:, None], block[:, cluster])
            worst = max(worst, float(err))
    return worst


class TestAcceptance:
    def test_oracle_equivalence_extreme_components(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst_value = 0.0
        worst_vector = 0.0
        for trial in range(50):
            Ad, Ld = _random_regular_pair(rng)
            m, n = Ad.shape
            A = SparseMatrix.from_dense(Ad)
            L = SparseMatrix.from_dense(Ld)
            ref = dense_gsvd(Ad, Ld)
            refC = ref.C[ref.nontrivial_slice()]
            kmax = min(n, 12)
            for target in (3, -3):
                cfg = SolverConfig(target=target, kmax=kmax, tol=1e-8,
                                   seed=trial, maxit=600)
                res = irjbd_solve(A, L, cfg)
                got = np.array([c.c for c in res.components])
                if target > 0:
                    want = refC[:3]
                    positions = [0, 1, 2]
                else:
                    want = refC[-3:][::-1]
                    positions = [n - 1, n - 2, n - 3]
                assert len(got) == 3, f"trial {trial} target {target}: {res.status}"
                worst_value = max(worst_value,
                                  float(np.max(np.abs(got - want) / np.abs(want))))
                worst_vector = max(worst_vector,
                                   _compare_component_vectors(res.components, ref,
                                                              positions))
        elapsed = time.perf_counter() - start
        ok = worst_value < 1e-6 and worst_vector < 1e-5 and elapsed < 30.0
        _report("oracle equivalence on 50 random pairs (largest and smallest)",
                ok, f"value rel err {worst_value:.2e}, vector err {worst_vector:.2e}, "
                    f"{elapsed:.1f}s")

    def test_jbd_process_matches_dense_two_process_factors(self):
        rng = np.random.default_rng(1002)
        worst_factor = 0.0
        worst_relation = 0.0
        for trial in range(20):
            n = int(rng.integers(6, 16))
            m = int(rng.integers(n + 2, 34))
            p = int(rng.integers(n + 2, 34))
            k = min(n - 1, int(rng.integers(4, 9)))
            Ad = rng.standard_normal((m, n))
            Ld = rng.standard_normal((p, n))
            Q, _ = stack_qr(Ad, Ld)
            u1 = rng.standard_normal(m)
            u1 /= np.linalg.norm(u1)
            op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
            state = jbd_init(op, u1, capacity=k)
            jbd_expand(state, op, k)
            B_ref, Bhat_ref, U, Uhat, V, Vhat = dense_joint_lanczos(Q[:m], Q[m:], u1, k)
            # shared-start sign relation between the two dense right bases
            signs = np.array([(-1.0) ** i for i in range(k)])
            Bhat = state.Bbardense * signs[None, :]
            b_alphas, b_betas = bidiagonal_parts(state.Bdense)
            hat_alphas, hat_betas = bidiagonal_parts(Bhat, upper=True)
            worst_factor = max(worst_factor,
                               float(np.max(np.abs(state.Bdense - B_ref))),
                               float(np.max(np.abs(Bhat - Bhat_ref))))
            worst_relation = max(worst_relation,
                                 float(np.max(np.abs(Vhat[:, :k] - V[:, :k] * signs))))
            # coupled coefficient product identity from the computed state
            worst_relation = max(worst_relation,
                                 float(np.max(np.abs(hat_alphas[:-1] * hat_betas
                                                     - b_alphas[1:] * b_betas[:-1]))))
        ok = worst_factor < 1e-8 and worst_relation < 1e-10
        _report("sparse process matches dense two-process factors on 20 pairs",
                ok, f"factor err {worst_factor:.2e}, relation err {worst_relation:.2e}")

    def test_state_invariants_across_runs_and_restarts(self):
        rng = np.random.default_rng(1003)
        worst = 0.0
        for trial in range(8):
            Ad = rng.standard_normal((24, 16))
            Ld = rng.standard_normal((22, 16))
            op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
            u1 = rng.standard_normal(24)
            u1 /= np.linalg.norm(u1)
            state = jbd_init(op, u1, capacity=10)
            jbd_expand(state, op, 10)
            worst = max(worst, verify_state(state, op).max_defect())
            ritz = small_gsvd(state.Bdense, state.Bbardense)
            if trial % 2 == 0:
                new = multi_step_implicit_restart(state, ritz.C[-4:], 6)
            else:
                new = thick_restart(state, ritz, 6, target="largest")
            worst = max(worst, verify_state(new, op).max_defect())
            jbd_expand(new, op, 10)
            worst = max(worst, verify_state(new, op).max_defect())
        ok = worst < 1e-9
        _report("state invariants below 1e-9 across expansion and both restarts",
                ok, f"max defect {worst:.2e}")

    def test_restart_correctness(self):
        rng = np.random.default_rng(1004)

        # (a) accumulated left transform vs explicit shifted QR, k <= 8
        worst_a = 0.0
        for k in (3, 5, 8):
            alphas = 0.2 + rng.random(k)
            betas = 0.2 + rng.random(k)
            B, Bbar = lower_bidiagonal_pair(alphas, betas)
            for lam in (0.0, 0.4, 0.85):
                G = accumulate_sweeps(B, Bbar, [lam])[2].G
                Qr, _ = explicit_shifted_qr(B @ B.T, lam**2)
                signs = np.sign(np.diagonal(G.T @ Qr))
                worst_a = max(worst_a, float(np.max(np.abs(G - Qr * signs[None, :]))))

        # (b) multi-step filtered-start collinearity through the dense Q factor
        worst_b = 0.0
        for trial in range(5):
            Ad = rng.standard_normal((20, 12))
            Ld = rng.standard_normal((18, 12))
            Q, _ = stack_qr(Ad, Ld)
            QA = Q[:20]
            op = StackedOperator(SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Ld))
            u1 = rng.standard_normal(20)
            u1 /= np.linalg.norm(u1)
            state = jbd_init(op, u1, capacity=8)
            jbd_expand(state, op, 8)
            shifts = small_gsvd(state.Bdense, state.Bbardense).C[-3:]
            new = multi_step_implicit_restart(state, shifts, 5)
            expected = u1
            for lam in shifts:
                expected = (QA @ QA.T - lam**2 * np.eye(20)) @ expected
            expected /= np.linalg.norm(expected)
            got = new.U[:, 0]
            worst_b = max(worst_b, min(np.linalg.norm(got - expected),
                                       np.linalg.norm(got + expected)))
            # (c) restarted states pass all invariants
            worst_b = max(worst_b, 0.0)
            assert verify_state(new, op).max_defect() < 1e-9

        # (d) coupled upper sweep agrees with an independent shifted sweep
        worst_d = 0.0
        for trial in range(5):
            Ad = rng.standard_normal((18, 11))
            Ld = rng.standard_normal((16, 11))
            Q, _ = stack_qr(Ad, Ld)
            u1 = rng.standard_normal(18)
            B, Bhat, *_ = dense_joint_lanczos(Q[:18], Q[18:], u1, 6)
            signs = np.ones(6)
            signs[1::2] = -1.0
            Bbar = Bhat * signs[None, :]
            lam = float(0.2 + 0.6 * rng.random())
            _, _, rot = accumulate_sweeps(B, Bbar, [lam])
            P_explicit, _ = explicit_shifted_qr(Bbar.T @ Bbar, 1.0 - lam**2)
            psign = np.sign(np.diagonal(rot.P.T @ P_explicit))
            Gbar_ref, _ = np.linalg.qr(Bbar @ (P_explicit * psign[None, :]))
            gsign = np.sign(np.diagonal(rot.Gbar.T @ Gbar_ref))
            worst_d = max(worst_d,
                          float(np.max(np.abs(rot.Gbar - Gbar_ref * gsign[None, :]))))

        ok = worst_a < 1e-12 and worst_b < 1e-8 and worst_d < 1e-10
        _report("restart correctness (QR factor, filtered start, invariants, coupling)",
                ok, f"G err {worst_a:.2e}, filter err {worst_b:.2e}, "
                    f"coupled err {worst_d:.2e}")

    def test_residual_bound_validity(self):
        rng = np.random.default_rng(1005)
        worst_excess = -np.inf
        worst_agreement = 0.0
        worst_identity = 0.0
        checked = 0
        for trial in range(6):
            # flat full-row-rank A keeps the conditioning diagnostic bounded
            m = int(rng.integers(18, 26))
            n = m + int(rng.integers(4, 10))
            Ad = rng.standard_normal((m, n))
            A = SparseMatrix.from_dense(Ad)
            L = second_order_L(n)
            cfg = SolverConfig(target=2, kmax=10, tol=1e-8, seed=trial, maxit=500)
            res = irjbd_solve(A, L, cfg)
            assert res.status == "converged", res.message
            assert res.history[-1].diag_product < 1e4
            for comp in res.components:
                checked += 1
                worst_excess = max(worst_excess,
                                   comp.relative_residual - (comp.bound * 1.01 + 1e-12))
                lhs = cross_residual_norm(comp, A, L)
                r3 = (comp.s * A.matvec_transpose(comp.y)
                      - comp.c * L.matvec_transpose(comp.z))
                worst_identity = max(worst_identity,
                                     abs(lhs - float(np.linalg.norm(r3))))

            # the two bound forms agree on the exit state data
            op = StackedOperator(A, L)
            u1 = np.random.default_rng(trial).standard_normal(m)
            u1 /= np.linalg.norm(u1)
            state = jbd_init(op, u1, capacity=10)
            jbd_expand(state, op, 10)
            sg = extract_ritz(state, cfg).small
            pq = residual_bound_pq(sg, state.alpha_next, state.betabar)
            # the w form: alpha_next * beta_next / (c s) * |w[-1]|
            beta_next = float(state.Bdense[state.k, state.k - 1])
            wf = np.abs(state.alpha_next * beta_next / (sg.C * sg.S) * sg.W[-1])
            worst_agreement = max(worst_agreement, float(np.max(np.abs(pq - wf))))
        ok = (worst_excess <= 0.0 and worst_agreement < 1e-12
              and worst_identity < 1e-12 and checked >= 12)
        _report("residual bounds dominate actual residuals; forms agree; "
                "cross-form identity holds",
                ok, f"excess {worst_excess:.2e}, form gap {worst_agreement:.2e}, "
                    f"identity gap {worst_identity:.2e}")

    def test_zero_component_left_angle_constancy(self):
        # p0 spans null(A^T), so Q_A^T p0 = 0 and p0^T Q_A V_k = p0^T U_{k+1} B_k = 0:
        # U_{k+1}^T p0 = (p0^T u1) x_k with x_k^T B_k = 0, x_k[0] = 1.  The angle
        # to p0 is not constant; it is nonincreasing and predicted by B_k alone.
        rng = np.random.default_rng(1006)
        n = 14
        M = rng.standard_normal((n, n))
        u, s, vt = np.linalg.svd(M)
        s[-1] = 0.0
        Ad = u @ np.diag(s) @ vt
        p0 = u[:, -1]
        Q, _ = stack_qr(Ad, np.eye(n))
        premise = float(np.linalg.norm(Q[:n].T @ p0))
        assert premise < 1e-13, f"Q_A^T p0 = {premise:.2e} is not at roundoff"
        A = SparseMatrix.from_dense(Ad)
        op = StackedOperator(A, identity(n))
        gen = np.random.default_rng(0)
        u1 = gen.standard_normal(n)
        u1 /= np.linalg.norm(u1)
        state = jbd_init(op, u1, capacity=10)
        scale = float(p0 @ u1)
        angles = []
        identity_gap = 0.0
        for k in range(1, 11):
            jbd_expand(state, op, k)
            assert state.n_left == k + 1
            U = state.U
            projection = U.T @ p0
            null_vector = _left_null_vector(state.Bdense)
            identity_gap = max(identity_gap, float(np.max(np.abs(
                projection - scale * null_vector))))
            angles.append(float(np.linalg.norm(p0 - U @ projection)))
        rise = float(np.max(np.diff(angles)))
        ok = identity_gap < 1e-12 and rise <= 1e-14
        _report("left projection onto the zero-value direction equals (p0'u1) times "
                "the left null vector of B_k over k=1..10; angle nonincreasing",
                ok, f"identity gap {identity_gap:.2e}, largest rise {rise:.2e}, "
                    f"angle {angles[0]:.2e} -> {angles[-1]:.2e}")

    def test_zero_component_never_flags_converged(self):
        rng = np.random.default_rng(1006)
        n = 14
        M = rng.standard_normal((n, n))
        u, s, vt = np.linalg.svd(M)
        s = 3.0 + s
        s[-1] = 0.0
        Ad = u @ np.diag(s) @ vt
        A = SparseMatrix.from_dense(Ad)
        res = irjbd_solve(A, identity(n), SolverConfig(target=-1, kmax=8, tol=1e-8,
                                                       seed=0, maxit=40))
        comp = res.components[0]
        ok = (not comp.converged) and res.status != "converged"
        _report("smallest-mode chaser of the zero component never flags converged",
                ok, f"status {res.status}, c {comp.c:.2e}, "
                    f"warning {comp.reliability_warning}")

    def test_reliability_warning_regime(self):
        # engineered pair whose conditioning diagnostic must exceed tol / eps;
        # the reported bound is deliberately NOT asserted against the true
        # residual here
        rng = np.random.default_rng(1007)
        n = 24
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = np.linspace(1.0, 0.3, n)
        sigma[-1] = 1e-9
        Ad = u @ np.diag(sigma) @ v.T
        A = SparseMatrix.from_dense(Ad)
        res = irjbd_solve(A, identity(n), SolverConfig(target=-2, kmax=10, tol=1e-8,
                                                       seed=1, maxit=200))
        diag = res.history[-1].diag_product
        ok = res.reliability_warning and diag > 1e-8 / np.finfo(float).eps
        _report("conditioning warning fires when the diagnostic swamps tol",
                ok, f"diag {diag:.2e}, status {res.status}")

    def test_implicit_vs_thick_restart_comparison(self):
        rng = np.random.default_rng(1008)
        n = 200
        L = second_order_L(n)
        iters_implicit = []
        iters_thick = []
        worst_gap = 0.0
        for trial in range(20):
            m = n + int(rng.integers(5, 30))
            per_row = 6
            rows = np.repeat(np.arange(m), per_row)
            cols = rng.integers(0, n, size=m * per_row)
            vals = rng.standard_normal(m * per_row)
            A = SparseMatrix.from_coo(m, n, rows, cols, vals)
            values = {}
            for mode in ("implicit", "thick"):
                cfg = SolverConfig(target=5, kmax=25, tol=1e-8, seed=trial,
                                   restart_mode=mode, maxit=400)
                res = irjbd_solve(A, L, cfg)
                assert res.status == "converged", f"{mode} trial {trial}: {res.message}"
                values[mode] = np.array([c.c for c in res.components])
                (iters_implicit if mode == "implicit" else iters_thick).append(
                    res.restarts)
            worst_gap = max(worst_gap, float(np.max(np.abs(values["implicit"]
                                                           - values["thick"]))))
        med_i = float(np.median(iters_implicit))
        med_t = float(np.median(iters_thick))
        soft_ok = med_i <= med_t
        ok = worst_gap < 1e-6
        _report("implicit and thick restarts agree on values (restart medians reported)",
                ok, f"value gap {worst_gap:.2e}; median restarts implicit {med_i} "
                    f"vs thick {med_t} (soft check implicit<=thick: {soft_ok})")

    def test_large_scale_reproduction_optional(self):
        data_dir = os.environ.get("IRJBD_DATA_DIR",
                                  os.path.join(os.path.dirname(__file__), "data"))
        path = os.path.join(data_dir, "flower_5_4.mtx")
        if not os.path.exists(path):
            print("[SKIP] optional large-scale reproduction: "
                  f"matrix file not present at {path}")
            pytest.skip("large-scale test matrix not available")
        A = read_matrix_market(path)
        L = second_order_L(A.ncols)
        res = irjbd_solve(A, L, SolverConfig(target=5, kmax=25, tol=1e-8, seed=0,
                                             maxit=200))
        bound = max(c.bound for c in res.components)
        ok = res.status == "converged" and bound < 1e-8 and 8 <= res.restarts <= 26
        _report("large-scale reproduction (5 largest, kmax 25)",
                ok, f"restarts {res.restarts}, max bound {bound:.2e}")
