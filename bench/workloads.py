"""Workload generators, dense reference values and the correctness gate.

Each workload starts from a fixed set of base pairs, drawn from the
workload's pair seed.  The run seed (``--seed``) then draws a signed row
permutation of every A and the solver's start-vector seed.  Permuting and
negating rows leaves AᵀA unchanged, so every generalized singular value of
{A, L} is the same for every run seed: the matrix the solver receives, its
file, its storage order and the start vector change, and the difficulty of
the problem does not.  That keeps restarts and inner iterations steady from
one run seed to the next.  A different pair seed gives a different problem;
each workload names a held-out pair seed for checking that a claim holds on
data not used while the change was written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import irjbd
from irjbd.oracle import dense_gsvd

VALUE_RTOL = 1e-6  # relative agreement of each targeted c with the dense reference


@dataclass(frozen=True)
class Workload:
    """A family of generated pairs {A, L = second_order_L(n)} and their solves.

    A has ``m`` rows, or ``n + U[extra_rows)`` rows per pair when ``m`` is
    None, and ``per_row`` N(0, 1) entries per row in uniform random columns
    (coinciding columns are summed).  Each of the ``npairs`` base pairs is
    drawn ``draws`` times (signed row permutations, see ``generate``), and
    every draw is solved once per entry of ``settings``.
    """

    name: str
    n: int
    m: int | None
    extra_rows: tuple[int, int] | None
    per_row: int
    npairs: int
    draws: int
    settings: tuple[dict, ...]
    reference: str  # "gsvd" (irjbd.oracle.dense_gsvd) or "qr" (singular values of Q_A)
    pair_seed: int
    heldout_pair_seed: int


_PAIRS200_SETTINGS = tuple(
    dict(target=5, kmax=25, tol=1e-8, maxit=400, restart_mode=mode)
    for mode in ("implicit", "thick"))

WORKLOADS = {
    wl.name: wl for wl in (
        Workload("pairs200", n=200, m=None, extra_rows=(5, 30), per_row=6, npairs=3, draws=1,
                 settings=_PAIRS200_SETTINGS, reference="gsvd",
                 pair_seed=1008, heldout_pair_seed=1009),
        Workload("sparse3k-largest", n=2000, m=3000, extra_rows=None, per_row=8, npairs=1,
                 draws=1,
                 settings=(dict(target=3, kmax=20, tol=1e-8),), reference="qr",
                 pair_seed=2, heldout_pair_seed=7),
        # two draws per pass: one draw needed 11 to 15 restarts over ten run
        # seeds, most of them 11, and that tail would pass straight into the
        # figures
        Workload("sparse3k-smallest", n=2000, m=3000, extra_rows=None, per_row=8, npairs=1,
                 draws=2,
                 settings=(dict(target=-3, kmax=20, tol=1e-8),), reference="qr",
                 pair_seed=2, heldout_pair_seed=7),
    )
}


@dataclass
class Pair:
    """Coordinate triplets of one generated A (rows, cols, vals of an m x n matrix).

    ``base`` is the index of the base pair it was drawn from.
    """

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    base: int = 0

    def sparse(self):
        return irjbd.SparseMatrix.from_coo(self.m, self.n, self.rows, self.cols, self.vals)

    def dense(self):
        out = np.zeros((self.m, self.n))
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out


def base_pairs(wl, pair_seed):
    """The workload's unpermuted pairs.

    For pairs200 with pair seed 1008 these are the first pairs of the
    implicit-versus-thick acceptance comparison.
    """
    rng = np.random.default_rng(pair_seed)
    pairs = []
    for _ in range(wl.npairs):
        m = wl.m if wl.m is not None else wl.n + int(rng.integers(*wl.extra_rows))
        rows = np.repeat(np.arange(m), wl.per_row)
        cols = rng.integers(0, wl.n, size=m * wl.per_row)
        vals = rng.standard_normal(m * wl.per_row)
        pairs.append(Pair(m, wl.n, rows, cols, vals))
    return pairs


def generate(wl, seed, pair_seed):
    """The pairs one run solves.

    Each base A is drawn ``wl.draws`` times, its rows permuted and negated
    at random from ``seed``.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for index, base in enumerate(base_pairs(wl, pair_seed)):
        for _ in range(wl.draws):
            perm = rng.permutation(base.m)
            signs = rng.choice((-1.0, 1.0), size=base.m)
            pairs.append(Pair(base.m, base.n, perm[base.rows], base.cols,
                              base.vals * signs[base.rows], base=index))
    return pairs


def configs(wl, seed):
    return [irjbd.SolverConfig(seed=seed, **setting) for setting in wl.settings]


def reference_values(wl, pair):
    """All c values of {A, L}, decreasing, from one dense computation.

    Every draw of a base pair has the same values, so one computation per
    base pair serves all its draws.

    ``gsvd`` runs the repository's dense oracle.  ``qr`` factors the stacked
    matrix [A; L] = QR and takes the singular values of the A block of Q,
    which are the c values by definition; it serves sizes beyond the
    oracle's limit.
    """
    Ad = pair.dense()
    Ld = second_order_dense(pair.n)
    if wl.reference == "gsvd":
        ref = dense_gsvd(Ad, Ld)
        return ref.C[ref.nontrivial_slice()]
    Q, _ = np.linalg.qr(np.vstack([Ad, Ld]))
    return np.linalg.svd(Q[: pair.m], compute_uv=False)


def second_order_dense(n):
    return 3.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)


def gate(result, cfg, reference_c):
    """Problems with one solve's output; an empty list means it passed.

    The targeted values must agree with the reference to ``VALUE_RTOL`` and
    every recovered relative residual must be at most ``cfg.tol``.  The
    status label is deliberately not checked here (it is reported as a
    per-layer count).
    """
    l = abs(cfg.target)
    want = reference_c[:l] if cfg.target > 0 else reference_c[::-1][:l]
    got = np.array([comp.c for comp in result.components])
    if got.shape != want.shape:
        return [f"expected {l} components, got {len(got)} (status {result.status})"]
    problems = []
    relerr = np.abs(got - want) / np.abs(want)
    if not np.all(relerr <= VALUE_RTOL):
        problems.append(f"value relative error {float(np.max(relerr)):.2e} "
                        f"exceeds {VALUE_RTOL:.0e}")
    relres = np.array([comp.relative_residual for comp in result.components])
    if not np.all(relres <= cfg.tol):
        problems.append(f"relative residual {float(np.max(relres)):.2e} "
                        f"exceeds tol {cfg.tol:.0e}")
    return problems
