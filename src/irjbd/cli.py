"""Command-line front end: load a pair, run the solver, emit a report.

The report is a plain key-value text document that, together with the seed
and the input files, fully determines the run; the optional history file is
a small CSV meant for external plotting of per-restart convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .driver import SolverConfig, irjbd_solve
from .sparsemat import identity, read_matrix_market, second_order_L
from .stackedls import StackedOperator

__all__ = ["main", "run_cli", "build_parser"]

_STATUS_EXIT = {"converged": 0, "unreliable": 2, "maxit_exhausted": 2, "breakdown": 2}
_BUILTIN_L = {"identity": identity, "second-order": second_order_L}

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="irjbd",
        description="Compute extreme GSVD components of a sparse pair {A, L} by "
                    "implicitly restarted joint bidiagonalization.",
    )
    parser.add_argument("--A", required=True, metavar="PATH",
                        help="Matrix Market file for A")
    parser.add_argument("--L", required=True, metavar="PATH|identity|second-order",
                        help="Matrix Market file for L, or a builtin: 'identity', "
                             "'second-order' (tridiagonal 1/3/1 sized to A's columns)")
    parser.add_argument("--target", type=int, default=5,
                        help="signed component count: +l largest, -l smallest "
                             "(default: 5)")
    parser.add_argument("--kmax", type=int, required=True,
                        help="maximum subspace dimension")
    parser.add_argument("--adjust", type=int, default=_DEFAULTS["adjust"],
                        help="extra retained directions to speed convergence "
                             "(default: %(default)s)")
    parser.add_argument("--tol", type=float, default=_DEFAULTS["tol"],
                        help="stopping tolerance on the residual bound (default: %(default)g)")
    parser.add_argument("--maxit", type=int, default=_DEFAULTS["maxit"],
                        help="maximum number of restarts (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=_DEFAULTS["seed"],
                        help="seed for the random unit starting vector (default: %(default)s)")
    parser.add_argument("--restart-mode", choices=("implicit", "thick"),
                        default=_DEFAULTS["restart_mode"],
                        help="restart strategy (default: %(default)s)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--history", metavar="PATH", default=None,
                        help="write per-restart history CSV here")
    parser.add_argument("--vectors", action="store_true",
                        help="include the recovered vectors in the report (large)")
    return parser


def _format_report(args, A, L, result, elapsed):
    lines = []
    put = lines.append
    put("irjbd report")
    put(f"status {result.status}")
    if result.message:
        put(f"message {result.message}")
    put(f"seed {result.seed}")
    put(f"target {args.target}")
    put(f"kmax {args.kmax}")
    put(f"adjust {args.adjust}")
    put(f"tol {args.tol:.17g}")
    put(f"maxit {args.maxit}")
    put(f"lsqr_tol {StackedOperator.default_tol(args.tol):.17g}")
    put(f"lsqr_maxit {StackedOperator.default_maxit(A.ncols)}")
    put(f"restart_mode {args.restart_mode}")
    put(f"matrix_a {args.A} rows {A.nrows} cols {A.ncols} nnz {A.nnz}")
    put(f"matrix_l {args.L} rows {L.nrows} cols {L.ncols} nnz {L.nnz}")
    put(f"restarts {result.restarts}")
    put(f"lsqr_iterations_total {result.lsqr_iterations}")
    put(f"lsqr_failures {result.lsqr_failures}")
    put(f"lsqr_defect {result.lsqr_defect:.6e}")
    put(f"components {len(result.components)}")
    for i, comp in enumerate(result.components, start=1):
        put(f"component {i} c {comp.c:.17g} s {comp.s:.17g} value {comp.value:.17g} "
            f"bound {comp.bound:.6e} relres {comp.relative_residual:.6e} "
            f"converged {int(comp.converged)}")
    if args.vectors:
        for i, comp in enumerate(result.components, start=1):
            for name, vec in (("x", comp.x), ("y", comp.y), ("z", comp.z)):
                body = " ".join(f"{v:.17g}" for v in vec)
                put(f"vector {name} {i} {body}")
    put(f"timing_seconds {elapsed:.6f}")
    return "\n".join(lines) + "\n"


def _format_history(history):
    # columns are only ever appended, so existing parsers keep working
    lines = ["restart,max_bound,diag_product,lsqr_iters,kept,shifts_replaced"]
    for rec in history:
        max_bound = float(np.max(rec.bounds)) if len(rec.bounds) else float("nan")
        lines.append(f"{rec.restart_index},{max_bound:.17g},"
                     f"{rec.diag_product:.17g},{rec.lsqr_iters_total},"
                     f"{rec.kept},{rec.shifts_replaced}")
    return "\n".join(lines) + "\n"


def _check_writable(path):
    """Raise OSError unless ``path`` can be opened for writing.

    An existing file is opened for appending, so it keeps its contents; a
    file the check creates is removed again.
    """
    fresh = not os.path.lexists(path)
    open(path, "a", encoding="ascii").close()
    if fresh:
        os.remove(path)


def _same_file(a, b):
    """Whether a and b name one file: by inode when both exist (hard links count)."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    # ValueError: a MatrixMarketError, or a matrix that cannot be built
    # (a second-order L needs n >= 2)
    try:
        A = read_matrix_market(args.A)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read A from {args.A}: {exc}", file=sys.stderr)
        return 1
    try:
        L = _BUILTIN_L[args.L](A.ncols) if args.L in _BUILTIN_L else read_matrix_market(args.L)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read L from {args.L}: {exc}", file=sys.stderr)
        return 1
    if L.ncols != A.ncols:
        print(f"error: dimension mismatch: A has {A.ncols} columns, "
              f"L has {L.ncols}", file=sys.stderr)
        return 1

    try:
        cfg = SolverConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(SolverConfig)})
    except ValueError as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 1

    # the output paths are checked before the solve, so an unwritable one
    # costs no solve, and written after it, so a failed solve leaves them be;
    # neither may name the other output or an input file
    outputs = [(what, flag, path) for what, flag, path in (
        ("report", "--out", args.out), ("history", "--history", args.history)) if path]
    named = [(flag, path) for _, flag, path in outputs] + [("--A", args.A)]
    if args.L not in _BUILTIN_L:
        named.append(("--L", args.L))
    for i, (flag, path) in enumerate(named[:len(outputs)]):
        for other, other_path in named[i + 1:]:
            if _same_file(path, other_path):
                print(f"error: {flag} and {other} name the same file: {path}", file=sys.stderr)
                return 1
    for what, _, path in outputs:
        try:
            _check_writable(path)
        except OSError as exc:
            print(f"error: cannot write {what} to {path}: {exc}", file=sys.stderr)
            return 1

    start = time.perf_counter()
    try:
        result = irjbd_solve(A, L, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start

    texts = {"report": _format_report(args, A, L, result, elapsed),
             "history": _format_history(result.history)}
    if not args.out:
        sys.stdout.write(texts["report"])
    for what, _, path in outputs:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(texts[what])
        except OSError as exc:
            print(f"error: cannot write {what} to {path}: {exc}", file=sys.stderr)
            return 1
    return _STATUS_EXIT.get(result.status, 2)


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
