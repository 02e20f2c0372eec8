"""The public surface of ``import irjbd``: config, solve, result and matrix I/O."""

from dataclasses import fields

import irjbd

PUBLIC = {
    "SolverConfig", "irjbd_solve", "SolveResult", "GsvdComponent", "ConvergenceRecord",
    "SparseMatrix", "identity", "second_order_L", "read_matrix_market",
    "write_matrix_market", "MatrixMarketError", "__version__",
}


def test_all_is_the_documented_set():
    assert len(irjbd.__all__) == len(set(irjbd.__all__))
    assert set(irjbd.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in irjbd.__all__:
        assert getattr(irjbd, name) is not None, name


def test_solver_config_has_eight_fields():
    assert [f.name for f in fields(irjbd.SolverConfig)] == [
        "target", "kmax", "adjust", "tol", "maxit", "lsqr_maxit", "seed", "restart_mode"]


def test_bench_and_readme_names_are_public():
    used = {"irjbd_solve", "SolverConfig", "SparseMatrix", "read_matrix_market",
            "write_matrix_market", "second_order_L"}
    assert used <= set(irjbd.__all__)
