"""Extreme GSVD components of large sparse pairs by restarted joint bidiagonalization."""

from .driver import ConvergenceRecord, GsvdComponent, SolveResult, SolverConfig, irjbd_solve
from .sparsemat import (MatrixMarketError, SparseMatrix, identity, read_matrix_market,
                        second_order_L, write_matrix_market)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRecord", "GsvdComponent", "MatrixMarketError", "SolveResult", "SolverConfig",
    "SparseMatrix", "identity", "irjbd_solve", "read_matrix_market", "second_order_L",
    "write_matrix_market", "__version__",
]
