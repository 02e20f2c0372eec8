import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irjbd.cli import build_parser, main, run_cli
from irjbd.driver import SolverConfig
from irjbd.sparsemat import SparseMatrix, write_matrix_market
from irjbd.stackedls import StackedOperator


@pytest.fixture
def diag_matrix_file(tmp_path):
    A = SparseMatrix.from_dense(np.diag([9.0, 7.0, 5.0, 3.0, 1.0]))
    path = tmp_path / "a.mtx"
    write_matrix_market(A, str(path))
    return str(path)


def _strip_timing(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("timing"))


class TestRuns:
    def test_diagonal_pair_with_identity_regularizer(self, diag_matrix_file, tmp_path,
                                                     capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "3",
                        "--kmax", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status converged" in out
        assert out.count("component ") == 3
        # largest value of the pair {diag(9..1), I} is 9/sqrt(82) -> ratio 9
        first = [ln for ln in out.splitlines() if ln.startswith("component 1")][0]
        value = float(first.split("value")[1].split()[0])
        np.testing.assert_allclose(value, 9.0, rtol=1e-8)

    def test_second_order_regularizer_synthesized(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "second-order", "--target", "2",
                        "--kmax", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matrix_l second-order rows 5 cols 5 nnz 13" in out

    def test_smallest_mode_with_w_criterion(self, diag_matrix_file, capsys):
        """A negative target reports the smallest value of {diag(9..1), I} first."""
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "-2",
                        "--kmax", "5"])
        out = capsys.readouterr().out
        assert code == 0
        first = [ln for ln in out.splitlines() if ln.startswith("component 1")][0]
        value = float(first.split("value")[1].split()[0])
        np.testing.assert_allclose(value, 1.0, rtol=1e-8)

    def test_report_written_to_file(self, diag_matrix_file, tmp_path):
        out_path = tmp_path / "report.txt"
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "1",
                        "--kmax", "5", "--out", str(out_path)])
        assert code == 0
        assert "status converged" in out_path.read_text()

    def test_reports_reproducible_modulo_timing(self, diag_matrix_file, tmp_path):
        args = ["--A", diag_matrix_file, "--L", "identity", "--target", "2",
                "--kmax", "5", "--seed", "7"]
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert run_cli(args + ["--out", str(p1)]) == 0
        assert run_cli(args + ["--out", str(p2)]) == 0
        assert _strip_timing(p1.read_text()) == _strip_timing(p2.read_text())

    def test_history_rows_match_restarts(self, diag_matrix_file, tmp_path):
        out_path = tmp_path / "report.txt"
        hist_path = tmp_path / "history.csv"
        assert run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "2",
                        "--kmax", "5", "--out", str(out_path),
                        "--history", str(hist_path)]) == 0
        report = out_path.read_text()
        restarts = int([ln for ln in report.splitlines()
                        if ln.startswith("restarts")][0].split()[1])
        lines = hist_path.read_text().strip().splitlines()
        assert len(lines) - 1 == restarts + 1

    def test_history_columns_are_only_appended(self, tmp_path):
        # parsers of the first four columns must keep working, so new
        # columns go after them; a pair that restarts fills every column
        rng = np.random.default_rng(1)
        a_path = tmp_path / "a.mtx"
        write_matrix_market(SparseMatrix.from_dense(rng.standard_normal((40, 30))),
                            str(a_path))
        hist_path = tmp_path / "history.csv"
        assert run_cli(["--A", str(a_path), "--L", "second-order", "--target", "3",
                        "--kmax", "8", "--adjust", "1", "--seed", "1",
                        "--out", str(tmp_path / "report.txt"),
                        "--history", str(hist_path)]) == 0
        header, *rows = hist_path.read_text().strip().splitlines()
        old = ["restart", "max_bound", "diag_product", "lsqr_iters"]
        assert header.split(",") == old + ["kept", "shifts_replaced"]
        assert len(rows) > 1
        fields = [row.split(",") for row in rows]
        assert all(len(f) == 6 for f in fields)
        assert [int(f[0]) for f in fields] == list(range(len(rows)))
        assert int(fields[0][4]) == 0
        assert all(4 <= int(f[4]) < 8 and int(f[5]) >= 0 for f in fields[1:])

    def test_vectors_flag_adds_vector_lines(self, diag_matrix_file, capsys):
        assert run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "1",
                        "--kmax", "5", "--vectors"]) == 0
        out = capsys.readouterr().out
        assert "vector x 1 " in out and "vector y 1 " in out and "vector z 1 " in out

    def test_thick_mode_and_inner_solver_flags(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "2",
                        "--kmax", "4", "--adjust", "1", "--restart-mode", "thick",
                        "--lsqr-maxit", "200", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restart_mode thick" in out
        assert "lsqr_maxit 200" in out
        # the inner tolerance is no knob; the report keeps its line
        assert f"\nlsqr_tol {StackedOperator.default_tol:.17g}\n" in out

    def test_partial_run_exits_two(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "2",
                        "--kmax", "4", "--maxit", "0", "--tol", "1e-15"])
        capsys.readouterr()
        assert code == 2


    def test_one_operator_per_run(self, diag_matrix_file, monkeypatch, capsys):
        # the report's lsqr_maxit needs no operator of its own
        built = []
        init = StackedOperator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StackedOperator, "__init__", counting)
        monkeypatch.setattr(sys, "argv", ["irjbd", "--A", diag_matrix_file, "--L", "identity",
                                          "--kmax", "5", "--target", "2"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert len(built) == 1
        assert "\nlsqr_maxit 50\n" in capsys.readouterr().out

    def test_parser_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["--A", "a.mtx", "--L", "identity", "--kmax", "9"])
        for f in dataclasses.fields(SolverConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(args, f.name) == f.default, f.name
        assert (args.target, args.kmax) == (5, 9)

    def test_module_entry_point_runs(self, diag_matrix_file):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "irjbd.cli", "--A", diag_matrix_file,
                               "--L", "identity", "--kmax", "3", "--target", "1"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("irjbd report\n")
        assert "\nlsqr_failures 0\n" in proc.stdout


class TestErrorPaths:
    def test_missing_matrix_file(self, capsys):
        code = run_cli(["--A", "/nonexistent/a.mtx", "--L", "identity",
                        "--target", "1", "--kmax", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read A" in err

    def test_unreadable_regularizer(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "/nonexistent/l.mtx",
                        "--target", "1", "--kmax", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read L" in err

    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_value_in_file(self, tmp_path, capsys, value):
        path = tmp_path / "a.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 1 2\n"
                        f"1 1 1.0\n2 1 {value}\n")
        code = run_cli(["--A", str(path), "--L", "identity", "--target", "1", "--kmax", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read A" in err and "line 4: value must be finite" in err

    def test_negative_size_in_file(self, tmp_path, capsys):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n-2 1 0\n")
        code = run_cli(["--A", str(path), "--L", "identity", "--target", "1", "--kmax", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read A" in err and "line 2: size line entries must be nonnegative" in err

    def test_second_order_regularizer_needs_two_columns(self, tmp_path, capsys):
        path = tmp_path / "a.mtx"
        write_matrix_market(SparseMatrix.from_dense([[2.0], [1.0]]), str(path))
        code = run_cli(["--A", str(path), "--L", "second-order", "--target", "1",
                        "--kmax", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot read L" in captured.err and "n >= 2" in captured.err
        assert captured.out == ""

    def test_dimension_mismatch(self, diag_matrix_file, tmp_path, capsys):
        bad = SparseMatrix.from_dense(np.eye(3))
        bad_path = tmp_path / "l.mtx"
        write_matrix_market(bad, str(bad_path))
        code = run_cli(["--A", diag_matrix_file, "--L", str(bad_path),
                        "--target", "1", "--kmax", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert "dimension mismatch" in err

    def test_bad_configuration(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity",
                        "--target", "0", "--kmax", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad configuration" in err

    @pytest.mark.parametrize("lsqr_maxit", ["0", "-3"])
    def test_lsqr_maxit_below_one(self, diag_matrix_file, capsys, lsqr_maxit):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "1",
                        "--kmax", "4", "--lsqr-maxit", lsqr_maxit])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad configuration" in captured.err and "lsqr_maxit" in captured.err
        assert captured.out == ""

    def test_unknown_flag(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity",
                        "--target", "1", "--kmax", "4", "--frobnicate"])
        capsys.readouterr()
        assert code == 1
