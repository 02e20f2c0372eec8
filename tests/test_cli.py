import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irjbd.cli
import irjbd.stackedls
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
                        "--seed", "3", "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restart_mode thick" in out
        # the inner tolerance and cap are no knobs; the report keeps their
        # lines, the tolerance the one derived from --tol: 1e-6 / 100
        assert "\nlsqr_tol 1e-08\n" in out
        assert "\nlsqr_maxit 50\n" in out

    def test_defect_line(self, diag_matrix_file, monkeypatch, capsys):
        # one line after lsqr_failures: the factored operator's defect, and
        # inf on the diagonal path
        args = ["--A", diag_matrix_file, "--L", "identity", "--target", "2", "--kmax", "5"]
        assert run_cli(args) == 0
        lines = capsys.readouterr().out.splitlines()
        at = [ln.split()[0] for ln in lines].index("lsqr_failures")
        key, value = lines[at + 1].split()
        assert key == "lsqr_defect" and 0.0 < float(value) < 1e-12
        assert lines[at + 2].startswith("components ")
        monkeypatch.setattr(irjbd.stackedls, "_FACTOR_BYTES", 0)
        assert run_cli(args) == 0
        assert "\nlsqr_defect inf\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_bad_configuration(self, diag_matrix_file, capsys, tol):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity",
                        "--target", "1", "--kmax", "4", "--tol", tol])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad configuration" in err

    def test_negative_seed_is_bad_configuration(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity",
                        "--target", "1", "--kmax", "4", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: bad configuration: seed must be nonnegative\n"
        assert captured.out == ""

    @pytest.mark.parametrize("size, regularizer", [("0 8", "second-order"), ("5 0", "identity")])
    def test_pair_without_rows_or_columns(self, tmp_path, capsys, size, regularizer):
        path = tmp_path / "a.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size} 0\n")
        code = run_cli(["--A", str(path), "--L", regularizer, "--target", "2", "--kmax", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: A is {size.replace(' ', ' x ')}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("flag, what", [("--out", "report"), ("--history", "history")])
    def test_unwritable_output_path(self, diag_matrix_file, tmp_path, monkeypatch, capsys,
                                    flag, what):
        # the path is checked before the solve, which must not run
        def no_solve(*args):
            raise AssertionError("the solve ran before the output paths were checked")

        monkeypatch.setattr(irjbd.cli, "irjbd_solve", no_solve)
        path = str(tmp_path / "missing" / "out.txt")
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "1",
                        "--kmax", "4", flag, path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write {what} to {path}: ")
        assert err.count("\n") == 1

    def test_failed_solve_leaves_the_outputs_be(self, tmp_path, capsys):
        # the solve rejects an A without rows after the paths are checked:
        # an existing report and history keep their bytes, and no file is made
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n0 8 0\n")
        report, history = tmp_path / "report.txt", tmp_path / "history.csv"
        report.write_text("an earlier report\n")
        code = run_cli(["--A", str(path), "--L", "second-order", "--target", "2", "--kmax", "5",
                        "--out", str(report), "--history", str(history)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: A is 0 x 8: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert report.read_text() == "an earlier report\n"
        assert not history.exists()

    def test_out_and_history_name_one_file(self, diag_matrix_file, tmp_path, monkeypatch,
                                           capsys):
        def no_solve(*args):
            raise AssertionError("the solve ran with one file for both outputs")

        monkeypatch.setattr(irjbd.cli, "irjbd_solve", no_solve)
        path = tmp_path / "out.txt"
        path.write_text("an earlier report\n")
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "1",
                        "--kmax", "4", "--out", str(path), "--history", f"{tmp_path}/./out.txt"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: --out and --history name the same file: {path}\n"
        assert captured.out == ""
        assert path.read_text() == "an earlier report\n"

    def test_lsqr_maxit_is_no_flag(self, diag_matrix_file, capsys):
        # the inner iteration cap is fixed at 10 n
        code = run_cli(["--A", diag_matrix_file, "--L", "identity", "--target", "1",
                        "--kmax", "4", "--lsqr-maxit", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unrecognized arguments: --lsqr-maxit 5" in captured.err
        assert captured.out == ""

    def test_unknown_flag(self, diag_matrix_file, capsys):
        code = run_cli(["--A", diag_matrix_file, "--L", "identity",
                        "--target", "1", "--kmax", "4", "--frobnicate"])
        capsys.readouterr()
        assert code == 1
