"""Tests of the benchmark itself: ``python3 -m pytest bench``.

The smoke tests run every workload end to end at a tiny size, traced and
untraced, so they finish in seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import irjbd  # noqa: E402
import workloads as wlmod  # noqa: E402
from calibration import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402


def tiny(wl):
    """The same workload at a size that solves in well under a second."""
    if wl.m is None:
        return dataclasses.replace(wl, n=40, extra_rows=(5, 10), npairs=1)
    return dataclasses.replace(wl, n=60, m=90)


TINY = {name: tiny(wl) for name, wl in wlmod.WORKLOADS.items()}


def run_tiny(name, trace, tmp_path, capsys):
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
    assert harness.main(argv, workloads=TINY, out_dir=tmp_path) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(wlmod.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload(name, trace, tmp_path, capsys):
    result = run_tiny(name, trace, tmp_path, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert (tmp_path / f"spans-{name}-seed1.csv").is_file()
    assert not list(tmp_path.glob("inputs-*")), "input files must be removed"


def test_gate_catches_a_perturbed_value():
    wl = TINY["sparse3k-largest"]
    pair = wlmod.generate(wl, 1, wl.pair_seed)[0]
    cfg = wlmod.configs(wl, 1)[0]
    result = irjbd.irjbd_solve(pair.sparse(), irjbd.second_order_L(wl.n), cfg)
    ref = wlmod.reference_values(wl, pair)
    assert wlmod.gate(result, cfg, ref) == []

    result.components[1].c *= 1.0 + 1e-4
    assert any("value relative error" in p for p in wlmod.gate(result, cfg, ref))
    result.components[1].c /= 1.0 + 1e-4
    result.components[0].relative_residual = 10 * cfg.tol
    assert any("relative residual" in p for p in wlmod.gate(result, cfg, ref))


def test_run_seed_changes_the_input_but_not_the_values():
    wl = TINY["sparse3k-smallest"]
    first, second = (wlmod.generate(wl, seed, wl.pair_seed)[0] for seed in (1, 2))
    assert not np.array_equal(first.dense(), second.dense())
    np.testing.assert_allclose(wlmod.reference_values(wl, first),
                               wlmod.reference_values(wl, second), rtol=1e-12)


def test_pairs200_base_is_the_acceptance_generator():
    wl = wlmod.WORKLOADS["pairs200"]
    rng = np.random.default_rng(1008)
    m = wl.n + int(rng.integers(5, 30))
    cols = rng.integers(0, wl.n, size=m * 6)
    base = wlmod.base_pairs(wl, 1008)[0]
    assert base.m == m and np.array_equal(base.cols, cols)


def test_tracer_restores_every_binding():
    originals = (irjbd.stackedls.lsqr_solve, irjbd.jbd.lsqr_solve, irjbd.driver.lsqr_solve,
                 irjbd.irjbd_solve, irjbd.SparseMatrix.matvec)
    with Tracer(irjbd):
        assert irjbd.jbd.lsqr_solve is irjbd.driver.lsqr_solve is irjbd.stackedls.lsqr_solve
        assert irjbd.jbd.lsqr_solve is not originals[0]
        assert irjbd.irjbd_solve is irjbd.driver.irjbd_solve is not originals[3]
    assert (irjbd.stackedls.lsqr_solve, irjbd.jbd.lsqr_solve, irjbd.driver.lsqr_solve,
            irjbd.irjbd_solve, irjbd.SparseMatrix.matvec) == originals


def test_span_times_are_net_of_tracing_cost():
    tracer = Tracer(irjbd)
    tracer.entry_cost = 0.5
    tracer.spans = [(3, 2, "c", 1, 2.0, 3.0, 0.25), (2, 1, "b", 1, 1.0, 4.0, 0.0),
                    (4, 1, "b", 1, 5.0, 6.0, 0.5), (1, 0, "a", 1, 0.0, 10.0, 0.0)]
    tracer.labels = {1: "a.thick"}
    summary = tracer.summary()
    # a's children b take 3 + 0.5 and 1 + 1.0; everything below a cost 0.75 + 0.5 + 1.0
    assert summary["a"] == {"calls": 1, "s": 7.75, "self_s": 4.5}
    assert summary["a.thick"]["s"] == 7.75
    # b's child c takes 1 + 0.75; b itself has 0.75 below it
    assert summary["b"] == {"calls": 2, "s": 3.25, "self_s": 2.25}


def test_entry_cost_is_calibrated_and_small():
    tracer = Tracer(irjbd)
    tracer.summary()
    assert 0.0 <= tracer.entry_cost < 1e-4


def test_benchmark_json_names_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wlmod.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_the_solver_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pairs200",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_probe_ticks_at_most_once_per_interval():
    probe = SpeedProbe()
    factor = probe.run()
    probe.tick()
    assert len(probe.samples) == 1
    assert probe.spent == probe.samples[0] and probe.factor() == factor > 0
