"""Closed-loop benchmark of irjbd_solve: one solve at a time, every result checked.

One invocation runs one workload at one run seed.  It writes each generated
A once, untimed, as a Matrix Market file.

With ``--trace 0`` it repeats passes until ``--seconds`` would be exceeded.
A pass solves the workload's solve set (every pair under every setting),
each solve with the matrices of a burst of set-ups (reading every A back
and building L) run for ``SETUP_BURST_S`` just before it.  Only
``lsqr_solve`` is wrapped, to count inner iterations; a few hundred wrapper
calls per solve cost nothing measurable next to the solve itself.

With ``--trace 1`` it sets up for ``SETUP_BURST_S`` with
``read_matrix_market`` traced, solves the set once untraced and
``TRACED_SETS`` times with every public solver function traced, and reports
the per-layer metrics.

Times are normalized by a speed probe (see ``calibration``): a short fixed
slice of work runs about every half second between solves and, in untraced
passes, between the inner solves of a solve.  Its time is taken out of the
solve times, which are multiplied by the run's mean speed factor.  Each
burst of set-ups follows one slice and is multiplied by that slice's
factor.  The time-to-solution is the mean over passes, set-up the median
over samples, and per-layer figures the mean over the traced passes.  The
printed report adds quartiles, sample counts, the speed factor and the
unscaled wall times.

Both modes check every solve against a dense reference (the correctness
gate) and check that restarts, inner iterations and per-layer counts repeat
exactly (the determinism gate).  A failed correctness gate is counted in
``failed``; a failed determinism gate aborts the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import irjbd
import workloads as wlmod
from calibration import SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_BURST_S = 0.1
TRACED_SETS = 2
COUNT_ONLY = frozenset({"stackedls.lsqr_solve"})


def declared_metrics(path=ROOT / "BENCHMARK.json"):
    """(end-to-end, per-layer) metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads(path.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = declared_metrics()

# per-layer metrics that are spans' self or inclusive seconds: name -> (summary row, field).
# The implicit/thick split is the inclusive time of the solves of each restart mode.
_SPAN_TIMES = {
    name: (name.rsplit(".", 1)[0], name.rsplit(".", 1)[1])
    for name, unit in PER_LAYER.items()
    if unit == "s" and name.rsplit(".", 1)[1] in ("s", "self_s")
    and not name.startswith("sparsemat.read_matrix_market")
} | {f"driver.irjbd_solve.{mode}_s": (f"driver.irjbd_solve.{mode}", "s")
     for mode in ("implicit", "thick")}


class DeterminismError(RuntimeError):
    """Counts that must repeat exactly did not."""


@dataclass
class SetRun:
    """One pass over the solve set."""

    seconds: list = field(default_factory=list)    # wall time of each irjbd_solve call
    results: list = field(default_factory=list)    # SolveResult, or the exception raised
    counts: list = field(default_factory=list)     # (restarts, inner iterations) per solve
    tracer: Tracer | None = None


def run_set(solve_index, cfgs, prepare, only, probe):
    """Solve each (pair, setting) in turn under a tracer limited to ``only``.

    ``prepare()`` returns the (As, L) for each solve.  Speed-probe slices run
    before each solve and, in untraced passes, between its inner solves;
    their time is taken out of the solve's wall time.
    """
    run = SetRun()
    with Tracer(irjbd, only=only, tick=probe.tick if only == COUNT_ONLY else None) as tracer:
        for pair, setting in solve_index:
            As, L = prepare()
            A, cfg = As[pair], cfgs[setting]
            probe.tick()
            before = tracer.counts["stackedls.lsqr_solve.iterations"]
            probe_spent = probe.spent
            start = time.perf_counter()
            try:
                result = irjbd.irjbd_solve(A, L, cfg)
            except Exception as exc:  # a raising solve is a failed solve, not a crash
                result = exc
            run.seconds.append(time.perf_counter() - start - (probe.spent - probe_spent))
            run.results.append(result)
            restarts = None if isinstance(result, Exception) else result.restarts
            run.counts.append((restarts,
                               tracer.counts["stackedls.lsqr_solve.iterations"] - before))
    run.tracer = tracer
    return run


def set_up(paths, n):
    """What a user pays before solving: read every A and build L."""
    return [irjbd.read_matrix_market(p) for p in paths], irjbd.second_order_L(n)


def measure_setup(paths, n, probe, times, scaled):
    """One probe slice, then set-ups for ``SETUP_BURST_S`` (at least three).

    Appends each set-up time to ``times`` and, multiplied by the slice's
    speed factor, to ``scaled``: a burst is too short for the run's mean
    factor to describe the moment it ran in.
    """
    speed = probe.run()
    start = time.perf_counter()
    count = 0
    while count < 3 or time.perf_counter() - start < SETUP_BURST_S:
        began = time.perf_counter()
        As, L = set_up(paths, n)
        times.append(time.perf_counter() - began)
        scaled.append(times[-1] * speed)
        count += 1
    return As, L


def check_same(what, first, other):
    if first != other:
        raise DeterminismError(f"{what} differ between runs at one seed: {first} vs {other}")


def layer_metrics(run, read_s, overhead_share):
    """The per-layer metrics of one traced set."""
    tracer = run.tracer
    spans = tracer.summary()
    out = {name: spans[span][fld] for name, (span, fld) in _SPAN_TIMES.items()}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = spans[name[: -len(".calls")]]["calls"]
    for kernel in ("sparsemat.matvec", "sparsemat.matvec_transpose"):
        out[f"{kernel}.computed_flops"], out[f"{kernel}.computed_bytes"] = \
            tracer.kernel_figures(kernel)
    out["sparsemat.matvec.computed_flops_per_byte"] = (
        out["sparsemat.matvec.computed_flops"] / out["sparsemat.matvec.computed_bytes"])
    out["sparsemat.read_matrix_market.s"] = read_s
    counts = tracer.counts
    for name in ("stackedls.lsqr_solve.iterations", "stackedls.lsqr_solve.not_converged",
                 "jbd.jbd_expand.steps", "shifts.apply_adaptive_rule.replaced",
                 "driver.status.converged", "driver.status.unreliable",
                 "driver.status.maxit_exhausted", "driver.status.breakdown"):
        out[name] = counts[name]
    out["stackedls.lsqr_solve.iterations_max"] = tracer.maxima[
        "stackedls.lsqr_solve.iterations_max"]
    nshifts = counts["shifts.apply_adaptive_rule.shifts"]
    out["shifts.replaced_share"] = (counts["shifts.apply_adaptive_rule.replaced"] / nshifts
                                    if nshifts else 0.0)
    out["trace.overhead_share"] = overhead_share
    return out


def gate_runs(runs, solve_index, cfgs, refs):
    """Apply the correctness gate to every solve; returns (attempted, failure messages)."""
    failures = []
    attempted = 0
    for rep, run in enumerate(runs):
        for (pair, setting), result in zip(solve_index, run.results):
            attempted += 1
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            else:
                problems = wlmod.gate(result, cfgs[setting], refs[pair])
            if problems:
                failures.append(f"set {rep} pair {pair} setting {setting}: "
                                + "; ".join(problems))
    return attempted, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment(wl, seed, pair_seed, trace):
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": wl.name, "seed": seed, "pair_seed": pair_seed,
        "heldout_pair_seed": wl.heldout_pair_seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "thread_pins": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="Benchmark irjbd_solve on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=2,
                        help="run seed: row permutation of each A and solver start vector")
    parser.add_argument("--pair-seed", type=int, default=None,
                        help="seed of the base pairs (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="closed-loop measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, workloads=wlmod.WORKLOADS, out_dir=ROOT / ".bench_out"):
    args = parse_args(argv, workloads)
    src = ROOT / "src"
    if not Path(irjbd.__file__).resolve().is_relative_to(src):
        print(f"bench: irjbd imported from {irjbd.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    pair_seed = wl.pair_seed if args.pair_seed is None else args.pair_seed
    env = environment(wl, args.seed, pair_seed, args.trace)
    out_dir.mkdir(parents=True, exist_ok=True)

    pairs = wlmod.generate(wl, args.seed, pair_seed)
    cfgs = wlmod.configs(wl, args.seed)
    solve_index = [(p, s) for p in range(len(pairs)) for s in range(len(cfgs))]
    setup_times = []
    setup_scaled = []
    runs = []
    probe = SpeedProbe()
    try:
        with tempfile.TemporaryDirectory(prefix="inputs-", dir=out_dir) as tmp:
            paths = [Path(tmp) / f"A{i}.mtx" for i in range(len(pairs))]
            for pair, path in zip(pairs, paths):
                irjbd.write_matrix_market(pair.sparse(), path)
            if args.trace:
                with Tracer(irjbd, only={"sparsemat.read_matrix_market"}) as setup_trace:
                    inputs = measure_setup(paths, wl.n, probe, setup_times, setup_scaled)
                runs.append(run_set(solve_index, cfgs, lambda: inputs, COUNT_ONLY, probe))
                runs += [run_set(solve_index, cfgs, lambda: inputs, None, probe)
                         for _ in range(TRACED_SETS)]
            else:
                start = time.perf_counter()
                while True:
                    runs.append(run_set(
                        solve_index, cfgs,
                        lambda: measure_setup(paths, wl.n, probe, setup_times, setup_scaled),
                        COUNT_ONLY, probe))
                    elapsed = time.perf_counter() - start
                    if elapsed * (len(runs) + 1) / len(runs) > args.seconds:
                        break
        for run in runs[1:]:
            check_same("restarts and inner iterations per solve", runs[0].counts, run.counts)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            traced = runs[1:]
            for run in traced[1:]:
                check_same("per-layer call counts", traced[0].tracer.call_counts(),
                           run.tracer.call_counts())
            check_same("lsqr_solve calls", runs[0].tracer.call_counts(),
                       {"stackedls.lsqr_solve":
                        traced[0].tracer.call_counts()["stackedls.lsqr_solve"]})
            read_s = (setup_trace.summary()["sparsemat.read_matrix_market"]["s"]
                      / len(setup_times))
            overhead = (statistics.fmean(sum(r.seconds) for r in traced)
                        / sum(runs[0].seconds) - 1.0)
            per_set = [layer_metrics(run, read_s, overhead) for run in traced]
            for run_metrics in per_set[1:]:
                check_same("per-layer counts",
                           {k: v for k, v in per_set[0].items() if PER_LAYER[k] != "s"},
                           {k: v for k, v in run_metrics.items() if PER_LAYER[k] != "s"})
            samples = {name: [m[name] for m in per_set] for name in PER_LAYER}
            units = PER_LAYER
            traced[0].tracer.write_spans(out_dir / f"spans-{wl.name}-seed{args.seed}.csv")
        else:
            samples = {
                "time_to_solution_s": [sum(r.seconds) for r in runs],
                "setup_s": setup_scaled,
                "restarts": [sum(c[0] or 0 for c in r.counts) for r in runs],
                "inner_iterations": [sum(c[1] for c in r.counts) for r in runs],
                "peak_rss_mb": [peak_rss_mb],
            }
            units = END_TO_END
    except DeterminismError as exc:
        print(f"bench: determinism gate failed: {exc}", file=sys.stderr)
        return 3

    base_refs = [wlmod.reference_values(wl, base) for base in wlmod.base_pairs(wl, pair_seed)]
    refs = [base_refs[pair.base] for pair in pairs]
    attempted, failures = gate_runs(runs, solve_index, cfgs, refs)
    for message in failures:
        print(f"bench: correctness gate failed: {message}", file=sys.stderr)

    factor = probe.factor()
    metrics = {}
    report = {}
    for name, unit in units.items():
        scale = factor if unit == "s" and name != "setup_s" else 1.0
        center = statistics.median if name == "setup_s" else statistics.fmean
        value = center(samples[name]) * scale
        q1, q3 = quartiles(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        report[name] = {"value": value, "unit": unit, "q1": q1 * scale, "q3": q3 * scale,
                        "samples": len(samples[name])}
    report["failed_share"] = {"value": len(failures) / attempted, "unit": "share",
                              "q1": None, "q3": None, "samples": attempted}
    report["speed_factor"] = {"value": factor, "unit": "1", "q1": None, "q3": None,
                              "samples": len(probe.samples)}
    if not args.trace:
        for name, unscaled in (("time_to_solution_s",
                                statistics.fmean(sum(r.seconds) for r in runs)),
                               ("setup_s", statistics.median(setup_times))):
            report["wall_" + name] = {"value": unscaled, "unit": "s", "q1": None, "q3": None,
                                      "samples": report[name]["samples"]}
    statuses = sorted({r.status for run in runs for r in run.results
                       if not isinstance(r, Exception)})

    for name, row in report.items():
        spread = "" if row["q1"] is None else f"  q1={row['q1']:.6g} q3={row['q3']:.6g}"
        print(f"{name:45s} {row['value']:.6g} {row['unit']}  n={row['samples']}{spread}")
    print(f"statuses {statuses}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {"env": env, "report": report, "statuses": statuses, "failures": failures,
              "solve_seconds": [r.seconds for r in runs], "setup_seconds": setup_times,
              "probe_seconds": probe.samples}
    result_path = out_dir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0
