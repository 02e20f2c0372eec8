"""Traced memory peak of each solver phase on one bench workload.

    python3 tools/memory_phases.py --workload sparse3k-largest [--seed 2] [--pair-seed N]

The tool builds the workload's pairs as ``bench/run.py`` does (run seed
``--seed``, the workload's own pair seed unless ``--pair-seed`` is given),
writes each A as a Matrix Market file and reads it back with
``read_matrix_market``, then solves every pair under every setting once,
with ``tracemalloc`` on throughout.  The solver phases are the driver's
bindings, replaced from outside for the run and restored afterwards, as
``bench/tracing.py`` replaces them; no solver file changes:

    operator build   driver.StackedOperator
    init             driver.jbd_init
    expansion        driver.jbd_expand
    extraction       driver.extract_ritz
    restart          driver.thick_restart
    recovery         driver.recover_component

Per phase it reports the number of calls, ``peak_bytes``, the largest
traced memory while a call ran (what was already held plus the call's own
temporaries), and ``rise_bytes``, the largest peak less the traced memory at
the call's entry.  ``state_bytes`` is the size of the arrays of one JBD
state, taken from the first state ``jbd_init`` returns.  The read is
reported the same way, and ``solves`` gives each solve's status and counts:
tracing slows a solve but does not change it.  Output is one JSON object on
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # one BLAS thread, as bench/run.py pins, before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
# this checkout's solver and the bench's workload definitions
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import irjbd  # noqa: E402
import irjbd.driver  # noqa: E402
import workloads as wlmod  # noqa: E402

PHASES = {
    "operator build": "StackedOperator",
    "init": "jbd_init",
    "expansion": "jbd_expand",
    "extraction": "extract_ritz",
    "restart": "thick_restart",
    "recovery": "recover_component",
}


class PhasePeaks:
    """Per phase name: calls, largest traced peak and largest rise over entry."""

    def __init__(self):
        self.phases = {}
        self.state_bytes = None

    def measure(self, phase, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        row = self.phases.setdefault(phase, {"calls": 0, "peak_bytes": 0, "rise_bytes": 0})
        row["calls"] += 1
        row["peak_bytes"] = max(row["peak_bytes"], peak)
        row["rise_bytes"] = max(row["rise_bytes"], peak - entry)
        if phase == "init" and self.state_bytes is None:
            self.state_bytes = sum(a.nbytes for a in vars(out).values()
                                   if isinstance(a, np.ndarray))
        return out

    def wrap(self, phase, fn):
        def measured(*args, **kwargs):
            return self.measure(phase, fn, *args, **kwargs)
        return measured


def run(workload, seed, pair_seed):
    wl = wlmod.WORKLOADS[workload]
    pair_seed = wl.pair_seed if pair_seed is None else pair_seed
    pairs = wlmod.generate(wl, seed, pair_seed)
    peaks = PhasePeaks()
    results = []
    originals = {name: getattr(irjbd.driver, name) for name in PHASES.values()}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, pair in enumerate(pairs):
            paths.append(Path(tmp) / f"A{i}.mtx")
            irjbd.write_matrix_market(pair.sparse(), paths[-1])
        L = irjbd.second_order_L(wl.n)
        tracemalloc.start()
        try:
            As = [peaks.measure("read_matrix_market", irjbd.read_matrix_market, p)
                  for p in paths]
            for phase, name in PHASES.items():
                setattr(irjbd.driver, name, peaks.wrap(phase, originals[name]))
            for A in As:
                for cfg in wlmod.configs(wl, seed):
                    res = irjbd.irjbd_solve(A, L, cfg)
                    results.append({"status": res.status, "restarts": res.restarts,
                                    "inner_iterations": res.lsqr_iterations})
        finally:
            for name, fn in originals.items():
                setattr(irjbd.driver, name, fn)
            tracemalloc.stop()
    return {"workload": wl.name, "seed": seed, "pair_seed": pair_seed,
            "numpy": np.__version__, "state_bytes": peaks.state_bytes,
            "phases": peaks.phases, "solves": results}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wlmod.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2, help="run seed, as bench/run.py's")
    parser.add_argument("--pair-seed", type=int, default=None,
                        help="seed of the base pairs (default: the workload's own)")
    opts = parser.parse_args(argv)
    print(json.dumps(run(opts.workload, opts.seed, opts.pair_seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
