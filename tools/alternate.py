"""Run bench/run.py from two checkouts in alternated pairs and summarize them.

    python3 tools/alternate.py --parent ../parent --change . --pairs 10 \
        --workload pairs200 --out BENCH_x.json -- --seed 2 --seconds 30

Each pair runs ``bench/run.py --workload W <args>`` once from each
checkout, each from its own root directory, one run at a time.  The parent
runs first in even pairs and the change first in odd ones, so a drift of
the machine's speed falls on both sides alike.  Both checkouts must hold
the same ``bench/`` tree (compared file by file, caches and outputs
aside): otherwise the two sides would not be measured alike, and the tool
refuses to run.

Every metric of each run's result line (the last line of its output) is
collected, and the summary gives per side the median and quartiles
(``statistics.quantiles(n=4)``) and the number of pairs the change won, a
pair being won when the change's value is lower (higher for a metric that
``BENCHMARK.json`` marks ``"better": "higher"``).  ``median_gap`` is the
change's median less the parent's, and ``claim_holds`` is true when the
change won at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's q3 - q1.  The summary goes into
``--out`` under ``workloads[<label>]`` as ``{"args", "summary", "runs"}``;
other labels already in that file are kept.  Exit code 0 on success, 2 on
bad arguments or differing bench trees, 1 when a run fails.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

SKIPPED = {"__pycache__", ".bench_out", ".pytest_cache", ".hypothesis"}


def bench_files(root):
    """Relative paths of the files of ``root/bench`` that define the benchmark."""
    base = Path(root) / "bench"
    return sorted(str(p.relative_to(base)) for p in base.rglob("*")
                  if p.is_file() and not SKIPPED & set(p.relative_to(base).parts))


def bench_difference(parent, change):
    """A description of how the two bench trees differ, or None when they match."""
    left, right = bench_files(parent), bench_files(change)
    if not left:
        return f"no bench/ tree in {parent}"
    if left != right:
        return f"bench/ holds different files: {sorted(set(left) ^ set(right))}"
    _, mismatch, errors = filecmp.cmpfiles(Path(parent) / "bench", Path(change) / "bench",
                                           left, shallow=False)
    if mismatch or errors:
        return f"bench/ files differ: {sorted(mismatch + errors)}"
    return None


def higher_is_better(root):
    """Metric names that BENCHMARK.json in ``root`` marks as better when higher."""
    path = Path(root) / "BENCHMARK.json"
    if not path.is_file():
        return set()
    spec = json.loads(path.read_text())
    return {m["name"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])
            if m.get("better") == "higher"}


def run_once(root, workload, args):
    """One bench/run.py run from ``root``; returns its parsed result line."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, *args],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs, higher):
    """Per metric: each side's median and quartiles, the change's wins, the
    signed gap change_median - parent_median and whether a gain is shown."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r for r in runs}
    names = [k for k in runs[0] if k not in ("pair", "side", "correct", "failed", "attempted")]
    summary = {}
    for name in names:
        row = {}
        for side in ("parent", "change"):
            values = [by[p, side][name] for p in pairs]
            row[f"{side}_median"] = statistics.median(values)
            row[f"{side}_q1"], row[f"{side}_q3"] = quartiles(values)
        sign = -1.0 if name in higher else 1.0
        row["change_wins"] = sum(sign * by[p, "change"][name] < sign * by[p, "parent"][name]
                                 for p in pairs)
        row["pairs"] = len(pairs)
        row["median_gap"] = row["change_median"] - row["parent_median"]
        row["claim_holds"] = (10 * row["change_wins"] >= 9 * len(pairs)
                              and -sign * row["median_gap"] > row["parent_q3"] - row["parent_q1"])
        summary[name] = row
    return summary


def alternate(parent, change, pairs, workload, args, log=lambda line: print(line, flush=True)):
    """The runs of ``pairs`` alternated pairs, parent first in even pairs."""
    runs = []
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(parent if side == "parent" else change, workload, args)
            run = {"pair": pair, "side": side}
            run.update({name: m["value"] for name, m in result["metrics"].items()})
            run.update(correct=result["correct"], failed=result["failed"],
                       attempted=result["attempted"])
            runs.append(run)
            log(f"pair {pair} {side}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--label", help="key under 'workloads' (default: the workload)")
    parser.add_argument("--out", required=True, help="JSON file to write or update")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="arguments for bench/run.py, after --")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")
    problem = bench_difference(opts.parent, opts.change)
    if problem:
        print(f"alternate: refusing to run: {problem}", file=sys.stderr)
        return 2
    try:
        runs = alternate(opts.parent, opts.change, opts.pairs, opts.workload, args)
    except RuntimeError as exc:
        print(f"alternate: {exc}", file=sys.stderr)
        return 1
    out = Path(opts.out)
    record = json.loads(out.read_text()) if out.is_file() else {}
    record.setdefault("workloads", {})[opts.label or opts.workload] = {
        "args": args, "summary": summarize(runs, higher_is_better(opts.parent)), "runs": runs}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
