import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "alternate.py"

# a stand-in for bench/run.py: it logs which checkout ran it and prints a
# canned result line, its value read from the checkout's VALUE file, so the
# two checkouts share one bench/ tree
FAKE_RUN = '''\
import json, os, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
with open(os.environ["ALTERNATE_LOG"], "a") as log:
    log.write(root.name + " " + " ".join(sys.argv[1:]) + "\\n")
value = float((root / "VALUE").read_text())
print("time_to_solution_s ...")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "time_to_solution_s": {"value": value, "unit": "s"},
    "restarts": {"value": 48, "unit": "count"}}}))
'''


def _checkout(tmp_path, name, value, script=FAKE_RUN):
    root = tmp_path / name
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(script)
    (root / "VALUE").write_text(str(value))
    return root


def _alternate(tmp_path, parent, change, *extra):
    log = tmp_path / "order.log"
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", "pairs200", "--out", str(out), *extra, "--", "--seed", "2"],
        capture_output=True, text=True, timeout=60,
        env={"ALTERNATE_LOG": str(log), "PATH": "/usr/bin:/bin"})
    return proc, log, out


def test_alternated_pairs_and_summary(tmp_path):
    parent = _checkout(tmp_path, "parent", 2.0)
    change = _checkout(tmp_path, "change", 1.5)
    proc, log, out = _alternate(tmp_path, parent, change, "--pairs", "4")
    assert proc.returncode == 0, proc.stderr
    order = [line.split()[0] for line in log.read_text().splitlines()]
    assert order == ["parent", "change", "change", "parent"] * 2
    assert all(line.endswith("--workload pairs200 --seed 2")
               for line in log.read_text().splitlines())
    row = json.loads(out.read_text())["workloads"]["pairs200"]
    assert row["args"] == ["--seed", "2"]
    assert len(row["runs"]) == 8 and row["runs"][0] == {
        "pair": 0, "side": "parent", "time_to_solution_s": 2.0, "restarts": 48,
        "correct": True, "failed": 0, "attempted": 3}
    time = row["summary"]["time_to_solution_s"]
    assert time == {"parent_median": 2.0, "parent_q1": 2.0, "parent_q3": 2.0,
                    "change_median": 1.5, "change_q1": 1.5, "change_q3": 1.5,
                    "change_wins": 4, "pairs": 4, "median_gap": -0.5, "claim_holds": True}
    # a tie wins for neither side
    restarts = row["summary"]["restarts"]
    assert restarts["change_wins"] == 0 and restarts["median_gap"] == 0
    assert restarts["claim_holds"] is False

    # a second label is added beside the first
    proc, _, _ = _alternate(tmp_path, parent, change, "--pairs", "1", "--label", "held-out")
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(out.read_text())["workloads"]) == {"pairs200", "held-out"}


def test_refuses_differing_bench_trees(tmp_path):
    parent = _checkout(tmp_path, "parent", 2.0)
    change = _checkout(tmp_path, "change", 1.5, script=FAKE_RUN + "# edited\n")
    proc, log, out = _alternate(tmp_path, parent, change)
    assert proc.returncode == 2
    assert "refusing" in proc.stderr and "run.py" in proc.stderr
    assert not log.exists() and not out.exists()


def _summarize(parent, change, higher=()):
    spec = importlib.util.spec_from_file_location("alternate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = [{"pair": pair, "side": side, "t": value}
            for pair, values in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), values)]
    return module.summarize(runs, set(higher))["t"]


def test_claim_needs_nine_tenths_and_a_gap_past_the_spread():
    parent = [1.00, 1.02, 1.04, 1.06, 1.08, 1.00, 1.02, 1.04, 1.06, 1.08]
    # 10 wins and a median gap of 0.1 against a parent spread of 0.04
    row = _summarize(parent, [v - 0.1 for v in parent])
    assert row["change_wins"] == 10 and row["claim_holds"] is True
    assert abs(row["median_gap"] + 0.1) < 1e-12
    assert row["parent_q3"] - row["parent_q1"] < 0.1
    # 9 wins of 10 still hold; 8 do not, whatever the gap
    assert _summarize(parent, [v - 0.1 for v in parent[:9]] + [9.0])["claim_holds"] is True
    assert _summarize(parent, [v - 0.1 for v in parent[:8]] + [9.0, 9.0])["claim_holds"] is False
    # every pair won, but by less than the parent's own spread
    row = _summarize(parent, [v - 0.01 for v in parent])
    assert row["change_wins"] == 10 and row["claim_holds"] is False
    # a metric that is better higher: the gap must be positive
    row = _summarize(parent, [v + 0.1 for v in parent], higher=["t"])
    assert row["change_wins"] == 10 and row["claim_holds"] is True
    assert _summarize(parent, [v - 0.1 for v in parent], higher=["t"])["claim_holds"] is False
