import importlib.util
import sys
from pathlib import Path

import irjbd.driver

TOOL = Path(__file__).resolve().parent.parent / "tools" / "memory_phases.py"


def test_phases_of_one_pairs200_pass(monkeypatch):
    # the tool puts src/ and bench/ on the path when it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("memory_phases", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    originals = {name: getattr(irjbd.driver, name) for name in tool.PHASES.values()}

    out = tool.run("pairs200", 2, None)

    assert all(getattr(irjbd.driver, name) is fn for name, fn in originals.items())
    assert list(out["phases"]) == ["read_matrix_market", *tool.PHASES]
    assert [s["status"] for s in out["solves"]] == ["converged"] * 6
    phases = out["phases"]
    assert phases["read_matrix_market"]["calls"] == 3
    assert phases["init"]["calls"] == phases["recovery"]["calls"] / 5 == 6
    assert phases["restart"]["calls"] == sum(s["restarts"] for s in out["solves"])
    # a restart's temporaries are keep columns, not a second state
    assert 0 < phases["restart"]["rise_bytes"] < out["state_bytes"]
