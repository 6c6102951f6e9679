"""Smoke test of scripts/profile_run.py on a small run."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_run.py"
_spec = importlib.util.spec_from_file_location("profile_run", SCRIPT)
profile_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_run)


def test_five_vehicle_urban_run_prints_the_tick_handler(capsys):
    assert profile_run.main(["urban_single", "--count", "5", "--top", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["self_s", "calls", "code"]
    ticks = [line for line in lines if line.endswith(" Simulation._on_tick")]
    assert len(ticks) == 1
    self_s, calls, where, _ = ticks[0].split()
    assert float(self_s) >= 0 and int(calls) > 0
    assert where.startswith("engine.py:")
    # generated dataclass methods keep a row each, named by their class
    assert any(line.endswith(" <string>:2 ContentItem.__init__") for line in lines)
    assert lines[-1].endswith("code objects")
