"""Smoke test of scripts/run_all_experiments.py on one seed."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_experiments.py"
_spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
run_all_experiments = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_all_experiments)


def test_one_seed_writes_every_run_and_prints_the_ratios(tmp_path, capsys):
    assert run_all_experiments.main(["--seeds", "1", "--out", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "highway_multi_cached_s1",
        "highway_single_cached_s1",
        "highway_single_nocache_s1",
        "urban_multi_cached_s1",
        "urban_single_cached_s1",
        "urban_single_nocache_s1",
    ]
    ratios = [line for line in capsys.readouterr().out.splitlines() if " ratio" in line]
    assert [line.split(":")[0].strip() for line in ratios] == [
        "urban cdt ratio (cached/nocache)",
        "highway cdt ratio (cached/nocache)",
        "relay chain cdt ratio (multi/single)",
        "relay chain rsu-request ratio",
    ]
    for line in ratios:
        assert float(line.split(":")[1]) > 0
