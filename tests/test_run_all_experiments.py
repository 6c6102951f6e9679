"""Smoke test of scripts/run_all_experiments.py on one seed, and its seed-list parsing."""

import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    ("seeds", "message"),
    [
        ("", "seed list is empty"),
        ("1,x", "bad seed list '1,x'"),
        ("1,2,1", "seeds must be distinct: '1,2,1'"),
    ],
)
def test_a_bad_seed_list_is_a_usage_error_before_any_run(seeds, message, tmp_path, capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exit_info:
        run_all_experiments.main(["--seeds", seeds, "--out", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --seeds: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists()
