"""The comparison of scripts/diff_outputs.py on fixed files; it runs no subprocess."""

import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # the script imports bench_pairs from beside it
import diff_outputs  # noqa: E402

CDT = "time_s,avg_cdt_s,deliveries\n0.000000,0.000000,0\n5.000000,0.001200,3\n"
TRACE = "t=0.000000 SPAWN vehicle=v000 road=h wanted=/traffic/1\n"


def outputs(root, files):
    root.mkdir(parents=True)
    for name, text in files.items():
        (root / name).write_bytes(text.encode())
    return root


def test_equal_files_are_no_difference(tmp_path):
    base = outputs(tmp_path / "base", {"cdt.csv": CDT, "trace.log": TRACE})
    change = outputs(tmp_path / "change", {"cdt.csv": CDT, "trace.log": TRACE})
    assert diff_outputs.first_difference(base, change) is None


def test_the_first_differing_line_is_named_with_both_sides(tmp_path):
    base = outputs(tmp_path / "base", {"cdt.csv": CDT, "trace.log": TRACE})
    moved = CDT.replace("0.001200,3", "0.001300,3")
    change = outputs(tmp_path / "change", {"cdt.csv": moved, "trace.log": TRACE + TRACE})
    assert diff_outputs.first_difference(base, change) == (
        "cdt.csv:3: base '5.000000,0.001200,3', change '5.000000,0.001300,3'"
    )


def test_a_line_missing_at_the_end_is_shown_against_the_end_of_file(tmp_path):
    base = outputs(tmp_path / "base", {"trace.log": TRACE + TRACE})
    change = outputs(tmp_path / "change", {"trace.log": TRACE})
    assert diff_outputs.first_difference(base, change) == (
        f"trace.log:2: base {TRACE.strip()!r}, change end of file"
    )


def test_a_missing_file_or_a_line_ending_is_a_difference(tmp_path):
    base = outputs(tmp_path / "base", {"cdt.csv": CDT, "chr.csv": CDT})
    change = outputs(tmp_path / "change", {"cdt.csv": CDT})
    assert diff_outputs.first_difference(base, change) == (
        "files: base ['cdt.csv', 'chr.csv'], change ['cdt.csv']"
    )
    crlf = outputs(tmp_path / "crlf", {"cdt.csv": CDT.replace("\n", "\r\n"), "chr.csv": CDT})
    assert diff_outputs.first_difference(base, crlf) == "cdt.csv: line endings differ"


def test_compare_skips_what_the_base_rejects_and_reports_each_other_difference(tmp_path):
    draws = [{"draw": i} for i in range(5)]
    base = ["ok", diff_outputs.REJECTED, "ok", "ok", "error: KeyError: 'x'"]
    change = ["ok", "ok", "ok", "error: KeyError: 'x'", "error: KeyError: 'x'"]
    outputs(tmp_path / "base" / "0", {"cdt.csv": CDT})
    outputs(tmp_path / "change" / "0", {"cdt.csv": CDT})
    outputs(tmp_path / "base" / "2", {"cdt.csv": CDT})
    outputs(tmp_path / "change" / "2", {"cdt.csv": CDT + "10.000000,0.001200,3\n"})
    differing, rejected = diff_outputs.compare(
        draws, base, change, tmp_path / "base", tmp_path / "change"
    )
    assert rejected == 1
    assert differing == [
        ({"draw": 2}, "cdt.csv:4: base end of file, change '10.000000,0.001200,3'"),
        ({"draw": 3}, "status: base 'ok', change \"error: KeyError: 'x'\""),
    ]


def test_the_draws_are_seeded_and_reach_the_rounding_edges():
    draws = diff_outputs.draw_configs(200, 1)
    assert draws == diff_outputs.draw_configs(200, 1)
    assert draws != diff_outputs.draw_configs(200, 2)
    assert json.loads(json.dumps(draws)) == draws  # the worker gets them as JSON
    assert {draw["builder"] for draw in draws} == set(diff_outputs.BUILDER_NAMES)
    gaps = {draw["overrides"].get("kinematics.min_gap_m") for draw in draws}
    assert {7.0, 14.0} <= gaps
    assert any(draw["drain_s"] is not None for draw in draws)
