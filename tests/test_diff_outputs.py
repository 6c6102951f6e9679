"""The comparison of scripts/diff_outputs.py on fixed files; it runs no subprocess."""

import json
import random
import sys
from pathlib import Path

from vcachesim.metrics import trace_text
from vcachesim.scenarios import BUILDERS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # the script imports bench_pairs from beside it
import diff_outputs  # noqa: E402

CDT = "time_s,avg_cdt_s,deliveries\n0.000000,0.000000,0\n5.000000,0.001200,3\n"
TRACE = trace_text([(0, "SPAWN", "v000", "h", "/traffic/1")])[0] + "\n"


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


def tangent(zone, road):
    """Whether the zone's circle touches the road's line at exactly one
    point, by the distance the zone test computes at the foot."""
    (x, y), (origin_x, origin_y), (ux, uy) = zone["center"], road.origin, road.direction
    return abs((x - origin_x) * uy - (y - origin_y) * ux) == zone["radius_m"]


def test_the_layout_draws_depend_on_the_seed_alone_and_reach_a_tangent_zone():
    random.seed(0)
    draws = diff_outputs.draw_configs(200, 1)
    random.seed(1)  # the module's generator is not the one drawn from
    assert diff_outputs.draw_configs(200, 1) == draws
    laid = [draw for draw in draws if draw["rsus"] is not None]
    assert {draw["builder"] for draw in laid} == set(diff_outputs.LAYOUT_ROADS)
    for draw in laid:
        lines, (low, high) = diff_outputs.LAYOUT_ROADS[draw["builder"]]
        roads = BUILDERS[draw["builder"]]().roads
        assert {road.origin[1] for road in roads} == set(lines)
        assert all(road.direction[1] == 0.0 for road in roads)
        ends = [road.origin[0] + road.direction[0] * at for road in roads for at in (0, road.length_m)]
        assert (min(ends), max(ends)) == (low, high)
        assert 1 <= len(draw["rsus"]) <= 3
    zones = [(zone, BUILDERS[draw["builder"]]().roads) for draw in laid for zone in draw["rsus"]]
    assert any(tangent(zone, road) for zone, roads in zones for road in roads)
    assert not all(any(tangent(zone, road) for road in roads) for zone, roads in zones)
