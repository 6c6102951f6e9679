"""Regenerate tests/golden/arrivals.json, the recorded arrival schedules.

The seeded draws are part of the output contract: every arrival time, road
and wanted item of a run comes from mobility.generate_arrivals, so a change
to how RandomSource draws, or to the order in which the schedule draws,
moves every output. tests/test_arrival_schedules.py only reads the table.
Run this on purpose, from the repository root, and say in CHANGES.md why
the table moved:

    PYTHONPATH=src python tests/golden/make_arrivals.py

Each case stores the SHA-256 of the whole schedule, rendered one arrival a
line as "at_us road_id vehicle_id wanted", and its first lines in full.
The canonical cases draw what the scenario builders' runs draw (the
benchmark's highway_long and relay_storm among them); the edge cases draw
from ranges of size 1, powers of two and three roads.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from vcachesim.content import catalog
from vcachesim.mobility import RoadSegment, generate_arrivals
from vcachesim.scenarios import resolve_config
from vcachesim.simcore import RandomSource

ARRIVALS_FILE = Path(__file__).resolve().parent / "arrivals.json"
HEAD_LINES = 4

# (builder, seed, vehicle count, field overrides): the schedule a run of the
# builder draws; a None count keeps the builder's default
SCENARIO_CASES = [
    ("highway_single", 1, 1200, ()),
    ("highway_single", 42, 1200, ()),
    ("highway_multi", 1, 300, (("catalog_size", 100),)),
    ("highway_multi", 2, None, ()),
    *[(name, seed, None, ()) for name in ("urban_single", "urban_multi") for seed in (1, 2, 42)],
    ("urban_single", 3, 60, ()),
]
# (pattern, count, window_s, road count, pool size, seed): draws from a
# range of size 1 (one item, one road, a window of 1 us), a power of two and
# its neighbours, and three roads
EDGE_CASES = [
    ("highway-uniform", 9, 9.0, 1, 1, 5),
    ("highway-uniform", 40, 40.0, 1, 16, 7),
    ("highway-uniform", 40, 40.0, 1, 17, 7),
    ("urban-random", 12, 0.000001, 1, 1, 3),
    ("urban-random", 50, 1.048576, 3, 15, 11),
    ("urban-random", 50, 1.048577, 3, 32, 11),
]


def scenario_id(name: str, seed: int, count: int | None, overrides=()) -> str:
    size = "" if count is None else f"/n{count}"
    tail = "".join(f"/{key}={value}" for key, value in overrides)
    return f"{name}/seed{seed}{size}{tail}"


def edge_id(pattern: str, count: int, window_s: float, roads: int, pool: int, seed: int) -> str:
    return f"{pattern}/seed{seed}/n{count}/window{window_s}/roads{roads}/pool{pool}"


def scenario_arrivals(name: str, seed: int, count: int | None, overrides=()) -> list:
    """The schedule a run of the builder draws, as the engine draws it."""
    settings = {"seed": seed, **dict(overrides)}
    if count is not None:
        settings["count"] = count
    cfg = resolve_config(name, settings)
    return generate_arrivals(
        cfg.arrival_pattern,
        cfg.vehicle_count,
        cfg.arrival_window_s,
        cfg.roads,
        list(catalog(cfg.catalog_size, cfg.payload_bits)),
        RandomSource(cfg.seed),
    )


def edge_arrivals(
    pattern: str, count: int, window_s: float, roads: int, pool: int, seed: int
) -> list:
    return generate_arrivals(
        pattern,
        count,
        window_s,
        [RoadSegment(id=f"r{i}", length_m=100.0) for i in range(roads)],
        list(catalog(pool, 2000)),
        RandomSource(seed),
    )


def render(arrivals) -> list[str]:
    return [f"{a.at_us} {a.road_id} {a.vehicle_id} {a.wanted}" for a in arrivals]


def record(lines: list[str]) -> dict:
    text = "".join(line + "\n" for line in lines)
    return {
        "count": len(lines),
        "head": lines[:HEAD_LINES],
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def arrivals() -> dict[str, list]:
    """Case id -> drawn schedule, for every case."""
    table = {scenario_id(*case): scenario_arrivals(*case) for case in SCENARIO_CASES}
    table.update({edge_id(*case): edge_arrivals(*case) for case in EDGE_CASES})
    return table


def schedules() -> dict[str, list[str]]:
    """Case id -> rendered schedule, for every case."""
    return {key: render(drawn) for key, drawn in arrivals().items()}


def main() -> int:
    table = {key: record(lines) for key, lines in schedules().items()}
    ARRIVALS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} schedules to {ARRIVALS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
