"""Regenerate tests/golden/digests.json, the golden output digests.

This is the only code that writes the table; tests/test_golden.py only
reads it. Run it on purpose, from the repository root, on the commit whose
outputs are the contract, and say in CHANGES.md why the table moved:

    PYTHONPATH=src python tests/golden/make_golden.py

Each case runs one canonical experiment with the trace on and stores the
SHA-256 of every file write_outputs produces (cdt.csv, requests_server.csv,
requests_rsu.csv, chr.csv when caching, trace.log). The off-grid cases set
request, beacon and announce intervals (and ticks) that are not multiples of
the tick, so due times inside one tick differ from vehicle to vehicle and the
order in which a tick schedules its due work shows in the outputs. The small
highway_multi cases leave most ticks with nothing to do while every relay
announce lands on a tick instant, so a tick that takes another place among
the events of its instant shows in trace.log. The min-gap cases set the gap
to a track position at the spawn lag, so float rounding makes vehicles brake
and nearly all of them get their own track, built by the car-following step
with its brake branch. The beacon-edge cases set a beacon interval below the
tick (with a request interval below it too) and one equal to it, on both
sides of the shortest interval at which a beacon's due time alone gives the
tick it runs at. The small-cache case has a 100-item catalog and 16-item RSU
caches, so RSU caches evict and most content on the air is for items its
listeners do not want. The slow-backhaul cases fetch so slowly that no
server answer arrives before the run ends, so vehicles stay unsatisfied and
request every cycle, and the order of the attempts within one instant shows
in trace.log.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from vcachesim.cli import write_outputs
from vcachesim.engine import run_simulation
from vcachesim.scenarios import resolve_config

GOLDEN_FILE = Path(__file__).resolve().parent / "digests.json"

# The six canonical experiments of scripts/run_all_experiments.py.
EXPERIMENTS = [
    ("urban_single", True),
    ("urban_single", False),
    ("urban_multi", True),
    ("highway_single", True),
    ("highway_single", False),
    ("highway_multi", True),
]
SEEDS = (1, 2)
OFF_GRID = [
    ("urban_single", True, 1, None, (("request_interval_s", 0.35), ("radio.beacon_interval_s", 0.25))),
    (
        "urban_multi", True, 2, None,
        (("tick_s", 0.07), ("request_interval_s", 1.05), ("radio.beacon_interval_s", 0.33)),
    ),
    (
        "highway_multi", True, 1, None,
        (
            ("tick_s", 0.07),
            ("request_interval_s", 0.45),
            ("relay_announce_interval_s", 3.05),
            ("radio.beacon_interval_s", 0.29),
        ),
    ),
]
MIN_GAP = [
    (name, True, 1, None, (("kinematics.min_gap_m", 14.0),))
    for name in ("highway_single", "highway_multi")
]
# beacon intervals below and equal to the tick, the first with a request
# interval below it too: below the tick, due work runs once per tick at most,
# which holds back its run ages (_TrackAges.plan)
BEACON_EDGES = [
    (
        "urban_single", True, 1, None,
        (("tick_s", 0.13), ("radio.beacon_interval_s", 0.1), ("request_interval_s", 0.09)),
    ),
    ("highway_multi", True, 1, 20, (("radio.beacon_interval_s", 0.1),)),
]
# the relay_storm benchmark workload: 100 names, so most content a vehicle
# hears is for an item it does not want, and 16-item RSU caches that evict
SMALL_CACHES = [
    (
        "highway_multi", True, 1, None,
        (("catalog_size", 100), ("rsu_cache_capacity", 16), ("relay_announce_interval_s", 3.0)),
    ),
]
# vehicles that stay unsatisfied attempt every cycle until they exit
SLOW_BACKHAUL = [
    ("highway_single", True, 1, 100, (("backhaul_latency_s", 500.0),)),
    ("urban_single", True, 1, None, (("backhaul_latency_s", 300.0),)),
]
# (builder, caching, seed, vehicle count, field overrides); a None count keeps
# the builder's default; the overrides are resolve_config's, so a key
# "radio.x" or "kinematics.x" sets field x of cfg.radio or cfg.kinematics
CASES = (
    [(name, caching, seed, None, ()) for name, caching in EXPERIMENTS for seed in SEEDS]
    + [("highway_single", True, 1, 1200, ())]
    + [("highway_multi", True, seed, 20, ()) for seed in SEEDS]
    + OFF_GRID
    + MIN_GAP
    + BEACON_EDGES
    + SMALL_CACHES
    + SLOW_BACKHAUL
)


def case_id(name: str, caching: bool, seed: int, count: int | None, overrides=()) -> str:
    size = "" if count is None else f"/n{count}"
    tail = "".join(f"/{key}={value}" for key, value in overrides)
    return f"{name}/{'cached' if caching else 'nocache'}/seed{seed}{size}{tail}"


def build(name: str, caching: bool, seed: int, count: int | None, overrides=()):
    settings = {"caching": caching, "seed": seed, "trace": True, **dict(overrides)}
    if count is not None:
        settings["count"] = count
    return resolve_config(name, settings)


def digest_case(name, caching, seed, count, overrides, out_dir: Path) -> dict[str, str]:
    """Run one case into out_dir; returns file name -> SHA-256 hex digest."""
    result = run_simulation(build(name, caching, seed, count, overrides))
    paths = write_outputs(result, out_dir)
    return {
        filename: hashlib.sha256(path.read_bytes()).hexdigest()
        for filename, path in sorted(paths.items())
    }


def main() -> int:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            key = case_id(*case)
            table[key] = digest_case(*case, Path(tmp) / key.replace("/", "_"))
            print(f"{key}: {len(table[key])} files")
    GOLDEN_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
