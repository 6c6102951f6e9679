"""Byte-identity gate across commits: recompute the golden output digests.

tests/golden/digests.json holds the SHA-256 of every output file of the
canonical experiments (trace on). A change that moves any digest must
regenerate the table with tests/golden/make_golden.py on purpose and say
why in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from vcachesim import mobility

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", _GOLDEN_DIR / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GOLDEN = json.loads(make_golden.GOLDEN_FILE.read_text())


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(make_golden.case_id(*case) for case in make_golden.CASES)


@pytest.mark.parametrize("case", make_golden.CASES, ids=lambda case: make_golden.case_id(*case))
def test_outputs_match_golden_digests(case, tmp_path):
    assert make_golden.digest_case(*case, tmp_path) == GOLDEN[make_golden.case_id(*case)]


def counting_steps(monkeypatch):
    """Count stepped spawns and brake-branch steps of every world built after.

    A step took the brake branch exactly when its result differs from the
    free step's: braking never raises the speed, the free step never lowers
    it, and accelerating from rest always moves.
    """
    counts = {"stepped spawns": 0, "tracked spawns": 0, "brakes": 0}
    spawn = mobility.MobilityWorld.spawn
    step = mobility.MobilityWorld._step

    def counted_spawn(world, vehicle_id, *args):
        spawn(world, vehicle_id, *args)
        tracked = world.riding(vehicle_id) is not None
        counts["tracked spawns" if tracked else "stepped spawns"] += 1

    def counted_step(world, order, start, *args):
        before = [(state.pos_m, state.speed_mps) for state in order[start:]]
        exits = step(world, order, start, *args)
        for (pos, speed), state in zip(before, order[start:]):
            free = mobility.advance_kinematics(pos, speed, None, world.tick_s, world.params)
            counts["brakes"] += (state.pos_m, state.speed_mps) != free
        return exits

    monkeypatch.setattr(mobility.MobilityWorld, "spawn", counted_spawn)
    monkeypatch.setattr(mobility.MobilityWorld, "_step", counted_step)
    return counts


@pytest.mark.parametrize("case", make_golden.STEPPED, ids=lambda case: make_golden.case_id(*case))
def test_min_gap_cases_step_and_brake_with_tracks_on_and_off(case, tmp_path, monkeypatch):
    counts = counting_steps(monkeypatch)
    make_golden.digest_case(*case, tmp_path / "tracked")
    assert counts["stepped spawns"] >= 100 and counts["brakes"] >= 100, counts
    monkeypatch.setattr(mobility, "MAX_TRACK_TICKS", 1)  # no tracks: every vehicle is stepped
    counts["tracked spawns"] = 0
    assert make_golden.digest_case(*case, tmp_path / "stepped") == GOLDEN[make_golden.case_id(*case)]
    assert counts["tracked spawns"] == 0, counts


# the two slowest cases, about half the time of the table with tracks off;
# the min-gap cases run with tracks off in the test above
TRACKS_OFF_SLOW = {
    "highway_single/cached/seed1/n1200",
    make_golden.case_id(*make_golden.OFF_GRID[2]),
}
TRACKS_OFF = [
    case
    for case in make_golden.CASES
    if make_golden.case_id(*case) not in TRACKS_OFF_SLOW and case not in make_golden.STEPPED
]


@pytest.mark.parametrize("case", TRACKS_OFF, ids=lambda case: make_golden.case_id(*case))
def test_outputs_match_golden_digests_with_tracks_off(case, tmp_path, monkeypatch):
    # every vehicle is stepped, so the engine takes the per-event path for
    # coverage, receivers and delays, and plans no due work by track age
    counts = counting_steps(monkeypatch)
    monkeypatch.setattr(mobility, "MAX_TRACK_TICKS", 1)
    assert make_golden.digest_case(*case, tmp_path) == GOLDEN[make_golden.case_id(*case)]
    assert counts["tracked spawns"] == 0 and counts["stepped spawns"] > 0, counts
