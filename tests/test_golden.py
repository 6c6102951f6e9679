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
from vcachesim.engine import Simulation

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


def digest_and_count(case, out_dir, monkeypatch):
    """The case's digests and events processed; checks that the world
    counted every grid tick up to the last tick instant, run or skipped."""
    sims = []
    run = Simulation.run

    def kept_run(sim):
        sims.append(sim)
        return run(sim)

    monkeypatch.setattr(Simulation, "run", kept_run)
    digests = make_golden.digest_case(*case, out_dir)
    (sim,) = sims
    assert sim.world._ticks == sim.last_tick_us // sim.tick_us + 1
    return digests, sim.queue.processed_total


@pytest.mark.parametrize("case", make_golden.CASES, ids=lambda case: make_golden.case_id(*case))
def test_beacon_only_ticks_and_beacon_plans_change_no_output(case, tmp_path, monkeypatch):
    digests, events = digest_and_count(case, tmp_path / "as-is", monkeypatch)
    assert digests == GOLDEN[make_golden.case_id(*case)]
    with monkeypatch.context() as patched:
        # every tick advances the world and looks for spawns
        patched.setattr(Simulation, "_world_idle", lambda sim, now: False)
        assert digest_and_count(case, tmp_path / "full", patched) == (digests, events)
    with monkeypatch.context() as patched:
        # every beacon takes the plain one-interval re-arm; a tracked
        # vehicle's uncovered beacons then still pop, and a tick runs for
        # them, so only the event count may grow
        patched.setattr(Simulation, "_beacon_plan", lambda sim, vehicle_id, stagger_us: None)
        plain_digests, plain_events = digest_and_count(case, tmp_path / "plain", patched)
        assert plain_digests == digests and plain_events >= events


def test_most_highway_ticks_only_beacon_or_idle(monkeypatch):
    # the oracle test above means something only if the shortcut is taken
    ticks = {"tick events": 0, "world ticks": 0}
    on_tick = Simulation._on_tick
    world_tick = mobility.MobilityWorld.tick

    def counted_on_tick(sim):
        ticks["tick events"] += 1
        on_tick(sim)

    def counted_world_tick(world, now_us):
        ticks["world ticks"] += 1
        return world_tick(world, now_us)

    monkeypatch.setattr(Simulation, "_on_tick", counted_on_tick)
    monkeypatch.setattr(mobility.MobilityWorld, "tick", counted_world_tick)
    Simulation(make_golden.build("highway_single", True, 1, 100)).run()
    assert 0 < ticks["world ticks"] < ticks["tick events"] // 2, ticks
