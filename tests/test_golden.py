"""Byte-identity gate across commits: recompute the golden output digests.

tests/golden/digests.json holds the SHA-256 of every output file of the
canonical experiments (trace on). A change that moves any digest must
regenerate the table with tests/golden/make_golden.py on purpose and say
why in CHANGES.md.
"""

import importlib.util
import json
import weakref
from pathlib import Path

import pytest

from vcachesim import engine, mobility
from vcachesim.engine import Simulation
from vcachesim.protocol import Beacon

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


def counting_tracks(monkeypatch):
    """Count spawns onto the shared free-flow track and onto own tracks, and
    braked steps of own tracks, in every world built after.

    A step braked exactly when its result differs from the free step's from
    the same state: braking never raises the speed, the free step never
    lowers it, and accelerating from rest always moves.
    """
    counts = {"shared spawns": 0, "own spawns": 0, "brakes": 0}
    own = weakref.WeakSet()  # every track _follow built
    spawn = mobility.MobilityWorld.spawn
    follow = mobility.MobilityWorld._follow

    def counted_spawn(world, vehicle_id, *args):
        spawn(world, vehicle_id, *args)
        counts["own spawns" if world._states[vehicle_id].track in own else "shared spawns"] += 1

    def counted_follow(world, state, pos, speed, leader):
        start = len(pos)
        follow(world, state, pos, speed, leader)
        track = state.track
        own.add(track)
        for age in range(start, len(track.pos)):
            free = mobility.advance_kinematics(
                track.pos[age - 1], track.speed[age - 1], None, world.tick_s, world.params
            )
            counts["brakes"] += (track.pos[age], track.speed[age]) != free

    monkeypatch.setattr(mobility.MobilityWorld, "spawn", counted_spawn)
    monkeypatch.setattr(mobility.MobilityWorld, "_follow", counted_follow)
    return counts


def own_tracks_only(monkeypatch):
    """Tracks off: no free-flow track, so every vehicle gets its own at spawn."""
    monkeypatch.setattr(mobility.MobilityWorld, "_track", lambda world, speed_mps: None)


@pytest.mark.parametrize("case", make_golden.MIN_GAP, ids=lambda case: make_golden.case_id(*case))
def test_min_gap_cases_brake_with_tracks_on_and_off(case, tmp_path, monkeypatch):
    counts = counting_tracks(monkeypatch)
    make_golden.digest_case(*case, tmp_path / "shared")
    assert counts["own spawns"] >= 100 and counts["brakes"] >= 100, counts
    own_tracks_only(monkeypatch)  # tracks off
    counts["shared spawns"] = 0
    assert make_golden.digest_case(*case, tmp_path / "own") == GOLDEN[make_golden.case_id(*case)]
    assert counts["shared spawns"] == 0, counts


TRACKS_OFF = [case for case in make_golden.CASES if case not in make_golden.MIN_GAP]


@pytest.mark.parametrize("case", TRACKS_OFF, ids=lambda case: make_golden.case_id(*case))
def test_outputs_match_golden_digests_with_tracks_off(case, tmp_path, monkeypatch):
    # no vehicle shares a track, so the engine keeps memos and beacon plans,
    # and with them the range tests and delays of frame receivers, per vehicle
    counts = counting_tracks(monkeypatch)
    own_tracks_only(monkeypatch)
    assert make_golden.digest_case(*case, tmp_path) == GOLDEN[make_golden.case_id(*case)]
    assert counts["shared spawns"] == 0 and counts["own spawns"] > 0, counts


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
def test_beacon_only_ticks_change_no_output(case, tmp_path, monkeypatch):
    digests, events = digest_and_count(case, tmp_path / "as-is", monkeypatch)
    assert digests == GOLDEN[make_golden.case_id(*case)]
    with monkeypatch.context() as patched:
        every_tick_advances(patched)
        assert digest_and_count(case, tmp_path / "full", patched) == (digests, events)


def every_tick_advances(monkeypatch):
    """Make the world advance, and look for spawns, at every instant at
    which a tick runs, as if an advance had been filed there: each tick
    event's, the last tick instant, and each instant that gets due work.
    An instant's advance comes before its due work on the due heap, so the
    walk to the next tick stops there and the tick runs the instant itself,
    its beacons included; the due work put on the heap at the instant being
    advanced runs in that advance."""
    on_tick = Simulation._on_tick
    running = []  # the simulation whose tick is running

    def advancing_tick(sim):
        running[:] = [sim]
        sim._file_advance(sim.queue.now_us)
        sim._file_advance(sim.last_tick_us)
        on_tick(sim)

    def filing(put):
        def filed(heap, entry):
            put(heap, entry)
            if entry[1] != engine._ADVANCE and entry[0] > running[0].queue.now_us:
                running[0]._file_advance(entry[0])

        return filed

    monkeypatch.setattr(Simulation, "_on_tick", advancing_tick)
    monkeypatch.setattr(engine, "heappush", filing(engine.heappush))
    monkeypatch.setattr(engine, "heapreplace", filing(engine.heapreplace))


# 900 m of gap on 800 m roads: the entry behind a vehicle opens at its exit
ROAD_SHORTER_THAN_GAP = ("urban_single", True, 1, None, (("kinematics.min_gap_m", 900.0),))


def run_logging_advances(case, monkeypatch):
    """Run case; returns its result and, for every advance of the world,
    (instant, spawns and exits it took)."""
    advances = []
    advance = Simulation._advance_world

    def logged(sim, now):
        world = sim.world
        before = world.spawned_total + world.exited_total
        advance(sim, now)
        advances.append((now, world.spawned_total + world.exited_total - before))

    monkeypatch.setattr(Simulation, "_advance_world", logged)
    return Simulation(make_golden.build(*case)).run(), advances


@pytest.mark.parametrize(
    "case",
    [*make_golden.CASES, ROAD_SHORTER_THAN_GAP],
    ids=lambda case: make_golden.case_id(*case),
)
def test_every_world_advance_spawns_or_takes_an_exit(case, monkeypatch):
    # advances are filed only where the world has work: an exit, or an
    # arrival that is due when its entry opens
    _, advances = run_logging_advances(case, monkeypatch)
    assert advances
    assert [at_us for at_us, changed in advances if not changed] == []


def test_the_entry_behind_a_vehicle_opens_at_its_exit_on_a_road_shorter_than_the_gap(
    monkeypatch,
):
    result, advances = run_logging_advances(ROAD_SHORTER_THAN_GAP, monkeypatch)
    assert 0 < result.spawned < result.config.vehicle_count  # the entries held vehicles back
    every_tick_advances(monkeypatch)
    full, _ = run_logging_advances(ROAD_SHORTER_THAN_GAP, monkeypatch)
    assert full.trace_lines == result.trace_lines
    assert (full.spawned, full.exited, full.satisfied, full.events_processed) == (
        result.spawned,
        result.exited,
        result.satisfied,
        result.events_processed,
    )


def logged_instants(monkeypatch):
    """Record the instants at which the tick takes due work, each once, and
    those at which a beacon is sent, on the walk to the next tick or not."""
    taken, sent = [], set()
    take, transmit = Simulation._take_due, Simulation.transmit

    def logged_take(sim, now):
        taken.append(now)
        return take(sim, now)

    def logged_transmit(sim, channel_owner, frame, sender):
        if isinstance(frame, Beacon):
            sent.add(sim.queue.now_us)
        transmit(sim, channel_owner, frame, sender)

    monkeypatch.setattr(Simulation, "_take_due", logged_take)
    monkeypatch.setattr(Simulation, "transmit", logged_transmit)
    return taken, sent


def test_most_highway_ticks_only_beacon_or_idle(monkeypatch):
    # the oracle test above means something only if the shortcuts are taken;
    # a tick runs each instant once, as its own event, inline in the tick
    # before or on the walk to the next tick, which sends the beacons of the
    # instants it passes without taking them
    ticks = {"tick events": 0, "world ticks": 0}
    on_tick = Simulation._on_tick
    world_tick = mobility.MobilityWorld.tick

    def counted_on_tick(sim):
        ticks["tick events"] += 1
        on_tick(sim)

    def counted_world_tick(world):
        ticks["world ticks"] += 1
        return world_tick(world)

    monkeypatch.setattr(Simulation, "_on_tick", counted_on_tick)
    taken, sent = logged_instants(monkeypatch)
    monkeypatch.setattr(mobility.MobilityWorld, "tick", counted_world_tick)
    Simulation(make_golden.build("highway_single", True, 1, 100)).run()
    assert len(taken) == len(set(taken))
    ticks["instants run"] = len(set(taken) | sent)
    assert 0 < ticks["world ticks"] < ticks["instants run"] // 2, ticks
    assert ticks["tick events"] < len(taken), ticks  # some instants ran inline
    assert len(sent - set(taken)) > len(sent) // 2, ticks  # most beacon instants ran on the walk


def test_every_tick_advances_covers_the_instants_run_inline(monkeypatch):
    # the oracle above must advance the world at every instant a tick runs,
    # as its own event, inline in the tick before or on the walk: under it
    # the walk passes no instant, so the tick takes every one
    counts = {"world ticks": 0}
    world_tick = mobility.MobilityWorld.tick

    def counted_world_tick(world):
        counts["world ticks"] += 1
        return world_tick(world)

    every_tick_advances(monkeypatch)
    taken, sent = logged_instants(monkeypatch)
    monkeypatch.setattr(mobility.MobilityWorld, "tick", counted_world_tick)
    Simulation(make_golden.build("highway_single", True, 1, 100)).run()
    counts["instants run"] = len(set(taken) | sent)
    assert sent <= set(taken)
    assert counts["instants run"] == len(taken) == counts["world ticks"] > 0, counts
