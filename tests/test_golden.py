"""Byte-identity gate across commits: recompute the golden output digests.

tests/golden/digests.json holds the SHA-256 of every output file of the
canonical experiments (trace on). A change that moves any digest must
regenerate the table with tests/golden/make_golden.py on purpose and say
why in CHANGES.md.
"""

import importlib.util
import json
import tempfile
import weakref
from pathlib import Path
from typing import NamedTuple

import pytest

from vcachesim import engine, mobility
from vcachesim.engine import Simulation
from vcachesim.protocol import Beacon
from vcachesim.simcore import EventQueue

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", _GOLDEN_DIR / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GOLDEN = json.loads(make_golden.GOLDEN_FILE.read_text())


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(make_golden.case_id(*case) for case in make_golden.CASES)


class CaseRun(NamedTuple):
    digests: dict[str, str]
    events: int  # events processed
    world_ticks: int  # the ticks the world counted
    grid_ticks: int  # the grid ticks up to the last tick instant
    advances: list[tuple[int, int]]  # (instant, spawns and exits taken) of every world advance


def run_case(case, out_dir, monkeypatch) -> CaseRun:
    """Run case into out_dir, recording what the tests below check."""
    sims, advances = [], []
    run, advance = Simulation.run, Simulation._advance_world

    def kept_run(sim):
        sims.append(sim)
        return run(sim)

    def logged_advance(sim, now):
        world = sim.world
        before = world.spawned_total + world.exited_total
        advance(sim, now)
        advances.append((now, world.spawned_total + world.exited_total - before))

    monkeypatch.setattr(Simulation, "run", kept_run)
    monkeypatch.setattr(Simulation, "_advance_world", logged_advance)
    digests = make_golden.digest_case(*case, out_dir)
    (sim,) = sims
    grid_ticks = sim.last_tick_us // sim.tick_us + 1
    return CaseRun(digests, sim.queue.processed_total, sim.world._ticks, grid_ticks, advances)


@pytest.fixture(scope="session")
def as_is():
    """case -> its one run as it is in this session, which the digest, the
    beacon-only and the world-advance tests all read."""
    runs = {}

    def run(case) -> CaseRun:
        if case not in runs:
            with pytest.MonkeyPatch.context() as patched, tempfile.TemporaryDirectory() as tmp:
                runs[case] = run_case(case, Path(tmp), patched)
        return runs[case]

    return run


@pytest.mark.parametrize("case", make_golden.CASES, ids=lambda case: make_golden.case_id(*case))
def test_outputs_match_golden_digests(case, as_is):
    assert as_is(case).digests == GOLDEN[make_golden.case_id(*case)]


def counting_tracks(monkeypatch, brakes=True):
    """Count spawns onto the shared free-flow track, spawns onto own tracks
    and the distinct own tracks spawned onto, in every world built after;
    when brakes is true, count the braked steps of own spawns too.

    A track's braked steps are counted once, at the first spawn onto it,
    and each spawn onto it adds them: the count that building one track per
    vehicle would give. A step braked exactly when its result differs from
    the free step's from the same state: braking never raises the speed,
    the free step never lowers it, and accelerating from rest always moves.
    """
    counts = {"shared spawns": 0, "own spawns": 0, "own tracks": 0, "brakes": 0}
    own = weakref.WeakKeyDictionary()  # own track -> its braked steps
    spawn = mobility.MobilityWorld.spawn

    def counted_spawn(world, vehicle_id, road_id, speed_mps):
        spawn(world, vehicle_id, road_id, speed_mps)
        track = world._states[vehicle_id].track
        if track is world._track(speed_mps):
            counts["shared spawns"] += 1
            return
        if track not in own:
            counts["own tracks"] += 1
            own[track] = brakes and sum(
                (track.pos[age], track.speed[age])
                != mobility.advance_kinematics(
                    track.pos[age - 1], track.speed[age - 1], None, world.tick_s, world.params
                )
                for age in range(1, len(track.pos))
            )
        counts["own spawns"] += 1
        counts["brakes"] += own[track]

    monkeypatch.setattr(mobility.MobilityWorld, "spawn", counted_spawn)
    return counts


def own_tracks_only(monkeypatch):
    """Tracks off: no free-flow track and no memo of own tracks, so every
    vehicle gets its own at spawn, built by _follow."""
    monkeypatch.setattr(mobility.MobilityWorld, "_track", lambda world, speed_mps: None)
    monkeypatch.setattr(
        mobility.MobilityWorld,
        "_own_track",
        lambda world, state, speed_mps, leader: world._follow(
            state, [0.0], [speed_mps], leader
        ),
    )


@pytest.mark.parametrize("case", make_golden.MIN_GAP, ids=lambda case: make_golden.case_id(*case))
def test_min_gap_cases_brake_with_tracks_on_and_off(case, tmp_path, monkeypatch):
    with monkeypatch.context() as patched:
        counts = counting_tracks(patched)
        make_golden.digest_case(*case, tmp_path / "shared")
    assert counts["own spawns"] >= 100 and counts["brakes"] >= 100, counts
    counts = counting_tracks(monkeypatch, brakes=False)
    own_tracks_only(monkeypatch)  # tracks off: _follow builds every vehicle's track
    assert make_golden.digest_case(*case, tmp_path / "own") == GOLDEN[make_golden.case_id(*case)]
    assert counts["shared spawns"] == 0 and counts["own tracks"] == counts["own spawns"], counts


def counting_follows(monkeypatch):
    """Count the own tracks _follow builds, in every world built after."""
    calls = [0]
    follow = mobility.MobilityWorld._follow

    def counted_follow(world, *args):
        calls[0] += 1
        follow(world, *args)

    monkeypatch.setattr(mobility.MobilityWorld, "_follow", counted_follow)
    return calls


def test_min_gap_highway_builds_each_distinct_own_track_once(monkeypatch):
    # 1199 of 1200 vehicles ride own tracks, and those hold 2 distinct paths
    calls = counting_follows(monkeypatch)
    overrides = (("kinematics.min_gap_m", 14.0),)
    result = Simulation(make_golden.build("highway_single", True, 1, 1200, overrides)).run()
    assert result.spawned == 1200 and calls[0] <= 3, calls


@pytest.mark.parametrize("name, caching", make_golden.EXPERIMENTS)
def test_canonical_experiments_build_no_own_track(name, caching, monkeypatch):
    calls = counting_follows(monkeypatch)
    Simulation(make_golden.build(name, caching, 1, None)).run()
    assert calls == [0]


TRACKS_OFF = [case for case in make_golden.CASES if case not in make_golden.MIN_GAP]


@pytest.mark.parametrize("case", TRACKS_OFF, ids=lambda case: make_golden.case_id(*case))
def test_outputs_match_golden_digests_with_tracks_off(case, tmp_path, monkeypatch):
    # no vehicle shares a track, so the engine keeps memos and beacon plans,
    # and with them the range tests and delays of frame receivers, per vehicle
    counts = counting_tracks(monkeypatch, brakes=False)
    own_tracks_only(monkeypatch)
    assert make_golden.digest_case(*case, tmp_path) == GOLDEN[make_golden.case_id(*case)]
    assert counts["shared spawns"] == 0 and counts["own spawns"] > 0, counts
    assert counts["own tracks"] == counts["own spawns"], counts


def digest_and_count(run: CaseRun) -> tuple[dict[str, str], int]:
    """The run's digests and events processed; checks that the world
    counted every grid tick up to the last tick instant, run or skipped."""
    assert run.world_ticks == run.grid_ticks
    return run.digests, run.events


@pytest.mark.parametrize("case", make_golden.CASES, ids=lambda case: make_golden.case_id(*case))
def test_beacon_only_ticks_change_no_output(case, as_is, tmp_path, monkeypatch):
    digests, events = digest_and_count(as_is(case))
    assert digests == GOLDEN[make_golden.case_id(*case)]
    every_tick_advances(monkeypatch)
    assert digest_and_count(run_case(case, tmp_path, monkeypatch)) == (digests, events)


def every_tick_advances(monkeypatch):
    """Make the world advance, and look for spawns, at every instant at
    which a tick runs, as if an advance had been filed there: each tick
    event's, the last tick instant, and each instant that gets due work,
    which are all the instants the tick runs inline; the due work put on
    the heap at the instant being advanced runs in that advance."""
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


@pytest.mark.parametrize(
    "case",
    [*make_golden.CASES, ROAD_SHORTER_THAN_GAP],
    ids=lambda case: make_golden.case_id(*case),
)
def test_every_world_advance_spawns_or_takes_an_exit(case, as_is):
    # advances are filed only where the world has work: an exit, or an
    # arrival that is due when its entry opens
    advances = as_is(case).advances
    assert advances
    assert [at_us for at_us, changed in advances if not changed] == []


def test_the_entry_behind_a_vehicle_opens_at_its_exit_on_a_road_shorter_than_the_gap(
    monkeypatch,
):
    result = Simulation(make_golden.build(*ROAD_SHORTER_THAN_GAP)).run()
    assert 0 < result.spawned < result.config.vehicle_count  # the entries held vehicles back
    every_tick_advances(monkeypatch)
    full = Simulation(make_golden.build(*ROAD_SHORTER_THAN_GAP)).run()
    assert full.trace_lines == result.trace_lines
    assert (full.spawned, full.exited, full.satisfied, full.events_processed) == (
        result.spawned,
        result.exited,
        result.satisfied,
        result.events_processed,
    )


def logged_instants(monkeypatch):
    """Record each instant a tick runs, as its own event or inline in the
    tick before, the instants of the tick events, and those at which a
    beacon is sent."""
    run, events, sent = [], [], set()
    on_tick, advance_to, transmit = Simulation._on_tick, EventQueue.advance_to, Simulation.transmit

    def logged_tick(sim):
        run.append(sim.queue.now_us)
        events.append(sim.queue.now_us)
        on_tick(sim)

    def logged_advance_to(queue, at_us):
        advance_to(queue, at_us)
        run.append(at_us)  # the tick runs the instant at_us itself

    def logged_transmit(sim, channel_owner, frame, sender):
        if isinstance(frame, Beacon):
            sent.add(sim.queue.now_us)
        transmit(sim, channel_owner, frame, sender)

    monkeypatch.setattr(Simulation, "_on_tick", logged_tick)
    monkeypatch.setattr(EventQueue, "advance_to", logged_advance_to)
    monkeypatch.setattr(Simulation, "transmit", logged_transmit)
    return run, events, sent


def test_most_highway_ticks_only_beacon_or_idle(monkeypatch):
    # the oracle test above means something only if the shortcuts are taken;
    # a tick runs each instant once, as its own event or inline in the tick
    # before, which sends the beacons of the instants it runs
    ticks = {"world ticks": 0}
    world_tick = mobility.MobilityWorld.tick

    def counted_world_tick(world):
        ticks["world ticks"] += 1
        return world_tick(world)

    run, events, sent = logged_instants(monkeypatch)
    monkeypatch.setattr(mobility.MobilityWorld, "tick", counted_world_tick)
    Simulation(make_golden.build("highway_single", True, 1, 100)).run()
    assert len(run) == len(set(run))
    ticks["tick events"] = len(events)
    ticks["instants run"] = len(set(run) | sent)
    assert 0 < ticks["world ticks"] < ticks["instants run"] // 2, ticks
    assert ticks["tick events"] < len(run), ticks  # some instants ran inline
    # most beacon instants ran without their own tick event
    assert len(sent - set(events)) > len(sent) // 2, ticks


def test_every_tick_advances_covers_the_instants_run_inline(monkeypatch):
    # the oracle above must advance the world at every instant a tick runs,
    # as its own event or inline in the tick before
    counts = {"world ticks": 0}
    world_tick = mobility.MobilityWorld.tick

    def counted_world_tick(world):
        counts["world ticks"] += 1
        return world_tick(world)

    every_tick_advances(monkeypatch)
    run, _, sent = logged_instants(monkeypatch)
    monkeypatch.setattr(mobility.MobilityWorld, "tick", counted_world_tick)
    Simulation(make_golden.build("highway_single", True, 1, 100)).run()
    counts["instants run"] = len(set(run) | sent)
    assert sent <= set(run)
    assert counts["instants run"] == len(run) == counts["world ticks"] > 0, counts
