"""Byte-identity gate across commits: recompute the golden output digests.

tests/golden/digests.json holds the SHA-256 of every output file of the
canonical experiments (trace on). A change that moves any digest must
regenerate the table with tests/golden/make_golden.py on purpose and say
why in CHANGES.md.
"""

import dataclasses
import hashlib
import importlib.util
import json
import tempfile
import weakref
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import reference_outputs
from vcachesim import mobility
from vcachesim.engine import Simulation
from vcachesim.protocol import Beacon
from vcachesim.scenarios import ScenarioConfig
from vcachesim.simcore import EventQueue, seconds_to_us

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", _GOLDEN_DIR / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GOLDEN = json.loads(make_golden.GOLDEN_FILE.read_text())


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(make_golden.case_id(*case) for case in make_golden.CASES)


class CaseRun(NamedTuple):
    digests: dict[str, str]
    config: ScenarioConfig
    trace: list[tuple]  # the run's trace records
    taken: list[tuple]  # its SPAWN and EXIT records
    admitted: list[tuple]  # those records as the traffic admitted before the run gives them
    world_ticks: int  # the calls that took traffic into the world
    never_spawned: int


def traffic_records(records: list[tuple]) -> list[tuple]:
    """The SPAWN and EXIT records among a run's trace records, in order."""
    return [record for record in records if record[1] in ("SPAWN", "EXIT")]


def run_case(case, out_dir, monkeypatch) -> CaseRun:
    """Run case into out_dir, recording what the tests below check."""
    admitted, world_ticks, results = [], [0], []
    admit, world_tick = mobility.MobilityWorld.admit, mobility.MobilityWorld.tick
    run = Simulation.run

    def logged_admit(world, arrivals, speed_mps, tick_us, last_tick):
        traffic = admit(world, arrivals, speed_mps, tick_us, last_tick)
        assert all(step.exits or step.spawns for step in traffic)
        assert [step.tick for step in traffic] == sorted({step.tick for step in traffic})
        assert traffic[-1].tick <= last_tick
        for step in traffic:
            at_us = step.tick * tick_us
            admitted.extend((at_us, "EXIT", state.id) for state in step.exits)
            admitted.extend(
                (at_us, "SPAWN", state.id, state.road_id, arrival.wanted)
                for state, arrival in step.spawns
            )
        return traffic

    def counted_tick(world, traffic):
        world_ticks[0] += 1
        world_tick(world, traffic)

    def kept_run(sim):
        results.append(run(sim))
        return results[-1]

    monkeypatch.setattr(mobility.MobilityWorld, "admit", logged_admit)
    monkeypatch.setattr(mobility.MobilityWorld, "tick", counted_tick)
    monkeypatch.setattr(Simulation, "run", kept_run)
    digests = make_golden.digest_case(*case, out_dir)
    (result,) = results
    trace = result.trace_records
    return CaseRun(
        digests, result.config, trace, traffic_records(trace), admitted, world_ticks[0],
        result.never_spawned,
    )


@pytest.fixture(scope="session")
def as_is():
    """case -> its one run as it is in this session, which the digest and
    the traffic tests both read."""
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


@pytest.mark.parametrize("case", make_golden.CASES, ids=lambda case: make_golden.case_id(*case))
def test_every_golden_case_spawns_every_arrival(case, as_is):
    # so the CLI prints no never_spawned line for any of them
    assert as_is(case).never_spawned == 0


def trace_violations(records: list[tuple], backhaul_latency_us: int) -> list[tuple]:
    """(rule, record) for each record that breaks a timing rule of the trace:
    every TX starts at the later of its instant and the end of the previous
    TX on its channel; every DELIVER's cdt is its instant minus that of its
    vehicle's first request TX, or 0 if the vehicle sent none; every SERVER
    comes one backhaul latency after the FETCH with its id."""
    busy, first_request, fetched, violations = {}, {}, {}, []
    for record in records:
        at_us, kind, *fields = record
        if kind == "TX":
            frame, sender, channel, _, start, end = fields
            if start != max(at_us, busy.get(channel, 0)):
                violations.append(("channel", record))
            busy[channel] = end
            if frame == "request":
                first_request.setdefault(sender, at_us)
        elif kind == "DELIVER":
            vehicle, _, _, cdt = fields
            if cdt != at_us - first_request.get(vehicle, at_us):
                violations.append(("cdt", record))
        elif kind == "FETCH":
            fetched[fields[2]] = at_us
        elif kind == "SERVER" and at_us != fetched.get(fields[1], -1) + backhaul_latency_us:
            violations.append(("server", record))
    return violations


@pytest.mark.parametrize("case", make_golden.CASES, ids=lambda case: make_golden.case_id(*case))
def test_every_golden_trace_keeps_its_timing_rules(case, as_is):
    run = as_is(case)
    assert any(record[1] == "TX" for record in run.trace)
    latency_us = seconds_to_us(run.config.backhaul_latency_s)
    assert trace_violations(run.trace, latency_us) == []


def test_a_delivery_after_a_retry_keeps_its_first_request_in_the_trace_cdt():
    # a 6 s backhaul: a server fetch outlasts the 10 s request interval, so
    # vehicles ask again before their content arrives; no golden case has one
    cfg = make_golden.build("urban_single", True, 1, 20, (("backhaul_latency_s", 6.0),))
    records = Simulation(cfg).run().trace_records
    requests = Counter(record[3] for record in records if record[1:3] == ("TX", "request"))
    delivered = [record[2] for record in records if record[1] == "DELIVER"]
    assert sum(requests[vehicle] >= 2 for vehicle in delivered) == 8
    assert trace_violations(records, 6_000_000) == []


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
    fix_path = mobility.MobilityWorld._fix_path

    def counted_spawn(world, state, speed_mps, leader):
        fix_path(world, state, speed_mps, leader)
        track = state.track
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

    monkeypatch.setattr(mobility.MobilityWorld, "_fix_path", counted_spawn)
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


def reference_digests(name, caching, seed, count, overrides=()) -> dict[str, str]:
    """The digests of a case's outputs from the frozen dense engine
    (tests/reference), which advances the world at every tick."""
    settings = {"caching": caching, "seed": seed, **dict(overrides)}
    if count is not None:
        settings["count"] = count
    with tempfile.TemporaryDirectory() as tmp:
        outputs = reference_outputs(name, settings, None, Path(tmp))
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


# the cases whose dense run takes under about 0.3 s; the dense engine gives
# the other eleven cases' digests too, in about 15 s more
DENSE_CASES = [
    case for case in make_golden.CASES if case[0].startswith("urban") or (case[3] or 300) <= 100
]


@pytest.mark.parametrize("case", DENSE_CASES, ids=lambda case: make_golden.case_id(*case))
def test_the_frozen_dense_engine_gives_the_golden_digests(case):
    # the dense engine ticks the world at every tick instant, so traffic
    # admitted before the run, jumps over idle ticks and instants run inline
    # change no output byte
    assert reference_digests(*case) == GOLDEN[make_golden.case_id(*case)]


# 900 m of gap on 800 m roads: the entry behind a vehicle opens at its exit
ROAD_SHORTER_THAN_GAP = ("urban_single", True, 1, None, (("kinematics.min_gap_m", 900.0),))


@pytest.mark.parametrize(
    "case",
    [*make_golden.CASES, ROAD_SHORTER_THAN_GAP],
    ids=lambda case: make_golden.case_id(*case),
)
def test_the_run_takes_the_admitted_traffic_at_its_instants(case, as_is):
    # every spawn and exit, and nothing else, is taken into the world at
    # the instant admit gave it, in admit's order, once per tick with traffic
    run = as_is(case)
    assert run.taken and run.taken == run.admitted
    instants = {record[0] for record in run.taken}
    assert run.world_ticks == len(instants)


def test_the_entry_behind_a_vehicle_opens_at_its_exit_on_a_road_shorter_than_the_gap(
    tmp_path,
):
    result = Simulation(make_golden.build(*ROAD_SHORTER_THAN_GAP)).run()
    assert 0 < result.spawned < result.config.vehicle_count  # the entries held vehicles back
    assert result.never_spawned == result.config.vehicle_count - result.spawned
    assert make_golden.digest_case(*ROAD_SHORTER_THAN_GAP, tmp_path) == reference_digests(
        *ROAD_SHORTER_THAN_GAP
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
    # the shortcuts are taken: a tick runs each instant once, as its own
    # event or inline in the tick before, which sends the beacons of the
    # instants it runs, and takes traffic into the world at few of them
    ticks = {"world ticks": 0}
    world_tick = mobility.MobilityWorld.tick

    def counted_world_tick(world, traffic):
        ticks["world ticks"] += 1
        world_tick(world, traffic)

    run, events, sent = logged_instants(monkeypatch)
    monkeypatch.setattr(mobility.MobilityWorld, "tick", counted_world_tick)
    Simulation(make_golden.build("highway_single", True, 1, 100)).run()
    assert len(run) == len(set(run))
    ticks["tick events"] = len(events)
    ticks["instants run"] = len(set(run) | sent)
    assert sent <= set(run)
    assert 0 < ticks["world ticks"] < ticks["instants run"] // 2, ticks
    assert ticks["tick events"] < len(run), ticks  # some instants ran inline
    # most beacon instants ran without their own tick event
    assert len(sent - set(events)) > len(sent) // 2, ticks


@pytest.mark.parametrize("duration_s", [100.0, 175.05, 210.0])
def test_the_admitted_traffic_stops_at_the_last_tick_instant(duration_s, as_is):
    # a shorter run admits a prefix of the longer run's traffic: whatever
    # spawns or exits by its last tick instant, and nothing after it
    case = ("highway_single", True, 1, 100, ())
    full = as_is(case)
    sim = Simulation(dataclasses.replace(make_golden.build(*case), duration_s=duration_s))
    result = sim.run()
    kept = [record for record in full.taken if record[0] <= sim.last_tick_us]
    assert len(kept) < len(full.taken)
    spawns = sum(record[1] == "SPAWN" for record in kept)
    assert traffic_records(result.trace_records) == kept
    assert (result.spawned, result.exited) == (spawns, len(kept) - spawns)
    assert result.never_spawned == 100 - spawns
