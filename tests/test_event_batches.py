"""Only state-changing work on the event heap.

One receive event per frame and arrival instant, no frame end for beacons,
one due heap holding each vehicle's next request attempt and next beacon,
whose due work runs inside the tick, plans that skip due times that cannot
act, and a tick only at the instants with due work, run inline when no event
comes first, which sends the beacons due alone at once. Each must keep the
order that one event per receiver, one event per due attempt or beacon, a
full per-tick scan, an attempt or beacon re-armed one interval at a time
and a tick event every tick_s gave, because the event queue breaks
same-instant ties first in, first out.
"""

import dataclasses
import heapq

import pytest
from hypothesis import given, strategies as st

from conftest import active_ids, spawn
from vcachesim import mobility
from vcachesim.cli import write_outputs

from vcachesim.content import ContentItem
from vcachesim.engine import _ATTEMPT, _BEACON, Simulation, _TrackAges
from vcachesim.metrics import SOURCE_RSU_HIT
from vcachesim.mobility import URBAN_RANDOM, RoadSegment, Track
from vcachesim.protocol import IDLE, SATISFIED, Beacon, Response, VehicleAgent
from vcachesim.radio import tx_duration_us
from vcachesim.scenarios import (
    RsuSpec,
    ScenarioConfig,
    highway_multi,
    highway_single,
    urban_multi,
    urban_single,
)
from vcachesim.simcore import EventQueue, seconds_to_us

# front to back, so also spawn order: (vehicle id, position on the road);
# the sender r0 sits at the road's entry, and signals cover 300 m per us
VEHICLES = [("v0", 500.0), ("v1", 450.0), ("v2", 200.0), ("v3", 100.0), ("v4", 0.0)]


ITEM = "/traffic/1"


class Recorder:
    """Stands in for an agent; logs (instant, id) for every frame it hears."""

    def __init__(self, node_id, log, on_hear=None):
        self.id = node_id
        self.log = log
        self.on_hear = on_hear
        self.status = IDLE  # a listener: not yet satisfied
        self.wanted = ITEM  # the item broadcast sends

    def on_frame(self, frame, now_us, services):
        self.log.append((now_us, self.id))
        if self.on_hear is not None:
            self.on_hear(now_us, services)


def layout(log, on_hear=None):
    """r0 sends on its own zone; r1 (1 us away) and the vehicles hear it."""
    cfg = ScenarioConfig(
        name="batches",
        roads=[RoadSegment(id="a", length_m=1000.0)],
        rsus=[RsuSpec("r0", (0.0, 0.0), 700.0), RsuSpec("r1", (290.0, 0.0), 10.0)],
        arrival_pattern=URBAN_RANDOM,
        vehicle_count=1,
        arrival_window_s=1.0,
        caching=True,
        duration_s=1.0,
    )
    sim = Simulation(cfg)
    on_hear = on_hear or {}
    sim.rsus["r1"] = Recorder("r1", log, on_hear.get("r1"))
    for vid, pos in VEHICLES:
        spawn(sim.world, vid, "a", 0.0)
        sim.world.place(vid, pos)
        sim._enter(Recorder(vid, log, on_hear.get(vid)))
    return sim


def broadcast(sim):
    """Send one response from r0; returns the instant its airtime ends."""
    sim.transmit("r0", Response(ContentItem(ITEM, 2000), "v9.0", SOURCE_RSU_HIT), "r0")
    (end, _, _), = sim.queue._heap
    sim.queue.run_until(sim.duration_us)
    return end


def test_receivers_hear_in_instant_then_receive_order():
    log = []
    sim = layout(log)
    end = broadcast(sim)
    # receive order is r1, v0, v1, v2, v3, v4 (RSUs first, then spawn order)
    # at 1, 2, 2, 1, 1 and 0 us of propagation
    assert log == [
        (end, "v4"),
        (end + 1, "r1"),
        (end + 1, "v2"),
        (end + 1, "v3"),
        (end + 2, "v0"),
        (end + 2, "v1"),
    ]
    assert sim.queue.processed_total == 4  # the frame end and one event per instant


def test_same_instant_follow_up_runs_after_the_rest_of_the_batch():
    log = []

    def follow_up(now_us, services):
        services.after(0, lambda: log.append((sim.queue.now_us, "r1 follow-up")))

    sim = layout(log, on_hear={"r1": follow_up})
    end = broadcast(sim)
    assert log[1:5] == [
        (end + 1, "r1"),
        (end + 1, "v2"),
        (end + 1, "v3"),
        (end + 1, "r1 follow-up"),
    ]
    assert log[5:] == [(end + 2, "v0"), (end + 2, "v1")]


def test_beacon_takes_airtime_but_schedules_nothing():
    sim = layout([])
    queued = len(sim.queue)
    sim.transmit("r0", Beacon(320), "v4")
    assert len(sim.queue) == queued
    assert sim.channels["r0"].frames_carried == 1
    assert sim.channels["r0"].busy_until_us > 0


def test_a_beacon_takes_the_airtime_of_its_own_payload():
    sim = layout([])
    assert sim.cfg.radio.beacon_payload_bits == 320
    assert sim._beacon == Beacon(320)  # every vehicle's beacon, from the radio block
    channel = sim.channels["r0"]
    for beacon in (Beacon(640), sim._beacon):
        busy = channel.busy_time_us
        sim.transmit("r0", beacon, "v4")
        assert channel.busy_time_us - busy == tx_duration_us(sim.cfg.radio, beacon.payload_bits)
    assert channel.busy_until_us == channel.busy_time_us  # back to back from 0


# -- planning a tracked vehicle's due work by its age ------------------------------


def ages_of(owners):
    """_TrackAges of a vehicle at position age at every age, on a road that
    ends at the exit age len(owners), covered at each age by the zone of
    owners[age] (None for no zone)."""
    exit_age = len(owners)
    track = Track([float(age) for age in range(exit_age + 1)], [1.0] * (exit_age + 1))
    road = RoadSegment(id="r", length_m=float(exit_age))
    return _TrackAges(road, track, lambda point: owners[int(point[0])])


def test_an_entry_whose_run_age_reaches_the_exit_age_is_dropped():
    # tick 100 us, exit at age 5
    ages = ages_of(["r0"] * 5)
    assert ages.plan(400, 1000, 100) == [(400, "r0")]  # runs at age 4
    assert ages.plan(401, 1000, 100) == []  # runs at age 5
    # d runs at ceil(d / tick): 350 runs at age 4; a floor would say age 3
    assert ages.plan(350, 1000, 100) == [(400, "r0")]


def test_a_beacon_rearm_jumps_over_uncovered_ages():
    # ages 0-9 uncovered, 10-12 covered, 13-19 uncovered, exit at age 20;
    # tick 100 us, interval 300 us
    ages = ages_of([None] * 10 + ["r0"] * 3 + [None] * 7)
    # due at ages 0, 3, ..., 18: nothing before the first covered age; an
    # attempt keeps the later uncovered ones (a pre-cache hit), a beacon not
    assert ages.plan(0, 300, 100) == [(1200, "r0"), (1500, None), (1800, None)]
    # due at 50, 350, ... us: runs at ages 1, 4, ..., 19
    assert ages.plan(50, 300, 100) == [(1000, "r0"), (1300, None), (1600, None), (1900, None)]


def rearmed(first_us, interval_us, tick_us, owners):
    """The one-interval re-arm, tick by tick: (run offset, channel owner or
    None) of every due time of a vehicle spawned at a tick instant that runs
    from the first covered age on. A due time due by a tick runs there and
    is re-armed one interval later, after the tick's due ones are taken;
    none runs from the exit age len(owners) on."""
    runs = []
    due_us = first_us
    covered = False
    for age, owner in enumerate(owners):
        covered = covered or owner is not None
        if due_us <= age * tick_us:
            if covered:
                runs.append((age * tick_us, owner))
            due_us += interval_us
    return runs


@pytest.mark.parametrize("interval", ["below", "equal", "above"])
@given(data=st.data())
def test_beacon_plans_match_the_one_interval_rearm(interval, data):
    tick_us = data.draw(st.integers(1, 40))
    interval_us = {
        "below": st.integers(1, tick_us - 1) if tick_us > 1 else st.just(1),
        "equal": st.just(tick_us),
        "above": st.integers(tick_us + 1, 5 * tick_us),
    }[interval]
    interval_us = data.draw(interval_us)
    first_us = data.draw(st.integers(0, 3 * tick_us))
    # owners[age]: the zone covering the vehicle at that age, None for none;
    # an uncovered prefix draws late first coverage, or none at all
    owners = [None] * data.draw(st.integers(0, 40)) + data.draw(
        st.lists(st.sampled_from([None, None, "r0", "r1"]), min_size=1, max_size=80)
    )
    ages = ages_of(owners)
    # attempts are due from the spawn on and run uncovered too; beacons are
    # due from their stagger on and run only where a zone covers them
    assert ages.plan(0, interval_us, tick_us) == rearmed(0, interval_us, tick_us, owners)
    beacons = [run for run in ages.plan(first_us, interval_us, tick_us) if run[1] is not None]
    oracle = [run for run in rearmed(first_us, interval_us, tick_us, owners) if run[1] is not None]
    assert beacons == oracle


# -- the sparse tick ---------------------------------------------------------------


def dense(monkeypatch):
    """Make every tick schedule the next one tick_s later, as the dense chain did."""
    monkeypatch.setattr(Simulation, "_next_tick", lambda self, now, top: now + self.tick_us)


def logged_ticks(sim):
    """Record the instant of every tick sim runs, as its own event or inline
    in the tick before; each runs its instant's due work once."""
    instants = []
    on_tick, advance_to = sim._on_tick, sim.queue.advance_to

    def logged_tick():
        instants.append(sim.queue.now_us)
        on_tick()

    def logged_advance_to(at_us):
        advance_to(at_us)  # the tick runs the instant at_us itself
        instants.append(at_us)

    # the tick queues itself and moves the clock through these attributes
    sim._on_tick, sim.queue.advance_to = logged_tick, logged_advance_to
    return instants


def outputs(cfg, out_dir):
    result = Simulation(dataclasses.replace(cfg, trace=True)).run()
    return {name: path.read_bytes() for name, path in write_outputs(result, out_dir).items()}


SMALL_RUNS = [
    highway_multi(count=20, seed=1),
    urban_single(count=10, seed=1),
    urban_multi(count=10, seed=1),
]


@pytest.mark.parametrize("cfg", SMALL_RUNS, ids=lambda cfg: cfg.name)
def test_own_tracks_give_the_same_outputs_as_the_shared_one(cfg, tmp_path, monkeypatch):
    # without free-flow tracks every vehicle gets its own, so the engine
    # keeps its memos and beacon plans per vehicle
    spawns = {True: 0, False: 0}  # on the shared track -> count
    fix_path = mobility.MobilityWorld._fix_path

    def counted_spawn(world, state, speed_mps, leader):
        fix_path(world, state, speed_mps, leader)
        spawns[state.track is world._track(speed_mps)] += 1

    monkeypatch.setattr(mobility.MobilityWorld, "_fix_path", counted_spawn)
    shared = outputs(cfg, tmp_path / "shared")
    assert spawns[True] > 0
    spawns[True] = 0
    monkeypatch.setattr(mobility.MobilityWorld, "_track", lambda world, speed_mps: None)
    assert outputs(cfg, tmp_path / "own") == shared
    assert spawns[True] == 0 and spawns[False] > 0, spawns


@pytest.mark.parametrize("tick_s, extra_s", [(0.1, 0.0), (0.1, 0.05), (0.07, 0.0), (0.07, 0.03)])
def test_the_clock_ends_at_the_last_tick_instant(tick_s, extra_s, monkeypatch):
    # the world empties well before the end, so every tick after that is idle
    base = urban_single(count=10, seed=2)
    cfg = dataclasses.replace(base, tick_s=tick_s, duration_s=base.duration_s + extra_s)
    sparse = Simulation(cfg)
    ticks = logged_ticks(sparse)
    sparse.run()
    last_tick = sparse.duration_us - sparse.duration_us % sparse.tick_us
    assert ticks[-1] == last_tick == sparse.queue.now_us
    dense(monkeypatch)
    reference = Simulation(cfg)
    dense_ticks = logged_ticks(reference)
    reference.run()
    assert reference.queue.now_us == sparse.queue.now_us
    assert len(ticks) < len(dense_ticks) // 2
    assert set(ticks) <= set(dense_ticks)


def test_due_work_at_exactly_the_last_tick_instant_runs():
    # cut a run at the instant of a vehicle's second beacon, an entry
    # re-armed from its plan: the shorter run ends at that tick instant,
    # and its trace is the longer run's up to the cut, that beacon included
    cfg = dataclasses.replace(highway_single(count=20, seed=1), trace=True)
    records = Simulation(cfg).run().trace_records
    beaconed, rearmed = set(), []  # senders seen; the records of their later beacons
    for record in records:
        if record[1:3] == ("TX", "beacon"):
            sender = record[3]
            if sender in beaconed:
                rearmed.append(record)
            beaconed.add(sender)
    window_us = seconds_to_us(cfg.arrival_window_s)
    beacon = next(record for record in rearmed if record[0] >= window_us)
    at_us = beacon[0]
    short = Simulation(dataclasses.replace(cfg, duration_s=at_us / 1_000_000))
    cut = short.run().trace_records
    assert short.last_tick_us == at_us
    assert beacon in cut
    assert cut == [record for record in records if record[0] <= at_us]


def probe(cfg, at_us):
    """Run cfg with an action at at_us that reads world_xy of every active
    vehicle; returns what it read and the tick instants."""
    sim = Simulation(cfg)
    seen = {}
    sim.queue.schedule(
        at_us, lambda: seen.update({vid: sim.world.world_xy(vid) for vid in active_ids(sim)})
    )
    ticks = logged_ticks(sim)
    sim.run()
    return seen, ticks


def test_an_action_inside_an_idle_stretch_sees_dense_positions(monkeypatch):
    cfg = urban_single(count=10, seed=1)
    _, ticks = probe(cfg, 0)
    tick_us = seconds_to_us(cfg.tick_s)
    # four or more idle ticks in a row, after the first spawns
    start = next(a for a, b in zip(ticks[3:], ticks[4:]) if b - a >= 5 * tick_us)
    at_us = start + 2 * tick_us
    seen, sparse_ticks = probe(cfg, at_us)
    assert seen, "no vehicle on the road inside the stretch"
    assert at_us in sparse_ticks and at_us - tick_us not in sparse_ticks
    dense(monkeypatch)
    dense_seen, _ = probe(cfg, at_us)
    assert seen == dense_seen


def entered(sim, *vehicle_ids):
    """Index fresh agents for vehicle_ids, as spawned in this order."""
    for vid in vehicle_ids:
        sim._enter(VehicleAgent(vid, ITEM, sim.cfg.caching))


def put_due(sim, kind, vid, *ticks):
    """Put vid's entry of kind at the first of ticks on the due heap, as
    _arm does, with the others as the rest of its plan; spawned at 0."""
    runs = iter([(at * sim.tick_us, "r0") for at in ticks[1:]])
    spawned = list(sim.vehicles).index(vid)
    heapq.heappush(sim._due, (ticks[0] * sim.tick_us, kind, spawned, vid, "r0", 0, runs))


def test_the_next_tick_is_never_before_one_tick_from_now():
    sim = Simulation(urban_single(count=10, seed=1))
    assert not sim._due  # no work before run() files the first arrivals
    sim.queue.schedule(0, lambda: None)  # an event due now
    assert sim._next_tick(0, sim.queue.peek_time()) == sim.tick_us
    sim.queue.run_until(0)
    entered(sim, "v000")
    put_due(sim, _ATTEMPT, "v000", 0)  # an attempt due now
    assert sim._next_tick(0, sim.queue.peek_time()) == sim.tick_us


def test_attempt_entries_that_cannot_act_force_no_tick():
    sim = Simulation(urban_single(count=10, seed=1))
    assert not sim._due  # no work before run() files the first arrivals
    tick_us = sim.tick_us
    entered(sim, "v000", "v001", "v002")
    for vid in ("v000", "v001"):
        sim.vehicles[vid].status = SATISFIED
    put_due(sim, _ATTEMPT, "v000", 10, 20)
    put_due(sim, _ATTEMPT, "v001", 20)
    put_due(sim, _ATTEMPT, "v002", 30)
    # only satisfied vehicles attempt at ticks 10 and 20: neither instant
    # sets the next tick, and both entries are dropped, v000's with nothing
    # in its place; v002 can act at tick 30
    assert sim._next_tick(0, None) == 30 * tick_us
    assert [entry[:4] for entry in sim._due] == [(30 * tick_us, _ATTEMPT, 2, "v002")]
    # a beacon acts whatever its vehicle's status: it forces a tick at its
    # instant, whether an event comes first there or none does, and that
    # tick sends it (replaced by nothing, its plan is done)
    put_due(sim, _BEACON, "v000", 25)
    assert sim._next_tick(0, 25 * tick_us) == 25 * tick_us
    assert sim._next_tick(0, None) == 25 * tick_us
    assert sim.frames_transmitted == {}
    sent = []
    transmit = sim.transmit

    def logged_transmit(channel_owner, frame, sender):
        sent.append((sim.queue.now_us, channel_owner, type(frame).__name__, sender))
        transmit(channel_owner, frame, sender)

    sim.transmit = logged_transmit
    # the tick at 0 runs the beacon's instant itself; the event at tick 26
    # stops it there, before v002's attempt
    sim.queue.schedule(26 * tick_us, lambda: None)
    sim.queue.schedule(0, sim._on_tick)
    sim.queue.run_until(25 * tick_us)
    assert sent == [(25 * tick_us, "r0", "Beacon", "v000")]
    assert [entry[:4] for entry in sim._due] == [(30 * tick_us, _ATTEMPT, 2, "v002")]


def admitted_instants(monkeypatch):
    """Record, for every run after, each instant with traffic that
    MobilityWorld.admit returns, with the spawns and exits up to it."""
    taken = {}  # instant -> spawns and exits by then
    admit = mobility.MobilityWorld.admit

    def logged_admit(world, arrivals, speed_mps, tick_us, last_tick):
        traffic = admit(world, arrivals, speed_mps, tick_us, last_tick)
        total = 0
        for step in traffic:
            total += len(step.exits) + len(step.spawns)
            taken[step.tick * tick_us] = total
        return traffic

    monkeypatch.setattr(mobility.MobilityWorld, "admit", logged_admit)
    return taken


def beacons_sent_at_once(monkeypatch):
    """Log every beacon the tick sends at once, not collected to run after
    its instant's attempts or after an event waiting there, as (instant,
    the tick event's instant and heap top, the world's latest tick counted,
    the kinds of the due entries left at the instant, the spawns and exits
    the world had taken); returns the log and the instants with traffic
    (admitted_instants)."""
    log, ticking = [], []  # ticking: (now, top) of the tick running
    admitted = admitted_instants(monkeypatch)
    on_tick, run_due, transmit = Simulation._on_tick, Simulation._run_due, Simulation.transmit

    def logged_tick(sim):
        ticking.append((sim.queue.now_us, sim.queue.peek_time()))
        try:
            on_tick(sim)
        finally:
            ticking.pop()

    def logged_run_due(sim, attempts, beacons):
        ticking.append(None)  # collected work: not sent at once
        try:
            run_due(sim, attempts, beacons)
        finally:
            ticking.pop()

    def logged_transmit(sim, channel_owner, frame, sender):
        if ticking and ticking[-1] is not None and isinstance(frame, Beacon):
            at_us = sim.queue.now_us
            kinds = [e[1] for e in sim._due if e[0] == at_us]
            moved = sim.world.spawned_total + sim.world.exited_total
            log.append((at_us, *ticking[-1], sim.world.now, kinds, moved))
        transmit(sim, channel_owner, frame, sender)

    monkeypatch.setattr(Simulation, "_on_tick", logged_tick)
    monkeypatch.setattr(Simulation, "_run_due", logged_run_due)
    monkeypatch.setattr(Simulation, "transmit", logged_transmit)
    return log, admitted


def beacon_every_tick(cfg):
    return dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, beacon_interval_s=0.1))


# with a beacon due every tick, beacons fall on the instants of relay announces
TICK_RUNS = [
    highway_single(count=60, seed=1),
    *SMALL_RUNS,
    pytest.param(beacon_every_tick(SMALL_RUNS[0]), id="highway_multi_beacon_every_tick"),
]


@pytest.mark.parametrize("cfg", TICK_RUNS, ids=lambda cfg: cfg.name)
def test_every_beacon_the_tick_sends_at_once_sees_the_tick_count_of_its_instant(
    cfg, monkeypatch
):
    # vehicles read the positions the ticks up to the beacon's would have
    # left, also at the later instants the tick runs itself
    log, _ = beacons_sent_at_once(monkeypatch)
    sim = Simulation(cfg)
    sim.run()
    assert any(at_us > now for at_us, now, _, _, _, _ in log)  # the tick runs later instants
    assert [
        (at_us, tick) for at_us, _, _, tick, _, _ in log if tick != at_us // sim.tick_us
    ] == []


@pytest.mark.parametrize("cfg", TICK_RUNS, ids=lambda cfg: cfg.name)
def test_the_tick_sends_no_beacon_at_once_at_the_heap_top_or_with_other_work_at_its_instant(
    cfg, monkeypatch
):
    # a beacon at the event heap's top runs after that event, and one at an
    # instant with traffic or a live attempt runs after them
    log, admitted = beacons_sent_at_once(monkeypatch)
    attempted = set()
    on_attempt = VehicleAgent.on_attempt

    def logged_attempt(agent, now_us, target, services):
        attempted.add(now_us)
        on_attempt(agent, now_us, target, services)

    monkeypatch.setattr(VehicleAgent, "on_attempt", logged_attempt)
    Simulation(cfg).run()
    assert log and attempted and admitted
    for at_us, now, top, _, kinds, moved in log:
        assert top is None or at_us < top, (at_us, top)
        assert set(kinds) <= {_BEACON}, (at_us, kinds)  # satisfied attempts are dropped first
        # the world has taken the traffic up to the instant, its own included
        due = max((instant for instant in admitted if instant <= at_us), default=None)
        assert moved == (admitted[due] if due is not None else 0), (at_us, now)
    assert not attempted & {at_us for at_us, _, _, _, _, _ in log}


def test_taking_an_entry_puts_its_vehicles_next_in_its_place():
    sim = Simulation(urban_single(count=10, seed=1))
    tick_us = sim.tick_us
    entered(sim, "v000", "v001")
    sim.vehicles["v000"].status = SATISFIED
    put_due(sim, _ATTEMPT, "v000", 0, 10)
    put_due(sim, _ATTEMPT, "v001", 0, 10)
    put_due(sim, _BEACON, "v000", 0, 5)
    # a satisfied vehicle's attempt is dropped with nothing in its place;
    # a beacon runs whatever its vehicle's status
    taken = []
    sim._run_due = lambda attempts, beacons: taken.append((attempts, beacons))
    sim.queue.schedule(0, sim._on_tick)
    sim.queue.run_until(0)
    assert taken == [([("v001", "r0")], [("v000", "r0")])]
    assert sorted(entry[:4] for entry in sim._due) == [
        (5 * tick_us, _BEACON, 0, "v000"),
        (10 * tick_us, _ATTEMPT, 1, "v001"),
    ]


# -- due work inside the tick ------------------------------------------------------


def logged_due_work(sim, log, monkeypatch):
    """Record (instant, what) for every attempt and beacon sim runs."""
    on_attempt, transmit = VehicleAgent.on_attempt, sim.transmit

    def attempt(agent, now_us, target, services):
        log.append((now_us, f"attempt {agent.id}"))
        on_attempt(agent, now_us, target, services)

    def logged_transmit(channel_owner, frame, sender):
        if isinstance(frame, Beacon):
            log.append((sim.queue.now_us, f"beacon {sender}"))
        transmit(channel_owner, frame, sender)

    monkeypatch.setattr(VehicleAgent, "on_attempt", attempt)
    sim.transmit = logged_transmit


def first_due_instant(cfg):
    sim = Simulation(cfg)
    log = []
    with pytest.MonkeyPatch.context() as patched:
        logged_due_work(sim, log, patched)
        sim.run()
    at_us = log[0][0]
    # the first vehicle's attempt and its unstaggered beacon, in that order
    assert log[:2] == [(at_us, "attempt v000"), (at_us, "beacon v000")]
    return at_us


def test_due_work_runs_after_an_event_already_waiting_at_its_instant(monkeypatch):
    cfg = urban_single(count=10, seed=1)
    at_us = first_due_instant(cfg)
    sim = Simulation(cfg)
    log = []
    logged_due_work(sim, log, monkeypatch)
    # the probe is queued after the tick at at_us and before anything the
    # tick schedules, so it runs before the due work
    sim.queue.schedule(
        at_us - 1,
        lambda: sim.queue.schedule(at_us, lambda: log.append((at_us, "probe"))),
    )
    sim.run()
    assert log[:3] == [(at_us, "probe"), (at_us, "attempt v000"), (at_us, "beacon v000")]


def test_the_next_tick_is_queued_before_what_due_work_schedules(monkeypatch):
    cfg = urban_single(count=10, seed=1)
    at_us = first_due_instant(cfg)
    sim = Simulation(cfg)
    log = []
    ticks = logged_ticks(sim)
    on_attempt = VehicleAgent.on_attempt

    def attempt(agent, now_us, target, services):
        if now_us == at_us and agent.id == "v000":
            later = at_us + sim.tick_us
            sim.queue.schedule(later, lambda: log.append(list(ticks)))
        on_attempt(agent, now_us, target, services)

    monkeypatch.setattr(VehicleAgent, "on_attempt", attempt)
    sim.run()
    # the tick one tick later, due whenever work was due, ran before it
    assert log and log[0][-1] == at_us + sim.tick_us


def test_attempts_are_filed_and_run_in_spawn_order(monkeypatch):
    # no server answer arrives before the end, so every vehicle attempts
    # every cycle and no attempt entry is dropped; each vehicle's next
    # attempt waits on the due heap, keyed by its spawn sequence
    cfg = dataclasses.replace(urban_single(count=40, seed=1), backhaul_latency_s=300.0)
    taken = []  # vehicle ids of each instant's attempts, in the order taken off the heap
    run_due = Simulation._run_due

    def logged_run_due(sim, attempts, beacons):
        if attempts:
            taken.append([vid for vid, _ in attempts])
        run_due(sim, attempts, beacons)

    monkeypatch.setattr(Simulation, "_run_due", logged_run_due)
    sim = Simulation(cfg)
    log = []
    logged_due_work(sim, log, monkeypatch)
    sim.run()
    spawn_seq = {vid: seq for seq, vid in enumerate(sim.vehicles)}
    assert max(map(len, taken)) > 1
    assert all(vids == sorted(vids, key=spawn_seq.get) for vids in taken)
    ran = {}  # instant -> spawn sequences of its attempts, in running order
    for at_us, what in log:
        kind, vid = what.split()
        if kind == "attempt":
            ran.setdefault(at_us, []).append(spawn_seq[vid])
    assert max(map(len, ran.values())) > 1
    assert all(seqs == sorted(seqs) for seqs in ran.values())


@pytest.mark.parametrize(
    "cfg", [highway_single(count=60, seed=1), *SMALL_RUNS], ids=lambda cfg: cfg.name
)
def test_the_due_heap_holds_one_attempt_and_one_beacon_per_active_vehicle(cfg, monkeypatch):
    # filing whole plans kept every run of every vehicle until its instant;
    # the cursors keep at most the next of each kind, and a satisfied
    # vehicle's attempt entry waits only until its instant runs or is skipped
    satisfied = {}  # vehicle id -> instant of its attempt entry when satisfied, or None
    instants = set()  # every instant with collected work, a beacon sent or no work left
    deliver, transmit = Simulation.deliver, Simulation.transmit
    run_due, next_tick = Simulation._run_due, Simulation._next_tick

    def logged_deliver(sim, record):
        entries = [e[0] for e in sim._due if e[1] == _ATTEMPT and e[3] == record.vehicle]
        assert len(entries) <= 1
        satisfied[record.vehicle] = entries[0] if entries else None
        deliver(sim, record)

    def check(sim, now):
        entries = sim._due
        keys = [(e[3], e[1]) for e in entries]
        assert len(keys) == len(set(keys)), "two entries of one kind for one vehicle"
        assert {vid for vid, _ in keys} <= set(active_ids(sim))
        assert all(e[0] >= now for e in sim._due), "an earlier instant was neither run nor skipped"
        for e in entries:
            if e[1] == _ATTEMPT and e[3] in satisfied:
                # still the entry it had when satisfied, and not yet passed
                assert e[0] == satisfied[e[3]] and e[0] >= now, (e[:4], now)
        instants.add(now)

    def checked_run_due(sim, attempts, beacons):
        check(sim, sim.queue.now_us)
        run_due(sim, attempts, beacons)

    def checked_next_tick(sim, now, top):
        check(sim, now)
        return next_tick(sim, now, top)

    def checked_transmit(sim, channel_owner, frame, sender):
        if isinstance(frame, Beacon):
            check(sim, sim.queue.now_us)
        transmit(sim, channel_owner, frame, sender)

    monkeypatch.setattr(Simulation, "deliver", logged_deliver)
    monkeypatch.setattr(Simulation, "_run_due", checked_run_due)
    monkeypatch.setattr(Simulation, "_next_tick", checked_next_tick)
    monkeypatch.setattr(Simulation, "transmit", checked_transmit)
    result = Simulation(cfg).run()
    assert result.satisfied > 0 and len(instants) > 50
    # satisfied vehicles' attempt entries were waiting, and some left
    assert any(at is not None for at in satisfied.values())


def test_a_sub_tick_interval_runs_once_per_tick(monkeypatch):
    # tick 0.1 s, attempts due every 0.05 s; no server answer arrives, so
    # the vehicle attempts from its first covered tick until it exits
    cfg = dataclasses.replace(
        highway_single(count=1),
        request_interval_s=0.05,
        backhaul_latency_s=500.0,
        duration_s=200.0,
        trace=True,
    )
    sim = Simulation(cfg)
    log = []
    logged_due_work(sim, log, monkeypatch)
    records = sim.run().trace_records
    instants = [at_us for at_us, what in log if what == "attempt v000"]
    assert len(instants) > 100
    assert {b - a for a, b in zip(instants, instants[1:])} == {sim.tick_us}

    def first(*head):
        """The instant of the first record that starts with kind and fields head."""
        return next(record[0] for record in records if record[1:1 + len(head)] == head)

    assert first("TX", "request") == instants[0]
    assert first("EXIT", "v000") == instants[-1] + sim.tick_us


def test_no_idle_tick_follows_a_beacon_only_tick(monkeypatch):
    # beacons schedule nothing, so the tick after an instant with only
    # beacons due is the next with work, as after a tick with nothing due;
    # most such instants run inline, in the tick before
    runs = {}  # instant -> [events run before it, attempts due, beacons sent]
    admitted = admitted_instants(monkeypatch)  # the instants with traffic
    on_tick, advance_to, run_due = Simulation._on_tick, EventQueue.advance_to, Simulation._run_due
    transmit = Simulation.transmit

    def run_at(queue):
        return runs.setdefault(queue.now_us, [queue.processed_total - 1, 0, 0])

    def logged_tick(sim):
        run_at(sim.queue)
        on_tick(sim)

    def logged_advance_to(queue, at_us):
        advance_to(queue, at_us)
        run_at(queue)  # the tick runs the instant at_us itself

    def logged_run_due(sim, attempts, beacons):
        run_at(sim.queue)[1] += len(attempts)
        run_due(sim, attempts, beacons)

    def logged_transmit(sim, channel_owner, frame, sender):
        if isinstance(frame, Beacon):
            run_at(sim.queue)[2] += 1
        transmit(sim, channel_owner, frame, sender)

    monkeypatch.setattr(Simulation, "_on_tick", logged_tick)
    monkeypatch.setattr(EventQueue, "advance_to", logged_advance_to)
    monkeypatch.setattr(Simulation, "_run_due", logged_run_due)
    monkeypatch.setattr(Simulation, "transmit", logged_transmit)
    sim = Simulation(highway_single(count=20, seed=1))
    sim.run()
    ticks = [(at_us, *run) for at_us, run in sorted(runs.items())]
    after_beacon_only = [(a, b) for a, b in zip(ticks, ticks[1:]) if a[3] and not a[2]]
    assert len(after_beacon_only) > 100
    for (_, ran, _, _), (at_us, ran_next, attempts, beacons) in after_beacon_only:
        # work is due, traffic is, an event other than the beacon-only tick
        # ran before it, or it is the last tick instant
        assert (
            attempts
            or beacons
            or at_us in admitted
            or ran_next - ran > 1
            or at_us == sim.last_tick_us
        )
