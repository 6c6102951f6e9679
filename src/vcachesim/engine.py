"""The per-run simulation engine.

Owns the event queue and all node state, implements the services interface
the protocol agents call, and drives the kinematics tick that everything
else hangs off. One instance runs one scenario once. It validates its config
first, the only place a config is validated, so nothing below that gate
re-checks what validate_config rejects.

Per-tick ordering: exits, then spawns, then due request attempts, then due
beacons. Requests go on the air before same-instant beacon chatter; FIFO
channel contention does the rest.

Ticks sit on the tick_s grid from 0, but the tick runs only at instants
with due work: traffic, or a due attempt or beacon. The next tick instant
is the first grid instant at or after the earliest of that work and the
event heap's top, at least one tick later and at most the last tick
instant of the run (_next_tick). Every age is read from one number, the
world's latest tick counted (MobilityWorld.now), and the idle ticks a jump
passes count, so vehicles read the positions that the ticks would have
left. This is exactly the tick every tick_s: only a tick creates tick work
(spawns and taken entries put work on the due heap; satisfied vehicles only
remove work); no event runs between now and the heap top, so a tick
scheduled there takes the same FIFO place among the events of its instant
as one scheduled one tick earlier; and the last tick instant still ends the
run.

One loop (_on_tick) runs the tick instants, from the tick event's own up to
the heap top. At each it counts the tick and takes its traffic, drops the
attempt entries of satisfied vehicles, collects the live attempts, and
sends each beacon at once, unless it collected attempts at the instant or
another event already waits there: then the beacon is collected too, to
run after them. An instant strictly before the heap top would hold the
next event, so the loop runs it itself (EventQueue.advance_to); at or after
the top, the loop schedules the tick there and stops. It also stops after
an instant with collected work, and queues the next tick one tick later
before that work runs, because attempts may schedule events before any
later tick; beacons schedule nothing. The same work runs in the same order
as with one tick event per instant; only the count of events processed,
which is no output, falls.

Traffic reads nothing from the radio, so run() fixes all of it before the
first tick (MobilityWorld.admit): every spawn and exit tick up to the last
tick instant, in trace order, and every vehicle's track. The tick loop
walks that schedule with a cursor, the last entry of the reversed list, and
takes each tick's traffic at its instant (_take_traffic): the exits leave
_wanting, and the spawns enter it with their due work armed. Arrivals that
cannot enter by the last tick instant never spawn (never_spawned).

Only work that changes state goes on the event heap, and per-tick and
per-frame work is proportional to the work due, not to every vehicle ever
spawned. _wanting, the unsatisfied active vehicles by wanted item in spawn
order, is the one index of those that can act on content (_enter, _leave,
deliver). All due work waits on one heap (_due) keyed (instant, kind, spawn
sequence), kinds in the order attempt, beacon: each active vehicle's next
attempt and next covered beacon.
The tick takes its instant's entries and runs the attempts of unsatisfied
vehicles, then the beacons, each in spawn order, inside itself (above);
when another event already waits at its instant, it schedules the collected
ones as one batch event at that instant instead. This is exactly one event
per attempt and beacon, for the same reasons as the receive batches below:
those events held consecutive places among the events of their instant,
after any event already waiting there; what they scheduled for that instant
ran after the last of them anyway; the next tick was queued before anything
they scheduled; and exits happen only in the tick, so every due vehicle is
still active when it runs. A beacon occupies airtime but carries nothing
receivers keep, so it has no frame-end event.

Only due work that can act is queued. The engine never moves a vehicle, so
the path fixed at its spawn (see mobility) holds until its exit: it is at
track.pos[age] at every tick of its age, and what it meets is a function of
(road, track, age), memoized lazily per track and road (_TrackAges) under a
weak key, so that an own track's memos go with it at the exit of the last
vehicle riding it.
Each entry is filled with the very call a lookup at the event would make,
on road.world_position(track.pos[age]), the value world_xy gives; for the
range test and delay of content at frame end too, because only the
channel's own RSU sends content, so the sender sits at the zone's centre
(content from anyone else raises).

Attempts and beacons follow one run-age rule (_TrackAges.plan). A due time
runs at the first tick at or after it, but once per tick at most, as when
it was re-armed one interval later after the tick had taken its due ones:
the k-th runs at age max(ceil(d_k / tick_us), previous age + 1); from one
tick up the max never binds, and none runs from the exit age on. Neither
kind does anything before the first age at which a zone covers the
vehicle: an attempt is idle, with nothing pre-cached and no target, and a
beacon has no channel. That age is found by the zone test itself, asked
age by age from 0, so coverage is decided in one place. A later beacon
outside every zone does nothing, but a later attempt there still runs,
because it may find an item the vehicle overheard inside one (a pre-cache
hit). Relative to an on-grid spawn a plan depends only on its first due
offset and its interval, so plans are kept per track, road, offset and
interval.

A vehicle walks its plans with two cursors: its first attempt and first
covered beacon go on the due heap at spawn with an iterator over the rest,
and each entry taken is replaced by its next (_arm, _next_run). Only the
tick loop and run_until stop at the run's end; work filed past it stays on
its heap. An attempt carries the owner of the zone covering its run age,
the RSU it addresses (None outside every zone), and a beacon that owner,
whose channel it takes; every beacon sends the run's one Beacon frame. The
track is fixed at spawn, so the planned owner is the one a lookup at the
attempt would give (MobilityWorld.place, for tests, rebuilds tracks, not
plans or traffic). SATISFIED is terminal, so a satisfied vehicle's attempt
entry is dropped when taken or skipped over, with nothing in its place, and
forces no tick: those ticks had no work left.

Only a traced run (Simulation.tracing) keeps a record of each protocol event
(Simulation.trace); write_outputs renders them (metrics.trace_text).

Only the engine decides which node hears a frame, and the agents take
every frame they get as theirs; frames go only to nodes that act on them,
picked before the range test. A request goes to its target RSU only.
Content goes to the other RSUs whose centres are in the zone, a list with
delays made once per zone because only the zone's own RSU sends content,
and to the vehicles in _wanting for its item. A beacon has no frame end. No
other node would act: a vehicle keeps only whether it has heard its wanted
item, and its attempt handler returns first once it is satisfied, which is
terminal. Picking at frame end is exact, because a vehicle satisfied then
is still satisfied when the frame arrives; a vehicle that leaves _wanting
before the frame arrives, by its exit or by being satisfied, is skipped
then (_on_receive). A frame that no node acts on schedules no receive
event, and leaving a node out of a batch keeps the others in their order.

Receivers are taken RSUs first, in zone order, then vehicles in spawn
order, and grouped by arrival instant: one receive event per frame and
instant runs its members in that order. The event queue breaks same-instant
ties first in, first out, so this is exactly the order one event per
receiver would give: a group's members would hold consecutive places among
the events of their instant, and anything their handlers schedule for that
instant runs after the last member either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush, heapreplace
from operator import attrgetter
from weakref import WeakKeyDictionary

from .content import catalog
from .metrics import DeliveryRecord, MetricsLedger
from .mobility import MobilityWorld, RoadSegment, Track, Traffic, generate_arrivals
from .protocol import (
    Beacon,
    CachingGateway,
    PlainGateway,
    Relay,
    Request,
    RsuBase,
    SATISFIED,
    VehicleAgent,
)
from .radio import Channel, in_range, owner_at, propagation_us, tx_duration_us
from .scenarios import ROLE_RELAY, RsuSpec, ScenarioConfig, validate_config
from .simcore import EventQueue, RandomSource, seconds_to_us


@dataclass(frozen=True)
class SimulationResult:
    config: ScenarioConfig
    ledger: MetricsLedger
    spawned: int
    exited: int
    never_spawned: int  # arrivals that could not enter by the last tick instant
    satisfied: int
    server_fetches: int
    events_processed: int
    trace_records: list[tuple] | None


class Simulation:
    """One scenario, one seed, one pass through the event loop."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        validate_config(cfg)
        self.cfg = cfg
        self.queue = EventQueue()
        self.catalog = catalog(cfg.catalog_size, cfg.payload_bits)

        self.duration_us = seconds_to_us(cfg.duration_s)
        self.tick_us = seconds_to_us(cfg.tick_s)
        self.last_tick_us = self.duration_us - self.duration_us % self.tick_us
        self.request_interval_us = seconds_to_us(cfg.request_interval_s)
        self.beacon_interval_us = seconds_to_us(cfg.radio.beacon_interval_s)
        self.announce_interval_us = seconds_to_us(cfg.relay_announce_interval_s)
        self.proc_delay_us = seconds_to_us(cfg.processing_delay_s)
        self.backhaul_latency_us = seconds_to_us(cfg.backhaul_latency_s)

        self.world = MobilityWorld(cfg.roads, cfg.kinematics, cfg.tick_s)
        # rsu id -> its spec, whose center and radius_m are its zone
        self.zones: dict[str, RsuSpec] = {spec.id: spec for spec in cfg.rsus}
        self.channels = {rsu_id: Channel() for rsu_id in self.zones}
        # zone id -> (rsu id, delay) of every other RSU whose centre is in the
        # zone, in zone order, with the delay of a frame from the zone's
        # centre: the RSUs that hear content, which only the zone's RSU sends
        self._content_rsus: dict[str, list[tuple[str, int]]] = {}
        for zone_id, zone in self.zones.items():
            center_x, center_y = zone.center
            self._content_rsus[zone_id] = hearing = []
            for rsu_id, other in self.zones.items():
                if rsu_id != zone_id and in_range(zone, other.center):
                    x, y = other.center
                    delay = propagation_us(math.hypot(x - center_x, y - center_y))
                    hearing.append((rsu_id, delay))
        # not a method: memos that referred to the engine would keep a
        # finished run's tracks alive until a cyclic collection
        self._owner_at = partial(owner_at, self.zones)

        self.rsus: dict[str, RsuBase] = {}
        for spec in cfg.rsus:
            if spec.role == ROLE_RELAY:
                agent: RsuBase = Relay(
                    spec.id, spec.next_hop, cfg.rsu_cache_capacity, self.proc_delay_us
                )
            elif cfg.caching:
                agent = CachingGateway(spec.id, cfg.rsu_cache_capacity, self.proc_delay_us)
            else:
                agent = PlainGateway(spec.id, self.proc_delay_us)
            self.rsus[spec.id] = agent

        self.ledger = MetricsLedger([spec.id for spec in cfg.rsus])
        self.trace_records: list[tuple] | None = [] if cfg.trace else None
        self.tracing = self.trace_records is not None  # call trace only then

        self._arrivals = generate_arrivals(
            cfg.arrival_pattern,
            cfg.vehicle_count,
            cfg.arrival_window_s,
            cfg.roads,
            list(self.catalog),
            RandomSource(cfg.seed),
        )
        # the run's traffic still to come (MobilityWorld.admit), latest
        # first, so that the next is the last entry; filled by run()
        self._traffic: list[Traffic] = []

        self.vehicles: dict[str, VehicleAgent] = {}  # every agent ever spawned
        # wanted name -> {vehicle id: agent} of its unsatisfied active vehicles, spawn order
        self._wanting: dict[str, dict[str, VehicleAgent]] = {}
        # the due heap: each active vehicle's next attempt and next covered
        # beacon, (instant, kind, spawn sequence, vehicle id, target or
        # channel owner, spawn instant, iterator over the rest of its plan)
        self._due: list[tuple] = []
        # track -> road id -> what a vehicle riding the track on the road
        # meets at each age; an own track's entry goes with the track
        self._track_ages: WeakKeyDictionary[Track, dict[str, _TrackAges]] = WeakKeyDictionary()
        self.frames_transmitted: dict[str, int] = {}
        self._kinds: dict[type, str] = {}  # frame class -> kind
        self._beacon = Beacon(cfg.radio.beacon_payload_bits)  # airtime only: one for all
        self._airtime_us: dict[int, int] = {}  # payload bits -> airtime
        self._ran = False

    # -- run ---------------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._ran:
            raise RuntimeError("a Simulation instance runs exactly once")
        self._ran = True
        self._traffic = self.world.admit(
            self._arrivals, self.cfg.entry_speed_mps, self.tick_us, self.last_tick_us // self.tick_us
        )[::-1]
        self.queue.schedule(0, self._on_tick)
        for spec in self.cfg.rsus:
            if spec.role == ROLE_RELAY:
                self.queue.schedule(
                    self.announce_interval_us, partial(self._on_announce, spec.id)
                )
        self.queue.run_until(self.duration_us)
        return SimulationResult(
            config=self.cfg,
            ledger=self.ledger,
            spawned=self.world.spawned_total,
            exited=self.world.exited_total,
            never_spawned=len(self._arrivals) - self.world.spawned_total,
            satisfied=len(self.ledger.deliveries),  # one each, as it becomes SATISFIED
            server_fetches=self.ledger.total_server_fetches(),
            events_processed=self.queue.processed_total,
            trace_records=self.trace_records,
        )

    # -- periodic events -----------------------------------------------------

    def _on_tick(self) -> None:
        """Run this tick instant, then each later one before the event heap's
        top (module docstring)."""
        queue, world, due, vehicles = self.queue, self.world, self._due, self.vehicles
        traffic, tick_us, last_us = self._traffic, self.tick_us, self.last_tick_us
        now, top = queue.now_us, queue.peek_time()  # the loop schedules nothing till the next tick
        attempts, beacons = [], []  # the work collected at the instant the loop stops at
        while True:
            world.now = now // tick_us  # the tick at now counts
            if traffic and traffic[-1].tick == world.now:
                self._take_traffic(traffic.pop())  # its spawns may put due work at now
            while due and due[0][0] == now:
                entry = due[0]
                if entry[1] == _ATTEMPT:
                    if vehicles[entry[3]].status == SATISFIED:
                        heappop(due)
                        continue
                    attempts.append((entry[3], entry[4]))
                elif attempts or top == now:  # runs after the attempts, or after that event
                    beacons.append((entry[3], entry[4]))
                else:
                    self.transmit(entry[4], self._beacon, entry[3])
                _next_run(due)
            if now == last_us:
                break
            if attempts or beacons:  # what they schedule may come before any later tick
                queue.schedule(now + tick_us, self._on_tick)
                break
            at = self._next_tick(now, top)
            world.now = at // tick_us - 1  # the idle ticks before at count
            if top is not None and at >= top:
                queue.schedule(at, self._on_tick)
                break
            queue.advance_to(at)  # the tick there would be the next event to run
            now = at
        if attempts or beacons:
            if top is None or top > now:  # nothing else waits at this instant
                self._run_due(attempts, beacons)
            else:
                queue.schedule(now, partial(self._run_due, attempts, beacons))

    def _take_traffic(self, traffic: Traffic) -> None:
        """Take one tick's traffic at its instant, in trace order: the exits
        leave, and the spawns enter with their due work armed."""
        self.world.tick(traffic)
        now, tracing, caching = self.queue.now_us, self.tracing, self.cfg.caching
        for state in traffic.exits:
            self._leave(state.id)  # nothing of it is planned from now on
            if tracing:
                self.trace("EXIT", state.id)
        for state, arrival in traffic.spawns:
            vid = state.id
            self._arm(now, self._enter(VehicleAgent(vid, arrival.wanted, caching)), vid)
            if tracing:
                self.trace("SPAWN", vid, state.road_id, arrival.wanted)

    def _enter(self, agent: VehicleAgent) -> int:
        """Index the agent of a vehicle the world has just spawned: every
        agent ever spawned, and the vehicles wanting its item. Returns its
        spawn sequence."""
        vid = agent.id
        spawned = len(self.vehicles)
        self.vehicles[vid] = agent
        self._wanting.setdefault(agent.wanted, {})[vid] = agent
        return spawned

    def _leave(self, vehicle_id: str) -> None:
        """Drop a vehicle that exits from the vehicles wanting its item."""
        self._wanting[self.vehicles[vehicle_id].wanted].pop(vehicle_id, None)

    def _arm(self, now: int, spawned: int, vehicle_id: str) -> None:
        """Put the first attempt and first covered beacon of a vehicle spawned
        at now on the due heap, each with the rest of its plan (_next_run)."""
        road, track, _ = self.world.riding(vehicle_id)
        ages = self._ages(road, track)
        tick_us = self.tick_us
        # beacon phases staggered by spawn order; synchronized phases
        # (all spawns sit on tick boundaries) would pile beacon bursts
        # onto the channel right when responses need it
        for kind, plan in (
            (_ATTEMPT, ages.plan(0, self.request_interval_us, tick_us)),
            (_BEACON, ages.plan((spawned % 100) * tick_us, self.beacon_interval_us, tick_us, True)),
        ):
            runs = iter(plan)
            run = next(runs, None)
            if run is not None:
                heappush(self._due, (now + run[0], kind, spawned, vehicle_id, run[1], now, runs))

    def _next_tick(self, now: int, top: int | None) -> int:
        """The first tick instant after now with traffic or due work, or at or
        after top (the event heap's top as the tick read it), at least one
        tick later and at most the last tick instant. Drops the satisfied
        vehicles' attempt entries on the due heap's top: they can do nothing."""
        due, vehicles, tick_us = self._due, self.vehicles, self.tick_us
        while due and due[0][1] == _ATTEMPT and vehicles[due[0][3]].status == SATISFIED:
            heappop(due)
        until = self.last_tick_us
        if due and due[0][0] < until:
            until = due[0][0]
        if self._traffic and self._traffic[-1].tick * tick_us < until:
            until = self._traffic[-1].tick * tick_us
        if top is not None and top < until:
            until = top
        at = -(-until // tick_us) * tick_us
        return at if at > now else now + tick_us

    def _ages(self, road: RoadSegment, track: Track) -> _TrackAges:
        by_road = self._track_ages.get(track)
        if by_road is None:
            by_road = self._track_ages[track] = {}
        ages = by_road.get(road.id)
        if ages is None:
            ages = by_road[road.id] = _TrackAges(road, track, self._owner_at)
        return ages

    def _run_due(self, attempts: list[_Attempt], beacons: list[_PlannedBeacon]) -> None:
        """One tick's due attempts, then its due beacons, each in spawn order,
        to the target or on the channel planned for its run age. Exits
        happen only in the tick, so every vehicle here is active."""
        vehicles = self.vehicles
        for vid, target in attempts:
            vehicles[vid].on_attempt(target, self)
        beacon = self._beacon
        for vid, owner in beacons:
            self.transmit(owner, beacon, vid)

    def _on_announce(self, rsu_id: str) -> None:
        self.rsus[rsu_id].on_announce(self)
        self.queue.schedule(
            self.queue.now_us + self.announce_interval_us, partial(self._on_announce, rsu_id)
        )

    # -- radio pipeline ------------------------------------------------------

    def transmit(self, channel_owner: str, frame, sender: str) -> None:
        """Put frame on the air of channel_owner's zone. The sender is in the
        zone: an RSU sends from its centre on its own channel, or a relay on
        its next hop's (validate_config), and a vehicle on the zone that
        covers it (the owner planned at spawn, _TrackAges.owner)."""
        channel = self.channels[channel_owner]
        bits = frame.payload_bits
        duration = self._airtime_us.get(bits)
        if duration is None:
            duration = self._airtime_us[bits] = tx_duration_us(self.cfg.radio, bits)
        start, end = channel.reserve(self.queue.now_us, duration)
        kind = self._kinds.get(type(frame))
        if kind is None:
            kind = self._kinds[type(frame)] = type(frame).__name__.lower()
        self.frames_transmitted[kind] = self.frames_transmitted.get(kind, 0) + 1
        if self.tracing:  # a beacon has no name
            self.trace("TX", kind, sender, channel_owner, getattr(frame, "name", "-"), start, end)
        if not isinstance(frame, Beacon):  # airtime only; receivers keep nothing
            self.queue.schedule(end, partial(self._on_frame_end, channel_owner, frame, sender))

    def _on_frame_end(self, channel_owner: str, frame, sender: str) -> None:
        """One receive event per arrival instant, scheduled when its first member is found."""
        now = self.queue.now_us
        batches: dict[int, list[str]] = {}
        for node_id, delay_us in self._receivers(channel_owner, sender, frame):
            at_us = now + delay_us
            batch = batches.get(at_us)
            if batch is None:
                batch = batches[at_us] = [node_id]
                self.queue.schedule(at_us, partial(self._on_receive, batch, frame))
            else:
                batch.append(node_id)

    def _on_receive(self, node_ids: list[str], frame) -> None:
        wanting = self._wanting.get(frame.name)  # a vehicle here was in it at frame end
        for node_id in node_ids:  # the RSU, or else the vehicle still wanting the item
            agent = self.rsus.get(node_id) or wanting.get(node_id)
            if agent is not None:
                agent.on_frame(frame, self)

    def _receivers(self, zone_id: str, sender: str, frame) -> list[tuple[str, int]]:
        """In-range nodes that act on frame, with their propagation delays
        from the sender, in receive-scheduling order.

        A request goes to its target only, which owns the channel (vehicles
        send on their target's, relays on their next hop's); a request for
        another RSU raises. Content goes to the other RSUs in the zone
        (_content_rsus), in zone order, then to the vehicles in _wanting for
        its name, in spawn order: a vehicle keeps only its wanted item, and
        on_attempt returns first once it is satisfied (the status is
        terminal).
        Only the zone's own RSU sends content, so a vehicle gets its range
        test and delay from its track and age (_TrackAges.delay).
        """
        zone = self.zones[zone_id]
        if isinstance(frame, Request):
            if frame.target != zone_id:
                raise RuntimeError(
                    f"{sender} sent a request for {frame.target} on {zone_id}'s channel"
                )
            sender_zone = self.zones.get(sender)  # a relay forwards from its centre
            sender_x, sender_y = (
                sender_zone.center if sender_zone is not None else self.world.world_xy(sender)
            )
            x, y = zone.center
            return [(zone_id, propagation_us(math.hypot(x - sender_x, y - sender_y)))]
        if sender != zone_id:
            raise RuntimeError(
                f"{sender} sent a {type(frame).__name__} on {zone_id}'s channel; "
                f"only {zone_id} sends content there"
            )
        found = list(self._content_rsus[zone_id])
        wanting = self._wanting.get(frame.name)
        if not wanting:
            return found
        world = self.world
        memo = None  # (road, track, its _TrackAges) of the previous vehicle
        for vid in wanting:
            road, track, age = world.riding(vid)
            if memo is None or memo[1] is not track or memo[0] is not road:
                memo = road, track, self._ages(road, track)
            delay = memo[2].delay(zone, age)
            if delay >= 0:
                found.append((vid, delay))
        return found

    # -- backhaul ------------------------------------------------------------

    def backhaul_fetch(self, rsu_id: str, name, request_id: str) -> None:
        """Every gateway has the same link; content fetched by an RSU with
        none (a relay) raises OrphanResponse at its on_content."""
        if self.tracing:
            self.trace("FETCH", rsu_id, name, request_id)
        self.queue.schedule(
            self.queue.now_us + self.backhaul_latency_us,
            partial(self._on_server_request, rsu_id, name, request_id),
        )

    def _on_server_request(self, rsu_id: str, name, request_id: str) -> None:
        now = self.queue.now_us
        item = self.catalog[name]
        self.ledger.record_server_fetch(now, name)
        if self.tracing:
            self.trace("SERVER", name, request_id)
        self.queue.schedule(
            now + self.proc_delay_us + self.backhaul_latency_us,
            partial(self._on_backhaul_return, rsu_id, item, request_id),
        )

    def _on_backhaul_return(self, rsu_id: str, item, request_id: str) -> None:
        self.rsus[rsu_id].on_content(item, request_id, self)

    # -- services for agents ---------------------------------------------------

    now_us = property(attrgetter("queue.now_us"))

    def after(self, delay_us: int, action) -> None:
        self.queue.schedule(self.queue.now_us + delay_us, action)

    def deliver(self, record: DeliveryRecord) -> None:
        del self._wanting[record.name][record.vehicle]  # SATISFIED is terminal
        self.ledger.record_delivery(record)
        if self.tracing:
            self.trace("DELIVER", record.vehicle, record.name, record.source, record.cdt_us)

    def rsu_request(self, rsu_id: str) -> None:
        self.ledger.record_rsu_request(self.queue.now_us, rsu_id)

    def cache_event(self, rsu_id: str, hit: bool) -> None:
        self.ledger.record_cache_event(self.queue.now_us, rsu_id, hit)

    def trace(self, kind: str, *fields) -> None:
        self.trace_records.append((self.queue.now_us, kind, *fields))


class _TrackAges:
    """What a vehicle riding one track on one road meets at each age.

    Such a vehicle is at road.world_position(pos[age]) at every tick of its
    age, so the zone that covers it, and the range test and delay of a
    frame a zone's RSU sends it, are functions of the age, filled lazily,
    one age when first asked for; so are the plans of due work built from
    them. The first covered age is found at construction, by asking owner()
    from age 0, for _arm plans every instance it makes at once.
    The track itself is not kept, so that the engine's weak key on it lets
    an own track and its memos go at the exit of its last rider.
    """

    __slots__ = (
        "road", "pos", "exit_age", "_owner_at", "_owners", "_first_covered", "_delays", "_plans",
    )

    def __init__(self, road: RoadSegment, track: Track, owner_at) -> None:
        self.road = road
        self.pos = track.pos
        self.exit_age = track.exit_age(road.length_m)
        self._owner_at = owner_at  # point -> owner of the nearest covering zone, or None
        self._owners: list = [_UNFILLED] * self.exit_age
        # the first age a zone covers, or the exit age: owner() from age 0
        self._first_covered = next(
            (age for age in range(self.exit_age) if self.owner(age) is not None), self.exit_age
        )
        # zone id -> delay of a frame from the zone's RSU by age, -1 out of range
        self._delays: dict[str, list[int | None]] = {}
        # (first due, interval, tick, covered only) -> plan
        self._plans: dict[tuple[int, int, int, bool], list[tuple[int, str | None]]] = {}

    def owner(self, age: int) -> str | None:
        owner = self._owners[age]
        if owner is _UNFILLED:
            owner = self._owners[age] = self._owner_at(self.road.world_position(self.pos[age]))
        return owner

    def plan(
        self, first_us: int, interval_us: int, tick_us: int, covered: bool = False
    ) -> list[tuple[int, str | None]]:
        """(run offset, owner of the zone covering the vehicle or None) of
        every run of a periodic timer (attempts or beacons) due at first_us,
        first_us + interval_us, ... after a spawn at a tick instant, by the
        run-age rule (module docstring): the k-th runs at age
        max(ceil(d_k / tick_us), previous age + 1), and none before the
        first covered age or from the exit age on; only the covered ones if
        covered (the beacons' plans)."""
        key = (first_us, interval_us, tick_us, covered)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = []
            exit_age = self.exit_age
            due_us = first_us
            age = -(-due_us // tick_us)
            while age < exit_age:
                if age >= self._first_covered and (self.owner(age) is not None or not covered):
                    plan.append((age * tick_us, self.owner(age)))
                due_us += interval_us
                age = max(-(-due_us // tick_us), age + 1)
        return plan

    def delay(self, zone: RsuSpec, age: int) -> int:
        """Propagation delay of a frame from the zone's centre, or -1 out of range."""
        delays = self._delays.get(zone.id)
        if delays is None:
            delays = self._delays[zone.id] = [None] * self.exit_age
        delay = delays[age]
        if delay is None:
            x, y = self.road.world_position(self.pos[age])
            center_x, center_y = zone.center
            delay = delays[age] = (
                propagation_us(math.hypot(x - center_x, y - center_y))
                if in_range(zone, (x, y))
                else -1
            )
        return delay


def _next_run(due: list[tuple]) -> None:
    """Replace the due heap's top entry by its vehicle's next run of its
    kind, or drop it if there is none."""
    _, kind, seq, vid, _, spawned_us, runs = due[0]
    run = next(runs, None)
    if run is not None:
        heapreplace(due, (spawned_us + run[0], kind, seq, vid, run[1], spawned_us, runs))
    else:
        heappop(due)


_UNFILLED = object()
_Attempt = tuple[str, str | None]  # (vehicle id, target RSU or None outside every zone)
_PlannedBeacon = tuple[str, str]  # (vehicle id, channel owner)
_ATTEMPT, _BEACON = range(2)  # due heap entry kinds, in their order at an instant


def run_simulation(cfg: ScenarioConfig) -> SimulationResult:
    return Simulation(cfg).run()
