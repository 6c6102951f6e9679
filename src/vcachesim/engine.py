"""The per-run simulation engine.

Owns the event queue and all node state, implements the services interface
the protocol agents call, and drives the kinematics tick that everything
else hangs off. One instance runs one scenario once. It validates its config
first, the only place a config is validated, so nothing below that gate
re-checks what validate_config rejects.

Per-tick ordering: kinematics advance, then arrivals spawn, then due request
attempts, then due beacons. Requests go on the air before same-instant
beacon chatter; FIFO channel contention does the rest.

Ticks sit on the tick_s grid from 0, but the tick runs only at instants
with due work: an advance of the world, or a due attempt or beacon. After
each tick the next one is scheduled at the first grid instant at or after
the earliest of that work and the event heap's top, at least one tick later
and at most the last tick instant of the run, and the idle ticks skipped on
the way are added to the world's tick count, so vehicles read the positions
that the ticks would have left. This is exactly the tick every tick_s: only
a tick creates tick work (spawns and taken entries put work on the due
heap; satisfied vehicles only remove work); no event runs between now and
the heap top, so the new tick takes the same FIFO place among the events of
its instant as a tick scheduled one tick earlier; and the last tick instant
still ends the run. Due attempts run after the next tick is queued and may
schedule events before any later tick, so after them the next tick is one
tick later. A tick strictly before the heap top would be the next event, so
the tick runs it itself (EventQueue.advance_to) and loops. Beacons schedule
nothing, and an instant's advance and attempts come before its beacons on
the due heap, so beacons on its top before the heap top are sent on the
walk to the next tick (_skip_idle_ticks), each at its instant, with the
world's tick count brought up to it. The same work runs in the same order;
only the count of events processed, which is no output, falls.

The world advances only at the instants filed for it: each road's first
arrival (run), and at each spawn the vehicle's exit and, while arrivals
wait on its road, the first tick at or after the next arrival at which the
entry behind the vehicle is open, once it is min_gap_m in or has exited
(_arm); until then it is the road's rear, for nothing spawns there. A tick
at any other instant only adds one to the world's tick count (skip), which
is exactly what advancing the world would do: it would take no exit, and no
arrival would be both due and able to enter.

Only work that changes state goes on the event heap, and per-tick and
per-frame work is proportional to the work due, not to every vehicle ever
spawned. The active vehicles, and the unsatisfied ones by wanted item in
spawn order, are indexed (_enter, _leave, deliver). All due work waits on
one heap (_due) keyed (instant, kind, spawn sequence), kinds in the order
advance, attempt, beacon: the world's advances, and each active vehicle's
next attempt and next covered beacon. The tick takes its instant's entries,
then queues the next tick and runs the attempts of unsatisfied vehicles,
then the beacons, each in spawn order, inside itself (beacons alone run on
the walk, above); when another event already waits at its instant, it
schedules them as one batch event at that instant instead. This is exactly
one event per attempt and beacon, for the same reasons as the receive
batches below: those events held consecutive places among the events of
their instant, after any event already waiting there; what they scheduled
for that instant ran after the last of them anyway; the next tick was
queued before anything they scheduled; and exits happen only in the tick,
so every due vehicle is still active when it runs. A beacon occupies
airtime but carries nothing receivers keep, so it has no frame-end event.

Only due work that can act is queued. The engine never moves a vehicle, so
the path fixed at its spawn (see mobility) holds until its exit: it is at
track.pos[age] at every tick of its age, and what it meets is a function of
(road, track, age), memoized lazily per track and road (_TrackAges) under a
weak key, so that an own track's memos go with it at the vehicle's exit.
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
beacon has no channel. No age before the lowest position where a zone's span
(which holds the whole zone) meets the road is covered, so the search
starts there. A later beacon outside every zone does nothing, but a later
attempt there still runs, because it may find an item the vehicle overheard
inside one (a pre-cache hit). Relative to an on-grid spawn a plan depends
only on its first due offset and its interval, so plans are kept per track,
road, offset and interval.

A vehicle walks its plans with two cursors: its first attempt and first
covered beacon go on the due heap at spawn with an iterator over the rest,
and each entry taken is replaced by its next, up to the last tick instant
(_arm, _next_run). An attempt carries the owner of the zone covering its
run age, the RSU it addresses (None outside every zone), and a beacon that
owner, whose channel it takes; every beacon sends the run's one Beacon
frame. The track is fixed at spawn, so the planned owner is the one a
lookup at the attempt would give (MobilityWorld.place, for tests, rebuilds
tracks, not plans or advances). SATISFIED is terminal, so a satisfied
vehicle's attempt entry is dropped when taken or skipped over, with nothing
in its place, and forces no tick: those ticks had no work left.

Trace text is built only when the trace is on (Simulation.tracing).

Only the engine decides which node hears a frame, and the agents take
every frame they get as theirs; frames go only to nodes that act on them,
picked before the range test. A request goes to its target RSU only.
Content goes to the other RSUs whose centres are in the zone, a list with
delays made once per zone because only the zone's own RSU sends content,
and to the active vehicles that want its item and are not satisfied. A
beacon has no frame end. No other node would act: a vehicle keeps only
whether it has heard its wanted item, and its attempt handler returns
first once it is satisfied, which is terminal. Picking at frame end
is exact, because a vehicle satisfied then is still satisfied when the
frame arrives. A frame that no node acts on schedules no receive event, and
leaving a node out of a batch keeps the others in their order.

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
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush, heapreplace
from weakref import WeakKeyDictionary

from .content import catalog
from .metrics import DeliveryRecord, MetricsLedger
from .mobility import MobilityWorld, RoadSegment, Track, generate_arrivals
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
from .radio import Channel, in_range, propagation_us, tx_duration_us
from .scenarios import ROLE_RELAY, RsuSpec, ScenarioConfig, validate_config
from .simcore import EventQueue, RandomSource, format_time, seconds_to_us


@dataclass(frozen=True)
class SimulationResult:
    config: ScenarioConfig
    ledger: MetricsLedger
    spawned: int
    exited: int
    satisfied: int
    vehicle_requests_transmitted: int
    server_fetches: int
    events_processed: int
    trace_lines: list[str] | None


class Simulation:
    """One scenario, one seed, one pass through the event loop."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        validate_config(cfg)
        self.cfg = cfg
        self.queue = EventQueue()
        self.rng = RandomSource(cfg.seed)
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
        self._owner_at = partial(_zone_owner_at, self.zones)
        # road id -> the lowest position at which a zone may cover it: the
        # lowest end of the spans the zones cut from the road
        self._covered_from: dict[str, float] = {}
        for zone in self.zones.values():
            for road in cfg.roads:
                span = road.span_within(zone.center, zone.radius_m)
                if span is not None:
                    lo = span[0]
                    self._covered_from[road.id] = min(lo, self._covered_from.get(road.id, lo))

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
        self.trace_lines: list[str] | None = [] if cfg.trace else None
        self.tracing = self.trace_lines is not None  # build trace text only then

        arrivals = generate_arrivals(
            cfg.arrival_pattern,
            cfg.vehicle_count,
            cfg.arrival_window_s,
            cfg.roads,
            list(self.catalog),
            self.rng,
        )
        self._pending_arrivals = {road.id: deque() for road in cfg.roads}
        for arrival in arrivals:
            self._pending_arrivals[arrival.road_id].append(arrival)

        self.vehicles: dict[str, VehicleAgent] = {}  # every agent ever spawned
        self._active: set[str] = set()  # ids of the vehicles on the road
        # wanted name -> {vehicle id: agent} of its unsatisfied active vehicles, spawn order
        self._wanting: dict[str, dict[str, VehicleAgent]] = {}
        # the due heap: each active vehicle's next attempt and next covered
        # beacon, (instant, kind, spawn sequence, vehicle id, target or
        # channel owner, spawn instant, iterator over the rest of its plan),
        # and the instants at which the world advances, (instant, _ADVANCE):
        # exits and entry openings (_arm) and the roads' first arrivals (run)
        self._due: list[tuple] = []
        self._advances: set[int] = set()  # the instants of its advances
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
        for pending in self._pending_arrivals.values():
            if pending:
                self._file_advance(pending[0].at_us)
        self.queue.schedule(0, self._on_tick)
        for spec in self.cfg.rsus:
            if spec.role == ROLE_RELAY and self.announce_interval_us <= self.duration_us:
                self.queue.schedule(
                    self.announce_interval_us, partial(self._on_announce, spec.id)
                )
        self.queue.run_until(self.duration_us)
        satisfied = sum(1 for agent in self.vehicles.values() if agent.status == SATISFIED)
        return SimulationResult(
            config=self.cfg,
            ledger=self.ledger,
            spawned=self.world.spawned_total,
            exited=self.world.exited_total,
            satisfied=satisfied,
            vehicle_requests_transmitted=sum(
                agent.requests_sent for agent in self.vehicles.values()
            ),
            server_fetches=self.ledger.total_server_fetches(),
            events_processed=self.queue.processed_total,
            trace_lines=self.trace_lines,
        )

    # -- periodic events -----------------------------------------------------

    def _on_tick(self) -> None:
        queue, due, tick_us = self.queue, self._due, self.tick_us
        now, top = queue.now_us, queue.peek_time()  # the loop schedules nothing till the next tick
        while True:
            if due and due[0][0] == now and due[0][1] == _ADVANCE:
                heappop(due)
                self._advances.remove(now)
                self._advance_world(now)  # its spawns may put due work at now
            else:
                self.world.skip(1)
            at = self._skip_idle_ticks(now, top)  # sends the beacons due alone
            due_attempts, due_beacons = self._take_due(now)  # what is left
            work = due_attempts or due_beacons
            if now + tick_us > self.duration_us:
                break
            if work or (top is not None and at >= top):
                queue.schedule(at, self._on_tick)
                break
            queue.advance_to(at)  # the tick there would be the next event to run
            now = at
        if work:
            if top is None or top > now:  # nothing else waits at this instant
                self._run_due(due_attempts, due_beacons)
            else:
                queue.schedule(now, partial(self._run_due, due_attempts, due_beacons))

    def _advance_world(self, now: int) -> None:
        """Tick the world, take its exits, spawn the arrivals that are due and
        fit, and arm their due work, the world's next advances among it."""
        tracing = self.tracing
        for vid in self.world.tick():
            self._leave(vid)  # nothing of it is planned from now on
            if tracing:
                self.trace(f"EXIT vehicle={vid}")
        for road in self.cfg.roads:
            pending = self._pending_arrivals[road.id]
            while pending and pending[0].at_us <= now and self.world.can_spawn(road.id):
                arrival = pending.popleft()
                vid = arrival.vehicle_id
                self.world.spawn(vid, road.id, self.cfg.entry_speed_mps)
                spawned = self._enter(VehicleAgent(vid, arrival.wanted, self.cfg.caching))
                self._arm(now, spawned, vid)
                if tracing:
                    self.trace(f"SPAWN vehicle={vid} road={road.id} wanted={arrival.wanted}")

    def _enter(self, agent: VehicleAgent) -> int:
        """Index the agent of a vehicle the world has just spawned: every
        agent ever spawned, the active vehicles and the vehicles wanting its
        item. Returns its spawn sequence."""
        vid = agent.id
        spawned = len(self.vehicles)
        self.vehicles[vid] = agent
        self._active.add(vid)
        self._wanting.setdefault(agent.wanted, {})[vid] = agent
        return spawned

    def _leave(self, vehicle_id: str) -> None:
        """Drop a vehicle that exits from the indexes that still hold it."""
        self._active.remove(vehicle_id)
        self._wanting[self.vehicles[vehicle_id].wanted].pop(vehicle_id, None)

    def _skip_idle_ticks(self, now: int, top: int | None) -> int:
        """The first tick instant after now, and after the beacons it sends,
        with an advance or a live attempt, or before which an event runs
        (top, the event heap's top as the tick read it), at most the last
        tick instant. On the way it drops satisfied vehicles' attempt
        entries and sends the beacons due before top, each at its instant,
        and counts the world's ticks up to the instant returned."""
        due, vehicles, tick_us, last_us = self._due, self.vehicles, self.tick_us, self.last_tick_us
        until = last_us if top is None or top > last_us else top
        counted = now  # the instant the world's tick count is at
        while due and due[0][0] < until:
            entry = due[0]
            if entry[1] == _BEACON:
                at_us = entry[0]
                if at_us > counted:
                    self.queue.advance_to(at_us)
                    self.world.skip((at_us - counted) // tick_us)
                    counted = at_us
                self.transmit(entry[4], self._beacon, entry[3])
                _next_run(due, last_us)
            elif entry[1] == _ATTEMPT and vehicles[entry[3]].status == SATISFIED:
                heappop(due)
            else:
                until = entry[0]
        at = counted + tick_us
        if until > at:  # idle ticks lie before the first grid instant at or after until
            at = -(-until // tick_us) * tick_us
        self.world.skip((at - counted) // tick_us - 1)
        return at

    def _arm(self, now: int, spawned: int, vehicle_id: str) -> None:
        """Put the first attempt and first covered beacon of a vehicle spawned
        at now on the due heap, each with the rest of its plan (_take_due).

        Its exit advances the world, and so does, while arrivals wait on its
        road, the opening of the entry behind it: at its open age, or at its
        exit on a road shorter than the gap, but not before the arrival."""
        road, track, _ = self.world.riding(vehicle_id)
        ages = self._ages(road, track)
        tick_us = self.tick_us
        self._file_advance(now + ages.exit_age * tick_us)
        pending = self._pending_arrivals[road.id]
        if pending:
            opens = min(track.open_age(self.cfg.kinematics.min_gap_m), ages.exit_age)
            self._file_advance(max(pending[0].at_us, now + opens * tick_us))
        # beacon phases staggered by spawn order; synchronized phases
        # (all spawns sit on tick boundaries) would pile beacon bursts
        # onto the channel right when responses need it
        for kind, plan in (
            (_ATTEMPT, ages.plan(0, self.request_interval_us, tick_us)),
            (_BEACON, ages.plan((spawned % 100) * tick_us, self.beacon_interval_us, tick_us, True)),
        ):
            runs = iter(plan)
            run = next(runs, None)
            if run is not None and now + run[0] <= self.last_tick_us:
                heappush(self._due, (now + run[0], kind, spawned, vehicle_id, run[1], now, runs))

    def _file_advance(self, at_us: int) -> None:
        """Advance the world once at the first tick instant at or after at_us, if the run has it."""
        at_us = -(-at_us // self.tick_us) * self.tick_us
        if at_us <= self.last_tick_us and at_us not in self._advances:
            self._advances.add(at_us)
            heappush(self._due, (at_us, _ADVANCE))

    def _take_due(self, now: int) -> tuple[list[_Attempt], list[_PlannedBeacon]]:
        """Take the attempts of unsatisfied vehicles, then the beacons, due at
        now, each in spawn order and replaced by its next (_next_run); a
        satisfied vehicle's attempt entry is dropped."""
        due, vehicles, last_us = self._due, self.vehicles, self.last_tick_us
        attempts, beacons = [], []
        while due and due[0][0] == now:
            entry = due[0]
            if entry[1] == _ATTEMPT:
                if vehicles[entry[3]].status == SATISFIED:
                    heappop(due)
                    continue
                attempts.append((entry[3], entry[4]))
            else:
                beacons.append((entry[3], entry[4]))
            _next_run(due, last_us)
        return attempts, beacons

    def _ages(self, road: RoadSegment, track: Track) -> _TrackAges:
        by_road = self._track_ages.get(track)
        if by_road is None:
            by_road = self._track_ages[track] = {}
        ages = by_road.get(road.id)
        if ages is None:
            ages = by_road[road.id] = _TrackAges(
                road, track, self._owner_at, self._covered_from.get(road.id)
            )
        return ages

    def _run_due(self, attempts: list[_Attempt], beacons: list[_PlannedBeacon]) -> None:
        """One tick's due attempts, then its due beacons, each in spawn order,
        to the target or on the channel planned for its run age. Exits
        happen only in the tick, so every vehicle here is active."""
        now, vehicles = self.queue.now_us, self.vehicles
        for vid, target in attempts:
            vehicles[vid].on_attempt(now, target, self)
        beacon = self._beacon
        for vid, owner in beacons:
            self.transmit(owner, beacon, vid)

    def _on_announce(self, rsu_id: str) -> None:
        self.rsus[rsu_id].on_announce(self.queue.now_us, self)
        next_at = self.queue.now_us + self.announce_interval_us
        if next_at <= self.duration_us:
            self.queue.schedule(next_at, partial(self._on_announce, rsu_id))

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
        if self.tracing:
            name = getattr(frame, "name", None)
            self.trace(
                f"TX kind={kind} sender={sender} channel={channel_owner} "
                f"name={name if name is not None else '-'} "
                f"start={format_time(start)} end={format_time(end)}"
            )
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
        now = self.queue.now_us
        for node_id in node_ids:
            rsu = self.rsus.get(node_id)
            if rsu is not None:
                rsu.on_frame(frame, now, self)
            elif node_id in self._active:
                self.vehicles[node_id].on_frame(frame, now, self)

    def _receivers(self, zone_id: str, sender: str, frame) -> list[tuple[str, int]]:
        """In-range nodes that act on frame, with their propagation delays
        from the sender, in receive-scheduling order.

        A request goes to its target only, which owns the channel (vehicles
        send on their target's, relays on their next hop's); a request for
        another RSU raises. Content goes to the other RSUs in the zone
        (_content_rsus), in zone order, then to the active vehicles that
        want its name and are not satisfied, in spawn order: a vehicle keeps
        only its wanted item, and on_attempt returns first once it is
        satisfied (the status is terminal).
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
        for vid, agent in wanting.items():
            if agent.status == SATISFIED:
                continue
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
            self.trace(f"FETCH rsu={rsu_id} name={name} id={request_id}")
        self.queue.schedule(
            self.queue.now_us + self.backhaul_latency_us,
            partial(self._on_server_request, rsu_id, name, request_id),
        )

    def _on_server_request(self, rsu_id: str, name, request_id: str) -> None:
        now = self.queue.now_us
        item = self.catalog[name]
        self.ledger.record_server_fetch(now, name)
        if self.tracing:
            self.trace(f"SERVER name={name} id={request_id}")
        self.queue.schedule(
            now + self.proc_delay_us + self.backhaul_latency_us,
            partial(self._on_backhaul_return, rsu_id, item, request_id),
        )

    def _on_backhaul_return(self, rsu_id: str, item, request_id: str) -> None:
        self.rsus[rsu_id].on_content(item, request_id, self.queue.now_us, self)

    # -- services for agents ---------------------------------------------------

    def after(self, delay_us: int, action) -> None:
        self.queue.schedule(self.queue.now_us + delay_us, action)

    def deliver(self, record: DeliveryRecord) -> None:
        del self._wanting[record.name][record.vehicle]  # SATISFIED is terminal
        self.ledger.record_delivery(record)
        if self.tracing:
            self.trace(
                f"DELIVER vehicle={record.vehicle} name={record.name} "
                f"source={record.source} cdt={format_time(record.cdt_us)}"
            )

    def rsu_request(self, rsu_id: str) -> None:
        self.ledger.record_rsu_request(self.queue.now_us, rsu_id)

    def cache_event(self, rsu_id: str, hit: bool) -> None:
        self.ledger.record_cache_event(self.queue.now_us, rsu_id, hit)

    def trace(self, text: str) -> None:
        if self.trace_lines is not None:
            self.trace_lines.append(f"t={format_time(self.queue.now_us)} {text}")


def _zone_owner_at(zones: dict[str, RsuSpec], point: tuple[float, float]) -> str | None:
    """Owner of the nearest zone covering point; id order breaks exact ties."""
    best: tuple[float, str] | None = None
    for rsu_id, zone in zones.items():
        distance = math.hypot(point[0] - zone.center[0], point[1] - zone.center[1])
        if distance <= zone.radius_m:
            key = (distance, rsu_id)
            if best is None or key < best:
                best = key
    return best[1] if best else None


class _TrackAges:
    """What a vehicle riding one track on one road meets at each age.

    Such a vehicle is at road.world_position(pos[age]) at every tick of its
    age, so the zone that covers it, and the range test and delay of a
    frame a zone's RSU sends it, are functions of the age, filled lazily,
    one age when first asked for; so are the plans of due work built from
    them. The first covered age is found at construction, for _arm plans
    every instance it makes at once.
    The track itself is not kept, so that the engine's weak key on it lets
    an own track and its memos go at the vehicle's exit.
    """

    __slots__ = (
        "road", "pos", "exit_age", "_owner_at", "_owners", "_first_covered", "_delays", "_plans",
    )

    def __init__(
        self, road: RoadSegment, track: Track, owner_at, covered_from: float | None
    ) -> None:
        self.road = road
        self.pos = track.pos
        self.exit_age = track.exit_age(road.length_m)
        self._owner_at = owner_at  # point -> owner of the nearest covering zone, or None
        self._owners: list = [_UNFILLED] * self.exit_age
        # the first age a zone covers, or the exit age: no zone covers a
        # position below covered_from (the lowest lo of the zones' spans on
        # the road, each a superset of its zone), nor any when it is None;
        # positions along a track never fall
        first = self.exit_age if covered_from is None else bisect_left(self.pos, covered_from)
        while first < self.exit_age and self.owner(first) is None:
            first += 1
        self._first_covered = first
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


def _next_run(due: list[tuple], last_us: int) -> None:
    """Replace the due heap's top entry by its vehicle's next run of its
    kind up to the last tick instant last_us, or drop it if there is none."""
    _, kind, seq, vid, _, spawned_us, runs = due[0]
    run = next(runs, None)
    if run is not None and spawned_us + run[0] <= last_us:
        heapreplace(due, (spawned_us + run[0], kind, seq, vid, run[1], spawned_us, runs))
    else:
        heappop(due)


_UNFILLED = object()
_Attempt = tuple[str, str | None]  # (vehicle id, target RSU or None outside every zone)
_PlannedBeacon = tuple[str, str]  # (vehicle id, channel owner)
_ADVANCE, _ATTEMPT, _BEACON = range(3)  # due heap entry kinds, in their order at an instant


def run_simulation(cfg: ScenarioConfig) -> SimulationResult:
    return Simulation(cfg).run()
