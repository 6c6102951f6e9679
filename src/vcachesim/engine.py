"""The per-run simulation engine.

Owns the event queue and all node state, implements the services interface
the protocol agents call, and drives the kinematics tick that everything
else hangs off. One instance runs one scenario once.

Per-tick ordering: kinematics advance, then arrivals spawn, then due request
attempts, then due beacons. Requests go on the air before same-instant
beacon chatter; FIFO channel contention does the rest.

Ticks sit on the tick_s grid from 0, but the tick runs only at instants
with due work: a spawn (the first tick at or after a road's front arrival
that finds its entry open), a step or a tracked exit, or a due attempt or
beacon. After each tick the next one is scheduled at the first grid instant
at or after the earliest of that work and the event heap's top, at least
one tick later and at most the last tick instant of the run, and the idle
ticks skipped on the way are added to the world's tick count, so tracked
vehicles read the positions that the ticks would have left. This is exactly
the tick every tick_s: only a tick creates tick work (exits and satisfied
vehicles only remove it); no event runs between now and the heap top, so
the new tick is scheduled with the same events ahead of it, and takes the
same FIFO place among the events of its instant, as a tick scheduled one
tick earlier; and the last tick instant still ends the run, so the clock
ends where it did.

Only work that changes state goes on the event heap, and per-tick and
per-frame work is proportional to the work due, not to every vehicle ever
spawned. An index of active vehicles (vehicle id -> spawn sequence) is
added to at spawn and dropped from at exit. Attempts and beacons wait in two
due-time heaps keyed (due time, spawn sequence, vehicle id); each tick pops
the entries due by now and re-arms each one at its next due time (below).
Exited vehicles leave both heaps when next popped, satisfied ones leave the
attempt heap. The tick then queues the next tick and runs the due attempts, then the due
beacons, each in spawn order, inside itself; when another event already
waits at its instant, it schedules them as one batch event at that instant
instead. This is exactly one event per attempt and beacon, for the same
reasons as the receive batches below: those events held consecutive places
among the events of their instant, after any event already waiting there;
what they scheduled for that instant ran after the last of them anyway; the
next tick was queued before anything they scheduled; and exits happen only
in the tick, so every due vehicle is still active when it runs. At frame end
the receivers come from the road geometry: each zone meets each road in one
position interval, computed once, and the vehicles inside it are one
bisected slice of the road's front-to-back order. The exact closed-ball
range test still decides every candidate. A beacon occupies airtime but
carries nothing receivers keep, so it has no frame-end event.

Only due work that can act is queued. A vehicle that rides its track is at
track.pos[age] at every tick of its age, so what it meets is a function of
(road, track, age), memoized lazily per road (_TrackAges). With an interval
of at least one tick, due time d runs at grid tick ceil(d / tick_us), at an
age known in advance, so arming an entry (at spawn and at each re-arm)
jumps over the due times whose work would do nothing, and drops the entry
once the run age reaches the road's exit age, where the vehicle has left
and the pop would drop it anyway. A beacon does nothing where no zone
covers the vehicle: it reserves no airtime and writes no trace. An attempt
does nothing before the first age at which a zone covers the vehicle: no
frame can have reached it, so it is idle with an empty cache and no target.
A later attempt outside every zone stays queued, because it may find an
item the vehicle overheard inside one (a pre-cache hit). The due times
kept are those of the plain chain d, d + interval, ..., so each runs at the
same instant and in the same spawn order as before; the ticks that no
longer run had no work left, which the sparse-tick argument above covers.
A shorter interval re-arms behind its run instant, and a stepped vehicle
has no age to look up, so both keep the plain re-arm one interval later.
The memos are exact, too: each entry is filled with the very call the
engine makes for a vehicle off its track, on road.world_position(
track.pos[age]), which is the value world_xy gives. That holds for the
covering zone of an attempt or beacon, and for the range test and delay of
content at frame end, because only the channel's own RSU sends content, so
the sender sits at the zone's centre (content from anyone else raises).

Frames go only to nodes that act on them. Before the range test, a request
leaves out every vehicle (vehicles ignore requests) and content leaves out
satisfied vehicles: the status is terminal, and a satisfied vehicle's cache
is read only by its attempt handler, which returns first. Picking at frame
end is exact, because a vehicle satisfied then is still satisfied when the
frame arrives. A frame that no node acts on schedules no receive event.

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
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from operator import itemgetter

from .content import Catalog
from .metrics import DeliveryRecord, MetricsLedger
from .mobility import FreeTrack, MobilityWorld, RoadSegment, generate_arrivals
from .protocol import (
    Beacon,
    CachingGateway,
    PlainGateway,
    Relay,
    Request,
    RsuBase,
    SATISFIED,
    ServerAgent,
    VehicleAgent,
)
from .radio import (
    BackhaulLink,
    Channel,
    CoverageZone,
    NoBackhaul,
    in_range,
    propagation_us,
    tx_duration_us,
)
from .scenarios import ROLE_GATEWAY, ROLE_RELAY, ScenarioConfig, validate_config
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
        self.catalog = Catalog.default(cfg.catalog_size, cfg.payload_bits)

        self.duration_us = seconds_to_us(cfg.duration_s)
        self.tick_us = seconds_to_us(cfg.tick_s)
        self.last_tick_us = self.duration_us - self.duration_us % self.tick_us
        self.request_interval_us = seconds_to_us(cfg.request_interval_s)
        self.beacon_interval_us = seconds_to_us(cfg.radio.beacon_interval_s)
        self.announce_interval_us = seconds_to_us(cfg.relay_announce_interval_s)
        self.proc_delay_us = seconds_to_us(cfg.processing_delay_s)
        backhaul_latency_us = seconds_to_us(cfg.backhaul_latency_s)

        self.world = MobilityWorld(cfg.roads, cfg.kinematics, cfg.tick_s)
        self.zones: dict[str, CoverageZone] = {
            spec.id: CoverageZone(spec.id, spec.center, spec.radius_m)
            for spec in cfg.rsus
        }
        self.channels = {rsu_id: Channel(zone) for rsu_id, zone in self.zones.items()}
        # zone id -> (road id, lo, hi) for every road the zone meets
        self._road_spans: dict[str, list[tuple[str, float, float]]] = {
            zone_id: [
                (road.id, *span)
                for road in cfg.roads
                if (span := road.span_within(zone.center, zone.radius_m)) is not None
            ]
            for zone_id, zone in self.zones.items()
        }
        self.backhaul = {
            spec.id: BackhaulLink(backhaul_latency_us)
            for spec in cfg.rsus
            if spec.role == ROLE_GATEWAY
        }

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

        self.server = ServerAgent(self.catalog)
        self.ledger = MetricsLedger([spec.id for spec in cfg.rsus])
        self.trace_lines: list[str] | None = [] if cfg.trace else None

        arrivals = generate_arrivals(
            cfg.arrival_pattern,
            cfg.vehicle_count,
            cfg.arrival_window_s,
            cfg.roads,
            self.catalog.names(),
            self.rng,
        )
        self._pending_arrivals = {road.id: deque() for road in cfg.roads}
        for arrival in arrivals:
            self.world.register(arrival.vehicle_id, arrival.road_id)
            self._pending_arrivals[arrival.road_id].append(arrival)

        self.vehicles: dict[str, VehicleAgent] = {}  # every agent ever spawned
        self._active: dict[str, int] = {}  # vehicle id -> spawn sequence, spawn order
        # heaps of (due time, spawn sequence, vehicle id)
        self._attempts_due: list[tuple[int, int, str]] = []
        self._beacons_due: list[tuple[int, int, str]] = []
        # road id -> what a vehicle riding the road's track meets at each age
        self._track_ages: dict[str, _TrackAges] = {}
        self.vehicle_requests_transmitted = 0
        self.frames_transmitted: dict[str, int] = {}
        self._airtime_us: dict[int, int] = {}  # payload bits -> airtime
        self._ran = False

    # -- run ---------------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._ran:
            raise RuntimeError("a Simulation instance runs exactly once")
        self._ran = True
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
            vehicle_requests_transmitted=self.vehicle_requests_transmitted,
            server_fetches=self.ledger.total_server_fetches(),
            events_processed=self.queue.processed_total,
            trace_lines=self.trace_lines,
        )

    # -- periodic events -----------------------------------------------------

    def _on_tick(self) -> None:
        now = self.queue.now_us
        active = self._active
        for vid in self.world.tick(now):
            del active[vid]  # its heap entries left, if any, go when next popped
            self._trace(f"EXIT vehicle={vid}")
        for road in self.cfg.roads:
            pending = self._pending_arrivals[road.id]
            while pending and pending[0].at_us <= now and self.world.can_spawn(road.id):
                arrival = pending.popleft()
                self.world.spawn(
                    arrival.vehicle_id, road.id, self.cfg.entry_speed_mps, now
                )
                # beacon phases staggered by spawn order; synchronized phases
                # (all spawns sit on tick boundaries) would pile beacon bursts
                # onto the channel right when responses need it
                spawned = len(self.vehicles)
                stagger = (spawned % 100) * self.tick_us
                self.vehicles[arrival.vehicle_id] = VehicleAgent(
                    arrival.vehicle_id, arrival.wanted, self.cfg.caching
                )
                vid = arrival.vehicle_id
                active[vid] = spawned
                first = self._first_due(now, vid, self.request_interval_us, True)
                if first is not None:
                    heappush(self._attempts_due, (first, spawned, vid))
                first = self._first_due(now + stagger, vid, self.beacon_interval_us, False)
                if first is not None:
                    heappush(self._beacons_due, (first, spawned, vid))
                self._trace(
                    f"SPAWN vehicle={arrival.vehicle_id} road={road.id} "
                    f"wanted={arrival.wanted}"
                )
        # most ticks find nothing due; the heap tops say so without a call
        attempts = self._attempts_due
        due_attempts = (
            _take_due(attempts, now, self._wants_attempts, self._next_attempt)
            if attempts and attempts[0][0] <= now
            else []
        )
        beacons = self._beacons_due
        due_beacons = (
            _take_due(beacons, now, active.__contains__, self._next_beacon)
            if beacons and beacons[0][0] <= now
            else []
        )
        queue = self.queue
        next_tick = now + self.tick_us
        if next_tick <= self.duration_us:
            # most ticks have an attempt or beacon due by the next one
            if not (
                due_attempts
                or due_beacons
                or (attempts and attempts[0][0] <= next_tick)
                or (beacons and beacons[0][0] <= next_tick)
            ):
                next_tick = self._skip_idle_ticks(now)
            queue.schedule(next_tick, self._on_tick)
        if due_attempts or due_beacons:
            top = queue.peek_time()
            if top is None or top > now:  # nothing else waits at this instant
                self._run_due(due_attempts, due_beacons)
            else:
                queue.schedule(now, partial(self._run_due, due_attempts, due_beacons))

    def _skip_idle_ticks(self, now: int) -> int:
        """The first tick instant after now with work, or before which an
        event runs; adds the idle ticks before it to the world's tick count.

        Work is a spawn (the first tick at or after a road's front arrival
        that finds the entry open), a step or a tracked exit, or a due
        attempt or beacon. The instant is at least one tick after now and
        at most the last tick instant of the run.
        """
        tick_us = self.tick_us
        next_tick = now + tick_us
        due = self.last_tick_us
        top = self.queue.peek_time()
        if top is not None and top < due:
            due = top
        for heap in (self._attempts_due, self._beacons_due):
            if heap and heap[0][0] < due:
                due = heap[0][0]
        if due > next_tick:  # else the next tick is due whatever the world holds
            world = self.world
            quiet = world.quiet_ticks()
            if quiet is not None and now + quiet * tick_us < due:
                due = now + quiet * tick_us
            for road_id, pending in self._pending_arrivals.items():
                # no spawn before the arrival, whenever the entry opens
                if pending and pending[0].at_us < due:
                    opens = max(pending[0].at_us, now + world.ticks_to_open(road_id) * tick_us)
                    if opens < due:
                        due = opens
        at = max(-(-due // tick_us) * tick_us, next_tick)
        self.world.skip((at - now) // tick_us - 1)
        return at

    def _wants_attempts(self, vehicle_id: str) -> bool:
        # SATISFIED is terminal, so a satisfied vehicle leaves the attempt heap
        return vehicle_id in self._active and self.vehicles[vehicle_id].status != SATISFIED

    def _next_attempt(self, due_us: int, vehicle_id: str) -> int | None:
        interval_us = self.request_interval_us
        return self._first_due(due_us + interval_us, vehicle_id, interval_us, True)

    def _next_beacon(self, due_us: int, vehicle_id: str) -> int | None:
        interval_us = self.beacon_interval_us
        return self._first_due(due_us + interval_us, vehicle_id, interval_us, False)

    def _first_due(
        self, from_us: int, vehicle_id: str, interval_us: int, attempt: bool
    ) -> int | None:
        """The first of from_us, from_us + interval_us, ... at which the
        vehicle's attempt (or beacon) can act; None when it exits first.

        Only a vehicle that rides its track is planned ahead (and only for
        an interval of at least one tick, _first_acting_due); any other due
        time is from_us itself. A beacon can act where a zone covers the
        vehicle, an attempt from the first age at which one does (see the
        module docstring). Runs inside the tick at now, before idle ticks
        are skipped, so the world's latest tick is the one at now.
        """
        riding = self.world.riding(vehicle_id)
        if riding is None:
            return from_us
        road, track, age = riding
        ages = self._ages(road, track)
        tick_us = self.tick_us
        return _first_acting_due(
            from_us,
            interval_us,
            tick_us,
            self.queue.now_us // tick_us - age,  # the grid tick of its spawn
            ages.exit_age,
            ages.covered_since if attempt else ages.covered,
        )

    def _ages(self, road: RoadSegment, track: FreeTrack) -> _TrackAges:
        # a road's vehicles ride one track, which changes only while the road is empty
        ages = self._track_ages.get(road.id)
        if ages is None or ages.track is not track:
            ages = self._track_ages[road.id] = _TrackAges(road, track, self._zone_owner_at)
        return ages

    def _owner_of(self, vehicle_id: str) -> str | None:
        """Owner of the zone covering an active vehicle now (_zone_owner_at)."""
        riding = self.world.riding(vehicle_id)
        if riding is None:
            return self._zone_owner_at(self.world.world_xy(vehicle_id))
        road, track, age = riding
        return self._ages(road, track).owner(age)

    def _run_due(self, attempts: list[str], beacons: list[str]) -> None:
        """One tick's due attempts, then its due beacons, each in spawn order.

        Exits happen only in the tick, so every vehicle here is active.
        """
        for vid in attempts:
            self._on_attempt(vid)
        for vid in beacons:
            self._on_beacon(vid)

    def _on_attempt(self, vehicle_id: str) -> None:
        target = self._owner_of(vehicle_id)
        self.vehicles[vehicle_id].on_attempt(self.queue.now_us, target, self)

    def _on_beacon(self, vehicle_id: str) -> None:
        owner = self._owner_of(vehicle_id)
        if owner is None:
            return
        beacon = Beacon(vehicle_id, self.cfg.radio.beacon_payload_bits)
        self.transmit(owner, beacon, vehicle_id)

    def _on_announce(self, rsu_id: str) -> None:
        self.rsus[rsu_id].on_announce(self.queue.now_us, self)
        next_at = self.queue.now_us + self.announce_interval_us
        if next_at <= self.duration_us:
            self.queue.schedule(next_at, partial(self._on_announce, rsu_id))

    # -- radio pipeline ------------------------------------------------------

    def transmit(self, channel_owner: str, frame, sender: str) -> None:
        channel = self.channels[channel_owner]
        sender_xy = self._node_xy(sender)
        if not in_range(channel.zone, sender_xy):
            raise RuntimeError(
                f"{sender} transmitted on {channel_owner}'s channel from outside its zone"
            )
        bits = frame.payload_bits
        duration = self._airtime_us.get(bits)
        if duration is None:
            duration = self._airtime_us[bits] = tx_duration_us(self.cfg.radio, bits)
        start, end = channel.reserve(self.queue.now_us, duration)
        kind = type(frame).__name__.lower()
        self.frames_transmitted[kind] = self.frames_transmitted.get(kind, 0) + 1
        if isinstance(frame, Request) and not frame.forwarded:
            self.vehicle_requests_transmitted += 1
        if self.trace_lines is not None:
            name = getattr(frame, "name", None)
            self._trace(
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

        RSUs in zone order, then active vehicles in spawn order; the sender
        is excluded. Listeners are picked before the range test: vehicles
        ignore requests, and a satisfied vehicle does nothing with content
        (the status is terminal, and its cache is read only by on_attempt,
        which returns first for it). Only the zone's own RSU sends content,
        so a vehicle riding its track gets its range test and delay from
        its age (_TrackAges.delay).
        """
        request = isinstance(frame, Request)
        if not request and sender != zone_id:
            raise RuntimeError(
                f"{sender} sent a {type(frame).__name__} on {zone_id}'s channel; "
                f"only {zone_id} sends content there"
            )
        zone = self.zones[zone_id]
        sender_x, sender_y = self._node_xy(sender)
        found = []
        for rsu_id, other in self.zones.items():
            if rsu_id != sender and in_range(zone, other.center):
                x, y = other.center
                found.append((rsu_id, propagation_us(math.hypot(x - sender_x, y - sender_y))))
        if request:
            return found
        spans = self._road_spans[zone_id]
        candidates = [
            vid for road_id, lo, hi in spans for vid in self.world.in_span(road_id, lo, hi)
        ]
        if len(spans) > 1:
            # each road's slice is in spawn order already; merge them
            candidates.sort(key=self._active.__getitem__)
        vehicles = self.vehicles
        world = self.world
        for vid in candidates:
            if vehicles[vid].status == SATISFIED:
                continue
            riding = world.riding(vid)
            if riding is None:
                x, y = world.world_xy(vid)
                if in_range(zone, (x, y)):
                    found.append((vid, propagation_us(math.hypot(x - sender_x, y - sender_y))))
                continue
            road, track, age = riding
            delay = self._ages(road, track).delay(zone, age)
            if delay >= 0:
                found.append((vid, delay))
        return found

    def _node_xy(self, node_id: str) -> tuple[float, float]:
        zone = self.zones.get(node_id)
        if zone is not None:
            return zone.center
        return self.world.world_xy(node_id)

    def _zone_owner_at(self, point: tuple[float, float]) -> str | None:
        """Owner of the nearest covering zone; id order breaks exact ties."""
        best: tuple[float, str] | None = None
        for rsu_id, zone in self.zones.items():
            distance = math.hypot(point[0] - zone.center[0], point[1] - zone.center[1])
            if distance <= zone.radius_m:
                key = (distance, rsu_id)
                if best is None or key < best:
                    best = key
        return best[1] if best else None

    # -- backhaul ------------------------------------------------------------

    def backhaul_fetch(self, rsu_id: str, name, request_id: str) -> None:
        link = self.backhaul.get(rsu_id)
        if link is None:
            raise NoBackhaul(f"{rsu_id} has no backhaul link")
        self._trace(f"FETCH rsu={rsu_id} name={name} id={request_id}")
        self.queue.schedule(
            self.queue.now_us + link.latency_us,
            partial(self._on_server_request, rsu_id, name, request_id),
        )

    def _on_server_request(self, rsu_id: str, name, request_id: str) -> None:
        now = self.queue.now_us
        item = self.server.fetch(name)
        self.ledger.record_server_fetch(now, str(name))
        self._trace(f"SERVER name={name} id={request_id}")
        self.queue.schedule(
            now + self.proc_delay_us + self.backhaul[rsu_id].latency_us,
            partial(self._on_backhaul_return, rsu_id, item, request_id),
        )

    def _on_backhaul_return(self, rsu_id: str, item, request_id: str) -> None:
        self.rsus[rsu_id].on_content(item, request_id, self.queue.now_us, self)

    # -- services for agents ---------------------------------------------------

    def after(self, delay_us: int, action) -> None:
        self.queue.schedule(self.queue.now_us + delay_us, action)

    def deliver(self, record: DeliveryRecord) -> None:
        self.ledger.record_delivery(record)
        self._trace(
            f"DELIVER vehicle={record.vehicle} name={record.name} "
            f"source={record.source} cdt={format_time(record.cdt_us)}"
        )

    def rsu_request(self, rsu_id: str) -> None:
        self.ledger.record_rsu_request(self.queue.now_us, rsu_id)

    def cache_event(self, rsu_id: str, hit: bool) -> None:
        self.ledger.record_cache_event(self.queue.now_us, rsu_id, hit)

    def trace(self, text: str) -> None:
        self._trace(text)

    def _trace(self, text: str) -> None:
        if self.trace_lines is not None:
            self.trace_lines.append(f"t={format_time(self.queue.now_us)} {text}")


def _take_due(heap: list[tuple[int, int, str]], now_us: int, keep, rearm) -> list[str]:
    """Pop every entry due by now_us; returns the kept vehicle ids in spawn order.

    Each kept entry goes back at rearm(due time, vehicle id), after the
    popping, so an interval shorter than the tick still fires once per
    tick; it leaves the heap when rearm gives None, and so do the entries
    keep refuses.
    """
    due = []
    while heap and heap[0][0] <= now_us:
        entry = heappop(heap)
        if keep(entry[2]):
            due.append(entry)
    due.sort(key=itemgetter(1))
    for due_us, seq, vid in due:
        next_us = rearm(due_us, vid)
        if next_us is not None:
            heappush(heap, (next_us, seq, vid))
    return [vid for _, _, vid in due]


def _first_acting_due(
    from_us: int, interval_us: int, tick_us: int, spawn_tick: int, exit_age: int, acts
) -> int | None:
    """The first of from_us, from_us + interval_us, ... whose run age passes
    acts; None once a run age reaches exit_age, where the vehicle has left.

    A due time d runs at the first tick instant at or after it, grid tick
    ceil(d / tick_us), where a vehicle spawned at grid tick spawn_tick is
    ceil(d / tick_us) - spawn_tick ticks old. That holds for interval_us >=
    tick_us only: a shorter interval re-arms behind its run instant, so
    then from_us is returned as it is.
    """
    if interval_us < tick_us:
        return from_us
    due_us = from_us
    while True:
        age = -(-due_us // tick_us) - spawn_tick
        if age >= exit_age:
            return None
        if acts(age):
            return due_us
        due_us += interval_us


class _TrackAges:
    """What a vehicle riding one track on one road meets at each age.

    Such a vehicle is at road.world_position(track.pos[age]) at every tick
    of its age, so the zone that covers it, and the range test and delay of
    a frame a zone's RSU sends it, are functions of the age. Each is filled
    lazily, one age when first asked for, with the calls the engine makes
    for a vehicle off its track.
    """

    __slots__ = ("road", "track", "exit_age", "_owner_at", "_owners", "_first_covered", "_delays")

    def __init__(self, road: RoadSegment, track: FreeTrack, owner_at) -> None:
        self.road = road
        self.track = track
        self.exit_age = track.exit_age(road.length_m)
        self._owner_at = owner_at  # point -> owner of the nearest covering zone, or None
        self._owners: list = [_UNFILLED] * self.exit_age
        self._first_covered: int | None = None
        # zone id -> delay of a frame from the zone's RSU by age, -1 out of range
        self._delays: dict[str, list[int | None]] = {}

    def owner(self, age: int) -> str | None:
        owner = self._owners[age]
        if owner is _UNFILLED:
            point = self.road.world_position(self.track.pos[age])
            owner = self._owners[age] = self._owner_at(point)
        return owner

    def covered(self, age: int) -> bool:
        return self.owner(age) is not None

    def covered_since(self, age: int) -> bool:
        """Has a zone covered the vehicle at this age or before?"""
        if self._first_covered is None:
            first = 0
            while first < self.exit_age and self.owner(first) is None:
                first += 1
            self._first_covered = first
        return age >= self._first_covered

    def delay(self, zone: CoverageZone, age: int) -> int:
        """Propagation delay of a frame from the zone's centre, or -1 out of range."""
        delays = self._delays.get(zone.owner)
        if delays is None:
            delays = self._delays[zone.owner] = [None] * self.exit_age
        delay = delays[age]
        if delay is None:
            x, y = self.road.world_position(self.track.pos[age])
            center_x, center_y = zone.center
            delay = delays[age] = (
                propagation_us(math.hypot(x - center_x, y - center_y))
                if in_range(zone, (x, y))
                else -1
            )
        return delay


_UNFILLED = object()


def run_simulation(cfg: ScenarioConfig) -> SimulationResult:
    return Simulation(cfg).run()
