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
the entries due by now and re-arms each one interval later. Exited vehicles
leave both heaps when next popped, satisfied ones leave the attempt heap.
The tick then queues the next tick and runs the due attempts, then the due
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
from .mobility import MobilityWorld, generate_arrivals
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
            spec.id: CoverageZone(spec.id, spec.center, cfg.effective_radius(spec))
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
            if spec.has_backhaul()
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
            del active[vid]  # its heap entries go when next popped
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
                active[arrival.vehicle_id] = spawned
                heappush(self._attempts_due, (now, spawned, arrival.vehicle_id))
                heappush(self._beacons_due, (now + stagger, spawned, arrival.vehicle_id))
                self._trace(
                    f"SPAWN vehicle={arrival.vehicle_id} road={road.id} "
                    f"wanted={arrival.wanted}"
                )
        # most ticks find nothing due; the heap tops say so without a call
        attempts = self._attempts_due
        due_attempts = (
            _take_due(attempts, now, self.request_interval_us, self._wants_attempts)
            if attempts and attempts[0][0] <= now
            else []
        )
        beacons = self._beacons_due
        due_beacons = (
            _take_due(beacons, now, self.beacon_interval_us, active.__contains__)
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

    def _run_due(self, attempts: list[str], beacons: list[str]) -> None:
        """One tick's due attempts, then its due beacons, each in spawn order.

        Exits happen only in the tick, so every vehicle here is active.
        """
        for vid in attempts:
            self._on_attempt(vid)
        for vid in beacons:
            self._on_beacon(vid)

    def _on_attempt(self, vehicle_id: str) -> None:
        target = self._zone_owner_at(self.world.world_xy(vehicle_id))
        self.vehicles[vehicle_id].on_attempt(self.queue.now_us, target, self)

    def _on_beacon(self, vehicle_id: str) -> None:
        owner = self._zone_owner_at(self.world.world_xy(vehicle_id))
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
        sender_x, sender_y = self._node_xy(sender)
        batches: dict[int, list[str]] = {}
        for node_id, (x, y) in self._receivers(channel_owner, sender, frame):
            at_us = now + propagation_us(math.hypot(x - sender_x, y - sender_y))
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

    def _receivers(
        self, zone_id: str, exclude: str, frame
    ) -> list[tuple[str, tuple[float, float]]]:
        """In-range nodes that act on frame, with positions, in receive-scheduling order.

        RSUs in zone order, then active vehicles in spawn order; the sender
        is excluded. Listeners are picked before the range test: vehicles
        ignore requests, and a satisfied vehicle does nothing with content
        (the status is terminal, and its cache is read only by on_attempt,
        which returns first for it).
        """
        zone = self.zones[zone_id]
        found = [
            (rsu_id, other.center)
            for rsu_id, other in self.zones.items()
            if rsu_id != exclude and in_range(zone, other.center)
        ]
        if isinstance(frame, Request):
            return found
        spans = self._road_spans[zone_id]
        candidates = [
            vid for road_id, lo, hi in spans for vid in self.world.in_span(road_id, lo, hi)
        ]
        if len(spans) > 1:
            # each road's slice is in spawn order already; merge them
            candidates.sort(key=self._active.__getitem__)
        vehicles = self.vehicles
        world_xy = self.world.world_xy
        for vid in candidates:
            if vid != exclude and vehicles[vid].status != SATISFIED:
                xy = world_xy(vid)
                if in_range(zone, xy):
                    found.append((vid, xy))
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


def _take_due(
    heap: list[tuple[int, int, str]], now_us: int, interval_us: int, keep
) -> list[str]:
    """Pop every entry due by now_us; returns the kept vehicle ids in spawn order.

    Each kept entry goes back one interval later, after the popping, so an
    interval shorter than the tick still fires once per tick; the others
    leave the heap.
    """
    due = []
    while heap and heap[0][0] <= now_us:
        entry = heappop(heap)
        if keep(entry[2]):
            due.append(entry)
    due.sort(key=itemgetter(1))
    for due_us, seq, vid in due:
        heappush(heap, (due_us + interval_us, seq, vid))
    return [vid for _, _, vid in due]


def run_simulation(cfg: ScenarioConfig) -> SimulationResult:
    return Simulation(cfg).run()
