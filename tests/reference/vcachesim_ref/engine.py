"""The per-run simulation engine.

Owns the event queue and all node state, implements the services interface
the protocol agents call, and drives the kinematics tick that everything
else hangs off. One instance runs one scenario once.

Per-tick ordering: kinematics advance, then arrivals spawn, then due request
attempts, then due beacons. Requests go on the air before same-instant
beacon chatter; FIFO channel contention does the rest.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

from .content import Catalog
from .metrics import DeliveryRecord, MetricsLedger
from .mobility import ACTIVE, MobilityWorld, generate_arrivals
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
        self.request_interval_us = seconds_to_us(cfg.request_interval_s)
        self.beacon_interval_us = seconds_to_us(cfg.radio.beacon_interval_s)
        self.announce_interval_us = seconds_to_us(cfg.relay_announce_interval_s)
        self.proc_delay_us = seconds_to_us(cfg.processing_delay_s)
        backhaul_latency_us = seconds_to_us(cfg.backhaul_latency_s)

        self.world = MobilityWorld(cfg.roads, cfg.kinematics)
        self.zones: dict[str, CoverageZone] = {
            spec.id: CoverageZone(spec.id, spec.center, cfg.effective_radius(spec))
            for spec in cfg.rsus
        }
        self.channels = {rsu_id: Channel(zone) for rsu_id, zone in self.zones.items()}
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

        self.vehicles: dict[str, VehicleAgent] = {}
        self._next_attempt_us: dict[str, int] = {}
        self._next_beacon_us: dict[str, int] = {}
        self.vehicle_requests_transmitted = 0
        self.frames_transmitted: dict[str, int] = {}
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
        for vid in self.world.tick(self.cfg.tick_s, now):
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
                stagger = (len(self.vehicles) % 100) * self.tick_us
                self.vehicles[arrival.vehicle_id] = VehicleAgent(
                    arrival.vehicle_id, arrival.wanted, self.cfg.caching
                )
                self._next_attempt_us[arrival.vehicle_id] = now
                self._next_beacon_us[arrival.vehicle_id] = now + stagger
                self._trace(
                    f"SPAWN vehicle={arrival.vehicle_id} road={road.id} "
                    f"wanted={arrival.wanted}"
                )
        for vid, agent in self.vehicles.items():
            if self._next_attempt_us[vid] <= now and self.world.is_active(vid):
                self._next_attempt_us[vid] += self.request_interval_us
                if agent.status != SATISFIED:
                    self.queue.schedule(now, partial(self._on_attempt, vid))
        for vid in self.vehicles:
            if self._next_beacon_us[vid] <= now and self.world.is_active(vid):
                self._next_beacon_us[vid] += self.beacon_interval_us
                self.queue.schedule(now, partial(self._on_beacon, vid))
        next_tick = now + self.tick_us
        if next_tick <= self.duration_us:
            self.queue.schedule(next_tick, self._on_tick)

    def _on_attempt(self, vehicle_id: str) -> None:
        fix = self.world.fix(vehicle_id)
        if fix.status != ACTIVE:
            return
        target = self._zone_owner_at(fix.world_xy)
        self.vehicles[vehicle_id].on_attempt(self.queue.now_us, target, self)

    def _on_beacon(self, vehicle_id: str) -> None:
        fix = self.world.fix(vehicle_id)
        if fix.status != ACTIVE:
            return
        owner = self._zone_owner_at(fix.world_xy)
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
        duration = tx_duration_us(self.cfg.radio, frame.payload_bits)
        start, end = channel.reserve(self.queue.now_us, duration)
        kind = type(frame).__name__.lower()
        self.frames_transmitted[kind] = self.frames_transmitted.get(kind, 0) + 1
        if isinstance(frame, Request) and not frame.forwarded:
            self.vehicle_requests_transmitted += 1
        name = getattr(frame, "name", None)
        self._trace(
            f"TX kind={kind} sender={sender} channel={channel_owner} "
            f"name={name if name is not None else '-'} "
            f"start={format_time(start)} end={format_time(end)}"
        )
        self.queue.schedule(end, partial(self._on_frame_end, channel_owner, frame, sender))

    def _on_frame_end(self, channel_owner: str, frame, sender: str) -> None:
        if isinstance(frame, Beacon):
            return  # occupies airtime; carries nothing receivers keep
        now = self.queue.now_us
        zone = self.zones[channel_owner]
        sender_xy = self._node_xy(sender)
        for node_id, node_xy in self._node_positions(exclude=sender):
            if in_range(zone, node_xy):
                distance = math.hypot(node_xy[0] - sender_xy[0], node_xy[1] - sender_xy[1])
                self.queue.schedule(
                    now + propagation_us(distance),
                    partial(self._on_receive, node_id, frame),
                )

    def _on_receive(self, node_id: str, frame) -> None:
        rsu = self.rsus.get(node_id)
        if rsu is not None:
            rsu.on_frame(frame, self.queue.now_us, self)
            return
        if self.world.is_active(node_id):
            self.vehicles[node_id].on_frame(frame, self.queue.now_us, self)

    def _node_positions(self, exclude: str) -> list[tuple[str, tuple[float, float]]]:
        positions: list[tuple[str, tuple[float, float]]] = [
            (rsu_id, zone.center)
            for rsu_id, zone in self.zones.items()
            if rsu_id != exclude
        ]
        for vid in self.vehicles:
            if vid != exclude and self.world.is_active(vid):
                positions.append((vid, self.world.fix(vid).world_xy))
        return positions

    def _node_xy(self, node_id: str) -> tuple[float, float]:
        zone = self.zones.get(node_id)
        if zone is not None:
            return zone.center
        return self.world.fix(node_id).world_xy

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


def run_simulation(cfg: ScenarioConfig) -> SimulationResult:
    return Simulation(cfg).run()
