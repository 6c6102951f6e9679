"""Node state machines: vehicles, the three RSU roles, and the edge server.

Agents are pure protocol logic. Everything environmental (channels, clocks,
backhaul wiring, metric recording) is reached through a services object the
engine provides, which keeps each handler unit-testable with a stub.

Services interface used by agents:
    transmit(channel_owner, frame, sender_id)   queue a frame on a zone channel
    after(delay_us, action)                     schedule a follow-up action
    backhaul_fetch(rsu_id, name, request_id)    start a server round trip
    deliver(record)                             record a completed delivery
    rsu_request(rsu_id)                         count a vehicle-originated request
    cache_event(rsu_id, hit)                    count an RSU cache lookup
    trace(text)                                 append a trace line
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .content import ContentItem, ContentName, LruStore
from .metrics import (
    DeliveryRecord,
    SOURCE_LOCAL_PRECACHE,
    SOURCE_RELAY_HIT,
    SOURCE_RSU_HIT,
    SOURCE_SERVER_FETCH,
)

IDLE = "idle"
WAITING = "waiting"
SATISFIED = "satisfied"


class OrphanResponse(RuntimeError):
    """A backhaul response arrived with no matching pending request."""


# -- frames -------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    name: ContentName
    requester: str
    request_id: str
    target: str
    forwarded: bool = False

    @property
    def payload_bits(self) -> int:
        # the canonical name text at 8 bits per character
        return 8 * len(str(self.name))


@dataclass(frozen=True)
class Response:
    name: ContentName
    payload_bits: int
    request_id: str
    origin: str  # rsu-hit | server-fetch

    def __post_init__(self) -> None:
        if self.origin not in (SOURCE_RSU_HIT, SOURCE_SERVER_FETCH):
            raise ValueError(f"bad response origin: {self.origin!r}")


@dataclass(frozen=True)
class Beacon:
    sender: str
    payload_bits: int = 320


@dataclass(frozen=True)
class RelayRebroadcast:
    name: ContentName
    payload_bits: int


# -- vehicle ------------------------------------------------------------------


class VehicleAgent:
    """One vehicle's desire for one content item.

    Idle until its first transmitted request, Waiting until the content
    arrives, Satisfied forever after. A pre-cached item found during an
    attempt satisfies without any transmission and counts as a zero-delay
    delivery.
    """

    def __init__(self, vehicle_id: str, wanted: ContentName, caching: bool) -> None:
        self.id = vehicle_id
        self.wanted = wanted
        self.caching = caching
        self.cache = LruStore(capacity=None)
        self.status = IDLE
        self.first_request_at_us: int | None = None
        self.requests_sent = 0

    def on_attempt(self, now_us: int, target_rsu: str | None, services) -> None:
        """One 10-second-cycle request attempt.

        target_rsu is the RSU whose zone covers the vehicle (nearest when
        several do), or None when out of all coverage, in which case the
        cycle passes silently.
        """
        if self.status == SATISFIED:
            return
        if self.caching and self.cache.get(self.wanted) is not None:
            self._satisfy_local(now_us, services)
            return
        if target_rsu is None:
            return
        if self.first_request_at_us is None:
            self.first_request_at_us = now_us
        self.status = WAITING
        request = Request(
            name=self.wanted,
            requester=self.id,
            request_id=f"{self.id}.{self.requests_sent}",
            target=target_rsu,
        )
        self.requests_sent += 1
        services.transmit(target_rsu, request, self.id)

    def on_frame(self, frame, now_us: int, services) -> None:
        if isinstance(frame, Response):
            self._on_content_frame(frame.name, frame.payload_bits, frame.origin, now_us, services)
        elif isinstance(frame, RelayRebroadcast):
            self._on_content_frame(frame.name, frame.payload_bits, SOURCE_RELAY_HIT, now_us, services)
        # requests and beacons from others carry nothing a vehicle acts on

    def _on_content_frame(
        self, name: ContentName, payload_bits: int, source: str, now_us: int, services
    ) -> None:
        if self.caching:
            self.cache.put(ContentItem(name, payload_bits))
        if self.status == WAITING and name == self.wanted:
            self.status = SATISFIED
            services.deliver(
                DeliveryRecord(
                    vehicle=self.id,
                    name=name,
                    first_request_at_us=self.first_request_at_us,
                    delivered_at_us=now_us,
                    cdt_us=now_us - self.first_request_at_us,
                    source=source,
                )
            )

    def _satisfy_local(self, now_us: int, services) -> None:
        self.status = SATISFIED
        if self.first_request_at_us is None:
            self.first_request_at_us = now_us
        services.deliver(
            DeliveryRecord(
                vehicle=self.id,
                name=self.wanted,
                first_request_at_us=self.first_request_at_us,
                delivered_at_us=now_us,
                cdt_us=0,
                source=SOURCE_LOCAL_PRECACHE,
            )
        )


# -- RSUs ---------------------------------------------------------------------


class RsuBase:
    """Shared request dispatch: RSUs only handle requests addressed to them."""

    def __init__(self, rsu_id: str, proc_delay_us: int) -> None:
        self.id = rsu_id
        self.proc_delay_us = proc_delay_us
        self.cache: LruStore | None = None
        self.next_hop: str | None = None
        self.requests_received = 0  # vehicle-originated only
        self.forwarded_received = 0

    def on_frame(self, frame, now_us: int, services) -> None:
        if isinstance(frame, Request):
            if frame.target != self.id:
                return
            if frame.forwarded:
                self.forwarded_received += 1
            else:
                self.requests_received += 1
                services.rsu_request(self.id)
            self._on_request(frame, now_us, services)
        elif isinstance(frame, (Response, RelayRebroadcast)):
            self._on_broadcast(frame, now_us, services)

    def _on_request(self, frame: Request, now_us: int, services) -> None:
        raise NotImplementedError

    def _on_broadcast(self, frame, now_us: int, services) -> None:
        pass

    def on_content(self, item: ContentItem, request_id: str, now_us: int, services) -> None:
        raise OrphanResponse(f"{self.id} has no backhaul and expected no content")

    def on_announce(self, now_us: int, services) -> None:
        pass

    def pending_count(self) -> int:
        return 0

    def _respond(self, response: Response, services) -> None:
        services.after(
            self.proc_delay_us,
            lambda: services.transmit(self.id, response, self.id),
        )


class CachingGateway(RsuBase):
    """Server-connected RSU with an LRU cache and in-flight aggregation.

    Concurrent misses on one name share a single backhaul fetch; the single
    response broadcast answers every requester and pre-caches bystanders.
    """

    def __init__(self, rsu_id: str, capacity: int, proc_delay_us: int) -> None:
        super().__init__(rsu_id, proc_delay_us)
        self.cache = LruStore(capacity)
        self._pending: dict[ContentName, list[str]] = {}

    def _on_request(self, frame: Request, now_us: int, services) -> None:
        item = self.cache.get(frame.name)
        services.cache_event(self.id, hit=item is not None)
        if item is not None:
            self._respond(
                Response(frame.name, item.payload_bits, frame.request_id, SOURCE_RSU_HIT),
                services,
            )
            return
        waiting = self._pending.get(frame.name)
        if waiting is None:
            self._pending[frame.name] = [frame.request_id]
            services.backhaul_fetch(self.id, frame.name, frame.request_id)
        else:
            waiting.append(frame.request_id)

    def _on_broadcast(self, frame, now_us: int, services) -> None:
        # overheard neighbor traffic is free cache warm-up; never rebroadcast
        evicted = self.cache.put(ContentItem(frame.name, frame.payload_bits))
        if evicted is not None:
            services.trace(f"EVICT rsu={self.id} name={evicted}")

    def on_content(self, item: ContentItem, request_id: str, now_us: int, services) -> None:
        if item.name not in self._pending:
            raise OrphanResponse(f"{self.id}: no pending request for {item.name}")
        del self._pending[item.name]
        evicted = self.cache.put(item)
        if evicted is not None:
            services.trace(f"EVICT rsu={self.id} name={evicted}")
        self._respond(
            Response(item.name, item.payload_bits, request_id, SOURCE_SERVER_FETCH),
            services,
        )

    def pending_count(self) -> int:
        return len(self._pending)


class PlainGateway(RsuBase):
    """No-cache baseline: every request goes to the server, one response each."""

    def __init__(self, rsu_id: str, proc_delay_us: int) -> None:
        super().__init__(rsu_id, proc_delay_us)
        self._pending: set[str] = set()  # request ids

    def _on_request(self, frame: Request, now_us: int, services) -> None:
        self._pending.add(frame.request_id)
        services.backhaul_fetch(self.id, frame.name, frame.request_id)

    def on_content(self, item: ContentItem, request_id: str, now_us: int, services) -> None:
        if request_id not in self._pending:
            raise OrphanResponse(f"{self.id}: no pending request {request_id}")
        self._pending.remove(request_id)
        self._respond(
            Response(item.name, item.payload_bits, request_id, SOURCE_SERVER_FETCH),
            services,
        )

    def pending_count(self) -> int:
        return len(self._pending)


class Relay(RsuBase):
    """Cache-and-rebroadcast RSU with no backhaul.

    Hits answer locally; misses ride one hop toward the gateway on the
    neighbor's channel. Every overheard content broadcast is cached and
    rebroadcast exactly once; a name already held is never rebroadcast
    again, which is what stops echo between overlapping relays. A periodic
    announcement rebroadcasts the full cache to seed approaching traffic.
    """

    def __init__(self, rsu_id: str, next_hop: str, capacity: int, proc_delay_us: int) -> None:
        super().__init__(rsu_id, proc_delay_us)
        if not next_hop:
            raise ValueError(f"relay {rsu_id} needs a next hop toward the gateway")
        self.cache = LruStore(capacity)
        self.next_hop = next_hop
        self._pending: dict[ContentName, list[str]] = {}  # name -> forwarded request ids

    def _on_request(self, frame: Request, now_us: int, services) -> None:
        item = self.cache.get(frame.name)
        services.cache_event(self.id, hit=item is not None)
        if item is not None:
            self._respond(
                Response(frame.name, item.payload_bits, frame.request_id, SOURCE_RSU_HIT),
                services,
            )
            return
        self._pending.setdefault(frame.name, []).append(frame.request_id)
        forward = replace(frame, target=self.next_hop, forwarded=True)
        services.after(
            self.proc_delay_us,
            lambda: services.transmit(self.next_hop, forward, self.id),
        )

    def _on_broadcast(self, frame, now_us: int, services) -> None:
        self._pending.pop(frame.name, None)
        if self.cache.peek(frame.name) is not None:
            self.cache.put(ContentItem(frame.name, frame.payload_bits))  # refresh recency
            return
        self.cache.put(ContentItem(frame.name, frame.payload_bits))
        self._respond_rebroadcast(frame.name, frame.payload_bits, services)

    def on_announce(self, now_us: int, services) -> None:
        """Rebroadcast the whole cache, least recently used first."""
        if len(self.cache) == 0:
            return
        services.trace(f"ANNOUNCE rsu={self.id} items={len(self.cache)}")
        for name in self.cache.names():
            item = self.cache.peek(name)
            services.transmit(self.id, RelayRebroadcast(name, item.payload_bits), self.id)

    def _respond_rebroadcast(self, name: ContentName, payload_bits: int, services) -> None:
        rebroadcast = RelayRebroadcast(name, payload_bits)
        services.after(
            self.proc_delay_us,
            lambda: services.transmit(self.id, rebroadcast, self.id),
        )

    def pending_count(self) -> int:
        return sum(map(len, self._pending.values()))


# -- server ---------------------------------------------------------------------


class ServerAgent:
    """The edge server: holds the whole catalog, answers every fetch."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.requests_received = 0

    def fetch(self, name: ContentName) -> ContentItem:
        self.requests_received += 1
        return self.catalog.lookup(name)
