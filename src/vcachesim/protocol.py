"""Node state machines: vehicles and the three RSU roles.

Agents are pure protocol logic. Everything environmental (channels, clocks,
backhaul wiring, metric recording) is reached through a services object the
engine provides, which keeps each handler unit-testable with a stub. Only
the engine decides who hears a frame (Simulation._receivers), so a handler
takes every frame it gets as its own. Content frames carry the catalog's
ContentItem, which RSUs cache as it is; a relay sends one frame per item.

Services interface used by agents:
    transmit(channel_owner, frame, sender_id)   queue a frame on a zone channel
    after(delay_us, action)                     schedule a follow-up action
    backhaul_fetch(rsu_id, name, request_id)    start a server round trip
    deliver(record)                             record a completed delivery
    rsu_request(rsu_id)                         count a vehicle-originated request
    cache_event(rsu_id, hit)                    count an RSU cache lookup
    trace(text)                                 append a trace line
    tracing                                     True when trace lines are kept;
                                                build trace text only then
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .content import ContentItem, LruStore
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
# Frames are shared, not copied: one object reaches every receiver, and a
# relay sends the same RelayRebroadcast on every announce. Never assign to a
# frame's fields.


@dataclass(slots=True)
class Request:
    name: str
    request_id: str
    target: str
    forwarded: bool = False

    @property
    def payload_bits(self) -> int:
        # the canonical name text at 8 bits per character
        return 8 * len(self.name)


@dataclass(slots=True)
class Response:
    name = property(attrgetter("item.name"))
    payload_bits = property(attrgetter("item.payload_bits"))
    item: ContentItem
    request_id: str
    origin: str  # rsu-hit | server-fetch


@dataclass(slots=True)
class Beacon:
    payload_bits: int


@dataclass(slots=True)
class RelayRebroadcast:
    name = property(attrgetter("item.name"))
    payload_bits = property(attrgetter("item.payload_bits"))
    item: ContentItem


# -- vehicle ------------------------------------------------------------------


class VehicleAgent:
    """One vehicle's desire for one content item.

    Idle until its first transmitted request, Waiting until the content
    arrives, Satisfied forever after. A caching vehicle that overhears its
    wanted item has it pre-cached (precached); its next attempt is then
    satisfied without any transmission and counts as a zero-delay delivery.
    It hears only content for that item, so nothing else is kept.
    """

    def __init__(self, vehicle_id: str, wanted: str, caching: bool) -> None:
        self.id = vehicle_id
        self.wanted = wanted
        self.caching = caching
        self.precached = False
        self.status = IDLE
        self.first_request_at_us: int | None = None
        self.requests_sent = 0

    def on_attempt(self, now_us: int, target_rsu: str | None, services) -> None:
        """One request attempt, made every request_interval_s.

        target_rsu is the RSU whose zone covers the vehicle (nearest when
        several do), or None when out of all coverage, in which case the
        attempt passes silently.
        """
        if self.status == SATISFIED:
            return
        if self.precached:
            self._deliver(now_us, SOURCE_LOCAL_PRECACHE, services)
            return
        if target_rsu is None:
            return
        if self.first_request_at_us is None:
            self.first_request_at_us = now_us
        self.status = WAITING
        request = Request(self.wanted, f"{self.id}.{self.requests_sent}", target_rsu)
        self.requests_sent += 1
        services.transmit(target_rsu, request, self.id)

    def on_frame(self, frame, now_us: int, services) -> None:
        """Content for the wanted item: a Response or a RelayRebroadcast."""
        if self.caching:
            self.precached = True
        if self.status == WAITING:
            source = frame.origin if isinstance(frame, Response) else SOURCE_RELAY_HIT
            self._deliver(now_us, source, services)

    def _deliver(self, now_us: int, source: str, services) -> None:
        """Satisfied now. A pre-cache hit comes before any request is sent
        (a waiting vehicle is satisfied by the content it hears), so it is
        its own first request and takes no time."""
        self.status = SATISFIED
        if self.first_request_at_us is None:
            self.first_request_at_us = now_us
        services.deliver(
            DeliveryRecord(
                vehicle=self.id,
                name=self.wanted,
                first_request_at_us=self.first_request_at_us,
                delivered_at_us=now_us,
                cdt_us=now_us - self.first_request_at_us,
                source=source,
            )
        )


# -- RSUs ---------------------------------------------------------------------


class RsuBase:
    """Frame dispatch to each role's _on_request and _on_broadcast. The
    engine routes to an RSU only requests addressed to it and content from
    another RSU whose zone holds it."""

    def __init__(self, rsu_id: str, proc_delay_us: int) -> None:
        self.id = rsu_id
        self.proc_delay_us = proc_delay_us

    def on_frame(self, frame, now_us: int, services) -> None:
        if isinstance(frame, Request):
            if not frame.forwarded:  # the ledger counts vehicle-originated ones
                services.rsu_request(self.id)
            self._on_request(frame, now_us, services)
        else:
            self._on_broadcast(frame, now_us, services)

    def _on_broadcast(self, frame, now_us: int, services) -> None:
        pass

    def on_content(self, item: ContentItem, request_id: str, now_us: int, services) -> None:
        raise OrphanResponse(f"{self.id} has no backhaul and expected no content")

    def _send_later(self, channel_owner: str, frame, services) -> None:
        """Send frame on channel_owner's channel after the processing delay."""
        services.after(
            self.proc_delay_us,
            lambda: services.transmit(channel_owner, frame, self.id),
        )

    def _answer_from_cache(self, frame: Request, services) -> bool:
        """Look up a caching RSU's cache, count it and answer a hit; False on a miss."""
        item = self.cache.get(frame.name)
        services.cache_event(self.id, hit=item is not None)
        if item is None:
            return False
        self._send_later(self.id, Response(item, frame.request_id, SOURCE_RSU_HIT), services)
        return True


class CachingGateway(RsuBase):
    """Server-connected RSU with an LRU cache and in-flight aggregation.

    Concurrent misses on one name share a single backhaul fetch; the single
    response broadcast answers every requester and pre-caches bystanders.
    """

    def __init__(self, rsu_id: str, capacity: int, proc_delay_us: int) -> None:
        super().__init__(rsu_id, proc_delay_us)
        self.cache = LruStore(capacity)
        self._pending: dict[str, list[str]] = {}

    def _on_request(self, frame: Request, now_us: int, services) -> None:
        if self._answer_from_cache(frame, services):
            return
        waiting = self._pending.get(frame.name)
        if waiting is None:
            self._pending[frame.name] = [frame.request_id]
            services.backhaul_fetch(self.id, frame.name, frame.request_id)
        else:
            waiting.append(frame.request_id)

    def _on_broadcast(self, frame, now_us: int, services) -> None:
        # overheard neighbor traffic is free cache warm-up; never rebroadcast
        self._store(frame.item, services)

    def on_content(self, item: ContentItem, request_id: str, now_us: int, services) -> None:
        if item.name not in self._pending:
            raise OrphanResponse(f"{self.id}: no pending request for {item.name}")
        del self._pending[item.name]
        self._store(item, services)
        self._send_later(self.id, Response(item, request_id, SOURCE_SERVER_FETCH), services)

    def _store(self, item: ContentItem, services) -> None:
        evicted = self.cache.put(item)
        if evicted is not None and services.tracing:
            services.trace(f"EVICT rsu={self.id} name={evicted}")


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
        self._send_later(self.id, Response(item, request_id, SOURCE_SERVER_FETCH), services)


class Relay(RsuBase):
    """Cache-and-rebroadcast RSU with no backhaul.

    Hits answer locally; misses ride one hop toward the gateway on the
    neighbor's channel. Every overheard content broadcast is cached and
    rebroadcast exactly once; a name already held is never rebroadcast
    again, which is what stops echo between overlapping relays. A periodic
    announcement rebroadcasts the full cache to seed approaching traffic.
    Each item goes out as one frame object, built when it is first sent.
    """

    def __init__(self, rsu_id: str, next_hop: str, capacity: int, proc_delay_us: int) -> None:
        super().__init__(rsu_id, proc_delay_us)
        self.cache = LruStore(capacity)
        self.next_hop = next_hop
        self._frames: dict[str, RelayRebroadcast] = {}  # name -> its frame

    def _on_request(self, frame: Request, now_us: int, services) -> None:
        if not self._answer_from_cache(frame, services):
            forward = Request(frame.name, frame.request_id, self.next_hop, True)
            self._send_later(self.next_hop, forward, services)

    def _on_broadcast(self, frame, now_us: int, services) -> None:
        item = frame.item
        held = self.cache.peek(item.name) is not None
        self.cache.put(item)  # a held name gains recency
        if not held:
            self._send_later(self.id, self._frame(item), services)

    def on_announce(self, now_us: int, services) -> None:
        """Rebroadcast the whole cache, least recently used first."""
        if len(self.cache) == 0:
            return
        if services.tracing:
            services.trace(f"ANNOUNCE rsu={self.id} items={len(self.cache)}")
        for item in self.cache.items():
            services.transmit(self.id, self._frame(item), self.id)

    def _frame(self, item: ContentItem) -> RelayRebroadcast:
        if item.name not in self._frames:
            self._frames[item.name] = RelayRebroadcast(item)
        return self._frames[item.name]
