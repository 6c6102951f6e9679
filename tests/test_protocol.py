"""Agent state machines driven through a recording services stub."""

import pytest

from vcachesim.content import ContentItem
from vcachesim.engine import Simulation
from vcachesim.metrics import (
    SOURCE_LOCAL_PRECACHE,
    SOURCE_RELAY_HIT,
    SOURCE_RSU_HIT,
    SOURCE_SERVER_FETCH,
)
from vcachesim.protocol import (
    CachingGateway,
    IDLE,
    OrphanResponse,
    PlainGateway,
    Relay,
    RelayRebroadcast,
    Request,
    Response,
    SATISFIED,
    VehicleAgent,
    WAITING,
)
from vcachesim.scenarios import urban_single
from vcachesim.simcore import US_PER_SECOND

WANT = "/traffic/3"
OTHER = "/traffic/9"
WANT_ITEM = ContentItem(WANT, 2000)
OTHER_ITEM = ContentItem(OTHER, 2000)


class FakeServices:
    """Records every call; deferred actions run when the test says so."""

    tracing = True

    def __init__(self):
        self.transmitted = []  # (channel owner, frame, sender)
        self.delivered = []
        self.fetches = []  # (rsu id, name, request id)
        self.rsu_requests = []
        self.cache_events = []  # (rsu id, hit)
        self.traces = []  # (kind, *fields)
        self.deferred = []  # (delay, action)

    def transmit(self, channel_owner, frame, sender):
        self.transmitted.append((channel_owner, frame, sender))

    def after(self, delay_us, action):
        self.deferred.append((delay_us, action))

    def backhaul_fetch(self, rsu_id, name, request_id):
        self.fetches.append((rsu_id, name, request_id))

    def deliver(self, record):
        self.delivered.append(record)

    def rsu_request(self, rsu_id):
        self.rsu_requests.append(rsu_id)

    def cache_event(self, rsu_id, hit):
        self.cache_events.append((rsu_id, hit))

    def trace(self, kind, *fields):
        self.traces.append((kind, *fields))

    def run_deferred(self):
        pending, self.deferred = self.deferred, []
        for _, action in pending:
            action()
        return len(pending)


def request(name=WANT, request_id="v0.0", target="r0", forwarded=False):
    return Request(name, request_id, target, forwarded)


def response(name=WANT, origin=SOURCE_SERVER_FETCH, request_id="v0.0", bits=2000):
    return Response(ContentItem(name, bits), request_id, origin)


# -- frames ----------------------------------------------------------------------


def test_request_payload_is_name_text_bytes():
    req = request(name="/traffic/10")
    assert req.payload_bits == 8 * len("/traffic/10")


def test_content_frames_take_name_and_size_from_their_item():
    item = ContentItem(WANT, 1234)
    for frame in (Response(item, "v0.0", SOURCE_RSU_HIT), RelayRebroadcast(item)):
        assert frame.item is item
        assert frame.name == WANT and frame.payload_bits == 1234


# -- vehicle ---------------------------------------------------------------------


def test_vehicle_first_attempt_in_coverage_transmits():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=True)
    v.on_attempt(1_000, "r0", svc)
    assert v.status == WAITING
    assert v.first_request_at_us == 1_000
    assert v.requests_sent == 1
    owner, frame, sender = svc.transmitted[0]
    assert (owner, sender) == ("r0", "v0")
    assert frame == Request(WANT, "v0.0", "r0")


def test_vehicle_attempt_out_of_coverage_is_silent():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=True)
    v.on_attempt(1_000, None, svc)
    assert v.status == IDLE
    assert v.first_request_at_us is None
    assert svc.transmitted == []


def test_vehicle_retry_keeps_first_request_anchor():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=True)
    v.on_attempt(1_000, "r0", svc)
    v.on_attempt(11_000_000, "r0", svc)
    assert v.first_request_at_us == 1_000
    assert v.requests_sent == 2
    assert svc.transmitted[1][1].request_id == "v0.1"


def test_vehicle_precache_then_local_hit_is_zero_cdt():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=True)
    v.on_frame(response(origin=SOURCE_RSU_HIT), 5_000, svc)  # overheard while idle
    assert v.status == IDLE and v.precached
    v.on_attempt(10_000, None, svc)  # even out of coverage
    assert v.status == SATISFIED
    assert svc.transmitted == []
    record = svc.delivered[0]
    assert record.cdt_us == 0
    assert record.source == SOURCE_LOCAL_PRECACHE
    assert record.first_request_at_us == record.delivered_at_us == 10_000


def test_vehicle_without_caching_never_precaches():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=False)
    v.on_frame(response(), 5_000, svc)
    assert not v.precached
    v.on_attempt(10_000, "r0", svc)
    assert v.status == WAITING  # had to transmit despite the overheard copy
    assert len(svc.transmitted) == 1


def test_waiting_vehicle_satisfied_by_matching_response():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=False)  # satisfaction works without caching
    v.on_attempt(1_000, "r0", svc)
    v.on_frame(response(origin=SOURCE_RSU_HIT), 1_400, svc)
    assert v.status == SATISFIED
    record = svc.delivered[0]
    assert record.cdt_us == 400
    assert record.source == SOURCE_RSU_HIT


def test_relay_rebroadcast_satisfies_as_relay_hit():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=True)
    v.on_attempt(1_000, "r0", svc)
    v.on_frame(RelayRebroadcast(WANT_ITEM), 1_500, svc)
    assert v.status == SATISFIED
    assert svc.delivered[0].source == SOURCE_RELAY_HIT


def test_satisfied_vehicle_stays_quiet():
    svc = FakeServices()
    v = VehicleAgent("v0", WANT, caching=True)
    v.on_attempt(1_000, "r0", svc)
    v.on_frame(response(), 1_500, svc)
    svc.transmitted.clear()
    v.on_attempt(11_000_000, "r0", svc)
    v.on_frame(response(), 11_000_500, svc)
    assert svc.transmitted == []
    assert len(svc.delivered) == 1


# -- caching gateway ---------------------------------------------------------------


def make_gateway(capacity=8):
    return CachingGateway("r0", capacity, proc_delay_us=10)


def test_gateway_miss_fetches_and_responds_from_server():
    svc = FakeServices()
    gw = make_gateway()
    gw.on_frame(request(), 1_000, svc)
    assert svc.rsu_requests == ["r0"]
    assert svc.cache_events == [("r0", False)]
    assert svc.fetches == [("r0", WANT, "v0.0")]
    assert len(gw._pending) == 1

    gw.on_content(ContentItem(WANT, 2000), "v0.0", 1_700, svc)
    assert len(gw._pending) == 0
    assert svc.run_deferred() == 1  # the response transmission
    owner, frame, sender = svc.transmitted[0]
    assert (owner, sender) == ("r0", "r0")
    assert frame.origin == SOURCE_SERVER_FETCH
    assert frame.name == WANT


def test_gateway_hit_responds_without_backhaul():
    svc = FakeServices()
    gw = make_gateway()
    gw.cache.put(ContentItem(WANT, 2000))
    gw.on_frame(request(), 1_000, svc)
    assert svc.fetches == []
    assert svc.cache_events == [("r0", True)]
    svc.run_deferred()
    assert svc.transmitted[0][1].origin == SOURCE_RSU_HIT


def test_gateway_aggregates_concurrent_same_name_misses():
    svc = FakeServices()
    gw = make_gateway()
    gw.on_frame(request(request_id="v0.0"), 1_000, svc)
    gw.on_frame(request(request_id="v1.0"), 1_050, svc)
    assert len(svc.fetches) == 1  # one shared server trip
    assert len(gw._pending) == 1
    gw.on_content(ContentItem(WANT, 2000), "v0.0", 1_700, svc)
    svc.run_deferred()
    assert len(svc.transmitted) == 1  # one broadcast answers both


def test_gateway_counts_forwarded_requests_separately():
    svc = FakeServices()
    gw = make_gateway()
    gw.on_frame(request(forwarded=True), 1_000, svc)
    assert svc.rsu_requests == []  # only vehicle-originated arrivals count
    assert svc.fetches == [("r0", WANT, "v0.0")]  # still served


def test_gateway_orphan_response_raises():
    svc = FakeServices()
    gw = make_gateway()
    with pytest.raises(OrphanResponse):
        gw.on_content(ContentItem(WANT, 2000), "v0.0", 1_000, svc)


def test_gateway_caches_overheard_broadcasts():
    svc = FakeServices()
    gw = make_gateway()
    gw.on_frame(RelayRebroadcast(OTHER_ITEM), 500, svc)
    assert gw.cache.peek(OTHER) is OTHER_ITEM  # the frame's item, as it is
    assert svc.transmitted == []  # gateways never rebroadcast


def test_gateway_eviction_traces():
    svc = FakeServices()
    gw = make_gateway(capacity=1)
    gw.on_frame(RelayRebroadcast(WANT_ITEM), 100, svc)
    gw.on_frame(RelayRebroadcast(OTHER_ITEM), 200, svc)
    assert svc.traces == [("EVICT", "r0", WANT)]


# -- plain gateway -----------------------------------------------------------------


def test_plain_gateway_forwards_every_request():
    svc = FakeServices()
    gw = PlainGateway("r0", proc_delay_us=10)
    gw.on_frame(request(request_id="v0.0"), 1_000, svc)
    gw.on_frame(request(request_id="v1.0"), 1_050, svc)
    assert len(svc.fetches) == 2  # same name, no aggregation
    assert len(gw._pending) == 2
    gw.on_content(ContentItem(WANT, 2000), "v0.0", 1_700, svc)
    gw.on_content(ContentItem(WANT, 2000), "v1.0", 1_750, svc)
    assert len(gw._pending) == 0
    svc.run_deferred()
    assert len(svc.transmitted) == 2
    assert all(f.origin == SOURCE_SERVER_FETCH for _, f, _ in svc.transmitted)


def test_plain_gateway_orphan_raises():
    svc = FakeServices()
    gw = PlainGateway("r0", proc_delay_us=10)
    with pytest.raises(OrphanResponse):
        gw.on_content(ContentItem(WANT, 2000), "nope", 100, svc)


def test_plain_gateway_ignores_broadcasts():
    svc = FakeServices()
    gw = PlainGateway("r0", proc_delay_us=10)
    gw.on_frame(RelayRebroadcast(WANT_ITEM), 100, svc)
    assert not hasattr(gw, "cache")
    assert svc.transmitted == []


# -- relay ---------------------------------------------------------------------------


def make_relay():
    return Relay("r0", next_hop="r1", capacity=8, proc_delay_us=10)


def test_relay_hit_responds_locally():
    svc = FakeServices()
    relay = make_relay()
    relay.cache.put(ContentItem(WANT, 2000))
    relay.on_frame(request(target="r0"), 1_000, svc)
    assert svc.cache_events == [("r0", True)]
    svc.run_deferred()
    owner, frame, sender = svc.transmitted[0]
    assert owner == "r0"
    assert frame.origin == SOURCE_RSU_HIT


def test_relay_miss_forwards_one_hop_toward_gateway():
    svc = FakeServices()
    relay = make_relay()
    relay.on_frame(request(target="r0"), 1_000, svc)
    svc.run_deferred()
    owner, frame, sender = svc.transmitted[0]
    assert owner == "r1"  # next hop's channel
    assert sender == "r0"
    assert frame.forwarded is True
    assert frame.target == "r1"
    assert frame.request_id == "v0.0"  # original id rides along


def test_relay_overheard_broadcast_clears_pending_and_rebroadcasts_new_names():
    svc = FakeServices()
    relay = make_relay()
    relay.on_frame(request(target="r0"), 1_000, svc)
    svc.run_deferred()
    svc.transmitted.clear()

    relay.on_frame(response(), 2_000, svc)  # gateway's answer passes by
    assert relay.cache.peek(WANT) is not None
    svc.run_deferred()
    assert len(svc.transmitted) == 1
    rebroadcast = svc.transmitted[0][1]
    assert isinstance(rebroadcast, RelayRebroadcast)
    assert rebroadcast.name == WANT


def test_relay_suppresses_rebroadcast_of_known_names():
    svc = FakeServices()
    relay = make_relay()
    relay.cache.put(ContentItem(OTHER, 2000))
    relay.cache.put(ContentItem(WANT, 2000))
    relay.on_frame(RelayRebroadcast(WANT_ITEM), 2_000, svc)
    svc.run_deferred()
    assert svc.transmitted == []  # echo suppressed
    # but the overheard copy refreshed recency
    assert relay.cache.items()[-1].name == WANT


def test_relay_announce_rebroadcasts_whole_cache_lru_first():
    svc = FakeServices()
    relay = make_relay()
    relay.on_announce(100, svc)
    assert svc.transmitted == []  # empty cache, nothing to say

    relay.cache.put(ContentItem(WANT, 2000))
    relay.cache.put(ContentItem(OTHER, 2000))
    relay.on_announce(200, svc)
    names = [frame.name for _, frame, _ in svc.transmitted]
    assert names == [WANT, OTHER]
    assert svc.traces == [("ANNOUNCE", "r0", 2)]


def test_relay_sends_one_frame_object_per_item():
    svc = FakeServices()
    relay = make_relay()
    relay.on_frame(response(), 1_000, svc)  # new names: cached and rebroadcast
    relay.on_frame(RelayRebroadcast(OTHER_ITEM), 1_500, svc)
    svc.run_deferred()
    relay.on_announce(2_000, svc)
    relay.on_announce(3_000, svc)
    sent = [frame for _, frame, _ in svc.transmitted]
    assert [frame.name for frame in sent] == [WANT, OTHER] * 3
    for first, *again in (sent[0::2], sent[1::2]):  # per name
        assert all(frame is first for frame in again)
    assert sent[1].item is OTHER_ITEM


def test_relay_has_no_backhaul_content_path():
    svc = FakeServices()
    relay = make_relay()
    with pytest.raises(OrphanResponse):
        relay.on_content(ContentItem(WANT, 2000), "v0.0", 100, svc)


# -- server -----------------------------------------------------------------------


def test_server_fetch_counts_and_looks_up():
    # the server is the engine's catalog: a gateway's miss comes back one
    # round trip later as the catalog's item, counted once in the ledger
    sim = Simulation(urban_single(count=1))
    gateway = sim.rsus["r0"]
    gateway.on_frame(request(), 0, sim)
    sim.queue.run_until(US_PER_SECOND)
    assert sim.ledger.server_events == [(400, WANT)]  # 400 us one way
    assert gateway.cache.peek(WANT) is sim.catalog[WANT]
    assert sim.frames_transmitted == {"response": 1}
    with pytest.raises(KeyError):
        sim._on_server_request("r0", "/other/1", "v0.1")
