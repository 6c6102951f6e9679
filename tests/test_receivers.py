"""Receiver selection at frame end against the per-node range test.

The engine picks a frame's receivers from the nodes that act on it: a
request's target RSU, or, for content, the other RSUs in the zone and the
active vehicles that want its name. receivers_in_zone below, applied to
every node (RSUs in zone order, then unsatisfied vehicles in spawn order),
is the oracle: the two must agree on membership and on order, because the
event queue breaks same-instant ties first in, first out.
"""

import math

import pytest
from hypothesis import assume, given, strategies as st

from vcachesim.content import ContentItem
from vcachesim.engine import Simulation
from vcachesim.metrics import SOURCE_LOCAL_PRECACHE, SOURCE_RSU_HIT
from vcachesim.mobility import HIGHWAY_UNIFORM, URBAN_RANDOM, KinematicParams, RoadSegment
from vcachesim.protocol import IDLE, SATISFIED, WAITING, Request, Response, VehicleAgent
from vcachesim.radio import in_range, propagation_us
from vcachesim.scenarios import RsuSpec, ScenarioConfig, highway_multi

ITEM = "/traffic/1"
OTHER = "/traffic/2"
CONTENT = Response(ContentItem(ITEM, 2000), "v9.0", SOURCE_RSU_HIT)


def receivers_in_zone(zone, frame, rsus, vehicles, sender):
    """Ids of the nodes inside the zone that act on frame, sender excluded,
    in input order: rsus as (id, point), then vehicles as (id, point,
    wanted name). A request goes to its target only; content goes to every
    RSU and to the vehicles that want its name."""
    if isinstance(frame, Request):
        listeners = [(node_id, point) for node_id, point in rsus if node_id == frame.target]
    else:
        listeners = rsus + [(vid, point) for vid, point, wanted in vehicles if wanted == frame.name]
    return [node_id for node_id, point in listeners if node_id != sender and in_range(zone, point)]


def test_receivers_in_zone_preserves_order_and_excludes_sender():
    zone = RsuSpec("r0", (0.0, 0.0), 10.0)
    rsus = [("r0", (0.0, 0.0)), ("r1", (4.0, 0.0)), ("r2", (30.0, 0.0))]
    vehicles = [
        ("v1", (5.0, 0.0), ITEM),
        ("v2", (10.0, 0.0), ITEM),
        ("v3", (10.5, 0.0), ITEM),
        ("v4", (-3.0, 0.0), ITEM),
        ("v5", (1.0, 0.0), OTHER),
    ]
    assert receivers_in_zone(zone, CONTENT, rsus, vehicles, "v1") == ["r0", "r1", "v2", "v4"]
    request = Request(ITEM, "v1.0", "r1")
    assert receivers_in_zone(zone, request, rsus, vehicles, "v1") == ["r1"]
    assert receivers_in_zone(zone, request, rsus, vehicles, "r1") == []
    assert receivers_in_zone(zone, Request(ITEM, "v1.0", "r2"), rsus, vehicles, "v1") == []


def place(sim, vid, road_id, pos, wanted=ITEM):
    """Spawn an idle caching vehicle that wants an item (ITEM unless told) at pos."""
    sim.world.spawn(vid, road_id, 0.0)
    sim.world.place(vid, pos)
    sim._enter(VehicleAgent(vid, wanted, caching=True))


coords = st.floats(min_value=-300.0, max_value=300.0)


@st.composite
def roads(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    built = []
    for i in range(count):
        if draw(st.booleans()):
            direction = draw(st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]))
        else:
            angle = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
            direction = (math.cos(angle), math.sin(angle))
        built.append(
            RoadSegment(
                id=f"road{i}",
                length_m=draw(st.floats(min_value=10.0, max_value=800.0)),
                origin=(draw(coords), draw(coords)),
                direction=direction,
            )
        )
    return built


@st.composite
def layouts(draw):
    """A Simulation with vehicles placed on its roads, each wanting ITEM or
    OTHER, idle, waiting or satisfied; a zone, a sender and a request target."""
    layout_roads = draw(roads())
    # per road, positions front to back; spawn order interleaves the roads
    # but keeps each road's own front-to-back order, as real spawns do
    placed = {}
    for road in layout_roads:
        positions = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=road.length_m, exclude_max=True),
                max_size=8,
                unique=True,
            )
        )
        placed[road.id] = sorted(positions, reverse=True)
    spawn_roads = draw(st.permutations([rid for rid, ps in placed.items() for _ in ps]))

    zone_count = draw(st.integers(min_value=1, max_value=3))
    centers = [(draw(coords), draw(coords)) for _ in range(zone_count)]
    radii = [draw(st.floats(min_value=1.0, max_value=400.0)) for _ in range(zone_count)]
    anchor = draw(st.sampled_from(["none", "on", "just-outside"]))
    if anchor != "none" and spawn_roads:
        # put one vehicle exactly on (or one ulp outside) zone 0's boundary
        road_id = draw(st.sampled_from(spawn_roads))
        road = next(r for r in layout_roads if r.id == road_id)
        point = road.world_position(draw(st.sampled_from(placed[road.id])))
        radius = math.hypot(point[0] - centers[0][0], point[1] - centers[0][1])
        if anchor == "just-outside":
            radius = math.nextafter(radius, 0.0)
        assume(radius > 0.0)
        radii[0] = radius

    cfg = ScenarioConfig(
        name="layout",
        roads=layout_roads,
        rsus=[RsuSpec(f"r{i}", centers[i], radii[i]) for i in range(zone_count)],
        arrival_pattern=URBAN_RANDOM,
        vehicle_count=1,
        arrival_window_s=1.0,
        caching=True,
        duration_s=1.0,
        kinematics=KinematicParams(min_gap_m=1e-9),
    )
    sim = Simulation(cfg)
    taken = {rid: 0 for rid in placed}
    for seq, road_id in enumerate(spawn_roads):
        vid = f"x{seq:02d}"
        assume(sim.world.can_spawn(road_id))  # a tiny float can sit below min_gap
        wanted = draw(st.sampled_from([ITEM, OTHER]))
        place(sim, vid, road_id, placed[road_id][taken[road_id]], wanted)
        sim.vehicles[vid].status = draw(st.sampled_from([IDLE, WAITING, SATISFIED]))
        taken[road_id] += 1
    rsu_ids = [spec.id for spec in cfg.rsus]
    sender = draw(st.sampled_from(rsu_ids + active(sim)))
    zone_id = draw(st.sampled_from(rsu_ids))
    target = draw(st.sampled_from(rsu_ids))
    return sim, zone_id, sender, target


def active(sim):
    """Ids of the vehicles on the road, in spawn order."""
    return [vid for vid in sim.vehicles if vid in sim._active]


def oracle(sim, zone_id, sender, frame):
    """receivers_in_zone over every node, with each receiver's propagation
    delay from the sender."""
    rsus = [(rsu_id, other.center) for rsu_id, other in sim.zones.items()]
    vehicles = [
        (vid, sim.world.world_xy(vid), sim.vehicles[vid].wanted)
        for vid in active(sim)
        if sim.vehicles[vid].status != SATISFIED
    ]
    xy = dict(rsus) | {vid: sim.world.world_xy(vid) for vid in active(sim)}
    sender_x, sender_y = xy[sender]
    return [
        (node_id, propagation_us(math.hypot(xy[node_id][0] - sender_x, xy[node_id][1] - sender_y)))
        for node_id in receivers_in_zone(sim.zones[zone_id], frame, rsus, vehicles, sender)
    ]


@given(layouts())
def test_receivers_match_the_range_test_on_every_node(layout):
    sim, zone_id, sender, target = layout
    # content comes from the zone's own RSU; a request from anyone else in
    # it, on its target's channel; a request for another RSU raises
    for name in (ITEM, OTHER):
        content = Response(ContentItem(name, 2000), "v9.0", SOURCE_RSU_HIT)
        assert sim._receivers(zone_id, zone_id, content) == oracle(sim, zone_id, zone_id, content)
    if sender != zone_id:
        request = Request(ITEM, "x.0", zone_id)
        assert sim._receivers(zone_id, sender, request) == oracle(sim, zone_id, sender, request)
    if target != zone_id:
        with pytest.raises(RuntimeError, match=f"request for {target} on {zone_id}'s channel"):
            sim._receivers(zone_id, sender, Request(ITEM, "x.0", target))


def wide_twins():
    """Two gateways whose 450 m zones overlap on 400 m of a highway: a
    vehicle there may be 1 us from one RSU and 2 us from the other. No
    vehicle requests before it exits, so every one listens all the way."""
    return ScenarioConfig(
        name="wide-twins",
        roads=[RoadSegment(id="h", length_m=2100.0)],
        rsus=[RsuSpec("g0", (700.0, 0.0), 450.0), RsuSpec("g1", (1200.0, 0.0), 450.0)],
        arrival_pattern=HIGHWAY_UNIFORM,
        vehicle_count=30,
        arrival_window_s=30.0,
        caching=True,
        duration_s=200.0,
        entry_speed_mps=14.0,
        request_interval_s=1000.0,
    )


@pytest.mark.parametrize(
    "cfg", [highway_multi(count=30, seed=1), wide_twins()], ids=lambda cfg: cfg.name
)
def test_vehicles_on_their_track_get_the_range_test_and_delays_by_age(cfg):
    # the receivers of each zone's content for every catalog name at
    # instants through a highway run, most vehicles on the shared track,
    # against the oracle on world positions; each vehicle wants one name,
    # so every listener is counted once per zone
    sim = Simulation(cfg)
    seen = {"shared": 0, "receivers": 0}
    shared = sim.world._track(cfg.entry_speed_mps)
    frames = [Response(item, "v9.0", SOURCE_RSU_HIT) for item in sim.catalog.values()]

    def probe():
        for vid in sim._active:
            seen["shared"] += sim.world.riding(vid)[1] is shared
        for zone_id in sim.zones:
            for frame in frames:
                got = sim._receivers(zone_id, zone_id, frame)
                assert got == oracle(sim, zone_id, zone_id, frame)
                seen["receivers"] += len(got)

    for at_us in range(0, sim.duration_us, 1_700_000):  # off the tick grid too
        sim.queue.schedule(at_us, probe)
    sim.run()
    assert seen["shared"] >= 2000 and seen["receivers"] >= 400, seen


def crossing(extra_rsus=(), b0_wants=ITEM):
    """Roads a and b cross zone r0; a0, b0 and a1 are inside it, b1 is not."""
    cfg = ScenarioConfig(
        name="crossing",
        roads=[
            RoadSegment(id="a", length_m=200.0, origin=(0.0, 0.0)),
            RoadSegment(id="b", length_m=200.0, origin=(200.0, 10.0), direction=(-1.0, 0.0)),
        ],
        rsus=[RsuSpec("r0", (100.0, 5.0), 50.0), *extra_rsus],
        arrival_pattern=URBAN_RANDOM,
        vehicle_count=1,
        arrival_window_s=1.0,
        caching=True,
        duration_s=1.0,
    )
    sim = Simulation(cfg)
    place(sim, "a0", "a", 120.0)
    place(sim, "b0", "b", 130.0, b0_wants)
    place(sim, "a1", "a", 90.0)
    place(sim, "b1", "b", 20.0)
    return sim


def logging_frames(sim, node_ids):
    """Replace the nodes' on_frame with a log of (node id, frame type)."""
    log = []
    for node_id in node_ids:
        agent = sim.rsus.get(node_id) or sim.vehicles[node_id]
        agent.on_frame = lambda frame, now_us, services, node_id=node_id: log.append(
            (node_id, type(frame))
        )
    return log


def heard(sim, exclude, frame):
    return [node for node, _ in sim._receivers("r0", exclude, frame)]


def test_zone_meeting_two_roads_merges_by_spawn_order():
    sim = crossing()
    # b1 sits at x = 180, outside the zone
    assert heard(sim, "r0", CONTENT) == ["a0", "b0", "a1"]


def test_only_the_zones_own_rsu_sends_content_on_its_channel():
    sim = crossing()
    for sender in ("a1", "nobody"):
        with pytest.raises(RuntimeError, match="only r0 sends content"):
            heard(sim, sender, CONTENT)
    assert heard(sim, "a1", Request(ITEM, "a1.0", "r0")) == ["r0"]


def test_a_request_is_heard_by_rsus_only():
    sim = crossing()
    request = Request(ITEM, "a1.0", "r0")
    assert heard(sim, "a1", request) == ["r0"]
    log = logging_frames(sim, list(sim.vehicles))
    sim.transmit("r0", request, "a1")
    sim.queue.run_until(sim.duration_us)
    assert [rsu for _, rsu in sim.ledger.rsu_events] == ["r0"]
    # the gateway's answer reaches the vehicles; the request did not
    assert [kind for _, kind in log] == [Response] * 3


def test_a_request_reaches_only_its_target_among_the_rsus_in_its_zone():
    # r1's centre is inside r0's zone and r0's inside r1's
    sim = crossing(extra_rsus=[RsuSpec("r1", (110.0, 5.0), 50.0)])
    assert heard(sim, "a1", Request(ITEM, "a1.0", "r0")) == ["r0"]
    assert heard(sim, "r1", Request(ITEM, "a1.0", "r0", True)) == ["r0"]  # forwarded
    request = Request(ITEM, "a1.0", "r1")
    assert [node for node, _ in sim._receivers("r1", "a1", request)] == ["r1"]
    with pytest.raises(RuntimeError, match="request for r1 on r0's channel"):
        heard(sim, "a1", request)  # a request rides its target's channel
    assert heard(sim, "r0", CONTENT) == ["r1", "a0", "b0", "a1"]
    log = logging_frames(sim, ["r1"])
    sim.transmit("r0", Request(ITEM, "a1.0", "r0"), "a1")
    sim.queue.run_until(sim.duration_us)
    assert [rsu for _, rsu in sim.ledger.rsu_events] == ["r0"]
    assert log == [("r1", Response)]  # r0's answer, not the request


def test_a_vehicle_that_wants_another_item_hears_none_of_it():
    sim = crossing(b0_wants=OTHER)
    assert heard(sim, "r0", CONTENT) == ["a0", "a1"]
    assert heard(sim, "r0", Response(ContentItem(OTHER, 2000), "v9.0", SOURCE_RSU_HIT)) == ["b0"]
    b0 = sim.vehicles["b0"]
    sim.transmit("r0", CONTENT, "r0")
    sim.queue.run_until(sim.duration_us)
    assert not b0.precached and b0.status == IDLE
    assert sim.vehicles["a0"].precached
    log = logging_frames(sim, ["a0", "b0", "a1"])
    sim.transmit("r0", CONTENT, "r0")
    sim.queue.run_until(sim.duration_us)
    assert sorted(log) == [("a0", Response), ("a1", Response)]
    b0.on_attempt(sim.queue.now_us, "r0", sim)  # heard nothing of its own, so it asks
    assert b0.status == WAITING and b0.requests_sent == 1


def test_a_satisfied_vehicle_hears_no_content():
    sim = crossing()
    sim.vehicles["b0"].status = SATISFIED
    assert heard(sim, "r0", CONTENT) == ["a0", "a1"]
    for vid in ("a0", "a1"):
        sim.vehicles[vid].status = SATISFIED
    sim.transmit("r0", CONTENT, "r0")
    sim.queue.run_until(sim.duration_us)
    assert sim.queue.processed_total == 1  # no listener: the frame end alone
    assert not any(sim.vehicles[vid].precached for vid in ("a0", "b0", "a1"))


def test_an_idle_vehicle_precaches_overheard_content_and_then_hits_locally():
    sim = crossing()
    sim.transmit("r0", CONTENT, "r0")  # answers someone else's request
    sim.queue.run_until(sim.duration_us)
    agent = sim.vehicles["a0"]
    assert agent.precached
    assert agent.status != SATISFIED
    agent.on_attempt(sim.queue.now_us, None, sim)  # outside every zone, or inside, alike
    (record,) = sim.ledger.deliveries
    assert (record.vehicle, record.cdt_us, record.source) == ("a0", 0, SOURCE_LOCAL_PRECACHE)
    assert agent.status == SATISFIED
    assert sim.frames_transmitted == {"response": 1}  # the hit sent nothing
