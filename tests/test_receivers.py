"""Receiver selection at frame end against the per-node range test.

The engine finds a frame's receivers by slicing each road's front-to-back
order with the interval the zone cuts from that road. radio.receivers_in_zone
applied to every node (RSUs in zone order, then active vehicles in spawn
order) is the oracle: the two must agree on membership and on order, because
the event queue breaks same-instant ties first in, first out. The oracle
layouts let every vehicle listen (idle vehicles hearing content), so that
they check the geometry; the listener filter has tests of its own.
"""

import math

import pytest
from hypothesis import assume, given, strategies as st

from vcachesim.content import parse_name
from vcachesim.engine import Simulation
from vcachesim.metrics import SOURCE_LOCAL_PRECACHE, SOURCE_RSU_HIT
from vcachesim.mobility import HIGHWAY_UNIFORM, URBAN_RANDOM, KinematicParams, RoadSegment
from vcachesim.protocol import SATISFIED, Request, Response, VehicleAgent
from vcachesim.radio import propagation_us, receivers_in_zone
from vcachesim.scenarios import RsuSpec, ScenarioConfig, highway_multi

ITEM = parse_name("/traffic/1")
CONTENT = Response(ITEM, 2000, "v9.0", SOURCE_RSU_HIT)


def place(sim, seq, vid, road_id, pos):
    """Spawn an idle caching vehicle that wants ITEM at pos, as spawn number seq."""
    sim.world.spawn(vid, road_id, 0.0, 0)
    sim.world.place(vid, pos)
    sim._active[vid] = seq
    sim.vehicles[vid] = VehicleAgent(vid, ITEM, caching=True)

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
    """A Simulation with vehicles placed on its roads, a zone and a sender."""
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
        place(sim, seq, vid, road_id, placed[road_id][taken[road_id]])
        taken[road_id] += 1
    nodes = [spec.id for spec in cfg.rsus] + list(sim._active)
    sender = draw(st.sampled_from(nodes))
    zone_id = draw(st.sampled_from([spec.id for spec in cfg.rsus]))
    return sim, zone_id, sender


def oracle(sim, zone_id, sender, frame):
    """receivers_in_zone over every node that acts on frame, with each one's
    propagation delay from the sender."""
    rsus = [(rsu_id, other.center) for rsu_id, other in sim.zones.items()]
    vehicles = [
        (vid, sim.world.fix(vid).world_xy)
        for vid in sim._active
        if sim.vehicles[vid].status != SATISFIED
    ]
    xy = dict(rsus + vehicles)
    listeners = rsus if isinstance(frame, Request) else rsus + vehicles
    sender_x, sender_y = xy[sender]
    return [
        (node_id, propagation_us(math.hypot(xy[node_id][0] - sender_x, xy[node_id][1] - sender_y)))
        for node_id in receivers_in_zone(sim.zones[zone_id], listeners, exclude=sender)
    ]


@given(layouts())
def test_sliced_receivers_match_the_range_test_on_every_node(layout):
    sim, zone_id, sender = layout
    # content comes from the zone's own RSU; a request from anyone in it
    assert sim._receivers(zone_id, zone_id, CONTENT) == oracle(sim, zone_id, zone_id, CONTENT)
    request = Request(ITEM, sender, "x.0", zone_id)
    assert sim._receivers(zone_id, sender, request) == oracle(sim, zone_id, sender, request)


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
    # the receivers of each zone's content at instants through a highway
    # run, most vehicles on the shared track, against the oracle on world
    # positions
    sim = Simulation(cfg)
    seen = {"shared": 0, "receivers": 0}
    shared = sim.world._track(cfg.entry_speed_mps)

    def probe():
        for vid in sim._active:
            seen["shared"] += sim.world.riding(vid)[1] is shared
        for zone_id in sim.zones:
            got = sim._receivers(zone_id, zone_id, CONTENT)
            assert got == oracle(sim, zone_id, zone_id, CONTENT)
            seen["receivers"] += len(got)

    for at_us in range(0, sim.duration_us, 1_700_000):  # off the tick grid too
        sim.queue.schedule(at_us, probe)
    sim.run()
    assert seen["shared"] >= 2000 and seen["receivers"] >= 400, seen


def crossing():
    """Roads a and b cross zone r0; a0, b0 and a1 are inside it, b1 is not."""
    cfg = ScenarioConfig(
        name="crossing",
        roads=[
            RoadSegment(id="a", length_m=200.0, origin=(0.0, 0.0)),
            RoadSegment(id="b", length_m=200.0, origin=(200.0, 10.0), direction=(-1.0, 0.0)),
        ],
        rsus=[RsuSpec("r0", (100.0, 5.0), 50.0)],
        arrival_pattern=URBAN_RANDOM,
        vehicle_count=1,
        arrival_window_s=1.0,
        caching=True,
        duration_s=1.0,
    )
    sim = Simulation(cfg)
    for seq, (vid, road_id, pos) in enumerate(
        [("a0", "a", 120.0), ("b0", "b", 130.0), ("a1", "a", 90.0), ("b1", "b", 20.0)]
    ):
        place(sim, seq, vid, road_id, pos)
    return sim


def heard(sim, exclude, frame):
    return [node for node, _ in sim._receivers("r0", exclude, frame)]


def test_zone_meeting_two_roads_merges_by_spawn_order():
    sim = crossing()
    assert sim._road_spans["r0"][0][0] == "a" and sim._road_spans["r0"][1][0] == "b"
    # b1 sits at x = 180, outside the zone
    assert heard(sim, "r0", CONTENT) == ["a0", "b0", "a1"]


def test_only_the_zones_own_rsu_sends_content_on_its_channel():
    sim = crossing()
    for sender in ("a1", "nobody"):
        with pytest.raises(RuntimeError, match="only r0 sends content"):
            heard(sim, sender, CONTENT)
    assert heard(sim, "a1", Request(ITEM, "a1", "a1.0", "r0")) == ["r0"]


def test_a_request_is_heard_by_rsus_only():
    sim = crossing()
    request = Request(ITEM, "a1", "a1.0", "r0")
    assert heard(sim, "a1", request) == ["r0"]
    heard_by_vehicles = []
    for agent in sim.vehicles.values():
        agent.on_frame = lambda frame, now_us, services: heard_by_vehicles.append(frame)
    sim.transmit("r0", request, "a1")
    sim.queue.run_until(sim.duration_us)
    assert sim.rsus["r0"].requests_received == 1
    # the gateway's answer reaches the vehicles; the request did not
    assert [type(frame) for frame in heard_by_vehicles] == [Response] * 3


def test_a_satisfied_vehicle_hears_no_content():
    sim = crossing()
    sim.vehicles["b0"].status = SATISFIED
    assert heard(sim, "r0", CONTENT) == ["a0", "a1"]
    for vid in ("a0", "a1"):
        sim.vehicles[vid].status = SATISFIED
    sim.transmit("r0", CONTENT, "r0")
    sim.queue.run_until(sim.duration_us)
    assert sim.queue.processed_total == 1  # no listener: the frame end alone
    assert all(len(sim.vehicles[vid].cache) == 0 for vid in ("a0", "b0", "a1"))


def test_an_idle_vehicle_precaches_overheard_content_and_then_hits_locally():
    sim = crossing()
    sim.transmit("r0", CONTENT, "r0")  # answers someone else's request
    sim.queue.run_until(sim.duration_us)
    agent = sim.vehicles["a0"]
    assert agent.cache.peek(ITEM) is not None
    assert agent.status != SATISFIED
    sim._on_attempt("a0")
    (record,) = sim.ledger.deliveries
    assert (record.vehicle, record.cdt_us, record.source) == ("a0", 0, SOURCE_LOCAL_PRECACHE)
    assert agent.status == SATISFIED
    assert sim.frames_transmitted == {"response": 1}  # the hit sent nothing
