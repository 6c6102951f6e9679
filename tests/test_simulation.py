"""End-to-end engine runs on small scenarios.

These exercise the whole pipeline (mobility, channel, protocol, ledger) and
pin the invariants the experiment metrics rely on.
"""

import dataclasses
import hashlib
import pickle
import sys
from pathlib import Path

import pytest

from conftest import active_ids
from vcachesim import mobility
from vcachesim.cli import write_outputs
from vcachesim.engine import Simulation, _zone_owner_at, run_simulation
from vcachesim.metrics import (
    SOURCE_LOCAL_PRECACHE,
    SOURCE_RSU_HIT,
    TARGET_ALL_RSUS,
    TARGET_SERVER,
    TRACE_FIELDS,
    TRACE_TIMES,
    sample_grid,
    trace_text,
)
from vcachesim.mobility import HIGHWAY_UNIFORM, RoadSegment, free_track
from vcachesim.protocol import (
    IDLE,
    SATISFIED,
    Beacon,
    CachingGateway,
    PlainGateway,
    Relay,
    Request,
    Response,
    RsuBase,
    VehicleAgent,
)
from vcachesim.radio import in_range
from vcachesim.scenarios import (
    RsuSpec,
    ScenarioConfig,
    highway_multi,
    highway_single,
    urban_multi,
    urban_single,
)
from vcachesim.simcore import seconds_to_us

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402 - the benchmark's tracer, found through the path entry above


def run_pair(cfg):
    sim = Simulation(cfg)
    return sim, sim.run()


@pytest.fixture(scope="module")
def urban_cached():
    return run_pair(urban_single(count=20, seed=3))


@pytest.fixture(scope="module")
def urban_nocache():
    return run_pair(urban_single(count=20, caching=False, seed=3))


@pytest.fixture(scope="module")
def chain():
    return run_pair(highway_multi(count=60, seed=3))


@pytest.fixture(scope="module")
def storm():
    """The benchmark's relay_storm layout, small and traced: a 100-item
    catalog, 16-item caches and a relay announce every 3 s."""
    cfg = dataclasses.replace(
        highway_multi(count=60, seed=1),
        catalog_size=100, rsu_cache_capacity=16, relay_announce_interval_s=3.0, trace=True,
    )
    return run_pair(cfg)


@pytest.fixture(scope="module")
def traced():
    cfg = urban_single(count=20, seed=3)
    cfg.trace = True
    return run_pair(cfg)


def test_everyone_spawns_exits_and_is_satisfied(urban_cached):
    sim, result = urban_cached
    assert result.spawned == 20
    assert result.exited == 20  # drain margin clears the roads
    assert result.satisfied == 20
    assert result.events_processed == sim.queue.processed_total


@pytest.mark.parametrize(
    "cfg, spawned",
    [
        # 2 560 arrivals in 230 s on two 800 m roads: each entry admits one
        # vehicle every few ticks, about 500 in the 350 s
        (
            dataclasses.replace(urban_single(count=2560), arrival_window_s=230.0, duration_s=350.0),
            500,
        ),
        # a 30 m gap at 14 m/s holds each arrival back a little more than
        # the one before, until the queue reaches past the end of the run
        (
            dataclasses.replace(
                highway_single(count=300),
                kinematics=dataclasses.replace(highway_single().kinematics, min_gap_m=30.0),
            ),
            191,
        ),
    ],
    ids=["urban_single_2560", "highway_single_min_gap_30"],
)
def test_arrivals_that_cannot_enter_by_the_end_never_spawn(cfg, spawned):
    result = run_simulation(cfg)
    assert (result.spawned, result.never_spawned) == (spawned, cfg.vehicle_count - spawned)
    assert result.exited <= result.spawned


def test_one_delivery_per_satisfied_vehicle(urban_cached):
    sim, result = urban_cached
    vehicles = [record.vehicle for record in result.ledger.deliveries]
    assert len(vehicles) == len(set(vehicles)) == result.satisfied
    assert all(sim.vehicles[v].status == SATISFIED for v in vehicles)


def test_same_seed_runs_are_identical():
    cfg_a = urban_single(count=20, seed=5)
    cfg_a.trace = True
    cfg_b = urban_single(count=20, seed=5)
    cfg_b.trace = True
    _, a = run_pair(cfg_a)
    _, b = run_pair(cfg_b)
    assert a.trace_records == b.trace_records
    assert a.ledger.deliveries == b.ledger.deliveries
    assert a.ledger.server_events == b.ledger.server_events
    assert a.ledger.rsu_events == b.ledger.rsu_events
    assert a.events_processed == b.events_processed


def test_different_seeds_diverge():
    _, a = run_pair(urban_single(count=20, seed=5))
    _, b = run_pair(urban_single(count=20, seed=6))
    assert a.ledger.deliveries != b.ledger.deliveries


def test_simulation_instance_runs_once(urban_cached):
    sim, _ = urban_cached
    with pytest.raises(RuntimeError):
        sim.run()


def test_run_simulation_helper():
    result = run_simulation(urban_single(count=20, seed=3))
    assert result.satisfied == 20


def test_a_finished_run_pickles_whole(tmp_path):
    # a result must cross a process boundary intact: its copy renders the
    # very bytes of the original, trace and CHR included
    cfg = highway_multi(count=30, seed=1)
    cfg.trace = True
    result = run_simulation(cfg)
    written = write_outputs(result, tmp_path / "original")
    assert sorted(written) == [
        "cdt.csv", "chr.csv", "requests_rsu.csv", "requests_server.csv", "trace.log",
    ]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(result, protocol))
        copied = write_outputs(back, tmp_path / f"p{protocol}")
        assert set(copied) == set(written)
        for filename, path in written.items():
            assert copied[filename].read_bytes() == path.read_bytes()


def requests_sent(sim):
    """The requests every vehicle of sim's run has sent."""
    return sum(agent.requests_sent for agent in sim.vehicles.values())


def run_counting_requests(monkeypatch, cfg):
    """Run cfg, counting the requests that reach an RSU: (sim, result,
    vehicle-originated arrivals, forwarded arrivals)."""
    arrivals = {False: 0, True: 0}
    on_frame = RsuBase.on_frame

    def counted(rsu, frame, now_us, services):
        if isinstance(frame, Request):
            arrivals[frame.forwarded] += 1
        on_frame(rsu, frame, now_us, services)

    monkeypatch.setattr(RsuBase, "on_frame", counted)
    sim, result = run_pair(cfg)
    return sim, result, arrivals[False], arrivals[True]


def test_request_conservation_urban(monkeypatch):
    sim, result, received, forwarded = run_counting_requests(
        monkeypatch, urban_single(count=20, seed=3)
    )
    assert requests_sent(sim) == received
    assert received == len(result.ledger.rsu_events)
    assert received == result.ledger.total_rsu_requests(TARGET_ALL_RSUS)
    assert forwarded == 0


def test_request_conservation_with_relays(monkeypatch):
    sim, result, received, forwarded = run_counting_requests(
        monkeypatch, highway_multi(count=60, seed=3)
    )
    assert requests_sent(sim) == received == len(result.ledger.rsu_events)
    # forwarded hops reach an RSU too, but never touch the ledger
    assert forwarded > 0
    assert forwarded == sim.frames_transmitted.get("request", 0) - received


def test_no_pending_work_left_behind(urban_cached, urban_nocache, chain):
    # only gateways wait on the backhaul; a relay forwards and keeps nothing pending
    for sim, _ in (urban_cached, urban_nocache, chain):
        gateways = [
            rsu for rsu in sim.rsus.values() if isinstance(rsu, (CachingGateway, PlainGateway))
        ]
        assert gateways and all(not gateway._pending for gateway in gateways)


def test_gateway_flavor_follows_caching_flag(urban_cached, urban_nocache):
    assert isinstance(urban_cached[0].rsus["r0"], CachingGateway)
    assert isinstance(urban_nocache[0].rsus["r0"], PlainGateway)


def test_beacons_and_requests_share_the_air(urban_cached):
    sim, _ = urban_cached
    assert sim.frames_transmitted.get("beacon", 0) > 0
    assert sim.frames_transmitted.get("request", 0) > 0
    assert sim.frames_transmitted.get("response", 0) > 0


def test_zero_cdt_only_from_local_cache(urban_cached, chain):
    for _, result in (urban_cached, chain):
        for record in result.ledger.deliveries:
            assert (record.cdt_us == 0) == (record.source == SOURCE_LOCAL_PRECACHE)


def test_nocache_run_always_pays_the_server_trip(urban_nocache):
    sim, result = urban_nocache
    assert result.ledger.deliveries  # sanity
    for record in result.ledger.deliveries:
        assert record.source == "server-fetch"
        assert record.cdt_us > 0
    assert result.server_fetches == requests_sent(sim)


def test_caching_reduces_server_fetches(urban_cached, urban_nocache):
    _, cached = urban_cached
    _, plain = urban_nocache
    assert cached.server_fetches <= cached.config.catalog_size
    assert cached.server_fetches < plain.server_fetches


def test_relay_chain_seeds_upstream_caches(chain):
    sim, result = chain
    relays = [rsu for rsu in sim.rsus.values() if isinstance(rsu, Relay)]
    assert len(relays) == 2
    assert all(len(relay.cache) > 0 for relay in relays)
    # cascaded broadcasts put copies on vehicles before they ask
    assert result.ledger.deliveries_by_source().get(SOURCE_LOCAL_PRECACHE, 0) > 0
    assert result.satisfied == result.spawned


def test_rsu_caches_hold_the_catalogs_own_items(storm):
    # content frames carry the catalog's item and RSUs cache it as it is;
    # each relay builds at most one frame per item
    sim, result = storm
    assert any(record[1] == "EVICT" for record in result.trace_records)  # caches turned over
    relays = [rsu for rsu in sim.rsus.values() if isinstance(rsu, Relay)]
    assert len(relays) == 2
    for rsu in sim.rsus.values():
        assert len(rsu.cache) == 16
        assert all(item is sim.catalog[item.name] for item in rsu.cache.items())
    for relay in relays:
        assert 0 < len(relay._frames) <= sim.cfg.catalog_size
        for name, frame in relay._frames.items():
            assert frame.item is sim.catalog[name]


def test_every_name_in_a_run_is_one_of_the_catalogs_str_keys(storm):
    # names are exact str, built once by the catalog: what the vehicles
    # want, ask for and get, and what the RSUs cache, are those very objects
    sim, result = storm
    assert all(type(name) is str for name in sim.catalog)
    keys = {id(name) for name in sim.catalog}
    names = [agent.wanted for agent in sim.vehicles.values()]
    names += [name for _, name in result.ledger.server_events]
    names += [record.name for record in result.ledger.deliveries]
    for rsu in sim.rsus.values():
        names += [item.name for item in rsu.cache.items()]
    assert len(names) > len(sim.vehicles)
    assert all(id(name) in keys for name in names)


def test_frame_kinds_are_the_names_the_benchmark_counts(storm):
    # the TX records' kind and the frames_transmitted keys are the lower-cased
    # class names, which the benchmark tracer's FRAME_KINDS lists
    sim, result = storm
    counted = set(tracing.FRAME_KINDS) - {"other"}
    sent = {record[2] for record in result.trace_records if record[1] == "TX"}
    assert sent == set(sim.frames_transmitted) == counted  # every kind sent here


def test_server_requests_never_outrun_rsu_requests(urban_cached, urban_nocache, chain):
    for sim, result in (urban_cached, urban_nocache, chain):
        grid = sample_grid(sim.duration_us, seconds_to_us(sim.cfg.sample_interval_s))
        server = result.ledger.request_count_series(grid, TARGET_SERVER)
        rsu = result.ledger.request_count_series(grid, TARGET_ALL_RSUS)
        for (t_s, n_server), (t_r, n_rsu) in zip(server, rsu):
            assert t_s == t_r
            assert n_server <= n_rsu


def test_trace_lines_are_ordered_and_well_formed(traced):
    # one field per name of its kind in the grammar, times in integer us
    _, result = traced
    assert result.trace_records, "tracing was enabled"
    last = 0
    seen = set()
    for at_us, kind, *values in result.trace_records:
        names = TRACE_FIELDS[kind]
        assert len(values) == len(names), (at_us, kind, values)
        for name, value in zip(names, values):
            assert type(value) in ((int,) if name in TRACE_TIMES else (int, str)), (kind, name)
        assert type(at_us) is int and at_us >= last
        last = at_us
        seen.add(kind)
    assert {"SPAWN", "EXIT", "TX", "DELIVER", "FETCH", "SERVER"} <= seen
    assert len(trace_text(result.trace_records)) == len(result.trace_records)


def test_untraced_runs_carry_no_lines(urban_cached):
    assert urban_cached[1].trace_records is None


def test_an_untraced_run_builds_no_trace_text(monkeypatch):
    # small caches and announces every 3 s: every kind of trace line occurs
    runs = [
        urban_single(count=20, seed=3),
        dataclasses.replace(
            highway_multi(count=60, seed=3),
            catalog_size=100,
            rsu_cache_capacity=16,
            relay_announce_interval_s=3.0,
        ),
    ]
    kinds = set()
    for cfg in runs:
        for record in Simulation(dataclasses.replace(cfg, trace=True)).run().trace_records:
            kinds.add(record[1])
    assert kinds == {"SPAWN", "EXIT", "TX", "DELIVER", "FETCH", "SERVER", "EVICT", "ANNOUNCE"}

    def refuse(sim, kind, *fields):
        raise AssertionError(f"trace recorded with the trace off: {kind} {fields}")

    monkeypatch.setattr(Simulation, "trace", refuse)
    for cfg in runs:
        assert Simulation(cfg).run().trace_records is None


def test_a_request_can_end_after_its_sender_exited():
    """A channel carries one frame at a time, so with 30 Mbit content
    frames a request queued behind one ends after its vehicle left the
    road; its propagation delay is then measured from where the vehicle
    exited. The figures are those the run gave before world_xy served
    only active vehicles, but for the events processed, which are not an
    output: 946 then, fewer since a tick runs the next tick instant itself
    when no event comes before it."""
    cfg = dataclasses.replace(
        urban_single(count=40, caching=False, seed=1), payload_bits=30_000_000, trace=True
    )
    sim = Simulation(cfg)
    late = []
    receivers = sim._receivers

    def logged(zone_id, sender, frame):
        if isinstance(frame, Request) and sender in sim.vehicles and sender not in active_ids(sim):
            late.append(sender)
        return receivers(zone_id, sender, frame)

    sim._receivers = logged
    result = sim.run()
    assert len(late) == 19
    assert (result.events_processed, result.satisfied, result.exited) == (618, 39, 40)
    assert result.ledger.final_avg_cdt_us() == 13_727_531.0
    assert hashlib.sha256("\n".join(trace_text(result.trace_records)).encode()).hexdigest() == (
        "8e8b32d3ea3a9a36ea131d67d46ae2c66873eb8b8b3db93be02c02f2f142f1ff"
    )


def test_an_idle_vehicle_precaches_in_a_short_zone_and_hits_outside_every_zone(monkeypatch):
    """Pre-caching on a track: the zone is shorter than one request interval
    of travel, so the vehicle makes no attempt inside it. It overhears its
    item there while idle, and its next attempt, outside every zone, is a
    local hit. Only attempts before the first covered age may be skipped."""
    cfg = ScenarioConfig(
        name="short-zone",
        # 14 m/s from the entry: 1.4 m a tick, 140 m per request interval
        roads=[RoadSegment(id="a", length_m=1000.0)],
        rsus=[RsuSpec("r0", (210.0, 0.0), 30.0)],  # ages 129-171 only
        arrival_pattern=HIGHWAY_UNIFORM,
        vehicle_count=1,
        arrival_window_s=1.0,
        caching=True,
        duration_s=60.0,
        catalog_size=1,
        entry_speed_mps=14.0,
    )
    sim = Simulation(cfg)
    (item,) = sim.catalog
    attempts = []
    on_attempt = VehicleAgent.on_attempt

    def attempt(agent, now_us, target, services):
        assert target == _zone_owner_at(sim.zones, sim.world.world_xy(agent.id))
        attempts.append((now_us, target))
        on_attempt(agent, now_us, target, services)

    monkeypatch.setattr(VehicleAgent, "on_attempt", attempt)
    heard_at = {}

    def answer_someone_else():
        # queued before the tick at 15 s, so v000 is at age 149, 208.6 m:
        # inside r0's zone, on its track, idle
        _, _, age = sim.world.riding("v000")
        heard_at.update(age=age, status=sim.vehicles["v000"].status)
        sim.transmit("r0", Response(sim.catalog[item], "x.0", SOURCE_RSU_HIT), "r0")

    sim.queue.schedule(seconds_to_us(15.0), answer_someone_else)
    result = sim.run()
    assert heard_at == {"age": 149, "status": IDLE}
    # the attempts at 0 s and 10 s came before the zone and did nothing;
    # the one at 20 s, at 280 m, is outside every zone and must still run
    assert attempts == [(seconds_to_us(20.0), None)]
    (record,) = result.ledger.deliveries
    assert (record.vehicle, record.source, record.cdt_us) == ("v000", SOURCE_LOCAL_PRECACHE, 0)
    assert record.delivered_at_us == seconds_to_us(20.0)
    assert sim.vehicles["v000"].requests_sent == 0
    assert sim.frames_transmitted == {"response": 1}


def test_a_sweep_keeps_the_track_cache_within_its_bound():
    before = free_track.cache_info()
    for i in range(20):  # 20 tick lengths, 20 tracks
        cfg = dataclasses.replace(urban_single(count=2, seed=i), tick_s=0.1 + i / 1000)
        sim = Simulation(cfg)
        sim.run()
        assert sim.world._tracks[(cfg.entry_speed_mps).hex()] is not None
    after = free_track.cache_info()
    assert after.misses - before.misses >= 16
    assert after.currsize <= after.maxsize == 16


def planned_runs(cfg):
    """Run cfg; returns, for every attempt and beacon that ran, by kind:
    (vehicle id, its track, its x, the RSU planned at spawn, and the owner
    of the nearest zone covering its position as it runs)."""
    sim = Simulation(cfg)
    runs = {"attempt": [], "beacon": []}

    def log(kind, vehicle_id, target):
        xy = sim.world.world_xy(vehicle_id)
        owner = _zone_owner_at(sim.zones, xy)
        runs[kind].append((vehicle_id, sim.world.riding(vehicle_id)[1], xy[0], target, owner))

    on_attempt, transmit = VehicleAgent.on_attempt, sim.transmit

    def attempt(agent, now_us, target, services):
        log("attempt", agent.id, target)
        on_attempt(agent, now_us, target, services)

    def logged_transmit(channel_owner, frame, sender):
        if isinstance(frame, Beacon):
            log("beacon", sender, channel_owner)
        transmit(channel_owner, frame, sender)

    sim.transmit = logged_transmit
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(VehicleAgent, "on_attempt", attempt)
        sim.run()
    return sim, runs


@pytest.mark.parametrize("builder", [highway_multi, urban_multi])
def test_every_sender_is_inside_the_zone_whose_channel_it_takes(builder):
    # transmit does not test range: an RSU sends from its centre on its own
    # channel, or a relay on its next hop's, which validate_config checks;
    # a vehicle on the owner planned at spawn (the test below)
    sim = Simulation(dataclasses.replace(builder(count=20, seed=1), trace=True))
    transmit, sent = sim.transmit, set()

    def checked_transmit(channel_owner, frame, sender):
        zone = sim.zones.get(sender)
        xy = zone.center if zone is not None else sim.world.world_xy(sender)
        assert in_range(sim.zones[channel_owner], xy), (channel_owner, frame, sender)
        role = "vehicle" if zone is None else type(sim.rsus[sender]).__name__
        forward = " forward" if getattr(frame, "forwarded", False) else ""
        sent.add((role, type(frame).__name__ + forward, channel_owner == sender))
        transmit(channel_owner, frame, sender)

    sim.transmit = checked_transmit
    sim.run()
    assert {("vehicle", "Request", False), ("vehicle", "Beacon", False)} <= sent
    assert ("CachingGateway", "Response", True) in sent
    if builder is highway_multi:  # relays forward misses, rebroadcast and announce
        assert {("Relay", "Request forward", False), ("Relay", "RelayRebroadcast", True)} <= sent
        assert any(record[1] == "ANNOUNCE" for record in sim.trace_records)


def test_tracked_vehicles_beacon_only_in_a_zone_and_attempt_only_from_their_first_zone(
    monkeypatch,
):
    # highway_single: one zone over x = 650..1450 m of a 2100 m road, every
    # vehicle on the shared track; urban_multi: two zones, and with tracks
    # off every vehicle on its own. No server answer arrives before the
    # end, so every vehicle attempts every cycle, in and out of the zones
    def slow(cfg):
        return dataclasses.replace(cfg, backhaul_latency_s=1000.0)

    sim, highway = planned_runs(slow(highway_single(count=20, seed=1)))
    shared = sim.world._track(sim.cfg.entry_speed_mps)
    assert all(track is shared for _, track, _, _, _ in highway["attempt"] + highway["beacon"])
    assert min(x for _, _, x, _, _ in highway["attempt"]) >= 650.0
    monkeypatch.setattr(mobility.MobilityWorld, "_track", lambda world, speed_mps: None)
    _, urban = planned_runs(slow(urban_multi(count=20, seed=1)))
    # a later attempt outside every zone runs too, addressed to none; the
    # urban zones cover the vehicles from their first zone on
    cases = ((highway, {"r0"}, {"r0", None}), (urban, {"r0", "r1"}, {"r0", "r1"}))
    for runs, zones, targets in cases:
        assert len(runs["attempt"]) >= 20 and len(runs["beacon"]) >= 20
        # each attempt and beacon addresses the zone its position gives
        for kind in ("attempt", "beacon"):
            assert all(target == owner for _, _, _, target, owner in runs[kind])
        assert {target for _, _, _, target, _ in runs["attempt"]} == targets
        # an uncovered beacon does nothing, so none runs; nor does an
        # attempt before the vehicle has reached a zone, idle with nothing
        # pre-cached
        assert {owner for _, _, _, _, owner in runs["beacon"]} == zones
        first = {}
        for vid, _, _, _, owner in runs["attempt"]:
            first.setdefault(vid, owner)
        assert None not in first.values()
