"""Builder geometry, config validation, and the config-file loader."""

import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from vcachesim import engine, scenarios
from vcachesim.cli import main, write_outputs
from vcachesim.engine import Simulation
from vcachesim.mobility import (
    HIGHWAY_UNIFORM,
    URBAN_RANDOM,
    KinematicParams,
    MobilityWorld,
    RoadSegment,
    free_track,
)
from vcachesim.radio import RadioParams
from vcachesim.scenarios import (
    BUILDERS,
    DRAIN_MARGIN_S,
    ParseError,
    ROLE_GATEWAY,
    ROLE_RELAY,
    RsuSpec,
    ScenarioConfig,
    ValidationError,
    highway_multi,
    highway_single,
    resolve_config,
    urban_multi,
    urban_single,
    validate_config,
)

# -- builders ------------------------------------------------------------------


def test_builder_registry_is_complete():
    assert set(BUILDERS) == {"urban_single", "urban_multi", "highway_single", "highway_multi"}
    for name, builder in BUILDERS.items():
        assert builder().name == name


def test_urban_windows_track_vehicle_count():
    assert urban_single(20).arrival_window_s == 144.0
    assert urban_single(40).arrival_window_s == 230.0
    assert urban_single(60).arrival_window_s == 430.0
    assert urban_single(100).arrival_window_s == 575.0  # extrapolated density
    for count in (20, 40, 60):
        cfg = urban_single(count)
        assert cfg.duration_s == cfg.arrival_window_s + DRAIN_MARGIN_S


def test_urban_roads_run_opposite_ways():
    cfg = urban_single()
    a, b = cfg.roads
    assert a.length_m == b.length_m == 800.0
    assert a.world_position(0.0) == (0.0, 0.0)
    assert b.world_position(0.0) == (800.0, 200.0)
    assert b.world_position(800.0) == (0.0, 200.0)


def test_urban_single_rsu_covers_road_middles_but_not_entries():
    cfg = urban_single()
    (rsu,) = cfg.rsus
    for midpoint in ((400.0, 0.0), (400.0, 200.0)):
        assert math.dist(rsu.center, midpoint) <= rsu.radius_m
    # road ends sit just outside, so fresh vehicles spend a moment uncovered
    for entry in ((0.0, 0.0), (800.0, 200.0)):
        assert math.dist(rsu.center, entry) > rsu.radius_m


def test_urban_multi_zones_are_disjoint():
    cfg = urban_multi()
    r0, r1 = cfg.rsus
    assert math.dist(r0.center, r1.center) > r0.radius_m + r1.radius_m
    assert all(spec.role == ROLE_GATEWAY for spec in cfg.rsus)


def test_highway_single_arrival_window_matches_count():
    cfg = highway_single(count=300)
    assert cfg.arrival_pattern == HIGHWAY_UNIFORM
    assert cfg.arrival_window_s == 300.0
    assert cfg.duration_s == 300.0 + DRAIN_MARGIN_S
    assert cfg.entry_speed_mps == 14.0
    assert len(cfg.roads) == 1


def test_highway_multi_chain_reaches_gateway_with_overlap():
    cfg = highway_multi()
    by_id = {spec.id: spec for spec in cfg.rsus}
    relays = [spec for spec in cfg.rsus if spec.role == ROLE_RELAY]
    assert len(relays) == 2
    for relay in relays:
        nxt = by_id[relay.next_hop]
        # the next hop must hear this relay's forwards
        assert math.dist(relay.center, nxt.center) <= nxt.radius_m
    cursor = by_id["r0"]
    hops = 0
    while cursor.role == ROLE_RELAY:
        cursor = by_id[cursor.next_hop]
        hops += 1
    assert cursor.role == ROLE_GATEWAY
    assert hops == 2
    assert cfg.caching is True


def test_highway_multi_builder_has_no_caching_knob():
    # the relays make the layout caching-only, so caching=False cannot run
    with pytest.raises(ValidationError, match="caching-only"):
        validate_config(highway_multi(caching=False))


# -- validation ----------------------------------------------------------------


def broken(**changes):
    cfg = urban_single()
    for key, value in changes.items():
        setattr(cfg, key, value)
    return cfg


@pytest.mark.parametrize(
    "changes, fragment",
    [
        ({"vehicle_count": 0}, "vehicle_count"),
        ({"duration_s": 0.0}, "duration_s"),
        ({"duration_s": 10.0}, "shorter than arrival_window_s"),
        ({"tick_s": 0.0}, "tick_s"),
        ({"catalog_size": 0}, "catalog_size"),
        ({"rsu_cache_capacity": 0}, "rsu_cache_capacity"),
        ({"backhaul_latency_s": -0.1}, "backhaul_latency_s"),
        ({"entry_speed_mps": 99.0}, "entry_speed_mps"),
        ({"seed": -1}, "seed"),
        ({"roads": []}, "at least one road"),
        ({"rsus": []}, "at least one RSU"),
        ({"arrival_pattern": "tidal"}, "unknown arrival_pattern"),
        # non-finite values used to fail in Simulation.__init__ (inf) or run
        # covering nothing (nan); an infinite road read as a too-short tick
        ({"duration_s": math.inf}, "duration_s must be finite"),
        ({"backhaul_latency_s": math.inf}, "backhaul_latency_s must be finite"),
        ({"processing_delay_s": math.inf}, "processing_delay_s must be finite"),
        ({"rsus": [RsuSpec("r0", (math.nan, 100.0), 400.0)]}, "r0: center must be finite"),
        ({"rsus": [RsuSpec("r0", (400.0, 100.0), math.nan)]}, "r0: radius_m must be finite"),
        ({"roads": [RoadSegment("a", 800.0, (math.nan, 0.0))]}, "^road length_m and origin"),
        ({"roads": [RoadSegment("a", math.inf)]}, "^road length_m and origin must be finite"),
        # a relay forwards from its centre on its next hop's channel
        (
            {
                "rsus": [
                    RsuSpec("r0", (180.0, 100.0), 250.0, ROLE_RELAY, next_hop="r1"),
                    RsuSpec("r1", (620.0, 100.0), 250.0),
                ]
            },
            "r0: centre outside the zone of its next_hop r1",
        ),
        # nothing below the gate checks that a relay has a next hop
        (
            {
                "rsus": [
                    RsuSpec("r0", (400.0, 100.0), 250.0, ROLE_RELAY),
                    RsuSpec("r1", (620.0, 100.0), 250.0),
                ]
            },
            "r0: relay requires a next_hop",
        ),
        # nor do the world, the zones and the airtime arithmetic
        ({"roads": [RoadSegment("a", 800.0), RoadSegment("a", 800.0)]}, "duplicate road ids"),
        ({"rsus": [RsuSpec("r0", (400.0, 100.0), 0.0)]}, "r0: radius_m must be finite and positive"),
        ({"payload_bits": 0}, "payload_bits must be >= 1"),
        # the roads' and parameter blocks' own rules are here too
        ({"roads": [RoadSegment("a", 0.0)]}, "road length must be positive: 0.0"),
        (
            {"roads": [RoadSegment("a", 800.0, direction=(1.0, 1.0))]},
            r"road direction must be a unit vector: \(1.0, 1.0\)",
        ),
        ({"kinematics": KinematicParams(accel_mps2=0.0)}, "accel_mps2 must be finite and positive"),
        ({"kinematics": KinematicParams(decel_mps2=-1.0)}, "decel_mps2 must be finite and positive"),
        (
            {"kinematics": KinematicParams(max_speed_mps=math.inf)},
            "max_speed_mps must be finite and positive",
        ),
        ({"kinematics": KinematicParams(min_gap_m=math.nan)}, "min_gap_m must be finite and positive"),
        ({"radio": RadioParams(header_bits=0)}, "header_bits must be positive and finite"),
        ({"radio": RadioParams(bitrate_bps=math.inf)}, "bitrate_bps must be positive and finite"),
        (
            {"radio": RadioParams(beacon_payload_bits=math.nan)},
            "beacon_payload_bits must be positive and finite",
        ),
    ],
)
def test_validation_rejects_bad_fields(changes, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_config(broken(**changes))


@pytest.mark.parametrize("length", [-math.inf, math.nan, math.inf])
def test_a_non_finite_road_length_is_reported_once(length):
    # a non-finite length is the finite rule's alone, -inf included
    with pytest.raises(ValidationError) as exc:
        validate_config(broken(roads=[RoadSegment("a", length)]))
    road_problems = [p for p in str(exc.value).split("; ") if p.startswith("road ")]
    assert len(road_problems) == 1
    assert road_problems[0].startswith("road length_m and origin must be finite")


INTERVAL_FIELDS = [
    "arrival_window_s",
    "tick_s",
    "request_interval_s",
    "sample_interval_s",
    "relay_announce_interval_s",
]


def with_interval(name, seconds):
    if name == "radio.beacon_interval_s":
        return broken(radio=dataclasses.replace(RadioParams(), beacon_interval_s=seconds))
    return broken(**{name: seconds})


@pytest.mark.parametrize("name", INTERVAL_FIELDS + ["radio.beacon_interval_s"])
@pytest.mark.parametrize("seconds", [1e-7, 4.9e-7, math.inf, math.nan, 0.0])
def test_validation_rejects_intervals_below_one_microsecond(name, seconds):
    # 1e-7 s passes a "> 0" test but quantizes to 0 us: a zero tick would
    # reschedule itself at the same instant forever, and a zero window left
    # arrival times an empty range to be drawn from
    with pytest.raises(ValidationError, match=name.split(".")[-1]):
        validate_config(with_interval(name, seconds))


@pytest.mark.parametrize("name", INTERVAL_FIELDS + ["radio.beacon_interval_s"])
def test_validation_accepts_intervals_that_quantize_to_one_microsecond(name):
    cfg = with_interval(name, 5.1e-7)
    if name == "tick_s":  # a path that fits MAX_TRACK_TICKS ticks of 0.51 us
        cfg.roads = [dataclasses.replace(road, length_m=1.0) for road in cfg.roads]
        cfg.entry_speed_mps = cfg.kinematics.max_speed_mps
    validate_config(cfg)


def test_validation_rejects_a_tick_too_short_for_a_path_to_fit():
    # from rest, 800 m take more than MAX_TRACK_TICKS ticks of 10 us; the
    # run used to fail with PathTooLong at the first spawn
    with pytest.raises(ValidationError, match="tick_s 1e-05 too short"):
        validate_config(broken(tick_s=1e-5))
    with pytest.raises(ValidationError, match="tick_s"):
        Simulation(broken(tick_s=1e-5))


def test_the_path_check_fills_the_track_cache_the_world_reads():
    cfg = broken(tick_s=0.0997)  # a tick no other test uses
    validate_config(cfg)
    before = free_track.cache_info()
    world = MobilityWorld(cfg.roads, cfg.kinematics, cfg.tick_s)
    assert world._track(cfg.entry_speed_mps) is not None
    after = free_track.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize(
    "name, value", [("accel_mps2", math.nan), ("max_speed_mps", 0.0), ("max_speed_mps", math.nan)]
)
def test_no_path_is_built_for_a_config_another_rule_rejects(name, value):
    # the path check used to run on these too, build MAX_TRACK_TICKS steps
    # of a path that never crosses the road, and report a too-short tick;
    # nor is the entry speed measured against a max speed that is rejected
    before = free_track.cache_info()
    with pytest.raises(ValidationError) as exc:
        validate_config(broken(kinematics=KinematicParams(**{name: value})))
    assert str(exc.value) == f"{name} must be finite and positive: {value}"
    assert free_track.cache_info().misses == before.misses


@pytest.mark.parametrize("name", ["tick_s", "sample_interval_s"])
def test_sub_microsecond_interval_is_rejected_before_the_run(name):
    # tick_s used to hang the event loop; sample_interval_s used to fail
    # only when the finished run's outputs were written
    with pytest.raises(ValidationError, match=name):
        Simulation(broken(**{name: 1e-7}))


@pytest.mark.parametrize("name", ["header_bits", "bitrate_bps", "beacon_payload_bits"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0])
def test_radio_override_must_be_positive_and_finite(name, value):
    # an infinite bitrate used to validate and run with NaN airtimes
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
        validate_config(resolve_config("urban_single", {f"radio.{name}": value}))


@pytest.mark.parametrize("name", ["accel_mps2", "decel_mps2", "max_speed_mps", "min_gap_m"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_kinematics_override_must_be_finite_and_positive(tmp_path, name, value):
    path = write(tmp_path, f"scenario = urban_single\nkinematics.{name} = {value}\n")
    with pytest.raises(ValidationError, match=name):
        validate_config(resolve_config(path))


def test_validation_collects_multiple_problems():
    with pytest.raises(ValidationError) as exc:
        validate_config(broken(vehicle_count=0, tick_s=0.0))
    assert "vehicle_count" in str(exc.value) and "tick_s" in str(exc.value)


def test_highway_pattern_needs_exactly_one_road():
    cfg = urban_single()
    cfg.arrival_pattern = HIGHWAY_UNIFORM
    with pytest.raises(ValidationError, match="exactly one road"):
        validate_config(cfg)


def test_duplicate_rsu_ids_rejected():
    cfg = urban_single()
    cfg.rsus = [cfg.rsus[0], cfg.rsus[0]]
    with pytest.raises(ValidationError, match="duplicate rsu ids"):
        validate_config(cfg)


@pytest.mark.parametrize("rsu_id", ["v005", "v0", "v12345"])
def test_rsu_ids_that_name_a_vehicle_are_rejected(rsu_id):
    # vehicle ids are v and digits, and RSUs and vehicles share one id
    # namespace: an RSU named v005 took the frames meant for vehicle v005
    cfg = urban_single(seed=1)
    cfg.rsus = [dataclasses.replace(cfg.rsus[0], id=rsu_id)]
    with pytest.raises(ValidationError, match=f"rsu {rsu_id}: v followed by digits names a vehicle"):
        validate_config(cfg)


@pytest.mark.parametrize("rsu_id", ["v", "v1a", "vr0", "V005", "x005"])
def test_rsu_ids_that_name_no_vehicle_pass(rsu_id):
    cfg = urban_single(seed=1)
    cfg.rsus = [dataclasses.replace(cfg.rsus[0], id=rsu_id)]
    validate_config(cfg)


def test_gateway_with_next_hop_rejected():
    cfg = urban_multi()
    cfg.rsus = [cfg.rsus[0], RsuSpec("r1", (670.0, 200.0), 270.0, next_hop="r0")]
    with pytest.raises(ValidationError, match="gateways take no next_hop"):
        validate_config(cfg)


def test_relay_requires_caching_enabled():
    cfg = highway_multi()
    cfg.caching = False
    with pytest.raises(ValidationError, match="require caching"):
        validate_config(cfg)


def test_relay_requires_known_next_hop():
    cfg = highway_multi()
    cfg.rsus = [
        RsuSpec("r0", (628.0, 0.0), 200.0, role=ROLE_RELAY, next_hop="ghost"),
        cfg.rsus[2],
    ]
    with pytest.raises(ValidationError, match="unknown next_hop"):
        validate_config(cfg)


def test_relay_loop_never_reaches_gateway():
    cfg = highway_multi()
    cfg.rsus = [
        RsuSpec("r0", (628.0, 0.0), 200.0, role=ROLE_RELAY, next_hop="r1"),
        RsuSpec("r1", (823.0, 0.0), 200.0, role=ROLE_RELAY, next_hop="r0"),
        cfg.rsus[2],
    ]
    with pytest.raises(ValidationError, match="never reaches a gateway"):
        validate_config(cfg)


def test_all_relays_means_no_gateway():
    cfg = highway_multi()
    cfg.rsus = cfg.rsus[:2]  # drop the gateway; r1 now dangles too
    with pytest.raises(ValidationError, match="at least one gateway"):
        validate_config(cfg)


def test_unknown_role_rejected():
    cfg = urban_single()
    cfg.rsus = [cfg.rsus[0], RsuSpec("r9", (0.0, 0.0), 50.0, role="repeater")]
    with pytest.raises(ValidationError, match="unknown role"):
        validate_config(cfg)


# -- the gate ----------------------------------------------------------------------


@pytest.mark.parametrize("source", ["builder", "resolve_config", "file", "command line"])
def test_a_run_validates_its_config_once(monkeypatch, tmp_path, capsys, source):
    calls = []
    for module in (scenarios, engine):  # the one function, under both names
        real = module.validate_config
        monkeypatch.setattr(
            module, "validate_config", lambda cfg, real=real: calls.append(cfg) or real(cfg)
        )
    if source == "command line":
        argv = ["run", "--scenario", "highway_multi", "--count", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1
        return
    if source == "builder":
        cfg = urban_single(5)
    elif source == "resolve_config":
        cfg = resolve_config("highway_multi", {"count": 5})
    else:
        cfg = resolve_config(write(tmp_path, "scenario = urban_single\ncount = 5\n"))
    assert calls == []
    Simulation(cfg).run()
    assert calls == [cfg]


# boundary values of the fields the gate checks; no sample or announce
# interval that passes is tiny, for it would run a grid or announces of
# millions of points
EDGE_VALUES = {
    "caching": [True, False],
    "seed": [-1, 0],
    "arrival_window_s": [1e-7, 4.9e-7, 5.1e-7, 0.0, -1.0, math.inf, math.nan, 2.0],
    "duration_s": [0.0, 1e-7, math.inf, math.nan, 30.0],
    "tick_s": [1e-7, 0.0, math.nan, 0.25],
    "request_interval_s": [1e-7, 5.1e-7, math.inf, 2.0],
    "radio.beacon_interval_s": [4.9e-7, 5.1e-7, math.nan, 3.0],
    "sample_interval_s": [1e-7, 0.0, math.inf, 7.0],
    "relay_announce_interval_s": [1e-7, math.nan, 4.0],
    "radio.bitrate_bps": [math.inf, math.nan, 0, 1000],
    "radio.header_bits": [0, math.inf, 1],
    "radio.beacon_payload_bits": [math.nan, 1],
    "backhaul_latency_s": [math.inf, -1e-3, 0.0],
    "processing_delay_s": [math.nan, 0.0],
    "catalog_size": [0, 1],
    "rsu_cache_capacity": [0, 1],
    "payload_bits": [0, 1],
    "kinematics.accel_mps2": [math.nan, 0.0],
    "kinematics.max_speed_mps": [0.0, math.inf],
    "kinematics.min_gap_m": [math.nan],
}
# up to three edges at a time, so that many configs pass
GATE_EDGES = st.lists(
    st.one_of(st.tuples(st.just(key), st.sampled_from(v)) for key, v in EDGE_VALUES.items()),
    max_size=3,
).map(dict)


@settings(max_examples=500, deadline=None)
@example("urban_single", 3, {"arrival_window_s": 1e-7})  # used to die drawing arrival times
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from([0, 1, 3]), GATE_EDGES)
def test_every_config_is_rejected_up_front_or_runs_to_its_files(name, count, edges):
    try:
        cfg = resolve_config(name, {"count": count, **edges})
        validate_config(cfg)
    except ValidationError:
        return
    result = Simulation(cfg).run()
    with tempfile.TemporaryDirectory() as out:
        paths = write_outputs(result, Path(out))
        assert "cdt.csv" in paths
        assert all(path.stat().st_size > 0 for path in paths.values())


# -- config files ---------------------------------------------------------------


def write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_builder_file_reproduces_builder(tmp_path):
    cfg = resolve_config(write(tmp_path, "scenario = highway_single\n"))
    assert cfg == highway_single()


def test_builder_file_overrides(tmp_path):
    text = """
    # smoke layout
    scenario = urban_single
    count = 20
    seed = 7
    caching = no
    tick_s = 0.05
    trace = yes
    """
    cfg = resolve_config(write(tmp_path, text))
    assert cfg.vehicle_count == 20
    assert cfg.arrival_window_s == 144.0
    assert cfg.seed == 7
    assert cfg.caching is False
    assert cfg.tick_s == 0.05
    assert cfg.trace is True


def test_count_goes_to_the_builder_and_file_fields_still_win(tmp_path):
    path = write(tmp_path, "scenario = highway_single\ncount = 100\nduration_s = 400\n")
    cfg = resolve_config(path, {"count": 200})
    assert cfg.vehicle_count == 200
    assert cfg.arrival_window_s == 200.0  # derived by the builder from the count
    assert cfg.duration_s == 400.0  # the file's own field
    path = write(tmp_path, "scenario = urban_single\n")
    assert resolve_config(path, {"count": 60}) == urban_single(count=60)


def test_overrides_win_over_the_file(tmp_path):
    text = "scenario = urban_single\nseed = 7\ncaching = no\nsample_interval_s = 20\nvehicle_count = 30\n"
    overrides = {"seed": 3, "caching": True, "sample_interval_s": 50.0, "count": 20}
    cfg = resolve_config(write(tmp_path, text), overrides)
    assert (cfg.seed, cfg.caching, cfg.sample_interval_s) == (3, True, 50.0)
    assert cfg.vehicle_count == 20  # an override's count sets vehicle_count last
    assert cfg.arrival_window_s == 144.0  # derived by the builder from that count


def test_dotted_overrides_replace_nested_params(tmp_path):
    text = """
    scenario = highway_single
    radio.bitrate_bps = 12000000
    kinematics.max_speed_mps = 20
    """
    cfg = resolve_config(write(tmp_path, text))
    assert cfg.radio.bitrate_bps == 12_000_000
    assert cfg.radio.header_bits == 80  # untouched fields keep defaults
    assert cfg.kinematics.max_speed_mps == 20.0
    assert cfg.kinematics.min_gap_m == 2.5


def test_rsu_sections_replace_builder_layout(tmp_path):
    text = """
    scenario = urban_single

    [rsu]
    id = mast
    center = 400, 100
    radius_m = 350
    """
    cfg = resolve_config(write(tmp_path, text))
    assert cfg.rsus == [RsuSpec(id="mast", center=(400.0, 100.0), radius_m=350.0)]
    assert len(cfg.roads) == 2  # roads untouched


def test_from_scratch_layout(tmp_path):
    text = """
    name = strip
    arrival_pattern = highway-uniform
    vehicle_count = 5
    arrival_window_s = 5
    duration_s = 60
    entry_speed_mps = 14

    [road]
    id = h
    length_m = 500

    [rsu]
    id = g
    center = 250, 0
    radius_m = 200
    """
    cfg = resolve_config(write(tmp_path, text))
    assert cfg.name == "strip"
    assert cfg.vehicle_count == 5
    assert cfg.roads[0].length_m == 500.0
    assert cfg.rsus[0].id == "g"
    assert cfg.caching is True  # default


def test_from_scratch_relay_chain(tmp_path):
    text = """
    name = chain
    arrival_pattern = urban-random
    vehicle_count = 3
    arrival_window_s = 10
    duration_s = 90

    [road]
    id = a
    length_m = 400

    [rsu]
    id = back
    center = 100, 0
    radius_m = 150
    role = relay
    next_hop = front

    [rsu]
    id = front
    center = 250, 0
    radius_m = 150
    """
    cfg = resolve_config(write(tmp_path, text))
    assert cfg.rsus[0].role == ROLE_RELAY
    assert cfg.rsus[0].next_hop == "front"
    assert cfg.caching is True  # default, and a relay layout needs it


def test_highway_multi_file_rejects_caching_false(tmp_path):
    # a relay layout is caching-only; the file's caching = false used to be
    # dropped without a word
    cfg = resolve_config(write(tmp_path, "scenario = highway_multi\ncaching = false\n"))
    with pytest.raises(ValidationError, match="caching-only"):
        Simulation(cfg)


def test_resolve_config_takes_a_builder_name_and_typed_overrides():
    cfg = resolve_config(
        "highway_single",
        {"count": 50, "seed": 4, "tick_s": 0.05, "radio.bitrate_bps": 3_000_000,
         "kinematics.min_gap_m": 3.0},
    )
    assert cfg == dataclasses.replace(
        highway_single(count=50, seed=4),
        tick_s=0.05,
        radio=RadioParams(bitrate_bps=3_000_000),
        kinematics=KinematicParams(min_gap_m=3.0),
    )
    with pytest.raises(ValidationError, match="unknown field 'radio.tx_power_mw'"):
        resolve_config("urban_single", {"radio.tx_power_mw": 20.0})
    with pytest.raises(ValidationError, match="caching-only"):
        validate_config(resolve_config("highway_multi", {"caching": False}))


def test_from_scratch_without_rsus_fails_validation(tmp_path):
    text = """
    vehicle_count = 5
    arrival_window_s = 5
    duration_s = 60

    [road]
    id = a
    length_m = 100
    """
    with pytest.raises(ValidationError, match="at least one RSU"):
        validate_config(resolve_config(write(tmp_path, text)))


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("scenario = urban_single\nwheels = 4\n", 2, "unknown field 'wheels'"),
        ("scenario = urban_single\nseed = soon\n", 2, "bad value for seed"),
        ("scenario = urban_single\nseed = 1\nseed = 2\n", 3, "duplicate key"),
        ("[garage]\n", 1, "unknown section"),
        ("[rsu\nid = g\n", 1, "unterminated section"),
        ("scenario = urban_single\njust words\n", 2, "expected key = value"),
        ("scenario = nowhere\n", 1, "unknown scenario"),
        ("scenario = urban_single\nradio.volume = 11\n", 2, "unknown field 'radio.volume'"),
        # keys that drove nothing in the simulator and left the grammar
        *(
            (f"scenario = urban_single\nradio.{key} = 1\n", 2, f"unknown field 'radio.{key}'")
            for key in (
                "tx_power_mw", "noise_floor_dbm", "min_power_dbm", "antenna_height_m",
                "center_freq_ghz",
            )
        ),
        ("scenario = urban_single\ncoverage_is_diameter = yes\n", 2, "unknown field"),
        ("[rsu]\nid = g\nbackhaul = yes\n", 3, "unknown field 'backhaul' in [rsu]"),
        ("[rsu]\ncenter = 0, 0\nradius_m = 10\n", 2, "missing field 'id'"),
        ("[road]\nid = a\n", 2, "missing field 'length_m'"),
        ("scenario = urban_single\n[road]\n", 2, "[road] is missing field 'id'"),
        ("scenario = urban_single\n\n[rsu]  # empty\n\n", 3, "[rsu] is missing field 'id'"),
        ("scenario = urban_single\n[rsu]\nid = g\ncenter = 1\nradius_m = 5\n", 4, "bad value for center"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, line_no, fragment):
    with pytest.raises(ParseError) as exc:
        resolve_config(write(tmp_path, text))
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {line_no}:")
