"""Builder geometry, config validation, and the config-file loader."""

import dataclasses
import math

import pytest

from vcachesim.engine import Simulation
from vcachesim.mobility import HIGHWAY_UNIFORM, URBAN_RANDOM, KinematicParams
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
    load_config,
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
        highway_multi(caching=False)


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
    ],
)
def test_validation_rejects_bad_fields(changes, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_config(broken(**changes))


INTERVAL_FIELDS = ["tick_s", "request_interval_s", "sample_interval_s", "relay_announce_interval_s"]


def with_interval(name, seconds):
    if name == "radio.beacon_interval_s":
        return broken(radio=dataclasses.replace(RadioParams(), beacon_interval_s=seconds))
    return broken(**{name: seconds})


@pytest.mark.parametrize("name", INTERVAL_FIELDS + ["radio.beacon_interval_s"])
@pytest.mark.parametrize("seconds", [1e-7, 4.9e-7, math.inf, math.nan])
def test_validation_rejects_intervals_below_one_microsecond(name, seconds):
    # 1e-7 s passes a "> 0" test but quantizes to 0 us: a zero tick would
    # reschedule itself at the same instant forever
    with pytest.raises(ValidationError, match=name.split(".")[-1]):
        validate_config(with_interval(name, seconds))


@pytest.mark.parametrize("name", INTERVAL_FIELDS + ["radio.beacon_interval_s"])
def test_validation_accepts_intervals_that_quantize_to_one_microsecond(name):
    validate_config(with_interval(name, 5.1e-7))


@pytest.mark.parametrize("name", ["tick_s", "sample_interval_s"])
def test_sub_microsecond_interval_is_rejected_before_the_run(name):
    # tick_s used to hang the event loop; sample_interval_s used to fail
    # only when the finished run's outputs were written
    with pytest.raises(ValidationError, match=name):
        Simulation(broken(**{name: 1e-7}))


@pytest.mark.parametrize("name", ["accel_mps2", "decel_mps2", "max_speed_mps", "min_gap_m"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_kinematics_override_must_be_finite_and_positive(tmp_path, name, value):
    path = write(tmp_path, f"scenario = urban_single\nkinematics.{name} = {value}\n")
    with pytest.raises(ValidationError, match=name):
        load_config(path)


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


# -- config files ---------------------------------------------------------------


def write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_builder_file_reproduces_builder(tmp_path):
    cfg = load_config(write(tmp_path, "scenario = highway_single\n"))
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
    cfg = load_config(write(tmp_path, text))
    assert cfg.vehicle_count == 20
    assert cfg.arrival_window_s == 144.0
    assert cfg.seed == 7
    assert cfg.caching is False
    assert cfg.tick_s == 0.05
    assert cfg.trace is True


def test_count_goes_to_the_builder_and_file_fields_still_win(tmp_path):
    path = write(tmp_path, "scenario = highway_single\ncount = 100\nduration_s = 400\n")
    cfg = load_config(path, count=200)
    assert cfg.vehicle_count == 200
    assert cfg.arrival_window_s == 200.0  # derived by the builder from the count
    assert cfg.duration_s == 400.0  # the file's own field
    assert load_config(write(tmp_path, "scenario = urban_single\n"), count=60) == urban_single(
        count=60
    )


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
    cfg = load_config(write(tmp_path, text))
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
    cfg = load_config(write(tmp_path, text))
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
    cfg = load_config(write(tmp_path, text))
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
    cfg = load_config(write(tmp_path, text))
    assert cfg.rsus[0].role == ROLE_RELAY
    assert cfg.rsus[0].next_hop == "front"
    assert cfg.caching is True  # default, and a relay layout needs it


def test_highway_multi_file_rejects_caching_false(tmp_path):
    # a relay layout is caching-only; the file's caching = false used to be
    # dropped without a word
    with pytest.raises(ValidationError, match="caching-only"):
        load_config(write(tmp_path, "scenario = highway_multi\ncaching = false\n"))


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
        resolve_config("highway_multi", {"caching": False})


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
        load_config(write(tmp_path, text))


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
        load_config(write(tmp_path, text))
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {line_no}:")
