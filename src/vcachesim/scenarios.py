"""Scenario builders for the canonical experiments, and the one config resolver.

Builders and resolve_config return configs unchecked: validate_config holds
every config rule, the roads' and parameter blocks' too, and Simulation runs
it before anything else, so a config is validated once, where it runs.
resolve_config is the one place that turns a builder name or a config
file, plus overrides, into a config. The file format is flat key=value
lines with optional [scenario], repeatable [road] and [rsu] sections, and
'#' comments; a file may start from a named builder and override fields, or
describe a layout from scratch.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .mobility import (
    HIGHWAY_UNIFORM,
    MAX_TRACK_TICKS,
    URBAN_RANDOM,
    KinematicParams,
    RoadSegment,
    free_track,
)
from .radio import RadioParams, in_range
from .simcore import seconds_to_us

ROLE_GATEWAY = "gateway"
ROLE_RELAY = "relay"


class ValidationError(ValueError):
    """A configuration violates a structural invariant."""


class ParseError(ValueError):
    """A config file could not be parsed."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class RsuSpec:
    id: str
    center: tuple[float, float]
    radius_m: float
    role: str = ROLE_GATEWAY
    next_hop: str | None = None


@dataclass
class ScenarioConfig:
    name: str
    roads: list[RoadSegment]
    rsus: list[RsuSpec]
    arrival_pattern: str
    vehicle_count: int
    arrival_window_s: float
    caching: bool
    duration_s: float
    seed: int = 1
    catalog_size: int = 10
    payload_bits: int = 2000
    rsu_cache_capacity: int = 64
    backhaul_latency_s: float = 0.0003
    processing_delay_s: float = 0.00001
    radio: RadioParams = field(default_factory=RadioParams)
    kinematics: KinematicParams = field(default_factory=KinematicParams)
    request_interval_s: float = 10.0
    relay_announce_interval_s: float = 21.0
    tick_s: float = 0.1
    entry_speed_mps: float = 0.0
    sample_interval_s: float = 5.0
    trace: bool = False


# the CSVs write a row per sample point (and RSU): 3 vehicles sampled every
# 1 us for 2 s wrote 50 MB; the 1 200-vehicle highway samples 265 points
MAX_SAMPLE_POINTS = 100_000


def caching_only(cfg: ScenarioConfig) -> bool:
    """A layout with a relay RSU runs only with caching: relays are caches."""
    return any(spec.role == ROLE_RELAY for spec in cfg.rsus)


def validate_config(cfg: ScenarioConfig) -> None:
    """Raise ValidationError listing every violated field."""
    problems: list[str] = []

    def check(ok: bool, message: str, *values) -> None:
        # the values are formatted into the message only when it is kept
        if not ok:
            problems.append(message % values)

    check(cfg.vehicle_count >= 1, "vehicle_count must be >= 1: %s", cfg.vehicle_count)
    check(cfg.duration_s > 0, "duration_s must be positive: %s", cfg.duration_s)
    check(
        cfg.duration_s >= cfg.arrival_window_s,
        "duration_s %s shorter than arrival_window_s %s",
        cfg.duration_s,
        cfg.arrival_window_s,
    )
    # periodic work steps on the microsecond clock: an interval that rounds
    # to 0 us would reschedule an event at one instant forever (tick,
    # requests, announces, beacons) or fail after the run (sampling); arrival
    # times are drawn from a window of whole microseconds
    for name, seconds in (
        ("arrival_window_s", cfg.arrival_window_s),
        ("tick_s", cfg.tick_s),
        ("sample_interval_s", cfg.sample_interval_s),
        ("request_interval_s", cfg.request_interval_s),
        ("relay_announce_interval_s", cfg.relay_announce_interval_s),
        ("radio.beacon_interval_s", cfg.radio.beacon_interval_s),
    ):
        check(
            math.isfinite(seconds) and seconds_to_us(seconds) >= 1,
            "%s must be at least 1 us once quantized: %s",
            name,
            seconds,
        )
    if all(map(math.isfinite, (cfg.duration_s, cfg.sample_interval_s))):
        duration_us, interval_us = map(seconds_to_us, (cfg.duration_s, cfg.sample_interval_s))
        if interval_us >= 1:  # the points of metrics.sample_grid
            points = duration_us // interval_us + 1 + (duration_us % interval_us > 0)
            check(
                points <= MAX_SAMPLE_POINTS,
                "sample_interval_s %s gives %s sample points over duration_s %s, more than"
                " MAX_SAMPLE_POINTS = %s",
                cfg.sample_interval_s,
                points,
                cfg.duration_s,
                MAX_SAMPLE_POINTS,
            )
    check(cfg.catalog_size >= 1, "catalog_size must be >= 1: %s", cfg.catalog_size)
    check(cfg.payload_bits >= 1, "payload_bits must be >= 1: %s", cfg.payload_bits)
    check(cfg.rsu_cache_capacity >= 1, "rsu_cache_capacity must be >= 1: %s", cfg.rsu_cache_capacity)
    check(cfg.backhaul_latency_s >= 0, "backhaul_latency_s must be >= 0: %s", cfg.backhaul_latency_s)
    check(cfg.processing_delay_s >= 0, "processing_delay_s must be >= 0: %s", cfg.processing_delay_s)
    # an infinite duration or delay cannot be put on the microsecond clock
    for name, seconds in (
        ("duration_s", cfg.duration_s),
        ("backhaul_latency_s", cfg.backhaul_latency_s),
        ("processing_delay_s", cfg.processing_delay_s),
    ):
        check(math.isfinite(seconds), "%s must be finite: %s", name, seconds)
    # the parameter blocks: anything else makes NaN airtimes or tracks; the
    # chained test takes ints of any size without a float conversion
    for name in ("header_bits", "bitrate_bps", "beacon_payload_bits"):
        value = getattr(cfg.radio, name)
        check(0 < value < math.inf, "%s must be positive and finite: %s", name, value)
    for name in ("accel_mps2", "decel_mps2", "max_speed_mps", "min_gap_m"):
        value = getattr(cfg.kinematics, name)
        check(math.isfinite(value) and value > 0, "%s must be finite and positive: %s", name, value)
    max_speed = cfg.kinematics.max_speed_mps  # a bad one is reported just above
    check(
        not 0 < max_speed < math.inf or 0 <= cfg.entry_speed_mps <= max_speed,
        "entry_speed_mps must lie in [0, max speed]: %s",
        cfg.entry_speed_mps,
    )
    check(cfg.seed >= 0, "seed must be >= 0: %s", cfg.seed)

    check(bool(cfg.roads), "at least one road is required")
    for road in cfg.roads:
        # a non-finite length (NaN, -inf) is the finite rule's
        check(not -math.inf < road.length_m <= 0, "road length must be positive: %s", road.length_m)
        check(
            math.isclose(math.hypot(*road.direction), 1.0, rel_tol=0, abs_tol=1e-9),
            "road direction must be a unit vector: %s",
            road.direction,
        )
    bad_roads = [
        road for road in cfg.roads if not all(map(math.isfinite, (road.length_m, *road.origin)))
    ]
    check(not bad_roads, "road length_m and origin must be finite: %s", bad_roads)
    road_ids = [road.id for road in cfg.roads]
    check(len(set(road_ids)) == len(road_ids), "duplicate road ids: %s", road_ids)

    if cfg.arrival_pattern not in (URBAN_RANDOM, HIGHWAY_UNIFORM):
        problems.append(f"unknown arrival_pattern: {cfg.arrival_pattern!r}")
    elif cfg.arrival_pattern == HIGHWAY_UNIFORM:
        check(len(cfg.roads) == 1, "highway-uniform arrivals need exactly one road")

    check(bool(cfg.rsus), "at least one RSU is required")
    rsu_ids = [spec.id for spec in cfg.rsus]
    check(len(set(rsu_ids)) == len(rsu_ids), "duplicate rsu ids: %s", rsu_ids)
    known = set(rsu_ids)
    by_id = {spec.id: spec for spec in cfg.rsus}
    gateways = [spec for spec in cfg.rsus if spec.role == ROLE_GATEWAY]
    check(bool(gateways), "at least one gateway RSU is required")
    check(
        cfg.caching or not caching_only(cfg),
        "relay RSUs require caching enabled: a layout with relays is caching-only",
    )
    for spec in cfg.rsus:
        if spec.id[:1] == "v" and spec.id[1:].isdigit():
            problems.append(f"rsu {spec.id}: v followed by digits names a vehicle")
        if not all(map(math.isfinite, spec.center)):
            problems.append(f"rsu {spec.id}: center must be finite: {spec.center}")
        if not (math.isfinite(spec.radius_m) and spec.radius_m > 0):
            problems.append(f"rsu {spec.id}: radius_m must be finite and positive: {spec.radius_m}")
        if spec.role == ROLE_GATEWAY:
            check(spec.next_hop is None, "rsu %s: gateways take no next_hop", spec.id)
        elif spec.role == ROLE_RELAY:
            if spec.next_hop is None:
                problems.append(f"rsu {spec.id}: relay requires a next_hop")
            elif spec.next_hop not in known:
                problems.append(f"rsu {spec.id}: unknown next_hop {spec.next_hop!r}")
            elif spec.next_hop == spec.id:
                problems.append(f"rsu {spec.id}: next_hop must differ from the relay itself")
            else:
                # it forwards from its centre on its next hop's channel
                hop = by_id[spec.next_hop]
                if not in_range(hop, spec.center):
                    problems.append(f"rsu {spec.id}: centre outside the zone of its next_hop {hop.id}")
        else:
            problems.append(f"rsu {spec.id}: unknown role {spec.role!r}")

    # every relay chain must terminate at a gateway without looping
    for spec in cfg.rsus:
        if spec.role != ROLE_RELAY or spec.next_hop not in known:
            continue
        hops = 0
        cursor = spec
        while cursor.role == ROLE_RELAY and cursor.next_hop in known:
            cursor = by_id[cursor.next_hop]
            hops += 1
            if hops > len(cfg.rsus):
                problems.append(f"rsu {spec.id}: relay chain never reaches a gateway")
                break
        else:
            if cursor.role != ROLE_GATEWAY:
                problems.append(f"rsu {spec.id}: relay chain never reaches a gateway")

    if not problems:
        # the free-flow path must fit the world's tracks; last, for it is
        # built from fields the rules above pass; the world's own key
        # (MobilityWorld._track), so that its call is a cache hit
        longest_m = max(road.length_m for road in cfg.roads)
        speed_hex = float(cfg.entry_speed_mps).hex()
        if free_track(speed_hex, cfg.tick_s, cfg.kinematics, longest_m, MAX_TRACK_TICKS) is None:
            problems.append(
                f"tick_s {cfg.tick_s} too short: from {cfg.entry_speed_mps} m/s a vehicle takes"
                f" more than {MAX_TRACK_TICKS} ticks to cross the longest road ({longest_m} m)"
            )
    if problems:
        raise ValidationError("; ".join(problems))


# -- builders -----------------------------------------------------------------

DRAIN_MARGIN_S = 120.0

_URBAN_WINDOWS = {20: 144.0, 40: 230.0, 60: 430.0}


def _urban(name: str, rsus: list[RsuSpec], count: int, caching: bool, seed: int):
    """Two opposite 800 m city roads under the given RSUs."""
    # windows for other vehicle counts extrapolate the 40-vehicle density
    window = _URBAN_WINDOWS.get(count, round(count * 5.75))
    return ScenarioConfig(
        name=name,
        roads=[
            RoadSegment(id="a", length_m=800.0, origin=(0.0, 0.0), direction=(1.0, 0.0)),
            RoadSegment(id="b", length_m=800.0, origin=(800.0, 200.0), direction=(-1.0, 0.0)),
        ],
        rsus=rsus,
        arrival_pattern=URBAN_RANDOM,
        vehicle_count=count,
        arrival_window_s=window,
        caching=caching,
        duration_s=window + DRAIN_MARGIN_S,
        seed=seed,
        backhaul_latency_s=0.0004,
    )


def _highway(name: str, rsus: list[RsuSpec], count: int, caching: bool, seed: int):
    """One 2100 m highway, one vehicle per second, under the given RSUs."""
    return ScenarioConfig(
        name=name,
        roads=[RoadSegment(id="h", length_m=2100.0)],
        rsus=rsus,
        arrival_pattern=HIGHWAY_UNIFORM,
        vehicle_count=count,
        arrival_window_s=float(count),
        caching=caching,
        duration_s=count + DRAIN_MARGIN_S,
        seed=seed,
        entry_speed_mps=14.0,
    )


def urban_single(count: int = 40, caching: bool = True, seed: int = 1) -> ScenarioConfig:
    """Two opposite 800 m city roads under one gateway RSU between them."""
    rsus = [RsuSpec(id="r0", center=(400.0, 100.0), radius_m=400.0)]
    return _urban("urban_single", rsus, count, caching, seed)


def urban_multi(count: int = 40, caching: bool = True, seed: int = 1) -> ScenarioConfig:
    """Two city roads split between two disjoint gateway RSUs.

    Each RSU covers its own road's entry stretch, so each road's traffic
    requests from its own RSU and the load divides between them.
    """
    rsus = [
        RsuSpec(id="r0", center=(130.0, 0.0), radius_m=270.0),
        RsuSpec(id="r1", center=(670.0, 200.0), radius_m=270.0),
    ]
    return _urban("urban_multi", rsus, count, caching, seed)


def highway_single(count: int = 300, caching: bool = True, seed: int = 1) -> ScenarioConfig:
    """One 2100 m highway, one vehicle per second, one mid-road gateway RSU."""
    rsus = [RsuSpec(id="r0", center=(1050.0, 0.0), radius_m=400.0)]
    return _highway("highway_single", rsus, count, caching, seed)


def highway_multi(count: int = 300, caching: bool = True, seed: int = 1) -> ScenarioConfig:
    """The highway with an overlapping three-RSU chain.

    Two relays sit upstream of the gateway (each RSU inside its neighbor's
    zone) so content broadcast at the gateway cascades backward along the
    chain and meets vehicles before their first request. The relays make
    it caching-only: with caching=False the config fails validation.
    """
    rsus = [
        RsuSpec(id="r0", center=(628.0, 0.0), radius_m=200.0, role=ROLE_RELAY, next_hop="r1"),
        RsuSpec(id="r1", center=(823.0, 0.0), radius_m=200.0, role=ROLE_RELAY, next_hop="r2"),
        RsuSpec(id="r2", center=(1018.0, 0.0), radius_m=200.0),
    ]
    return _highway("highway_multi", rsus, count, caching, seed)


BUILDERS = {
    "urban_single": urban_single,
    "urban_multi": urban_multi,
    "highway_single": highway_single,
    "highway_multi": highway_multi,
}


# -- config files and resolution ---------------------------------------------


def _from_scratch(count: int = 0, caching: bool = True, seed: int = 1) -> ScenarioConfig:
    """The start of a file without a scenario key: no layout, no window."""
    return ScenarioConfig(
        name="custom", roads=[], rsus=[], arrival_pattern=URBAN_RANDOM, vehicle_count=count,
        arrival_window_s=0.0, caching=caching, duration_s=0.0, seed=seed,
    )


def _parse_bool(raw: str) -> bool:
    word = raw.lower()
    if word in ("true", "yes", "on", "1"):
        return True
    if word in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _parse_pair(raw: str) -> tuple[float, float]:
    x, y = raw.split(",")  # ValueError unless exactly two parts
    return (float(x), float(y))


# a field's annotation text (annotations are strings here) -> its parser
_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "str | None": str,
    "tuple[float, float]": _parse_pair,
}


def _parsers(cls, prefix: str = "", skip: tuple[str, ...] = ()) -> dict:
    return {prefix + f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in skip}


# count, caching and seed go to the builder; an override's count also sets
# vehicle_count last
_BUILDER_ARGS = {"count": int, "caching": _parse_bool, "seed": int}
_SETTINGS = {
    **_parsers(ScenarioConfig, skip=("roads", "rsus", "radio", "kinematics")),
    **_parsers(RadioParams, "radio."),
    **_parsers(KinematicParams, "kinematics."),
    **_BUILDER_ARGS,
}
_SECTIONS = {"road": (RoadSegment, _parsers(RoadSegment)), "rsu": (RsuSpec, _parsers(RsuSpec))}


def _coerce(table: dict, key: str, raw: str, line_no: int, where: str = ""):
    if key not in table:
        raise ParseError(line_no, f"unknown field {key!r}{where}")
    try:
        return table[key](raw)
    except ValueError:
        raise ParseError(line_no, f"bad value for {key}: {raw!r}") from None


def _parse_sections(text: str) -> tuple[dict, list[tuple[str, int, dict]]]:
    """Split file text into the scenario mapping and the [road]/[rsu] sections.

    Values are (raw text, line number); a section is (kind, header line, values).
    """
    scenario: dict[str, tuple[str, int]] = {}
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current = scenario
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(line_no, f"unterminated section header: {raw_line.strip()!r}")
            section = line[1:-1].strip()
            if section == "scenario":
                current = scenario
            elif section in _SECTIONS:
                current = {}
                sections.append((section, line_no, current))
            else:
                raise ParseError(line_no, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected key = value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if not key:
            raise ParseError(line_no, "empty key")
        if key in current:
            raise ParseError(line_no, f"duplicate key {key!r}")
        current[key] = (value, line_no)
    return scenario, sections


def _read_config_file(path):
    """The builder, typed settings and layout sections a config file names."""
    with open(path, "r", encoding="utf-8") as handle:
        scenario, sections = _parse_sections(handle.read())
    builder = _from_scratch
    if "scenario" in scenario:
        name, line_no = scenario.pop("scenario")
        if name not in BUILDERS:
            raise ParseError(line_no, f"unknown scenario {name!r}; expected one of {sorted(BUILDERS)}")
        builder = BUILDERS[name]
    settings = {key: _coerce(_SETTINGS, key, *value) for key, value in scenario.items()}
    layout: dict[str, list] = {"road": [], "rsu": []}
    for kind, header_line, entry in sections:
        cls, table = _SECTIONS[kind]
        where = f" in [{kind}]"
        kwargs = {key: _coerce(table, key, *value, where) for key, value in entry.items()}
        first_line = min((line for _, line in entry.values()), default=header_line)
        for f in fields(cls):
            if f.default is MISSING and f.name not in kwargs:
                raise ParseError(first_line, f"[{kind}] is missing field {f.name!r}")
        layout[kind].append(cls(**kwargs))
    return builder, settings, layout["road"], layout["rsu"]


def _apply(cfg: ScenarioConfig, settings: dict) -> None:
    """Set plain fields; 'block.x' keys replace field x of a parameter block."""
    blocks: dict[str, dict] = {}
    for key, value in settings.items():
        if key not in _SETTINGS:
            raise ValidationError(f"unknown field {key!r}")
        block, _, name = key.rpartition(".")
        if block:
            blocks.setdefault(block, {})[name] = value
        elif key not in _BUILDER_ARGS:
            setattr(cfg, key, value)
    for block, changes in blocks.items():
        setattr(cfg, block, replace(getattr(cfg, block), **changes))


def resolve_config(source, overrides: dict | None = None) -> ScenarioConfig:
    """The config of a builder name or a config file path, not yet validated.

    overrides maps count, caching, seed or any field the file grammar
    accepts (radio.x and kinematics.x included) to a typed value.
    Precedence: count, caching and seed go to the builder, an override's
    over the file's; the file's other fields win over what the builder
    derived; the overrides' other fields come next; an override's count
    sets vehicle_count last. [road]/[rsu] sections replace the builder's layout,
    and a file without a scenario key starts from an empty one. A value the
    file grammar cannot parse is a ParseError; every other rule is
    validate_config's, which Simulation runs.
    """
    overrides = overrides or {}
    if source in BUILDERS:
        builder, settings, roads, rsus = BUILDERS[source], {}, [], []
    else:
        builder, settings, roads, rsus = _read_config_file(source)
    args = {k: v for k, v in {**settings, **overrides}.items() if k in _BUILDER_ARGS}
    cfg = builder(**args)
    cfg.roads = roads or cfg.roads
    cfg.rsus = rsus or cfg.rsus
    _apply(cfg, settings)
    _apply(cfg, overrides)
    if "count" in overrides:
        cfg.vehicle_count = overrides["count"]
    return cfg
