"""Scenario builders for the canonical experiments, and the one config resolver.

Builders return fully validated configs. resolve_config is the one place
that turns a builder name or a config file, plus overrides, into a validated
config. The file format is flat key=value lines with optional [scenario],
repeatable [road] and [rsu] sections, and '#' comments; a file may start from
a named builder and override fields, or describe a layout from scratch.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .mobility import HIGHWAY_UNIFORM, URBAN_RANDOM, KinematicParams, RoadSegment
from .radio import RadioParams
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


def caching_only(cfg: ScenarioConfig) -> bool:
    """A layout with a relay RSU runs only with caching: relays are caches."""
    return any(spec.role == ROLE_RELAY for spec in cfg.rsus)


def validate_config(cfg: ScenarioConfig) -> None:
    """Raise ValidationError listing every violated field."""
    problems: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    check(cfg.vehicle_count >= 1, f"vehicle_count must be >= 1: {cfg.vehicle_count}")
    check(cfg.duration_s > 0, f"duration_s must be positive: {cfg.duration_s}")
    check(cfg.arrival_window_s > 0, f"arrival_window_s must be positive: {cfg.arrival_window_s}")
    check(
        cfg.duration_s >= cfg.arrival_window_s,
        f"duration_s {cfg.duration_s} shorter than arrival_window_s {cfg.arrival_window_s}",
    )
    # periodic work steps on the microsecond clock: an interval that rounds
    # to 0 us would reschedule an event at one instant forever (tick,
    # requests, announces, beacons) or fail after the run (sampling)
    for name, seconds in (
        ("tick_s", cfg.tick_s),
        ("sample_interval_s", cfg.sample_interval_s),
        ("request_interval_s", cfg.request_interval_s),
        ("relay_announce_interval_s", cfg.relay_announce_interval_s),
        ("radio.beacon_interval_s", cfg.radio.beacon_interval_s),
    ):
        check(
            math.isfinite(seconds) and seconds_to_us(seconds) >= 1,
            f"{name} must be at least 1 us once quantized: {seconds}",
        )
    check(cfg.catalog_size >= 1, f"catalog_size must be >= 1: {cfg.catalog_size}")
    check(cfg.payload_bits >= 1, f"payload_bits must be >= 1: {cfg.payload_bits}")
    check(cfg.rsu_cache_capacity >= 1, f"rsu_cache_capacity must be >= 1: {cfg.rsu_cache_capacity}")
    check(cfg.backhaul_latency_s >= 0, f"backhaul_latency_s must be >= 0: {cfg.backhaul_latency_s}")
    check(cfg.processing_delay_s >= 0, f"processing_delay_s must be >= 0: {cfg.processing_delay_s}")
    check(
        0 <= cfg.entry_speed_mps <= cfg.kinematics.max_speed_mps,
        f"entry_speed_mps must lie in [0, max speed]: {cfg.entry_speed_mps}",
    )
    check(cfg.seed >= 0, f"seed must be >= 0: {cfg.seed}")

    check(bool(cfg.roads), "at least one road is required")
    road_ids = [road.id for road in cfg.roads]
    check(len(set(road_ids)) == len(road_ids), f"duplicate road ids: {road_ids}")

    if cfg.arrival_pattern not in (URBAN_RANDOM, HIGHWAY_UNIFORM):
        problems.append(f"unknown arrival_pattern: {cfg.arrival_pattern!r}")
    elif cfg.arrival_pattern == HIGHWAY_UNIFORM:
        check(len(cfg.roads) == 1, "highway-uniform arrivals need exactly one road")

    check(bool(cfg.rsus), "at least one RSU is required")
    rsu_ids = [spec.id for spec in cfg.rsus]
    check(len(set(rsu_ids)) == len(rsu_ids), f"duplicate rsu ids: {rsu_ids}")
    known = set(rsu_ids)
    gateways = [spec for spec in cfg.rsus if spec.role == ROLE_GATEWAY]
    check(bool(gateways), "at least one gateway RSU is required")
    check(
        cfg.caching or not caching_only(cfg),
        "relay RSUs require caching enabled: a layout with relays is caching-only",
    )
    for spec in cfg.rsus:
        if spec.radius_m <= 0:
            problems.append(f"rsu {spec.id}: radius_m must be positive: {spec.radius_m}")
        if spec.role == ROLE_GATEWAY:
            check(spec.next_hop is None, f"rsu {spec.id}: gateways take no next_hop")
        elif spec.role == ROLE_RELAY:
            if spec.next_hop is None:
                problems.append(f"rsu {spec.id}: relay requires a next_hop")
            elif spec.next_hop not in known:
                problems.append(f"rsu {spec.id}: unknown next_hop {spec.next_hop!r}")
            elif spec.next_hop == spec.id:
                problems.append(f"rsu {spec.id}: next_hop must differ from the relay itself")
        else:
            problems.append(f"rsu {spec.id}: unknown role {spec.role!r}")

    # every relay chain must terminate at a gateway without looping
    by_id = {spec.id: spec for spec in cfg.rsus}
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

    if problems:
        raise ValidationError("; ".join(problems))


# -- builders -----------------------------------------------------------------

DRAIN_MARGIN_S = 120.0

_URBAN_WINDOWS = {20: 144.0, 40: 230.0, 60: 430.0}


def _urban(name: str, rsus: list[RsuSpec], count: int, caching: bool, seed: int):
    """Two opposite 800 m city roads under the given RSUs."""
    # windows for other vehicle counts extrapolate the 40-vehicle density
    window = _URBAN_WINDOWS.get(count, round(count * 5.75))
    cfg = ScenarioConfig(
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
    validate_config(cfg)
    return cfg


def _highway(name: str, rsus: list[RsuSpec], count: int, caching: bool, seed: int):
    """One 2100 m highway, one vehicle per second, under the given RSUs."""
    cfg = ScenarioConfig(
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
    validate_config(cfg)
    return cfg


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
    it caching-only: caching=False fails validation.
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
    """The validated config of a builder name or a config file path.

    overrides maps count, caching, seed or any field the file grammar
    accepts (radio.x and kinematics.x included) to a typed value.
    Precedence: count, caching and seed go to the builder, an override's
    over the file's; the file's other fields win over what the builder
    derived; the overrides' other fields come next; an override's count
    sets vehicle_count last. [road]/[rsu] sections replace the builder's layout,
    and a file without a scenario key starts from an empty one. A
    ValueError that a parameter block, road or RSU raises becomes a
    ValidationError.
    """
    overrides = overrides or {}
    try:
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
    except (ParseError, ValidationError):
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    validate_config(cfg)
    return cfg


def load_config(path, count: int | None = None) -> ScenarioConfig:
    """resolve_config of a config file (grammar in the package README), count overriding."""
    return resolve_config(Path(path), {} if count is None else {"count": count})
