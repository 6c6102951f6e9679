"""Scenario builders for the canonical experiments plus a config-file loader.

Builders return fully validated configs. The file format is flat key=value
lines with optional [scenario], repeatable [road] and [rsu] sections, and
'#' comments; a file may start from a named builder and override fields, or
describe a layout from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .mobility import HIGHWAY_UNIFORM, URBAN_RANDOM, KinematicParams, RoadSegment
from .radio import RadioParams

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
    backhaul: bool | None = None  # None: derived from role

    def has_backhaul(self) -> bool:
        if self.backhaul is None:
            return self.role == ROLE_GATEWAY
        return self.backhaul


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
    coverage_is_diameter: bool = False
    trace: bool = False

    def effective_radius(self, spec: RsuSpec) -> float:
        return spec.radius_m / 2.0 if self.coverage_is_diameter else spec.radius_m


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
    check(cfg.tick_s > 0, f"tick_s must be positive: {cfg.tick_s}")
    check(cfg.sample_interval_s > 0, f"sample_interval_s must be positive: {cfg.sample_interval_s}")
    check(cfg.request_interval_s > 0, f"request_interval_s must be positive: {cfg.request_interval_s}")
    check(
        cfg.relay_announce_interval_s > 0,
        f"relay_announce_interval_s must be positive: {cfg.relay_announce_interval_s}",
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
    for spec in cfg.rsus:
        if spec.radius_m <= 0:
            problems.append(f"rsu {spec.id}: radius_m must be positive: {spec.radius_m}")
        if spec.role == ROLE_GATEWAY:
            check(spec.next_hop is None, f"rsu {spec.id}: gateways take no next_hop")
            check(spec.has_backhaul(), f"rsu {spec.id}: a gateway requires backhaul")
        elif spec.role == ROLE_RELAY:
            check(not spec.has_backhaul(), f"rsu {spec.id}: a relay cannot have backhaul")
            check(cfg.caching, f"rsu {spec.id}: relay roles require caching enabled")
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


def _urban_window(count: int) -> float:
    # windows for other vehicle counts extrapolate the 40-vehicle density
    return _URBAN_WINDOWS.get(count, round(count * 5.75))


def _urban_roads() -> list[RoadSegment]:
    return [
        RoadSegment(id="a", length_m=800.0, origin=(0.0, 0.0), direction=(1.0, 0.0)),
        RoadSegment(id="b", length_m=800.0, origin=(800.0, 200.0), direction=(-1.0, 0.0)),
    ]


def urban_single(count: int = 40, caching: bool = True, seed: int = 1) -> ScenarioConfig:
    """Two opposite 800 m city roads under one gateway RSU between them."""
    window = _urban_window(count)
    cfg = ScenarioConfig(
        name="urban_single",
        roads=_urban_roads(),
        rsus=[RsuSpec(id="r0", center=(400.0, 100.0), radius_m=400.0)],
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


def urban_multi(count: int = 40, caching: bool = True, seed: int = 1) -> ScenarioConfig:
    """Two city roads split between two disjoint gateway RSUs.

    Each RSU covers its own road's entry stretch, so each road's traffic
    requests from its own RSU and the load divides between them.
    """
    window = _urban_window(count)
    cfg = ScenarioConfig(
        name="urban_multi",
        roads=_urban_roads(),
        rsus=[
            RsuSpec(id="r0", center=(130.0, 0.0), radius_m=270.0),
            RsuSpec(id="r1", center=(670.0, 200.0), radius_m=270.0),
        ],
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


def highway_single(caching: bool = True, seed: int = 1, count: int = 300) -> ScenarioConfig:
    """One 2100 m highway, one vehicle per second, one mid-road gateway RSU."""
    cfg = ScenarioConfig(
        name="highway_single",
        roads=[RoadSegment(id="h", length_m=2100.0)],
        rsus=[RsuSpec(id="r0", center=(1050.0, 0.0), radius_m=400.0)],
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


def highway_multi(seed: int = 1, count: int = 300) -> ScenarioConfig:
    """The highway with an overlapping three-RSU chain.

    Two relays sit upstream of the gateway (each RSU inside its neighbor's
    zone) so content broadcast at the gateway cascades backward along the
    chain and meets vehicles before their first request.
    """
    cfg = ScenarioConfig(
        name="highway_multi",
        roads=[RoadSegment(id="h", length_m=2100.0)],
        rsus=[
            RsuSpec(id="r0", center=(628.0, 0.0), radius_m=200.0, role=ROLE_RELAY, next_hop="r1"),
            RsuSpec(id="r1", center=(823.0, 0.0), radius_m=200.0, role=ROLE_RELAY, next_hop="r2"),
            RsuSpec(id="r2", center=(1018.0, 0.0), radius_m=200.0),
        ],
        arrival_pattern=HIGHWAY_UNIFORM,
        vehicle_count=count,
        arrival_window_s=float(count),
        caching=True,
        duration_s=count + DRAIN_MARGIN_S,
        seed=seed,
        entry_speed_mps=14.0,
    )
    validate_config(cfg)
    return cfg


BUILDERS = {
    "urban_single": urban_single,
    "urban_multi": urban_multi,
    "highway_single": highway_single,
    "highway_multi": highway_multi,
}


# -- config files -------------------------------------------------------------

_SCENARIO_FIELDS = {
    f.name: f.type
    for f in fields(ScenarioConfig)
    if f.name not in ("roads", "rsus", "radio", "kinematics")
}
_RADIO_FIELDS = {f.name: f.type for f in fields(RadioParams)}
_KINEMATIC_FIELDS = {f.name: f.type for f in fields(KinematicParams)}
_ROAD_FIELDS = {"id": "str", "length_m": "float", "origin": "pair", "direction": "pair"}
_RSU_FIELDS = {
    "id": "str",
    "center": "pair",
    "radius_m": "float",
    "role": "str",
    "next_hop": "str",
    "backhaul": "bool",
}
_BUILDER_KEYS = {"scenario", "count"}

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


def _coerce(kind: str, raw: str, line_no: int, key: str):
    try:
        if kind in ("int", "<class 'int'>") or kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            word = raw.lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
            raise ValueError(raw)
        if kind == "pair":
            parts = [part.strip() for part in raw.split(",")]
            if len(parts) != 2:
                raise ValueError(raw)
            return (float(parts[0]), float(parts[1]))
        return raw
    except ValueError:
        raise ParseError(line_no, f"bad value for {key}: {raw!r}") from None


def _field_kind(type_text: str) -> str:
    for kind in ("bool", "int", "float"):
        if kind in type_text:
            return kind
    return "str"


def _parse_sections(text: str) -> tuple[dict, list[dict], list[dict]]:
    """Split file text into the scenario mapping and road/rsu section dicts."""
    scenario: dict[str, tuple[str, int]] = {}
    roads: list[dict[str, tuple[str, int]]] = []
    rsus: list[dict[str, tuple[str, int]]] = []
    current: dict[str, tuple[str, int]] = scenario
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
            elif section == "road":
                roads.append({})
                current = roads[-1]
            elif section == "rsu":
                rsus.append({})
                current = rsus[-1]
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
    return scenario, roads, rsus


def _build_road(entry: dict[str, tuple[str, int]]) -> RoadSegment:
    kwargs = {}
    first_line = min(line for _, line in entry.values())
    for key, (raw, line_no) in entry.items():
        if key not in _ROAD_FIELDS:
            raise ParseError(line_no, f"unknown field {key!r} in [road]")
        kwargs[key] = _coerce(_ROAD_FIELDS[key], raw, line_no, key)
    for required in ("id", "length_m"):
        if required not in kwargs:
            raise ParseError(first_line, f"[road] is missing field {required!r}")
    return RoadSegment(**kwargs)


def _build_rsu(entry: dict[str, tuple[str, int]]) -> RsuSpec:
    kwargs = {}
    first_line = min(line for _, line in entry.values())
    for key, (raw, line_no) in entry.items():
        if key not in _RSU_FIELDS:
            raise ParseError(line_no, f"unknown field {key!r} in [rsu]")
        kwargs[key] = _coerce(_RSU_FIELDS[key], raw, line_no, key)
    for required in ("id", "center", "radius_m"):
        if required not in kwargs:
            raise ParseError(first_line, f"[rsu] is missing field {required!r}")
    return RsuSpec(**kwargs)


def load_config(path) -> ScenarioConfig:
    """Load and validate a scenario file; see the package README for grammar."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    scenario_kv, road_entries, rsu_entries = _parse_sections(text)

    for key, (_, line_no) in scenario_kv.items():
        if key not in _SCENARIO_FIELDS and key not in _BUILDER_KEYS:
            if not (key.startswith("radio.") or key.startswith("kinematics.")):
                raise ParseError(line_no, f"unknown field {key!r}")

    if "scenario" in scenario_kv:
        builder_name, line_no = scenario_kv.pop("scenario")
        builder = BUILDERS.get(builder_name)
        if builder is None:
            raise ParseError(
                line_no, f"unknown scenario {builder_name!r}; expected one of {sorted(BUILDERS)}"
            )
        kwargs = {}
        if "count" in scenario_kv:
            raw, line_no = scenario_kv.pop("count")
            kwargs["count"] = _coerce("int", raw, line_no, "count")
        if "caching" in scenario_kv:
            raw, line_no = scenario_kv.pop("caching")
            kwargs["caching"] = _coerce("bool", raw, line_no, "caching")
        if "seed" in scenario_kv:
            raw, line_no = scenario_kv.pop("seed")
            kwargs["seed"] = _coerce("int", raw, line_no, "seed")
        if builder is highway_multi:
            kwargs.pop("caching", None)
        cfg = builder(**kwargs)
    else:
        cfg = None

    overrides = {}
    radio_overrides = {}
    kinematic_overrides = {}
    for key, (raw, line_no) in scenario_kv.items():
        if key.startswith("radio."):
            sub = key[len("radio."):]
            if sub not in _RADIO_FIELDS:
                raise ParseError(line_no, f"unknown field {key!r}")
            radio_overrides[sub] = _coerce(_field_kind(str(_RADIO_FIELDS[sub])), raw, line_no, key)
        elif key.startswith("kinematics."):
            sub = key[len("kinematics."):]
            if sub not in _KINEMATIC_FIELDS:
                raise ParseError(line_no, f"unknown field {key!r}")
            kinematic_overrides[sub] = _coerce(
                _field_kind(str(_KINEMATIC_FIELDS[sub])), raw, line_no, key
            )
        else:
            overrides[key] = _coerce(_field_kind(str(_SCENARIO_FIELDS[key])), raw, line_no, key)

    roads = [_build_road(entry) for entry in road_entries]
    rsus = [_build_rsu(entry) for entry in rsu_entries]

    if cfg is None:
        try:
            cfg = ScenarioConfig(
                name=overrides.pop("name", "custom"),
                roads=roads,
                rsus=rsus,
                arrival_pattern=overrides.pop("arrival_pattern", URBAN_RANDOM),
                vehicle_count=overrides.pop("vehicle_count", 0),
                arrival_window_s=overrides.pop("arrival_window_s", 0.0),
                caching=overrides.pop("caching", True),
                duration_s=overrides.pop("duration_s", 0.0),
            )
        except TypeError as exc:  # pragma: no cover - defensive
            raise ValidationError(str(exc)) from None
    else:
        if roads:
            cfg.roads = roads
        if rsus:
            cfg.rsus = rsus

    for key, value in overrides.items():
        setattr(cfg, key, value)
    if radio_overrides:
        cfg.radio = RadioParams(**{**_params_as_dict(cfg.radio), **radio_overrides})
    if kinematic_overrides:
        cfg.kinematics = KinematicParams(
            **{**_params_as_dict(cfg.kinematics), **kinematic_overrides}
        )

    validate_config(cfg)
    return cfg


def _params_as_dict(params) -> dict:
    return {f.name: getattr(params, f.name) for f in fields(params)}
