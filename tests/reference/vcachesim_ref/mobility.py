"""Single-lane road segments, car-following kinematics, and arrival patterns.

Roads are 1-D with a world-frame origin and unit direction so coverage
geometry can live in 2-D. Vehicles never overtake; each follows its leader
under acceleration/deceleration limits with a hard minimum-gap floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .simcore import US_PER_SECOND, RandomSource

if TYPE_CHECKING:
    from .content import ContentName


class UnknownVehicle(KeyError):
    """A vehicle id the world has never been told about."""


class EmptyRoadList(ValueError):
    """Arrival generation needs at least one road."""


ACTIVE = "active"
EXITED = "exited"
NOT_YET_ENTERED = "not-yet-entered"

URBAN_RANDOM = "urban-random"
HIGHWAY_UNIFORM = "highway-uniform"


@dataclass(frozen=True)
class RoadSegment:
    """A straight single-lane road: entry at position 0, exit at length."""

    id: str
    length_m: float
    origin: tuple[float, float] = (0.0, 0.0)
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError(f"road length must be positive: {self.length_m}")
        norm = math.hypot(*self.direction)
        if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"road direction must be a unit vector: {self.direction}")

    def world_position(self, pos_m: float) -> tuple[float, float]:
        return (
            self.origin[0] + self.direction[0] * pos_m,
            self.origin[1] + self.direction[1] * pos_m,
        )


@dataclass(frozen=True)
class KinematicParams:
    accel_mps2: float = 2.6
    decel_mps2: float = 4.5
    max_speed_mps: float = 14.0
    min_gap_m: float = 2.5

    def __post_init__(self) -> None:
        for field_name in ("accel_mps2", "decel_mps2", "max_speed_mps", "min_gap_m"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")


@dataclass
class VehicleState:
    id: str
    road_id: str
    pos_m: float
    speed_mps: float
    entered_at_us: int
    exited_at_us: int | None = None


@dataclass(frozen=True)
class VehicleFix:
    """A vehicle's situation as of the most recent kinematics tick."""

    status: str
    road_id: str | None = None
    pos_m: float | None = None
    speed_mps: float | None = None
    world_xy: tuple[float, float] | None = None


@dataclass(frozen=True)
class Arrival:
    at_us: int
    road_id: str
    vehicle_id: str
    wanted: "ContentName"


def generate_arrivals(
    pattern: str,
    count: int,
    window_s: float,
    roads: list[RoadSegment],
    wanted_pool: list["ContentName"],
    rng: RandomSource,
) -> list[Arrival]:
    """Draw the full arrival schedule up front, sorted by entry time.

    Highway traffic is strictly periodic (one vehicle per second on the
    single road); urban traffic draws entry times uniformly over the window
    and roads uniformly. All randomness happens here, in vehicle order, so a
    seed pins the whole schedule before the event loop starts.
    """
    if count < 1:
        raise ValueError(f"vehicle count must be >= 1: {count}")
    if not roads:
        raise EmptyRoadList("at least one road is required")
    if not wanted_pool:
        raise ValueError("wanted_pool must be non-empty")

    if pattern == HIGHWAY_UNIFORM:
        drawn = [
            (i * US_PER_SECOND, roads[0].id, wanted_pool[rng.draw(len(wanted_pool))])
            for i in range(count)
        ]
    elif pattern == URBAN_RANDOM:
        if window_s <= 0:
            raise ValueError(f"arrival window must be positive: {window_s}")
        window_us = int(round(window_s * US_PER_SECOND))
        drawn = []
        for _ in range(count):
            at_us = rng.draw(window_us)
            road = roads[rng.draw(len(roads))]
            wanted = wanted_pool[rng.draw(len(wanted_pool))]
            drawn.append((at_us, road.id, wanted))
        drawn.sort(key=lambda entry: entry[0])
    else:
        raise ValueError(f"unknown arrival pattern: {pattern!r}")

    width = max(3, len(str(count - 1)))
    return [
        Arrival(at_us, road_id, f"v{i:0{width}d}", wanted)
        for i, (at_us, road_id, wanted) in enumerate(drawn)
    ]


def advance_kinematics(
    pos_m: float,
    speed_mps: float,
    leader: tuple[float, float] | None,
    dt_s: float,
    p: KinematicParams,
) -> tuple[float, float]:
    """One car-following step; returns (new position, new speed).

    Accelerate toward the cap unless the projected gap to the leader falls
    below min_gap plus the relative braking distance (follower kinetic
    energy in excess of the leader's, absorbed at decel); then brake. A
    final no-pass clamp guarantees the minimum gap outright, whatever the
    discretization did.
    """
    v_cand = min(speed_mps + p.accel_mps2 * dt_s, p.max_speed_mps)
    pos_cand = pos_m + 0.5 * (speed_mps + v_cand) * dt_s
    if leader is None:
        return pos_cand, v_cand

    leader_pos, leader_speed = leader
    gap_after = leader_pos - pos_cand
    surplus = max(0.0, v_cand * v_cand - leader_speed * leader_speed)
    if gap_after >= p.min_gap_m + surplus / (2.0 * p.decel_mps2):
        return pos_cand, v_cand

    v_brake = max(speed_mps - p.decel_mps2 * dt_s, 0.0)
    pos_brake = pos_m + 0.5 * (speed_mps + v_brake) * dt_s
    limit = leader_pos - p.min_gap_m
    if pos_brake > limit:
        # terminal safety net: hold station rather than close below min_gap
        pos_brake = max(limit, pos_m)
        v_brake = min(max(2.0 * (pos_brake - pos_m) / dt_s - speed_mps, 0.0), v_brake)
    return pos_brake, v_brake


class MobilityWorld:
    """All vehicles on all roads, advanced tick by tick.

    Vehicles must be registered before they can be queried; registration is
    separate from spawning so position_at can distinguish "not yet entered"
    from "no such vehicle".
    """

    def __init__(self, roads: list[RoadSegment], params: KinematicParams) -> None:
        if not roads:
            raise EmptyRoadList("world needs at least one road")
        self.roads = {road.id: road for road in roads}
        if len(self.roads) != len(roads):
            raise ValueError("duplicate road ids")
        self.params = params
        self._states: dict[str, VehicleState] = {}
        self._registered: dict[str, str] = {}  # vehicle id -> road id
        self._order: dict[str, list[str]] = {road.id: [] for road in roads}
        self.spawned_total = 0
        self.exited_total = 0

    def register(self, vehicle_id: str, road_id: str) -> None:
        if road_id not in self.roads:
            raise KeyError(f"unknown road: {road_id}")
        self._registered[vehicle_id] = road_id

    def can_spawn(self, road_id: str) -> bool:
        """True when the entry point is at least min_gap behind the rear car."""
        order = self._order[road_id]
        if not order:
            return True
        rear = self._states[order[-1]]
        return rear.pos_m >= self.params.min_gap_m

    def spawn(self, vehicle_id: str, road_id: str, speed_mps: float, now_us: int) -> None:
        if vehicle_id in self._states:
            raise ValueError(f"vehicle already spawned: {vehicle_id}")
        if not self.can_spawn(road_id):
            raise ValueError(f"entry of road {road_id} is blocked")
        self._registered.setdefault(vehicle_id, road_id)
        self._states[vehicle_id] = VehicleState(
            id=vehicle_id,
            road_id=road_id,
            pos_m=0.0,
            speed_mps=speed_mps,
            entered_at_us=now_us,
        )
        self._order[road_id].append(vehicle_id)
        self.spawned_total += 1

    def tick(self, dt_s: float, now_us: int) -> list[str]:
        """Advance every active vehicle front to back; returns exit ids."""
        exited: list[str] = []
        for road_id, order in self._order.items():
            road = self.roads[road_id]
            leader: tuple[float, float] | None = None
            survivors: list[str] = []
            for vid in order:
                state = self._states[vid]
                pos, speed = advance_kinematics(
                    state.pos_m, state.speed_mps, leader, dt_s, self.params
                )
                state.pos_m = pos
                state.speed_mps = speed
                if pos >= road.length_m:
                    state.exited_at_us = now_us
                    self.exited_total += 1
                    exited.append(vid)
                    # an exited leader no longer constrains anyone on the road
                else:
                    survivors.append(vid)
                    leader = (pos, speed)
            self._order[road_id] = survivors
        return exited

    def is_active(self, vehicle_id: str) -> bool:
        state = self._states.get(vehicle_id)
        return state is not None and state.exited_at_us is None

    def fix(self, vehicle_id: str) -> VehicleFix:
        state = self._states.get(vehicle_id)
        if state is None:
            if vehicle_id in self._registered:
                return VehicleFix(status=NOT_YET_ENTERED)
            raise UnknownVehicle(vehicle_id)
        road = self.roads[state.road_id]
        status = EXITED if state.exited_at_us is not None else ACTIVE
        pos = min(state.pos_m, road.length_m) if status == EXITED else state.pos_m
        return VehicleFix(
            status=status,
            road_id=state.road_id,
            pos_m=pos,
            speed_mps=state.speed_mps,
            world_xy=road.world_position(pos),
        )

    def active_on_road(self, road_id: str) -> list[str]:
        """Vehicle ids front to back."""
        return list(self._order[road_id])

    def state_of(self, vehicle_id: str) -> VehicleState:
        try:
            return self._states[vehicle_id]
        except KeyError:
            raise UnknownVehicle(vehicle_id) from None
