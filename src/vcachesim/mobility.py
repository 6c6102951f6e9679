"""Single-lane road segments, car-following kinematics, and arrival patterns.

Roads are 1-D with a world-frame origin and unit direction so coverage
geometry can live in 2-D. Vehicles never overtake; each follows its leader
under acceleration/deceleration limits with a hard minimum-gap floor, so
each road's vehicles, front to back, are also in spawn order and in
non-increasing position order.

Most vehicles never brake, so the world does not step them. For each entry
speed it builds one free-flow track, once: the positions and speeds that the
free step gives tick after tick from (0, entry speed). A vehicle that rides
a track is at track.pos[age] with track.speed[age], age being the ticks since
its spawn, and it exits at the road's exit age, the first age whose position
reaches the road's length. A spawning vehicle rides its track only when
every vehicle on its road rides the same track and the lag test shows it
never brakes behind the rear one (FreeTrack.clears). Each road is therefore
a tracked front prefix, which the tick touches only to take exits, and
stepped vehicles behind it, which run the car-following step. Tracks are
built by a pure function of their inputs and cached process-wide, so a sweep
builds each one once. state_of hands out a state its caller may write, so it
first writes the road's track values into the states and steps that road's
vehicles from then on; it is the only way off a track before the exit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import attrgetter, sub
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

SPAN_SLACK = 1e-6  # widening of RoadSegment.span_within, relative and in metres
# A free path longer than this many ticks (a tiny tick on a long road) is
# stepped rather than stored: 2**18 ticks of two floats take about 17 MB.
MAX_TRACK_TICKS = 1 << 18


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

    def span_within(
        self, center: tuple[float, float], radius_m: float
    ) -> tuple[float, float] | None:
        """Positions whose world point may lie within radius_m of center.

        A superset of the exact answer: the disc is widened by a hair
        (SPAN_SLACK, relative and in metres) so that rounding here never
        drops a point a closed-ball test on world_position accepts. None
        when even the widened disc misses the road's line. Not clipped to
        [0, length].
        """
        ux, uy = self.direction
        dx = center[0] - self.origin[0]
        dy = center[1] - self.origin[1]
        norm2 = ux * ux + uy * uy
        foot = (ux * dx + uy * dy) / norm2  # position nearest the center
        ex = ux * foot - dx
        ey = uy * foot - dy
        reach = radius_m * (1.0 + SPAN_SLACK) + SPAN_SLACK
        slack = reach * reach - (ex * ex + ey * ey)
        if slack < 0.0:
            return None
        half = math.sqrt(slack / norm2)
        return foot - half, foot + half


@dataclass(frozen=True)
class KinematicParams:
    accel_mps2: float = 2.6
    decel_mps2: float = 4.5
    max_speed_mps: float = 14.0
    min_gap_m: float = 2.5

    def __post_init__(self) -> None:
        for field_name in ("accel_mps2", "decel_mps2", "max_speed_mps", "min_gap_m"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field_name} must be finite and positive: {value}")


@dataclass(slots=True)
class VehicleState:
    """One vehicle. While track is set, pos_m and speed_mps are not kept up
    to date: the vehicle is at track.pos/speed[ticks since spawn_tick]."""

    id: str
    road_id: str
    pos_m: float
    speed_mps: float
    entered_at_us: int
    exited_at_us: int | None = None
    spawn_tick: int = 0  # the world's tick count at spawn
    track: FreeTrack | None = None


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

    A Gipps-style safe-speed follower (Gipps 1981): accelerate toward the
    cap unless the projected gap to the leader falls below min_gap plus the
    relative braking distance (follower kinetic energy in excess of the
    leader's, absorbed at decel); then brake. A final no-pass clamp
    guarantees the minimum gap outright, whatever the discretization did.

    This is the reference form of the model. MobilityWorld.tick inlines the
    same floating-point operations in the same order, and a test holds the
    two bit-identical.
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


class FreeTrack:
    """Where a vehicle that never brakes is, age ticks after its spawn.

    pos[age] and speed[age] come from applying the free step of
    advance_kinematics (no leader) age times to (0.0, entry speed); the
    lists run until the position reaches the world's longest road.
    """

    __slots__ = ("pos", "speed", "_clear", "_open_age")

    def __init__(self, pos: list[float], speed: list[float]) -> None:
        self.pos = pos
        self.speed = speed
        # the answers are kept, keyed by every input they read, because one
        # track serves every world whose inputs build it (free_track)
        self._clear: dict[tuple[float, int, float], bool] = {}
        self._open_age: dict[float, int] = {}

    def exit_age(self, length_m: float) -> int:
        """The age at which a vehicle on this track leaves a road this long."""
        return bisect_left(self.pos, length_m)

    def open_age(self, min_gap_m: float) -> int:
        """The first age at which a vehicle on this track is min_gap_m past
        the entry, so that the next vehicle may spawn behind it (can_spawn)."""
        age = self._open_age.get(min_gap_m)
        if age is None:
            age = self._open_age[min_gap_m] = bisect_left(self.pos, min_gap_m)
        return age

    def clears(self, length_m: float, lag: int, min_gap_m: float) -> bool:
        """The lag test: does a vehicle spawned lag ticks after its leader,
        both on this track, keep min_gap_m to it on every tick?

        This is the tick's own braking test. At its age a >= 1 the follower
        is at pos[a] and its leader at pos[a + lag], up to the leader's exit
        at the exit age. Speed along a track never falls from age 1 on, so
        the follower's speed surplus over the leader is never positive and
        the gap the tick needs is min_gap_m itself.
        """
        key = (length_m, lag, min_gap_m)
        clear = self._clear.get(key)
        if clear is None:
            pos = self.pos
            end = self.exit_age(length_m)
            gaps = map(sub, pos[lag + 1:end], pos[1:end - lag])
            clear = self._clear[key] = min(gaps, default=math.inf) >= min_gap_m
        return clear


@lru_cache(maxsize=16)
def free_track(
    speed_hex: str, tick_s: float, params: KinematicParams, longest_m: float, max_ticks: int
) -> FreeTrack | None:
    """The free-flow track from entry speed float.fromhex(speed_hex), cached.

    None for a NaN or negative entry speed (from below zero, speed would
    not keep from falling, which the lag test relies on) and for a path
    that does not reach longest_m within max_ticks. The key holds every
    input the track depends on, so every world built from the same inputs
    shares one track; the cache is bounded, so a long sweep does not grow.
    """
    speed = float.fromhex(speed_hex)
    if not speed >= 0.0:
        return None
    pos = 0.0
    positions, speeds = [pos], [speed]
    for _ in range(max_ticks):
        pos, speed = advance_kinematics(pos, speed, None, tick_s, params)
        positions.append(pos)
        speeds.append(speed)
        if pos >= longest_m:
            return FreeTrack(positions, speeds)
    return None


_SPAWN_TICK = attrgetter("spawn_tick")


class _Lane:
    """One road's active vehicles, front to back; the first `tracked` of
    them ride `track` and leave the road at `exit_age`."""

    __slots__ = ("road", "order", "track", "tracked", "exit_age")

    def __init__(self, road: RoadSegment) -> None:
        self.road = road
        self.order: list[VehicleState] = []
        self.track: FreeTrack | None = None
        self.tracked = 0
        self.exit_age = 0


class MobilityWorld:
    """All vehicles on all roads, advanced one fixed tick of tick_s at a time.

    Vehicles must be registered before they can be queried; registration is
    separate from spawning so position_at can distinguish "not yet entered"
    from "no such vehicle".
    """

    def __init__(
        self, roads: list[RoadSegment], params: KinematicParams, tick_s: float
    ) -> None:
        if not roads:
            raise EmptyRoadList("world needs at least one road")
        self.roads = {road.id: road for road in roads}
        if len(self.roads) != len(roads):
            raise ValueError("duplicate road ids")
        self.params = params
        self.tick_s = tick_s
        self._states: dict[str, VehicleState] = {}
        self._registered: dict[str, str] = {}  # vehicle id -> road id
        self._lanes = {road.id: _Lane(road) for road in roads}
        self._longest_m = max(road.length_m for road in roads)
        # entry speed as float.hex() -> its track, or None when it has none;
        # hex keys keep -0.0 apart from 0.0 (their speeds at age 0 differ in
        # sign) and give every NaN one key
        self._tracks: dict[str, FreeTrack | None] = {}
        self._ticks = 0
        self.spawned_total = 0
        self.exited_total = 0

    def register(self, vehicle_id: str, road_id: str) -> None:
        if road_id not in self.roads:
            raise KeyError(f"unknown road: {road_id}")
        self._registered[vehicle_id] = road_id

    def can_spawn(self, road_id: str) -> bool:
        """True when the entry point is at least min_gap behind the rear car."""
        order = self._lanes[road_id].order
        return not order or self._pos(order[-1]) >= self.params.min_gap_m

    def spawn(self, vehicle_id: str, road_id: str, speed_mps: float, now_us: int) -> None:
        if vehicle_id in self._states:
            raise ValueError(f"vehicle already spawned: {vehicle_id}")
        if not self.can_spawn(road_id):
            raise ValueError(f"entry of road {road_id} is blocked")
        self._registered.setdefault(vehicle_id, road_id)
        state = VehicleState(
            id=vehicle_id,
            road_id=road_id,
            pos_m=0.0,
            speed_mps=speed_mps,
            entered_at_us=now_us,
            spawn_tick=self._ticks,
        )
        lane = self._lanes[road_id]
        if lane.tracked == len(lane.order):  # no stepped vehicle on the road
            self._join_track(lane, state)
        self._states[vehicle_id] = state
        lane.order.append(state)
        self.spawned_total += 1

    def _join_track(self, lane: _Lane, state: VehicleState) -> None:
        track = self._track(state.speed_mps)
        if track is None:
            return
        length = lane.road.length_m
        if lane.order:
            if lane.track is not track:
                return
            lag = state.spawn_tick - lane.order[-1].spawn_tick
            if not track.clears(length, lag, self.params.min_gap_m):
                return
        else:
            lane.track = track
            lane.exit_age = track.exit_age(length)
        state.track = track
        lane.tracked += 1

    def _track(self, speed_mps: float) -> FreeTrack | None:
        """The entry speed's track (free_track), fetched on first use and
        kept, so that the world's vehicles share one track object whatever
        the process-wide cache evicts meanwhile."""
        key = float(speed_mps).hex()
        if key not in self._tracks:
            self._tracks[key] = free_track(
                key, self.tick_s, self.params, self._longest_m, MAX_TRACK_TICKS
            )
        return self._tracks[key]

    def quiet_ticks(self) -> int | None:
        """How many ticks from now until the first that changes more than the
        tick count: one that steps a vehicle (every tick does while a road
        has a stepped vehicle) or takes a tracked exit. None when no vehicle
        is on any road."""
        ticks = self._ticks
        quiet = None
        for lane in self._lanes.values():
            order = lane.order
            if not order:
                continue
            if lane.tracked < len(order):
                return 1
            n = order[0].spawn_tick + lane.exit_age - ticks
            if quiet is None or n < quiet:
                quiet = n
        return quiet

    def ticks_to_open(self, road_id: str) -> int:
        """How many ticks from now until can_spawn(road_id) holds behind a
        tracked rear vehicle (0 if it holds already). An empty road gives 0,
        and a stepped rear vehicle 1: it may get there at the next tick."""
        order = self._lanes[road_id].order
        if not order:
            return 0
        rear = order[-1]
        if rear.track is None:
            return 1
        return max(0, rear.spawn_tick + rear.track.open_age(self.params.min_gap_m) - self._ticks)

    def skip(self, ticks: int) -> None:
        """Let ticks ticks pass that step no vehicle and take no exit; only
        the tick count, and with it every tracked vehicle's age, moves."""
        self._ticks += ticks

    def tick(self, now_us: int) -> list[str]:
        """Advance every active vehicle one tick; returns exit ids.

        On each road, the tracked front prefix is not stepped: its vehicles
        move along their track by aging one tick, and the front ones whose
        age reaches the road's exit age exit. The stepped vehicles behind
        the prefix then run the car-following step, the first of them
        following the last tracked vehicle at its new age. Only a prefix of
        a road can exit: a vehicle behind one that stays on the road stays
        strictly behind it.
        """
        self._ticks += 1
        ticks = self._ticks
        exited: list[str] = []
        for lane in self._lanes.values():
            order = lane.order
            if not order:
                continue
            exits = 0
            tracked = lane.tracked
            leader = None
            if tracked:
                track = lane.track
                exit_age = lane.exit_age
                while exits < tracked and ticks - order[exits].spawn_tick == exit_age:
                    state = order[exits]
                    state.pos_m = track.pos[exit_age]
                    state.speed_mps = track.speed[exit_age]
                    state.track = None
                    state.exited_at_us = now_us
                    exited.append(state.id)
                    exits += 1
                tracked -= exits
                lane.tracked = tracked
                if tracked:
                    age = ticks - order[exits + tracked - 1].spawn_tick
                    leader = (track.pos[age], track.speed[age])
            if exits + tracked < len(order):
                exits += self._step(
                    order, exits + tracked, leader, lane.road.length_m, now_us, exited
                )
            if exits:
                del order[:exits]
                self.exited_total += exits
        return exited

    def _step(
        self,
        order: list[VehicleState],
        start: int,
        leader: tuple[float, float] | None,
        length: float,
        now_us: int,
        exited: list[str],
    ) -> int:
        """Step order[start:] front to back behind leader; returns its exits.

        Each step is advance_kinematics inlined: the same floating-point
        operations in the same order, with the loop invariants hoisted. A
        vehicle already at the cap takes the folded cruise step, which is
        the free step's own arithmetic with speed == v_cand == max_speed.
        """
        p = self.params
        dt_s = self.tick_s
        accel_dt = p.accel_mps2 * dt_s
        decel_dt = p.decel_mps2 * dt_s
        max_speed = p.max_speed_mps
        cruise_step = 0.5 * (max_speed + max_speed) * dt_s
        min_gap = p.min_gap_m
        two_decel = 2.0 * p.decel_mps2
        leader_pos, leader_speed = leader if leader is not None else (None, 0.0)
        exits = 0
        for state in islice(order, start, None):
            pos_m = state.pos_m
            speed = state.speed_mps
            if speed == max_speed:
                new_speed = max_speed
                new_pos = pos_m + cruise_step
            else:
                new_speed = speed + accel_dt
                if new_speed > max_speed:
                    new_speed = max_speed
                new_pos = pos_m + 0.5 * (speed + new_speed) * dt_s
            if leader_pos is not None:
                surplus = new_speed * new_speed - leader_speed * leader_speed
                need = min_gap + surplus / two_decel if surplus > 0.0 else min_gap
                if not leader_pos - new_pos >= need:
                    new_speed = speed - decel_dt
                    if new_speed < 0.0:
                        new_speed = 0.0
                    new_pos = pos_m + 0.5 * (speed + new_speed) * dt_s
                    limit = leader_pos - min_gap
                    if new_pos > limit:
                        new_pos = max(limit, pos_m)
                        new_speed = min(
                            max(2.0 * (new_pos - pos_m) / dt_s - speed, 0.0), new_speed
                        )
            state.pos_m = new_pos
            state.speed_mps = new_speed
            if leader_pos is None and new_pos >= length:
                state.exited_at_us = now_us
                exits += 1
                exited.append(state.id)
                # an exited leader no longer constrains anyone on the road
            else:
                leader_pos = new_pos
                leader_speed = new_speed
        return exits

    def _pos(self, state: VehicleState) -> float:
        """A vehicle's position as of the latest tick, tracked or stepped."""
        track = state.track
        if track is None:
            return state.pos_m
        return track.pos[self._ticks - state.spawn_tick]

    def riding(self, vehicle_id: str) -> tuple[RoadSegment, FreeTrack, int] | None:
        """(road, track, age) of a spawned vehicle that rides its track: it
        is at road.world_position(track.pos[age]), age being its ticks since
        spawn as of the latest tick. None for a stepped or exited vehicle."""
        state = self._states[vehicle_id]
        track = state.track
        if track is None:
            return None
        return self.roads[state.road_id], track, self._ticks - state.spawn_tick

    def is_active(self, vehicle_id: str) -> bool:
        state = self._states.get(vehicle_id)
        return state is not None and state.exited_at_us is None

    def world_xy(self, vehicle_id: str) -> tuple[float, float]:
        """fix(vehicle_id).world_xy of a spawned vehicle, without the fix."""
        state = self._states[vehicle_id]
        road = self.roads[state.road_id]
        if state.exited_at_us is None:
            return road.world_position(self._pos(state))
        return road.world_position(min(state.pos_m, road.length_m))

    def in_span(self, road_id: str, lo_m: float, hi_m: float) -> list[str]:
        """Ids of the active vehicles with lo_m <= pos <= hi_m, front to back.

        One bisected slice of the road's front-to-back order. When every
        vehicle on the road rides its track, a vehicle spawn_tick ticks old
        is at track.pos[ticks - spawn_tick], and positions along a track
        never fall, so the span is a range of ages, and so of spawn ticks,
        which rise front to back.
        """
        lane = self._lanes[road_id]
        order = lane.order
        if order and lane.tracked == len(order):
            track_pos = lane.track.pos
            ticks = self._ticks
            # ages bisect_left(track_pos, lo_m) .. bisect_right(track_pos, hi_m) - 1
            start = bisect_right(order, ticks - bisect_right(track_pos, hi_m), key=_SPAWN_TICK)
            stop = bisect_right(
                order, ticks - bisect_left(track_pos, lo_m), lo=start, key=_SPAWN_TICK
            )
            return [state.id for state in order[start:stop]]
        pos = self._pos

        def behind(state: VehicleState) -> float:  # ascending along the order
            return -pos(state)

        start = bisect_left(order, -hi_m, key=behind)
        stop = bisect_right(order, -lo_m, lo=start, key=behind)
        return [state.id for state in order[start:stop]]

    def fix(self, vehicle_id: str) -> VehicleFix:
        state = self._states.get(vehicle_id)
        if state is None:
            if vehicle_id in self._registered:
                return VehicleFix(status=NOT_YET_ENTERED)
            raise UnknownVehicle(vehicle_id)
        road = self.roads[state.road_id]
        if state.exited_at_us is not None:
            status = EXITED
            pos = min(state.pos_m, road.length_m)
        else:
            status = ACTIVE
            pos = self._pos(state)
        speed = state.speed_mps
        if state.track is not None:
            speed = state.track.speed[self._ticks - state.spawn_tick]
        return VehicleFix(
            status=status,
            road_id=state.road_id,
            pos_m=pos,
            speed_mps=speed,
            world_xy=road.world_position(pos),
        )

    def state_of(self, vehicle_id: str) -> VehicleState:
        """The vehicle's state, which the caller may write.

        A tracked vehicle's state is not kept up to date, and writing it
        would not move the vehicle, so the vehicle's road first leaves its
        track: each tracked vehicle there gets its track values written into
        its state and is stepped from then on. This is the only way off a
        track before the exit, and the engine never calls it: the engine
        plans a tracked vehicle's attempts and beacons from its track
        (riding), and a state written mid-run would not move those plans.
        """
        try:
            state = self._states[vehicle_id]
        except KeyError:
            raise UnknownVehicle(vehicle_id) from None
        if state.track is not None:
            lane = self._lanes[state.road_id]
            for tracked in islice(lane.order, lane.tracked):
                age = self._ticks - tracked.spawn_tick
                tracked.pos_m = tracked.track.pos[age]
                tracked.speed_mps = tracked.track.speed[age]
                tracked.track = None
            lane.tracked = 0
        return state
