"""Single-lane road segments, car-following kinematics, and arrival patterns.

Roads are 1-D with a world-frame origin and unit direction so coverage
geometry can live in 2-D. Vehicles never overtake; each follows its leader
under acceleration/deceleration limits with a hard minimum-gap floor, so
each road's vehicles, front to back, are also in spawn order and in
non-increasing position order.

Every vehicle's whole path is fixed at its spawn, as a track: its position
and speed at each age (ticks since spawn) up to its exit. This is exact.
The world steps each road front to back, and a step reads only the
vehicle's own state and its leader's state after the leader's step in that
tick; from the leader's exit tick on there is no leader. The leader is the
rear vehicle at spawn, for no vehicle overtakes and only front ones exit.
So a path depends only on the spawn state and the leader's path, which is
fixed already, and the same floating-point operations run ahead of time
give the same bits. Nothing moves a vehicle later (place, for tests,
rebuilds tracks), so the path holds until the exit: the first tick at which
the vehicle has no leader and its position reaches the road's length.

Most vehicles never brake and share a track: for each entry speed the world
builds, once, the free-flow track that the free step gives from (0, entry
speed) up to the longest road, through a process-wide cache. A spawning
vehicle rides it when every vehicle on its road does and the lag test shows
it never brakes behind the rear one (Track.clears). Any other vehicle gets
an own track behind its leader's (MobilityWorld._follow). Equal own paths
are one track, found in a memo on the leader's track while a vehicle rides
it (MobilityWorld._own_track), so each distinct path is built once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, sub
from typing import NamedTuple
from weakref import WeakValueDictionary

from .simcore import US_PER_SECOND, RandomSource


class UnknownVehicle(KeyError):
    """A vehicle id the world has never spawned."""


ACTIVE = "active"
EXITED = "exited"

URBAN_RANDOM = "urban-random"
HIGHWAY_UNIFORM = "highway-uniform"

# A path longer than this many ticks (a tiny tick on a long road) is refused
# (PathTooLong) rather than stored: 2**18 ticks of two floats take about 17 MB.
MAX_TRACK_TICKS = 1 << 18


@dataclass(frozen=True)
class RoadSegment:
    """A straight single-lane road: entry at position 0, exit at length."""

    id: str
    length_m: float
    origin: tuple[float, float] = (0.0, 0.0)
    direction: tuple[float, float] = (1.0, 0.0)

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


@dataclass(slots=True)
class VehicleState:
    """One vehicle. On its road it is at track.pos/speed[ticks since
    spawn_tick] and leaves at exit_tick; at its exit it drops the track,
    and pos_m and speed_mps keep where it left."""

    id: str
    road_id: str
    spawn_tick: int  # the world's tick count at spawn
    track: Track | None = None
    exit_tick: int = 0
    pos_m: float = 0.0
    speed_mps: float = 0.0


@dataclass(frozen=True)
class VehicleFix:
    """A vehicle's situation as of the most recent kinematics tick."""

    status: str
    road_id: str | None = None
    pos_m: float | None = None
    speed_mps: float | None = None
    world_xy: tuple[float, float] | None = None


class Arrival(NamedTuple):
    at_us: int
    road_id: str
    vehicle_id: str
    wanted: str


def generate_arrivals(
    pattern: str,
    count: int,
    window_s: float,
    roads: list[RoadSegment],
    wanted_pool: list[str],
    rng: RandomSource,
) -> list[Arrival]:
    """Draw the full arrival schedule up front, sorted by entry time.

    Highway traffic is strictly periodic (one vehicle per second on the
    single road) and draws each vehicle's wanted item; urban traffic draws,
    vehicle by vehicle, an entry time uniform over the window, a road and a
    wanted item. All randomness happens here, in that order, so a seed pins
    the whole schedule before the event loop starts, and the draws are part
    of the output contract (tests/golden/arrivals.json records schedules of
    both patterns). Vehicle ids are v000, v001, ... in entry order, padded
    to the width of the largest. The arguments are those of a validated
    config (scenarios.validate_config): count, roads, pool and window hold at
    least one each, the window in whole microseconds.
    """
    # instances by tuple.__new__, which skips the NamedTuple's Python-level
    # __new__, and the rest by C-level iteration where it can be
    width = max(3, len(str(count - 1)))
    ids = ["v" + str(i).zfill(width) for i in range(count)]
    if pattern == HIGHWAY_UNIFORM:
        times = range(0, count * US_PER_SECOND, US_PER_SECOND)
        road_ids = repeat(roads[0].id, count)
        wanted = map(wanted_pool.__getitem__, rng.draws(len(wanted_pool), count))
    else:
        window_us = int(round(window_s * US_PER_SECOND))
        draw = rng.draw
        drawn = [
            (draw(window_us), roads[draw(len(roads))].id, wanted_pool[draw(len(wanted_pool))])
            for _ in range(count)
        ]
        drawn.sort(key=itemgetter(0))
        times, road_ids, wanted = zip(*drawn)
    return list(map(tuple.__new__, repeat(Arrival), zip(times, road_ids, ids, wanted)))


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

    This is the one implementation of the model: free_track and
    MobilityWorld._follow build every track with it.
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


class Track:
    """Where a vehicle is, age ticks after its spawn: pos[age], speed[age].

    A free-flow track (free_track) runs until its position reaches the
    world's longest road; an own track (MobilityWorld._follow) ends at the
    exit of the vehicles that ride it. Either is shared by every vehicle
    whose path it is. From a non-negative entry speed no speed falls below
    zero, so no position falls.
    """

    __slots__ = ("pos", "speed", "_clear", "_open_age", "_behind", "__weakref__")

    def __init__(self, pos: list[float], speed: list[float]) -> None:
        self.pos = pos
        self.speed = speed
        # the answers are kept, keyed by every input they read, because one
        # track serves every world whose inputs build it (free_track)
        self._clear: dict[tuple[float, int, float], bool] = {}
        self._open_age: dict[float, int] = {}
        # (lag in ticks, entry speed as float.hex(), road length) -> the own
        # track of a vehicle spawned that far behind one riding this track
        # (MobilityWorld._own_track), held weakly: it goes with its last rider
        self._behind: WeakValueDictionary[tuple[int, str, float], Track] = WeakValueDictionary()

    def exit_age(self, length_m: float) -> int:
        """The age at which a vehicle on this track leaves a road this long:
        the first whose position reaches it. A vehicle never reaches the
        road's end behind its leader, so this holds for own tracks too."""
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
        both on this free-flow track, keep min_gap_m to it on every tick?

        This is the step's own braking test. At its age a >= 1 the follower
        is at pos[a] and its leader at pos[a + lag], up to the leader's exit
        at the exit age. Speed along a free-flow track never falls from age
        1 on, so the follower's speed surplus over the leader is never
        positive and the gap the step needs is min_gap_m itself.
        """
        key = (length_m, lag, min_gap_m)
        clear = self._clear.get(key)
        if clear is None:
            pos = self.pos
            end = self.exit_age(length_m)
            gaps = map(sub, pos[lag + 1:end], pos[1:end - lag])
            clear = self._clear[key] = min(gaps, default=math.inf) >= min_gap_m
        return clear


class PathTooLong(ValueError):
    """A vehicle would stay on its road for more than MAX_TRACK_TICKS ticks."""


@lru_cache(maxsize=16)
def free_track(
    speed_hex: str, tick_s: float, params: KinematicParams, longest_m: float, max_ticks: int
) -> Track | None:
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
            return Track(positions, speeds)
    return None


class MobilityWorld:
    """All vehicles on all roads, advanced one fixed tick of tick_s at a time."""

    def __init__(
        self, roads: list[RoadSegment], params: KinematicParams, tick_s: float
    ) -> None:
        self.roads = {road.id: road for road in roads}
        self.params = params
        self.tick_s = tick_s
        self._states: dict[str, VehicleState] = {}
        # road id -> its active vehicles, front to back
        self._lanes: dict[str, list[VehicleState]] = {road.id: [] for road in roads}
        self._longest_m = max(road.length_m for road in roads)
        # entry speed as float.hex() -> its track, or None when it has none;
        # hex keys keep -0.0 apart from 0.0 (their speeds at age 0 differ in
        # sign) and give every NaN one key
        self._tracks: dict[str, Track | None] = {}
        # (entry speed as float.hex(), positions, speeds) -> the own track
        # _own_track built with them, while a vehicle rides it; made at the
        # first build, for most runs build none
        self._interned: WeakValueDictionary[tuple, Track] | None = None
        self._ticks = 0
        self.spawned_total = 0
        self.exited_total = 0

    def can_spawn(self, road_id: str) -> bool:
        """True when the entry point is at least min_gap behind the rear car."""
        order = self._lanes[road_id]
        return not order or self._pos(order[-1]) >= self.params.min_gap_m

    def spawn(self, vehicle_id: str, road_id: str, speed_mps: float) -> None:
        """Put a vehicle at the road's entry and fix its whole path.

        It rides the entry speed's free-flow track when every vehicle on
        the road rides that track (the rear does only then) and the lag test
        clears it behind the rear one; otherwise it gets its own track
        behind the rear one, its leader.
        """
        if vehicle_id in self._states:
            raise ValueError(f"vehicle already spawned: {vehicle_id}")
        if not self.can_spawn(road_id):
            raise ValueError(f"entry of road {road_id} is blocked")
        order = self._lanes[road_id]
        leader = order[-1] if order else None
        ticks = self._ticks
        state = VehicleState(vehicle_id, road_id, ticks)
        track = self._track(speed_mps)
        length = self.roads[road_id].length_m
        if track is not None and (
            leader is None
            or leader.track is track
            and track.clears(length, ticks - leader.spawn_tick, self.params.min_gap_m)
        ):
            state.track = track
            state.exit_tick = ticks + track.exit_age(length)
        elif leader is None:
            self._follow(state, [0.0], [speed_mps], None)
        else:
            self._own_track(state, speed_mps, leader)
        self._states[vehicle_id] = state
        order.append(state)
        self.spawned_total += 1

    def _track(self, speed_mps: float) -> Track | None:
        """The entry speed's free-flow track (free_track), fetched on first
        use and kept, so that the world's vehicles share one track object
        whatever the process-wide cache evicts meanwhile."""
        key = float(speed_mps).hex()
        if key not in self._tracks:
            self._tracks[key] = free_track(
                key, self.tick_s, self.params, self._longest_m, MAX_TRACK_TICKS
            )
        return self._tracks[key]

    def _own_track(self, state: VehicleState, speed_mps: float, leader: VehicleState) -> None:
        """Give state, spawning behind leader, its own track: the one the
        memo on the leader's track keeps for the same lag, entry speed and
        road length while a vehicle rides it, else a new one (_follow),
        interned by content so that equal paths are one track.

        Those and the leader's track are every input of _follow that the
        world does not fix. Every memo hangs off a free-flow track, which
        only worlds with the same tick, kinematics and MAX_TRACK_TICKS share
        (free_track), or off a track of one world, so a track found here is
        the one _follow would build.
        """
        speed_hex = float(speed_mps).hex()
        length = self.roads[state.road_id].length_m
        key = (state.spawn_tick - leader.spawn_tick, speed_hex, length)
        memo = leader.track._behind
        track = memo.get(key)
        if track is None:
            self._follow(state, [0.0], [speed_mps], leader)
            # the entry speed's hex keeps -0.0 apart from 0.0, which compare equal
            content = (speed_hex, tuple(state.track.pos), tuple(state.track.speed))
            if self._interned is None:
                self._interned = WeakValueDictionary()
            track = memo[key] = self._interned.setdefault(content, state.track)
        state.track = track
        state.exit_tick = state.spawn_tick + len(track.pos) - 1  # an own track ends at its exit

    def _follow(
        self, state: VehicleState, pos: list[float], speed: list[float], leader: VehicleState | None
    ) -> None:
        """Give state its own track: pos and speed, its path up to its
        latest age, continued tick by tick behind leader up to its exit.

        Each step is advance_kinematics. The leader, at its age on its
        track, constrains every tick before its exit tick, and the vehicle
        cannot exit then; from then on it takes the free step and exits at
        the first tick at which its position reaches the road's length.
        """
        p = self.params
        dt_s = self.tick_s
        length = self.roads[state.road_id].length_m
        max_ticks = MAX_TRACK_TICKS
        latest = state.spawn_tick + len(pos) - 1  # the tick of the latest age
        stop = state.spawn_tick + max_ticks + 1  # no age past max_ticks
        pos_m = pos[-1]
        speed_mps = speed[-1]
        free_from = latest + 1  # the first tick with no leader
        if leader is not None:
            free_from = min(max(leader.exit_tick, free_from), stop)
            first = latest + 1 - leader.spawn_tick
            last = free_from - leader.spawn_tick
            ahead = leader.track
            for ahead_at in zip(ahead.pos[first:last], ahead.speed[first:last]):
                pos_m, speed_mps = advance_kinematics(pos_m, speed_mps, ahead_at, dt_s, p)
                pos.append(pos_m)
                speed.append(speed_mps)
        for tick in range(free_from, stop):
            pos_m, speed_mps = advance_kinematics(pos_m, speed_mps, None, dt_s, p)
            pos.append(pos_m)
            speed.append(speed_mps)
            if pos_m >= length:
                break
        else:
            raise PathTooLong(
                f"vehicle {state.id} would stay on road {state.road_id} for more "
                f"than {max_ticks} ticks of {dt_s} s"
            )
        state.track = Track(pos, speed)
        state.exit_tick = tick

    def place(self, vehicle_id: str, pos_m: float, speed_mps: float | None = None) -> None:
        """Move an active vehicle to pos_m, and to speed_mps when given, as
        of the latest tick; for tests. It and every vehicle behind it get
        their own tracks, rebuilt front to back from where they are now; the
        paths of the vehicles in front do not depend on it. The engine's
        plans, exits and entry openings, filed at spawn, are not rebuilt."""
        try:
            state = self._states[vehicle_id]
        except KeyError:
            raise UnknownVehicle(vehicle_id) from None
        order = self._lanes[state.road_id]
        at = order.index(state)
        leader = order[at - 1] if at else None
        for other in order[at:]:
            age = self._ticks - other.spawn_tick
            pos = other.track.pos[:age + 1]
            speed = other.track.speed[:age + 1]
            if other is state:
                pos[-1] = pos_m
                if speed_mps is not None:
                    speed[-1] = speed_mps
            self._follow(other, pos, speed, leader)
            leader = other

    def skip(self, ticks: int) -> None:
        """Let ticks ticks pass that take no exit: only every vehicle's age moves."""
        self._ticks += ticks

    def tick(self) -> list[str]:
        """Advance every active vehicle one tick along its track; returns
        exit ids: the front vehicles whose exit tick it is (none exits before
        its leader). An exited vehicle drops its track and keeps where it left."""
        self._ticks += 1
        ticks = self._ticks
        exited: list[str] = []
        for order in self._lanes.values():
            exits = 0
            while exits < len(order) and order[exits].exit_tick == ticks:
                state = order[exits]
                age = ticks - state.spawn_tick
                state.pos_m = state.track.pos[age]
                state.speed_mps = state.track.speed[age]
                state.track = None
                exited.append(state.id)
                exits += 1
            if exits:
                del order[:exits]
                self.exited_total += exits
        return exited

    def _pos(self, state: VehicleState) -> float:
        """An active vehicle's position as of the latest tick."""
        return state.track.pos[self._ticks - state.spawn_tick]

    def riding(self, vehicle_id: str) -> tuple[RoadSegment, Track, int]:
        """(road, track, age) of an active vehicle, at road.world_position(
        track.pos[age]), age being its ticks since spawn as of the latest tick."""
        state = self._states[vehicle_id]
        return self.roads[state.road_id], state.track, self._ticks - state.spawn_tick

    def is_active(self, vehicle_id: str) -> bool:
        state = self._states.get(vehicle_id)
        return state is not None and state.track is not None

    def world_xy(self, vehicle_id: str) -> tuple[float, float]:
        """fix(vehicle_id).world_xy of a spawned vehicle, without the fix; a
        request on a busy channel can end after its sender exited."""
        state = self._states[vehicle_id]
        road = self.roads[state.road_id]
        if state.track is not None:
            return road.world_position(self._pos(state))
        return road.world_position(min(state.pos_m, road.length_m))

    def fix(self, vehicle_id: str) -> VehicleFix:
        state = self._states.get(vehicle_id)
        if state is None:
            raise UnknownVehicle(vehicle_id)
        road = self.roads[state.road_id]
        track = state.track
        if track is None:
            status, pos, speed = EXITED, min(state.pos_m, road.length_m), state.speed_mps
        else:
            age = self._ticks - state.spawn_tick
            status, pos, speed = ACTIVE, track.pos[age], track.speed[age]
        return VehicleFix(
            status=status,
            road_id=state.road_id,
            pos_m=pos,
            speed_mps=speed,
            world_xy=road.world_position(pos),
        )
