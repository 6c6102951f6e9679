"""Roads, car-following kinematics, arrival schedules, and the world."""

import dataclasses
import math
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import lane as active_lane, spawn
from vcachesim import mobility
from vcachesim.mobility import (
    ACTIVE,
    EXITED,
    HIGHWAY_UNIFORM,
    Arrival,
    KinematicParams,
    MobilityWorld,
    RoadSegment,
    Traffic,
    URBAN_RANDOM,
    UnknownVehicle,
    MAX_TRACK_TICKS,
    PathTooLong,
    advance_kinematics,
    free_track,
    generate_arrivals,
)
from vcachesim.scenarios import ValidationError, urban_single, validate_config
from vcachesim.simcore import RandomSource, US_PER_SECOND

P = KinematicParams()
POOL = [f"/traffic/{i}" for i in range(1, 11)]


def straight_road(length=1000.0):
    return RoadSegment(id="r", length_m=length)


def lane(world, road_id):
    """Ids of the road's active vehicles, front to back."""
    return [state.id for state in active_lane(world, road_id)]


def step(world):
    """Count one more tick and take its exits, road by road and front to
    back, as a run takes admitted traffic; returns their ids. For worlds
    whose vehicles tests spawned and placed by hand."""
    world.now += 1
    exits = [
        state
        for road_id in world.roads
        for state in active_lane(world, road_id)
        if state.exit_tick == world.now
    ]
    world.tick(Traffic(world.now, exits, []))
    return [state.id for state in exits]


def arrivals_at(*entries):
    """Arrivals v0, v1, ... at (tick, road id) each, on a grid of 1 us a tick."""
    return [
        Arrival(tick, road_id, f"v{i}", POOL[0]) for i, (tick, road_id) in enumerate(entries)
    ]


def taking(world, traffic, ticks):
    """Count ticks 0 to ticks, taking the admitted traffic of each; yields
    (tick, exit ids, spawn ids) after each."""
    by_tick = {step.tick: step for step in traffic}
    for tick in range(ticks + 1):
        world.now = tick
        taken = by_tick.pop(tick, Traffic(tick, [], []))
        world.tick(taken)
        yield tick, [state.id for state in taken.exits], [state.id for state, _ in taken.spawns]
    assert not by_tick, "traffic past the last tick"


# -- geometry ------------------------------------------------------------------


def test_world_position_follows_direction():
    road = RoadSegment(id="b", length_m=800.0, origin=(800.0, 200.0), direction=(-1.0, 0.0))
    assert road.world_position(0.0) == (800.0, 200.0)
    assert road.world_position(300.0) == (500.0, 200.0)


# the rules of roads and kinematics are validate_config's, like every config rule


def validate_with(**changes):
    validate_config(dataclasses.replace(urban_single(count=5), **changes))


def test_direction_must_be_unit():
    with pytest.raises(ValidationError, match="direction must be a unit vector"):
        validate_with(roads=[RoadSegment(id="x", length_m=10.0, direction=(1.0, 1.0))])
    diag = 1.0 / math.sqrt(2.0)
    validate_with(roads=[RoadSegment(id="ok", length_m=10.0, direction=(diag, diag))])


def test_road_length_positive():
    with pytest.raises(ValidationError, match="road length must be positive"):
        validate_with(roads=[RoadSegment(id="x", length_m=0.0)])


def test_kinematic_params_positive():
    with pytest.raises(ValidationError, match="accel_mps2"):
        validate_with(kinematics=KinematicParams(accel_mps2=0.0))
    with pytest.raises(ValidationError, match="min_gap_m"):
        validate_with(kinematics=KinematicParams(min_gap_m=-1.0))


@pytest.mark.parametrize("name", ["accel_mps2", "decel_mps2", "max_speed_mps", "min_gap_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_kinematic_params_finite(name, value):
    # NaN passes a "<= 0" test, and a NaN accel ran to the end with NaN positions
    with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
        validate_with(kinematics=KinematicParams(**{name: value}))


# -- single-step kinematics ------------------------------------------------------


def test_free_acceleration_trapezoid_one_second():
    pos, speed = advance_kinematics(0.0, 0.0, None, 1.0, P)
    assert speed == pytest.approx(2.6)
    assert pos == pytest.approx(1.3)  # 0.5 * (0 + 2.6) * 1


def test_free_acceleration_trapezoid_two_seconds():
    pos, speed = advance_kinematics(0.0, 0.0, None, 1.0, P)
    pos, speed = advance_kinematics(pos, speed, None, 1.0, P)
    assert speed == pytest.approx(5.2)
    assert pos == pytest.approx(5.2)  # 1.3 + 0.5 * (2.6 + 5.2)


def test_speed_caps_at_maximum():
    pos, speed = advance_kinematics(0.0, 13.5, None, 1.0, P)
    assert speed == 14.0
    pos, speed = advance_kinematics(pos, speed, None, 1.0, P)
    assert speed == 14.0


def test_stops_before_stopped_leader_with_braking_distance():
    """From 14 m/s the braking distance is 14^2 / (2 * 4.5) = 21.8 m."""
    leader = (100.0, 0.0)
    pos, speed = 0.0, 14.0
    for _ in range(400):
        pos, speed = advance_kinematics(pos, speed, leader, 0.1, P)
    assert speed == pytest.approx(0.0, abs=1e-9)
    assert pos <= 100.0 - P.min_gap_m + 1e-9
    # the approach uses most of the available road: it does not stop early
    assert pos >= 100.0 - P.min_gap_m - (14.0**2) / (2 * P.decel_mps2)


def test_follower_matches_moving_leader_without_collision():
    leader_pos, leader_speed = 20.0, 5.0
    pos, speed = 0.0, 14.0
    for _ in range(300):
        leader_pos += leader_speed * 0.1
        pos, speed = advance_kinematics(pos, speed, (leader_pos, leader_speed), 0.1, P)
        assert pos <= leader_pos - P.min_gap_m + 1e-9
    assert speed == pytest.approx(leader_speed, abs=0.5)


@given(
    gap=st.floats(min_value=2.5, max_value=200.0),
    speed=st.floats(min_value=0.0, max_value=14.0),
    leader_speed=st.floats(min_value=0.0, max_value=14.0),
)
def test_single_step_never_closes_below_min_gap(gap, speed, leader_speed):
    leader_pos = 500.0
    pos, new_speed = advance_kinematics(leader_pos - gap, speed, (leader_pos, leader_speed), 0.1, P)
    assert pos <= leader_pos - P.min_gap_m + 1e-9
    assert 0.0 <= new_speed <= P.max_speed_mps


@given(
    speed=st.floats(min_value=0.0, max_value=14.0),
    dt=st.floats(min_value=0.01, max_value=1.0),
)
def test_free_step_speed_bounds(speed, dt):
    pos, new_speed = advance_kinematics(0.0, speed, None, dt, P)
    assert speed <= new_speed <= P.max_speed_mps
    assert pos >= 0.0


# exact in binary: every step below is computed without rounding
BRAKING = KinematicParams(accel_mps2=2.0, decel_mps2=4.0, max_speed_mps=14.0, min_gap_m=2.0)


@pytest.mark.parametrize(
    "follower, leader, expected",
    [
        # free step (5.25, 11.0) leaves 14.75 m, below 2 + (11^2 - 0) / 8 =
        # 17.125: brake to 10 - 4 * 0.5 = 8 m/s, covering 0.5 * (10 + 8) * 0.5
        ((0.0, 10.0), (20.0, 0.0), (4.5, 8.0)),
        # the brake floor: 1 - 2 is clamped at 0, covering 0.5 * (1 + 0) * 0.5
        ((0.0, 1.0), (2.5, 0.0), (0.25, 0.0)),
        # braking to 4.5 m passes 5 - 2 = 3 m: stop there, at the speed whose
        # trapezoid covers 3 m, 2 * 3 / 0.5 - 10 = 2 m/s
        ((0.0, 10.0), (5.0, 0.0), (3.0, 2.0)),
        # already 1 m behind, closer than the gap: hold station at 10 m, the
        # speed 2 * 0 / 0.5 - 4 clamped at 0
        ((10.0, 4.0), (11.0, 0.0), (10.0, 0.0)),
    ],
)
def test_braking_step_by_hand(follower, leader, expected):
    assert hexes(*advance_kinematics(*follower, leader, 0.5, BRAKING)) == hexes(*expected)
    assert advance_kinematics(*follower, None, 0.5, BRAKING) != expected  # it braked


# -- the world's tracks against the reference step ---------------------------------


def reference_tick(vehicles, length, dt, params, final=None):
    """Step advance_kinematics front to back; drops and returns exited ids.

    final, when given, receives each exited vehicle's last (pos, speed).
    """
    leader = None
    exited = []
    for vid, (pos, speed) in list(vehicles.items()):
        pos, speed = advance_kinematics(pos, speed, leader, dt, params)
        if pos >= length:
            del vehicles[vid]
            exited.append(vid)
            if final is not None:
                final[vid] = (pos, speed)
        else:
            vehicles[vid] = (pos, speed)
            leader = (pos, speed)
    return exited


kinematic_params = st.builds(
    KinematicParams,
    accel_mps2=st.floats(min_value=0.1, max_value=6.0),
    decel_mps2=st.floats(min_value=0.5, max_value=9.0),
    max_speed_mps=st.floats(min_value=1.0, max_value=40.0),
    min_gap_m=st.floats(min_value=0.5, max_value=10.0),
)


# no deadline: an example may build a free-flow track from a cold cache
@settings(deadline=None)
@given(
    params=kinematic_params,
    dt=st.floats(min_value=0.01, max_value=1.0),
    # front to back: (gap to the vehicle in front, unused for the first;
    # entry speed as a fraction of the cap)
    platoon=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=12,
    ),
    length=st.floats(min_value=20.0, max_value=400.0),
    ticks=st.integers(min_value=1, max_value=30),
    cruiser=st.integers(min_value=0, max_value=11),
)
def test_tick_is_bit_identical_to_stepping_the_reference(
    params, dt, platoon, length, ticks, cruiser
):
    # spacings below min_gap plus braking distance reach the braking branch,
    # spacings below min_gap itself the terminal clamp; one vehicle always
    # starts at exactly the cap, where the speed candidate is clamped
    fractions = [fraction for _, fraction in platoon]
    fractions[cruiser % len(platoon)] = 1.0
    positions = []
    pos = params.min_gap_m  # the rear; spawning the next needs min_gap behind it
    for gap, _ in reversed(platoon):
        positions.append(pos)
        pos += gap
    positions.reverse()
    world = MobilityWorld([RoadSegment(id="r", length_m=length + positions[0])], params, dt)
    reference = {}
    for i, (pos, fraction) in enumerate(zip(positions, fractions)):
        vid = f"v{i:02d}"
        speed = fraction * params.max_speed_mps
        spawn(world, vid, "r", speed)
        world.place(vid, pos)
        reference[vid] = (pos, speed)
    road_length = world.roads["r"].length_m
    for _ in range(ticks):
        exited = step(world)
        assert exited == reference_tick(reference, road_length, dt, params)
        assert lane(world, "r") == list(reference)
        for vid, (pos, speed) in reference.items():
            fix = world.fix(vid)
            assert (fix.pos_m.hex(), fix.speed_mps.hex()) == (pos.hex(), speed.hex())


def hexes(pos, speed):
    return pos.hex(), speed.hex()


# entry speeds as fractions of the cap; 1.5 enters above it and slows to the
# cap on its first tick, the one way a gap along one track can shrink
ENTRY_FRACTIONS = (0.0, 0.5, 1.0, 1.5)


def test_driven_world_is_bit_identical_to_stepping_the_reference():
    """Admit arrivals and take the traffic tick by tick, as a run does.

    The reference steps advance_kinematics for all vehicles and spawns an
    arrival once it is due and the rear vehicle on its road is min_gap in:
    each tick's exits and spawns must be the traffic admitted for it. The
    entry speed may exceed the cap, so vehicles on the shared track and on
    their own tracks share roads and some brake; at one tick one road's
    front vehicle is placed at half its speed, and from then on nothing
    spawns. Every vehicle, active or exited, must match the reference bit
    for bit. Some own tracks must be ridden by two vehicles at once, found
    in the memo.
    """
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(
        params=kinematic_params,
        dt=st.floats(min_value=0.05, max_value=0.5),
        # equal lengths let vehicles on the two roads share own tracks
        lengths=st.tuples(st.floats(20.0, 300.0), st.floats(20.0, 300.0))
        | st.floats(20.0, 300.0).map(lambda length: (length, length)),
        fraction=st.sampled_from(ENTRY_FRACTIONS),
        # (ticks after the previous arrival, road); arrivals that queue up
        # spawn as soon as the rear vehicle is min_gap in
        arrivals=st.lists(
            st.tuples(st.just(0) | st.integers(0, 30), st.integers(0, 1)),
            min_size=1,
            max_size=14,
        ),
        touch_at=st.integers(1, 120),
        ticks=st.integers(20, 160),
    )
    # at the rounding edge (14 m/s entry, 0.1 s tick, 14 m gap) the second
    # vehicles on two equal roads brake behind the first ones at one lag,
    # so they share one own track
    @example(
        params=KinematicParams(min_gap_m=14.0),
        dt=0.1,
        lengths=(100.0, 100.0),
        fraction=1.0,
        arrivals=[(0, 0), (0, 1), (0, 0), (0, 1)],
        touch_at=60,
        ticks=100,
    )
    def drive(params, dt, lengths, fraction, arrivals, touch_at, ticks):
        roads = [RoadSegment(id="r", length_m=lengths[0]), RoadSegment(id="s", length_m=lengths[1])]
        world = MobilityWorld(roads, params, dt)
        speed = fraction * params.max_speed_mps
        due, entries = 0, []
        for wait, road in arrivals:
            due += wait
            entries.append((due, roads[road].id))
        entries = arrivals_at(*entries)
        # nothing spawns after the touch: the vehicles behind the placed one
        # would not follow the tracks admitted for them
        traffic = world.admit(entries, speed, 1, touch_at)
        pending = {road.id: deque(a for a in entries if a.road_id == road.id) for road in roads}
        reference = {road.id: {} for road in roads}  # front to back: (pos, speed)
        final = {}
        taken = taking(world, traffic, touch_at)
        for tick in range(ticks + 1):
            exited, spawned = [], []
            if tick:
                for road in roads:
                    ref = reference[road.id]
                    free = {vid: advance_kinematics(*ref[vid], None, dt, params) for vid in ref}
                    exited += reference_tick(ref, road.length_m, dt, params, final)
                    if any(ref[vid] != free[vid] for vid in ref):
                        seen.add("braked")
            if tick > touch_at:
                assert step(world) == exited
            else:
                for road in roads:
                    queue, ref = pending[road.id], reference[road.id]
                    while queue and queue[0].at_us <= tick:
                        rear = next(reversed(ref.values()), None)
                        if not (rear is None or rear[0] >= params.min_gap_m):
                            break
                        vid = queue.popleft().vehicle_id
                        ref[vid] = (0.0, speed)
                        spawned.append(vid)
                assert next(taken) == (tick, exited, spawned)
                for vid in spawned:
                    if rides_the_shared_track(world, vid, speed):
                        seen.add("shared")
                        continue
                    seen.add("own")
                    track = world.riding(vid)[1]
                    if any(
                        world.riding(other)[1] is track
                        for refs in reference.values()
                        for other in refs
                        if other != vid
                    ):
                        seen.add("two on one own track")
            if tick == touch_at and reference["r"]:
                vid = next(iter(reference["r"]))
                pos, speed_now = reference["r"][vid]
                if rides_the_shared_track(world, vid, speed):
                    seen.add("left the shared track")
                world.place(vid, pos, speed_now * 0.5)
                reference["r"][vid] = (pos, speed_now * 0.5)
            for road in roads:
                assert lane(world, road.id) == list(reference[road.id])
                for vid, (pos, speed_now) in reference[road.id].items():
                    fix = world.fix(vid)
                    assert fix.status == ACTIVE
                    assert hexes(fix.pos_m, fix.speed_mps) == hexes(pos, speed_now)
            for vid, (pos, speed_now) in final.items():
                fix = world.fix(vid)
                assert fix.status == EXITED
                length = world.roads[fix.road_id].length_m
                assert hexes(fix.pos_m, fix.speed_mps) == hexes(min(pos, length), speed_now)

    drive()
    assert {"shared", "own", "two on one own track", "braked", "left the shared track"} <= seen


def rides_the_shared_track(world, vehicle_id, entry_speed_mps):
    return world.riding(vehicle_id)[1] is world._track(entry_speed_mps)


def test_a_vehicle_that_would_brake_behind_its_track_leader_gets_its_own_track():
    # both enter at 40 m/s and slow to the 14 m/s cap on their first tick;
    # v1 may enter once v0 is 2.7 m in, but its first tick would leave it
    # 1.4 m behind v0, below the 2.5 m minimum gap, so the lag test refuses
    world = MobilityWorld([straight_road(1000.0)], P, 0.1)
    spawn(world, "v0", "r", 40.0)
    step(world)
    assert world.fix("v0").pos_m == advance_kinematics(0.0, 40.0, None, 0.1, P)[0]
    spawn(world, "v1", "r", 40.0)
    assert rides_the_shared_track(world, "v0", 40.0)
    assert not rides_the_shared_track(world, "v1", 40.0)
    step(world)
    v0 = advance_kinematics(*advance_kinematics(0.0, 40.0, None, 0.1, P), None, 0.1, P)
    v1 = advance_kinematics(0.0, 40.0, v0, 0.1, P)
    assert v1 != advance_kinematics(0.0, 40.0, None, 0.1, P)  # it brakes
    assert (world.fix("v1").pos_m, world.fix("v1").speed_mps) == v1


def test_own_tracks_behind_one_track_are_kept_apart_by_road_length():
    # at the rounding edge (14 m/s entry, 0.1 s tick, 14 m gap) a vehicle
    # spawned behind one on the free-flow track as soon as the entry opens
    # brakes once and gets its own track; on a 30 m and a 100 m road the two
    # followers spawn at the same lag behind fronts on one free-flow track,
    # so only the road length tells their tracks apart
    params = KinematicParams(min_gap_m=14.0)
    roads = [RoadSegment(id="s", length_m=30.0), RoadSegment(id="r", length_m=100.0)]
    world = MobilityWorld(roads, params, 0.1)
    # v0 and v2 enter s, v1 and v3 enter r, all due at once
    traffic = world.admit(arrivals_at((0, "s"), (0, "r"), (0, "s"), (0, "r")), 14.0, 1, 200)
    reference = {road.id: {} for road in roads}
    braked = set()
    for tick, exits, spawns in taking(world, traffic, 200):
        exited = []
        if tick:
            for road in roads:
                ref = reference[road.id]
                free = {vid: advance_kinematics(*ref[vid], None, 0.1, params) for vid in ref}
                exited += reference_tick(ref, road.length_m, 0.1, params)
                braked |= {vid for vid in ref if ref[vid] != free[vid]}
        assert exits == exited
        for vid in spawns:
            reference[world._states[vid].road_id][vid] = (0.0, 14.0)
        if tick == 0:
            assert spawns == ["v0", "v1"]
        elif spawns:
            # both entries open once the fronts are 14 m in, at one tick
            assert spawns == ["v2", "v3"] and tick == 10
            for vid in spawns:
                assert not rides_the_shared_track(world, vid, 14.0)
            assert world.riding("v2")[1] is not world.riding("v3")[1]
        for road in roads:
            for vid, (pos, speed) in reference[road.id].items():
                fix = world.fix(vid)
                assert hexes(fix.pos_m, fix.speed_mps) == hexes(pos, speed)
    assert not reference["r"] and braked == {"v2", "v3"}


def test_worlds_built_from_the_same_inputs_share_one_track():
    roads = [straight_road(1000.0)]
    track = MobilityWorld(roads, P, 0.1)._track(14.0)
    assert MobilityWorld(roads, P, 0.1)._track(14.0) is track
    shorter = RoadSegment(id="s", length_m=900.0)
    assert MobilityWorld([shorter, *roads], P, 0.1)._track(14.0) is track
    for other in (
        MobilityWorld(roads, P, 0.2),
        MobilityWorld(roads, KinematicParams(min_gap_m=5.0), 0.1),
        MobilityWorld([straight_road(1500.0)], P, 0.1),
    ):
        assert other._track(14.0) is not track
    assert MobilityWorld(roads, P, 0.1)._track(13.0) is not track


def test_a_shared_track_keys_its_answers_by_the_min_gap():
    track = free_track((14.0).hex(), 0.1, P, 1000.0, MAX_TRACK_TICKS)
    # the first answer for one gap is not the answer for another
    assert track.open_age(2.5) == 2 and track.open_age(14.0) == 10
    assert track.clears(1000.0, 10, 2.5) and not track.clears(1000.0, 10, 20.0)
    assert track.clears(1000.0, 10, 2.5)


def test_a_path_longer_than_max_track_ticks_raises(monkeypatch):
    roads = [straight_road(1000.0)]
    assert MobilityWorld(roads, P, 0.1)._track(14.0) is not None  # cached now
    # from 14 m/s, 1000 m take 715 ticks of 0.1 s
    monkeypatch.setattr(mobility, "MAX_TRACK_TICKS", 714)
    world = MobilityWorld(roads, P, 0.1)
    assert world._track(14.0) is None
    lengths = []
    follow = MobilityWorld._follow

    def measured(world, state, pos, speed, leader):
        try:
            follow(world, state, pos, speed, leader)
        finally:
            lengths.append(len(pos))

    monkeypatch.setattr(MobilityWorld, "_follow", measured)
    with pytest.raises(PathTooLong, match="more than 714 ticks"):
        spawn(world, "v0", "r", 14.0)
    assert lengths == [715]  # ages 0 to 714, none past the bound
    assert not world.is_active("v0") and lane(world, "r") == []
    monkeypatch.setattr(mobility, "MAX_TRACK_TICKS", 715)
    spawn(world, "v0", "r", 14.0)  # the world keeps its None for 14 m/s
    assert lengths[-1] == 716


# -- arrival schedules -----------------------------------------------------------


def test_highway_arrivals_every_second_on_single_road():
    arrivals = generate_arrivals(
        HIGHWAY_UNIFORM, 5, 5.0, [straight_road()], POOL, RandomSource(1)
    )
    assert [a.at_us for a in arrivals] == [0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]
    assert all(a.road_id == "r" for a in arrivals)
    assert [a.vehicle_id for a in arrivals] == ["v000", "v001", "v002", "v003", "v004"]


def test_urban_arrivals_sorted_within_window():
    roads = [straight_road(), RoadSegment(id="s", length_m=500.0)]
    arrivals = generate_arrivals(URBAN_RANDOM, 30, 100.0, roads, POOL, RandomSource(9))
    times = [a.at_us for a in arrivals]
    assert times == sorted(times)
    assert all(0 <= t < 100 * US_PER_SECOND for t in times)
    assert {a.road_id for a in arrivals} <= {"r", "s"}
    assert all(a.wanted in POOL for a in arrivals)


def test_arrivals_are_deterministic_per_seed():
    roads = [straight_road()]
    a1 = generate_arrivals(URBAN_RANDOM, 20, 50.0, roads, POOL, RandomSource(4))
    a2 = generate_arrivals(URBAN_RANDOM, 20, 50.0, roads, POOL, RandomSource(4))
    assert a1 == a2


def test_vehicle_ids_pad_for_large_fleets():
    arrivals = generate_arrivals(
        HIGHWAY_UNIFORM, 1200, 1200.0, [straight_road()], POOL, RandomSource(1)
    )
    assert arrivals[0].vehicle_id == "v0000"
    assert arrivals[-1].vehicle_id == "v1199"


# -- world ---------------------------------------------------------------------


def make_world(length=1000.0):
    return MobilityWorld([straight_road(length)], P, 0.1)


def test_fix_distinguishes_unknown_and_active():
    world = make_world()
    with pytest.raises(UnknownVehicle):
        world.fix("v0")  # not spawned yet
    spawn(world, "v0", "r", 14.0)
    fix = world.fix("v0")
    assert fix.status == ACTIVE
    assert fix.pos_m == 0.0
    assert fix.world_xy == (0.0, 0.0)


def test_spawn_gate_requires_min_gap_behind_rear_vehicle():
    # two arrivals at once: the second enters at the first tick at which
    # the first, accelerating from rest, is min_gap in, and not before
    world = make_world()
    traffic = world.admit(arrivals_at((0, "r"), (0, "r")), 0.0, 1, 1000)
    assert [(len(step.exits), len(step.spawns)) for step in traffic] == [(0, 1), (0, 1), (1, 0), (1, 0)]
    first, second = (state for step in traffic for state, _ in step.spawns)
    opens = second.spawn_tick
    assert first.spawn_tick == 0 and opens > 1
    assert first.track.pos[opens - 1] < P.min_gap_m <= first.track.pos[opens]


def test_each_admitted_arrival_spawns_once_and_exits_once():
    # ten arrivals in one second on a 30 m road: each spawns once, in entry
    # order, and each exits once, in the same order
    world = make_world(length=30.0)
    traffic = world.admit(arrivals_at(*[(tick, "r") for tick in range(10)]), 14.0, 1, 500)
    spawns = [state.id for step in traffic for state, _ in step.spawns]
    exits = [state.id for step in traffic for state in step.exits]
    assert spawns == exits == [f"v{i}" for i in range(10)]


def test_exit_reports_once_and_freezes_position():
    world = make_world(length=10.0)
    spawn(world, "v0", "r", 14.0)
    exited = []
    for _ in range(20):
        exited += step(world)
    assert exited == ["v0"]
    fix = world.fix("v0")
    assert fix.status == EXITED
    assert fix.pos_m == 10.0  # clamped to the road end
    assert not world.is_active("v0")
    assert world.exited_total == 1
    assert lane(world, "r") == []


def test_exited_leader_releases_the_road():
    # on a 30 m road v1 enters behind v0 and both exit by tick 40; v2,
    # due then, enters at once behind nobody: the frozen end positions of
    # the exited vehicles trap no follower
    world = make_world(length=30.0)
    traffic = world.admit(arrivals_at((0, "r"), (0, "r"), (40, "r")), 14.0, 1, 100)
    spawns = {state.id: (step.tick, state) for step in traffic for state, _ in step.spawns}
    exits = {state.id: step.tick for step in traffic for state in step.exits}
    assert exits["v0"] < exits["v1"] <= 40 == spawns["v2"][0]
    assert spawns["v2"][1].track is world._track(14.0)  # no leader: the shared track
    for tick, _, _ in taking(world, traffic, 100):
        if tick == 40:
            assert world.fix("v0").status == world.fix("v1").status == EXITED
            assert lane(world, "r") == ["v2"]


def test_highway_platoon_keeps_order_gaps_and_speed_limits():
    world = make_world(length=2100.0)
    due = arrivals_at(*[(tick, "r") for tick in range(10, 510, 10)])
    traffic = world.admit(due, 14.0, 1, 3000)
    spawned = 0
    for _, _, spawns in taking(world, traffic, 3000):
        spawned += len(spawns)
        order = lane(world, "r")
        positions = [world.fix(v).pos_m for v in order]
        speeds = [world.fix(v).speed_mps for v in order]
        assert positions == sorted(positions, reverse=True)
        for front, back in zip(positions, positions[1:]):
            assert front - back >= P.min_gap_m - 1e-9
        assert all(0.0 <= s <= P.max_speed_mps + 1e-9 for s in speeds)
    assert spawned == 50 and lane(world, "r") == []


def test_place_unknown_vehicle():
    world = make_world()
    with pytest.raises(UnknownVehicle):
        world.place("nobody", 1.0)
