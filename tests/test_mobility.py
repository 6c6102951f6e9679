"""Roads, car-following kinematics, arrival schedules, and the world."""

import dataclasses
import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from vcachesim import mobility
from vcachesim.mobility import (
    ACTIVE,
    EXITED,
    HIGHWAY_UNIFORM,
    KinematicParams,
    MobilityWorld,
    RoadSegment,
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
    return [state.id for state in world._lanes[road_id]]


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
        world.spawn(vid, "r", speed)
        world.place(vid, pos)
        reference[vid] = (pos, speed)
    road_length = world.roads["r"].length_m
    for _ in range(ticks):
        exited = world.tick()
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
    """Drive a world as the engine does: tick, then spawn what is due and fits.

    Entry speeds mix, so vehicles on the shared track and on their own
    tracks share roads and some brake; midway one road's front vehicle is
    placed at half its speed. Every vehicle, active or exited, must match
    stepping advance_kinematics for all vehicles, bit for bit. Some own
    tracks must be ridden by two vehicles at once, found in the memo.
    """
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(
        params=kinematic_params,
        dt=st.floats(min_value=0.05, max_value=0.5),
        # equal lengths let vehicles on the two roads share own tracks
        lengths=st.tuples(st.floats(20.0, 300.0), st.floats(20.0, 300.0))
        | st.floats(20.0, 300.0).map(lambda length: (length, length)),
        fractions=st.lists(
            st.sampled_from(ENTRY_FRACTIONS), min_size=2, max_size=3, unique=True
        ),
        # (ticks after the previous arrival, road, entry speed); arrivals
        # that queue up spawn as soon as the rear vehicle is min_gap in
        arrivals=st.lists(
            st.tuples(st.just(0) | st.integers(0, 30), st.integers(0, 1), st.integers(0, 2)),
            min_size=1,
            max_size=14,
        ),
        touch_at=st.integers(1, 120),
        ticks=st.integers(20, 160),
    )
    def drive(params, dt, lengths, fractions, arrivals, touch_at, ticks):
        roads = [RoadSegment(id="r", length_m=lengths[0]), RoadSegment(id="s", length_m=lengths[1])]
        world = MobilityWorld(roads, params, dt)
        speeds = [fraction * params.max_speed_mps for fraction in fractions]
        pending = {road.id: deque() for road in roads}
        due = 0
        for i, (wait, road, pick) in enumerate(arrivals):
            due += wait
            pending[roads[road].id].append((due, f"v{i:02d}", speeds[pick % len(speeds)]))
        reference = {road.id: {} for road in roads}  # front to back: (pos, speed)
        entry = {}  # vehicle id -> entry speed
        final = {}
        for step in range(ticks + 1):
            if step:
                exited = []
                for road in roads:
                    ref = reference[road.id]
                    free = {vid: advance_kinematics(*ref[vid], None, dt, params) for vid in ref}
                    exited += reference_tick(ref, road.length_m, dt, params, final)
                    if any(ref[vid] != free[vid] for vid in ref):
                        seen.add("braked")
                assert world.tick() == exited
            for road in roads:
                queue, ref = pending[road.id], reference[road.id]
                while queue and queue[0][0] <= step:
                    rear = next(reversed(ref.values()), None)
                    fits = rear is None or rear[0] >= params.min_gap_m
                    assert world.can_spawn(road.id) == fits
                    if not fits:
                        break
                    _, vid, speed = queue.popleft()
                    world.spawn(vid, road.id, speed)
                    ref[vid] = (0.0, speed)
                    entry[vid] = speed
                    if rides_the_shared_track(world, vid, speed):
                        seen.add("shared")
                    else:
                        seen.add("own")
                        track = world.riding(vid)[1]
                        if any(
                            world.riding(other)[1] is track
                            for refs in reference.values()
                            for other in refs
                            if other != vid
                        ):
                            seen.add("two on one own track")
            if step == touch_at and reference["r"]:
                vid = next(iter(reference["r"]))
                pos, speed = reference["r"][vid]
                if rides_the_shared_track(world, vid, entry[vid]):
                    seen.add("left the shared track")
                world.place(vid, pos, speed * 0.5)
                reference["r"][vid] = (pos, speed * 0.5)
            for road in roads:
                assert lane(world, road.id) == list(reference[road.id])
                for vid, (pos, speed) in reference[road.id].items():
                    fix = world.fix(vid)
                    assert fix.status == ACTIVE
                    assert hexes(fix.pos_m, fix.speed_mps) == hexes(pos, speed)
            for vid, (pos, speed) in final.items():
                fix = world.fix(vid)
                assert fix.status == EXITED
                length = world.roads[fix.road_id].length_m
                assert hexes(fix.pos_m, fix.speed_mps) == hexes(min(pos, length), speed)

    drive()
    assert {"shared", "own", "two on one own track", "braked", "left the shared track"} <= seen


def rides_the_shared_track(world, vehicle_id, entry_speed_mps):
    return world.riding(vehicle_id)[1] is world._track(entry_speed_mps)


def test_a_vehicle_that_would_brake_behind_its_track_leader_gets_its_own_track():
    # both enter at 40 m/s and slow to the 14 m/s cap on their first tick;
    # v1 may enter once v0 is 2.7 m in, but its first tick would leave it
    # 1.4 m behind v0, below the 2.5 m minimum gap, so the lag test refuses
    world = MobilityWorld([straight_road(1000.0)], P, 0.1)
    world.spawn("v0", "r", 40.0)
    world.tick()
    assert world.fix("v0").pos_m == advance_kinematics(0.0, 40.0, None, 0.1, P)[0]
    world.spawn("v1", "r", 40.0)
    assert rides_the_shared_track(world, "v0", 40.0)
    assert not rides_the_shared_track(world, "v1", 40.0)
    world.tick()
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
    reference = {road.id: {} for road in roads}
    for road in roads:
        world.spawn(f"{road.id}0", road.id, 14.0)
        reference[road.id][f"{road.id}0"] = (0.0, 14.0)
    braked = set()
    while reference["r"]:
        if not world.can_spawn("r"):
            assert not world.can_spawn("s")
        elif "r1" not in world._states:
            assert world.can_spawn("s")
            for road in roads:
                world.spawn(f"{road.id}1", road.id, 14.0)
                reference[road.id][f"{road.id}1"] = (0.0, 14.0)
                assert not rides_the_shared_track(world, f"{road.id}1", 14.0)
            assert world.riding("s1")[1] is not world.riding("r1")[1]
        exited = []
        for road in roads:
            ref = reference[road.id]
            free = {vid: advance_kinematics(*ref[vid], None, 0.1, params) for vid in ref}
            exited += reference_tick(ref, road.length_m, 0.1, params)
            braked |= {vid for vid in ref if ref[vid] != free[vid]}
        assert world.tick() == exited
        for road in roads:
            for vid, (pos, speed) in reference[road.id].items():
                fix = world.fix(vid)
                assert hexes(fix.pos_m, fix.speed_mps) == hexes(pos, speed)
    assert braked == {"s1", "r1"}


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
        world.spawn("v0", "r", 14.0)
    assert lengths == [715]  # ages 0 to 714, none past the bound
    assert not world.is_active("v0") and world.can_spawn("r")
    monkeypatch.setattr(mobility, "MAX_TRACK_TICKS", 715)
    world.spawn("v0", "r", 14.0)  # the world keeps its None for 14 m/s
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
    world.spawn("v0", "r", 14.0)
    fix = world.fix("v0")
    assert fix.status == ACTIVE
    assert fix.pos_m == 0.0
    assert fix.world_xy == (0.0, 0.0)


def test_spawn_gate_requires_min_gap_behind_rear_vehicle():
    world = make_world()
    world.spawn("v0", "r", 0.0)
    assert not world.can_spawn("r")
    with pytest.raises(ValueError):
        world.spawn("v1", "r", 0.0)
    # let the first vehicle accelerate away
    while not world.can_spawn("r"):
        world.tick()
    assert world.fix("v0").pos_m >= P.min_gap_m
    world.spawn("v1", "r", 0.0)


def test_duplicate_spawn_rejected():
    world = make_world()
    world.spawn("v0", "r", 14.0)
    world.tick()
    with pytest.raises(ValueError):
        world.spawn("v0", "r", 14.0)


def test_exit_reports_once_and_freezes_position():
    world = make_world(length=10.0)
    world.spawn("v0", "r", 14.0)
    exited = []
    for _ in range(20):
        exited += world.tick()
    assert exited == ["v0"]
    fix = world.fix("v0")
    assert fix.status == EXITED
    assert fix.pos_m == 10.0  # clamped to the road end
    assert not world.is_active("v0")
    assert world.exited_total == 1
    assert lane(world, "r") == []


def test_exited_leader_releases_the_road():
    world = make_world(length=30.0)
    world.spawn("v0", "r", 14.0)
    while not world.can_spawn("r"):
        world.tick()
    world.spawn("v1", "r", 14.0)
    for _ in range(40):
        world.tick()
    assert world.fix("v0").status == EXITED
    # the frozen end position of the exited leader must not trap followers
    assert world.fix("v1").status == EXITED
    assert world.can_spawn("r")


def test_highway_platoon_keeps_order_gaps_and_speed_limits():
    world = make_world(length=2100.0)
    spawned = 0
    for step in range(1, 3000):
        world.tick()
        if step % 10 == 0 and spawned < 50 and world.can_spawn("r"):
            world.spawn(f"v{spawned:03d}", "r", 14.0)
            spawned += 1
        order = lane(world, "r")
        positions = [world.fix(v).pos_m for v in order]
        speeds = [world.fix(v).speed_mps for v in order]
        assert positions == sorted(positions, reverse=True)
        for front, back in zip(positions, positions[1:]):
            assert front - back >= P.min_gap_m - 1e-9
        assert all(0.0 <= s <= P.max_speed_mps + 1e-9 for s in speeds)
    assert spawned == 50


def test_place_unknown_vehicle():
    world = make_world()
    with pytest.raises(UnknownVehicle):
        world.place("nobody", 1.0)
