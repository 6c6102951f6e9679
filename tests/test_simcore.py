"""Event queue ordering, clock semantics, time formatting, seeded draws."""

import random

import pytest
from hypothesis import given, strategies as st

from vcachesim.simcore import (
    EventQueue,
    RandomSource,
    SchedulingInPast,
    US_PER_SECOND,
    format_time,
    seconds_to_us,
)


# -- time representation ------------------------------------------------------


def test_format_time_examples():
    assert format_time(0) == "0.000000"
    assert format_time(1) == "0.000001"
    assert format_time(999_999) == "0.999999"
    assert format_time(1_000_000) == "1.000000"
    assert format_time(1_234_567) == "1.234567"
    assert format_time(230_000_000) == "230.000000"


def test_format_time_negative():
    assert format_time(-1) == "-0.000001"
    assert format_time(-1_500_000) == "-1.500000"


def test_seconds_round_trip_well_known_values():
    assert seconds_to_us(0.0003) == 300
    assert seconds_to_us(0.00001) == 10
    assert seconds_to_us(0.1) == 100_000
    assert seconds_to_us(350.0) == 350_000_000


@given(st.integers(min_value=0, max_value=10**12))
def test_format_time_is_exact_fixed_point(t_us):
    text = format_time(t_us)
    whole, frac = text.split(".")
    assert len(frac) == 6
    assert int(whole) * US_PER_SECOND + int(frac) == t_us


# -- event queue ---------------------------------------------------------------


def test_events_fire_in_time_order():
    q = EventQueue()
    log = []
    q.schedule(30, lambda: log.append("c"))
    q.schedule(10, lambda: log.append("a"))
    q.schedule(20, lambda: log.append("b"))
    q.run_until(100)
    assert log == ["a", "b", "c"]
    assert q.now_us == 30


def test_same_time_events_fire_in_insertion_order():
    q = EventQueue()
    log = []
    for tag in "abcde":
        q.schedule(50, lambda tag=tag: log.append(tag))
    q.run_until(50)
    assert log == list("abcde")


def test_cascading_same_time_events_run_within_horizon():
    q = EventQueue()
    log = []

    def first():
        log.append("first")
        q.schedule(q.now_us, lambda: log.append("chained"))

    q.schedule(5, first)
    q.run_until(5)
    assert log == ["first", "chained"]


def test_events_beyond_horizon_stay_queued():
    q = EventQueue()
    log = []
    q.schedule(10, lambda: log.append("in"))
    q.schedule(11, lambda: log.append("out"))
    assert q.run_until(10) == 1
    assert log == ["in"]
    assert len(q) == 1
    assert q.run_until(10) == 0  # still not due
    assert q.run_until(11) == 1
    assert q.now_us == 11
    assert log == ["in", "out"]


def test_peek_time_reads_the_earliest_pending_event():
    q = EventQueue()
    assert q.peek_time() is None
    q.schedule(11, lambda: None)
    q.schedule(10, lambda: None)
    assert q.peek_time() == 10
    q.run_until(10)
    assert q.peek_time() == 11


def test_clock_is_last_processed_event_not_horizon():
    q = EventQueue()
    q.schedule(7, lambda: None)
    q.run_until(1000)
    assert q.now_us == 7


def test_scheduling_in_past_raises():
    q = EventQueue()
    q.schedule(10, lambda: None)
    q.run_until(10)
    with pytest.raises(SchedulingInPast):
        q.schedule(9, lambda: None)
    # the current instant is still allowed
    q.schedule(10, lambda: None)


def test_horizon_before_clock_raises():
    q = EventQueue()
    q.schedule(10, lambda: None)
    q.run_until(10)
    with pytest.raises(SchedulingInPast):
        q.run_until(9)


def test_advance_to_moves_the_clock_forward_before_the_next_event_only():
    q = EventQueue()
    log = []
    q.schedule(5, lambda: (q.advance_to(8), log.append(q.now_us)))
    q.schedule(10, lambda: log.append(q.now_us))
    assert q.run_until(20) == 2
    assert log == [8, 10]  # the handler ran on at 8; the clock reached 10 at its event
    assert q.processed_total == 2  # moving the clock is no event
    q.advance_to(10)  # staying put is not going back
    q.advance_to(15)  # nothing pending
    assert q.now_us == 15
    with pytest.raises(SchedulingInPast):
        q.advance_to(14)  # back
    q.schedule(20, lambda: None)
    for at in (20, 21):  # at or past a pending event
        with pytest.raises(SchedulingInPast):
            q.advance_to(at)
    assert q.now_us == 15 and len(q) == 1 and q.processed_total == 2
    q.advance_to(19)
    assert q.now_us == 19 and q.processed_total == 2


def test_counters_track_scheduled_and_processed():
    q = EventQueue()
    for at in (5, 15, 25):
        q.schedule(at, lambda: None)
    q.run_until(20)
    assert len(q) == 1  # scheduled and not yet processed
    assert q.processed_total == 2


def test_queue_against_reference_interpreter():
    """Random schedule-and-chain programs replay identically on a naive model."""
    rng = random.Random(20260815)
    for _ in range(50):
        q = EventQueue()
        fired = []

        # reference: list of (time, seq) processed by repeated min-scan
        ref_events = []
        ref_fired = []

        def make_action(label, spawn_at):
            def action():
                fired.append(label)
                for extra, at in enumerate(spawn_at):
                    child = (label, extra)
                    q.schedule(at, make_action(child, []))
            return action

        seq_counter = [0]

        def ref_add(time, label, spawn_at):
            ref_events.append((time, seq_counter[0], label, spawn_at))
            seq_counter[0] += 1

        roots = []
        for i in range(rng.randrange(1, 12)):
            t = rng.randrange(0, 50)
            children = [t + rng.randrange(0, 30) for _ in range(rng.randrange(0, 3))]
            roots.append((t, i, children))
            q.schedule(t, make_action(i, children))
            ref_add(t, i, children)

        horizon = rng.randrange(0, 90)

        # naive single-loop reference over the same program
        pending = list(ref_events)
        while True:
            due = [e for e in pending if e[0] <= horizon]
            if not due:
                break
            due.sort(key=lambda e: (e[0], e[1]))
            time, _seq, label, spawn_at = due[0]
            pending.remove(due[0])
            ref_fired.append(label)
            for extra, at in enumerate(spawn_at):
                pending.append((at, seq_counter[0], (label, extra), []))
                seq_counter[0] += 1

        q.run_until(horizon)
        assert fired == ref_fired


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50)
)
def test_processing_order_is_stable_sort_by_time(times):
    q = EventQueue()
    log = []
    for i, t in enumerate(times):
        q.schedule(t, lambda i=i: log.append(i))
    q.run_until(1000)
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert log == expected


# -- randomness ----------------------------------------------------------------


def test_same_seed_same_draws():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.draw(1000) for _ in range(200)] == [b.draw(1000) for _ in range(200)]


def test_different_seeds_differ_somewhere():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.draw(10**9) for _ in range(8)] != [b.draw(10**9) for _ in range(8)]


def test_draws_are_roughly_uniform():
    src = RandomSource(7)
    counts = [0] * 10
    for _ in range(10_000):
        counts[src.draw(10)] += 1
    for value, count in enumerate(counts):
        assert 800 <= count <= 1200, f"value {value} drawn {count} times"


def test_draw_bounds():
    src = RandomSource(3)
    assert all(0 <= src.draw(5) < 5 for _ in range(100))


# range sizes: 1, 2, powers of two and their neighbours, catalog sizes, and
# arrival windows of about 10**8 us (the urban builders' 144, 230 and 430 s)
DRAW_SIZES = sorted(
    {1, 2, 3, 10, 100, 144_000_000, 230_000_000, 430_000_000, 10**8}
    | {2**k + d for k in (2, 3, 4, 7, 16, 26, 27, 31, 32, 40) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("seed", [0, 1, 2, 42, 2**40 + 7])
def test_draw_is_the_stdlib_randrange_stream(seed):
    # the draws are part of the output contract: they pick every arrival
    src, reference = RandomSource(seed), random.Random(seed)
    for n in DRAW_SIZES:
        assert [src.draw(n) for _ in range(20)] == [reference.randrange(n) for _ in range(20)], n
    # and interleaved, as urban arrivals draw a time, a road and an item
    interleaved = [DRAW_SIZES[i % len(DRAW_SIZES)] for i in range(7 * len(DRAW_SIZES))]
    assert [src.draw(n) for n in interleaved] == [reference.randrange(n) for n in interleaved]


@given(seed=st.integers(0, 2**64), n=st.integers(1, 2**70), count=st.integers(0, 40))
def test_draws_are_successive_draws(seed, n, count):
    bulk, single = RandomSource(seed), RandomSource(seed)
    assert bulk.draws(n, count) == [single.draw(n) for _ in range(count)]
    assert bulk.draw(n) == single.draw(n)  # both streams stand at the same place
