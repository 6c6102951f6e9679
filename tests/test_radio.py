"""Zones, airtime math and FIFO channel reservations."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from vcachesim.radio import (
    Channel,
    RadioParams,
    in_range,
    propagation_us,
    tx_duration_us,
)
from vcachesim.scenarios import RsuSpec, ValidationError, urban_single, validate_config

RADIO = RadioParams()


# -- airtime -------------------------------------------------------------------


def test_tx_duration_exact_values():
    # (header + payload) bits at 6 Mbps: the exact airtime, rounded up to the clock
    cases = [
        (0, 80, 14),  # header only: 13.33 us
        (80, 160, 27),  # request: 26.67 us
        (2000, 2080, 347),  # response: 346.67 us
        (320, 400, 67),  # beacon: 66.67 us
    ]
    for payload_bits, frame_bits, expected_us in cases:
        exact_us = frame_bits * 1e6 / 6_000_000
        assert tx_duration_us(RADIO, payload_bits) == expected_us
        assert expected_us - 1 < exact_us <= expected_us


def test_tx_duration_us_rounds_up_to_clock():
    assert tx_duration_us(RADIO, 80) == 27  # 26.67 us
    assert tx_duration_us(RADIO, 2000) == 347
    assert tx_duration_us(RADIO, 320) == 67
    assert tx_duration_us(RADIO, 40) == 20  # exactly 120 bits / 6 Mbps
    assert tx_duration_us(RadioParams(bitrate_bps=1_000_000), 2000) == 2080


def test_propagation_rounds_up():
    assert propagation_us(0.0) == 0
    assert propagation_us(300.0) == 1
    assert propagation_us(300.1) == 2
    assert propagation_us(1.0) == 1


def test_radio_params_validation():
    # the radio block's rules are validate_config's, like every config rule
    def validate_with(**changes):
        validate_config(dataclasses.replace(urban_single(count=5), radio=RadioParams(**changes)))

    with pytest.raises(ValidationError, match="bitrate_bps must be positive"):
        validate_with(bitrate_bps=0)
    with pytest.raises(ValidationError, match="header_bits must be positive"):
        validate_with(header_bits=-1)
    # an infinite bitrate used to run with NaN airtimes
    for name in ("header_bits", "bitrate_bps", "beacon_payload_bits"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
                validate_with(**{name: value})
    validate_with(bitrate_bps=10**400)  # any int, without a float conversion


# -- zones ---------------------------------------------------------------------


def test_in_range_is_a_closed_ball():
    zone = RsuSpec("r0", (0.0, 0.0), 400.0)
    assert in_range(zone, (400.0, 0.0))  # boundary counts
    assert in_range(zone, (0.0, -400.0))
    assert not in_range(zone, (400.0001, 0.0))


def test_in_range_diagonal_boundary():
    zone = RsuSpec("r0", (0.0, 0.0), 5.0)
    assert in_range(zone, (3.0, 4.0))  # 3-4-5 triangle, exactly on boundary
    assert not in_range(zone, (3.0, 4.001))


# -- channel -------------------------------------------------------------------


def test_reserve_idle_starts_now():
    chan = Channel()
    assert chan.reserve(1000, 347) == (1000, 1347)
    assert chan.busy_until_us == 1347


def test_reserve_busy_queues_fifo():
    chan = Channel()
    chan.reserve(0, 100)
    assert chan.reserve(10, 50) == (100, 150)
    assert chan.reserve(10, 50) == (150, 200)
    # after the queue drains, reservations start at the request time again
    assert chan.reserve(500, 10) == (500, 510)


def test_reserve_counts_frames_and_busy_time():
    chan = Channel()
    for _ in range(40):
        chan.reserve(0, 67)
    assert chan.frames_carried == 40
    assert chan.busy_time_us == 2680  # 40 beacons back to back
    assert chan.busy_until_us == 2680


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=500),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_reservations_never_overlap_and_never_run_backward(requests):
    chan = Channel()
    requests.sort(key=lambda r: r[0])  # callers ask in clock order
    slots = []
    for now, duration in requests:
        start, end = chan.reserve(now, duration)
        assert start >= now
        assert end - start == duration
        slots.append((start, end))
    for (s1, e1), (s2, e2) in zip(slots, slots[1:]):
        assert s2 >= e1  # FIFO, no overlap
    assert chan.busy_time_us == sum(d for _, d in requests)
