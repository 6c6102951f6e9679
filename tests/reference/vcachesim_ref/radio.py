"""Range-based broadcast zones, per-zone FIFO channel contention, backhaul.

Reception is a deterministic closed-ball range test; the power, noise, and
antenna figures are carried in configuration for fidelity but do not drive a
path-loss model. Congestion enters purely through channel serialization:
one frame in the air per zone at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simcore import US_PER_SECOND

PROPAGATION_MPS = 300_000_000.0  # meters per second; 300 m per microsecond


class NoBackhaul(RuntimeError):
    """A node without a wired server link tried to use one."""


@dataclass(frozen=True)
class RadioParams:
    header_bits: int = 80
    bitrate_bps: int = 6_000_000
    tx_power_mw: float = 20.0
    noise_floor_dbm: float = -98.0
    min_power_dbm: float = -110.0
    antenna_height_m: float = 1.895
    center_freq_ghz: float = 5.89
    beacon_interval_s: float = 10.0
    beacon_payload_bits: int = 320

    def __post_init__(self) -> None:
        if self.header_bits <= 0:
            raise ValueError(f"header_bits must be positive: {self.header_bits}")
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate_bps must be positive: {self.bitrate_bps}")
        if self.beacon_interval_s <= 0:
            raise ValueError(
                f"beacon_interval_s must be positive: {self.beacon_interval_s}"
            )
        if self.beacon_payload_bits <= 0:
            raise ValueError(
                f"beacon_payload_bits must be positive: {self.beacon_payload_bits}"
            )


@dataclass(frozen=True)
class CoverageZone:
    owner: str
    center: tuple[float, float]
    radius_m: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"coverage radius must be positive: {self.radius_m}")


def in_range(zone: CoverageZone, point: tuple[float, float]) -> bool:
    """Closed-ball membership: the boundary itself counts as covered."""
    return math.hypot(point[0] - zone.center[0], point[1] - zone.center[1]) <= zone.radius_m


def tx_duration_s(params: RadioParams, payload_bits: int) -> float:
    """Exact airtime in seconds: (header + payload) / bitrate."""
    if payload_bits < 0:
        raise ValueError(f"payload_bits must be >= 0: {payload_bits}")
    return (params.header_bits + payload_bits) / params.bitrate_bps


def tx_duration_us(params: RadioParams, payload_bits: int) -> int:
    """Airtime quantized up to whole microseconds for the event clock."""
    if payload_bits < 0:
        raise ValueError(f"payload_bits must be >= 0: {payload_bits}")
    bits = params.header_bits + payload_bits
    return (bits * US_PER_SECOND + params.bitrate_bps - 1) // params.bitrate_bps


def propagation_us(distance_m: float) -> int:
    """Signal flight time, rounded up to the microsecond clock."""
    if distance_m < 0:
        raise ValueError(f"distance must be >= 0: {distance_m}")
    return math.ceil(distance_m * US_PER_SECOND / PROPAGATION_MPS)


class Channel:
    """The shared medium of one coverage zone, serialized FIFO.

    A transmission enqueued while the channel is busy starts when it frees
    up; busy_until never moves backward. Receivers are decided by the caller
    at frame end, not at enqueue time.
    """

    def __init__(self, zone: CoverageZone) -> None:
        self.zone = zone
        self.busy_until_us = 0
        self.frames_carried = 0
        self.busy_time_us = 0

    def reserve(self, now_us: int, duration_us: int) -> tuple[int, int]:
        """Claim the next free slot; returns (start, end) of the airtime."""
        if duration_us <= 0:
            raise ValueError(f"duration must be positive: {duration_us}")
        start = max(now_us, self.busy_until_us)
        end = start + duration_us
        self.busy_until_us = end
        self.frames_carried += 1
        self.busy_time_us += duration_us
        return start, end


@dataclass(frozen=True)
class BackhaulLink:
    """Wired RSU-to-server link: fixed one-way latency, no contention."""

    latency_us: int = 300

    def __post_init__(self) -> None:
        if self.latency_us < 0:
            raise ValueError(f"latency must be >= 0: {self.latency_us}")


def receivers_in_zone(
    zone: CoverageZone,
    positions: list[tuple[str, tuple[float, float]]],
    exclude: str,
) -> list[str]:
    """Node ids (input order preserved) inside the zone, sender excluded."""
    return [
        node_id
        for node_id, point in positions
        if node_id != exclude and in_range(zone, point)
    ]
