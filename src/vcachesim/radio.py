"""Range-based broadcast zones and per-zone FIFO channel contention.

Reception is a deterministic closed-ball range test; there is no path-loss
model, so radio configuration is only airtime (header size, bitrate) and
beaconing. Congestion enters purely through channel serialization: one
frame in the air per zone at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simcore import US_PER_SECOND

PROPAGATION_MPS = 300_000_000.0  # meters per second; 300 m per microsecond


@dataclass(frozen=True)
class RadioParams:
    header_bits: int = 80
    bitrate_bps: int = 6_000_000
    beacon_interval_s: float = 10.0
    beacon_payload_bits: int = 320


def in_range(zone, point: tuple[float, float]) -> bool:
    """Closed-ball membership of an RSU's zone (its spec's center and
    radius_m): the boundary itself counts as covered."""
    return math.hypot(point[0] - zone.center[0], point[1] - zone.center[1]) <= zone.radius_m


def tx_duration_us(params: RadioParams, payload_bits: int) -> int:
    """Airtime quantized up to whole microseconds for the event clock; at
    least 1 us, for every frame has a header."""
    bits = params.header_bits + payload_bits
    return (bits * US_PER_SECOND + params.bitrate_bps - 1) // params.bitrate_bps


def propagation_us(distance_m: float) -> int:
    """Signal flight time, rounded up to the microsecond clock."""
    return math.ceil(distance_m * US_PER_SECOND / PROPAGATION_MPS)


class Channel:
    """The shared medium of one coverage zone, serialized FIFO.

    A transmission enqueued while the channel is busy starts when it frees
    up; busy_until never moves backward. Receivers are decided by the caller
    at frame end, not at enqueue time.
    """

    def __init__(self) -> None:
        self.busy_until_us = 0
        self.frames_carried = 0
        self.busy_time_us = 0

    def reserve(self, now_us: int, duration_us: int) -> tuple[int, int]:
        """Claim the next free slot; returns (start, end) of the airtime."""
        start = max(now_us, self.busy_until_us)
        end = start + duration_us
        self.busy_until_us = end
        self.frames_carried += 1
        self.busy_time_us += duration_us
        return start, end
