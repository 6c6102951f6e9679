"""Deterministic event queue, fixed-point clock, and seeded randomness.

Time is integer microseconds everywhere. Floating point is allowed in
geometry and kinematics, but anything that orders events or lands in an
output file goes through this module's integer representation so that
repeated runs are byte-identical.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

US_PER_SECOND = 1_000_000


def seconds_to_us(seconds: float) -> int:
    """Convert seconds to integer microseconds (nearest)."""
    return int(round(seconds * US_PER_SECOND))


def us_to_seconds(t_us: int) -> float:
    return t_us / US_PER_SECOND


def format_time(t_us: int) -> str:
    """Render microseconds as decimal seconds with 6 exact fractional digits.

    Pure integer arithmetic: no float round-trip, so the text form is stable
    across runs and platforms.
    """
    if t_us < 0:
        return "-" + format_time(-t_us)
    return f"{t_us // US_PER_SECOND}.{t_us % US_PER_SECOND:06d}"


class SchedulingInPast(ValueError):
    """An event was scheduled before the current clock."""


class ZeroRange(ValueError):
    """A uniform draw was requested from an empty range."""


class EventQueue:
    """Min-heap of timed callbacks; ties resolved by insertion order.

    The clock advances to each event's timestamp as it is processed and
    never runs backward. Scheduling at the current instant is fine; handlers
    routinely chain work at the same timestamp and rely on FIFO order.
    """

    def __init__(self) -> None:
        self.now_us = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._next_seq = 0
        self.scheduled_total = 0
        self.processed_total = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, at_us: int, action: Callable[[], None]) -> int:
        """Enqueue an action; returns its sequence number."""
        if at_us < self.now_us:
            raise SchedulingInPast(
                f"event at t={format_time(at_us)} is before the clock "
                f"t={format_time(self.now_us)}"
            )
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (at_us, seq, action))
        self.scheduled_total += 1
        return seq

    def peek_time(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def run_until(self, horizon_us: int) -> int:
        """Process every event due at or before the horizon, in time order.

        Events scheduled by handlers during the call are processed too when
        they fall within the horizon. The clock ends at the last processed
        event's time; it is not pushed to the horizon when the queue runs dry
        earlier.
        """
        if horizon_us < self.now_us:
            raise SchedulingInPast(
                f"horizon t={format_time(horizon_us)} is before the clock "
                f"t={format_time(self.now_us)}"
            )
        processed = 0
        while self._heap and self._heap[0][0] <= horizon_us:
            at_us, _seq, action = heapq.heappop(self._heap)
            self.now_us = at_us
            self.processed_total += 1
            processed += 1
            action()
        return processed


class RandomSource:
    """Seeded uniform integer draws; the only randomness in a run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def draw(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ZeroRange(f"cannot draw from a range of size {n}")
        return self._rng.randrange(n)
