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


def format_time(t_us: int) -> str:
    """Render microseconds as decimal seconds with 6 exact fractional digits.

    Pure integer arithmetic: no float round-trip, so the text form is stable
    across runs and platforms.
    """
    if t_us < 0:
        return "-" + format_time(-t_us)
    return f"{t_us // US_PER_SECOND}.{t_us % US_PER_SECOND:06d}"


class SchedulingInPast(ValueError):
    """An event was scheduled before the clock, or the clock moved back or past an event."""


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
        self.processed_total = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, at_us: int, action: Callable[[], None]) -> None:
        """Enqueue an action, after those already queued at its instant."""
        if at_us < self.now_us:
            raise SchedulingInPast(
                f"event at t={format_time(at_us)} is before the clock "
                f"t={format_time(self.now_us)}"
            )
        heapq.heappush(self._heap, (at_us, self._next_seq, action))
        self._next_seq += 1

    def peek_time(self) -> int | None:
        """The time of the earliest pending event; None when none is pending."""
        return self._heap[0][0] if self._heap else None

    def advance_to(self, at_us: int) -> None:
        """Move the clock forward to at_us, before every pending event, and
        process none: for a handler that runs a later instant itself."""
        if at_us < self.now_us or (self._heap and self._heap[0][0] <= at_us):
            raise SchedulingInPast(
                f"cannot move the clock from t={format_time(self.now_us)} to "
                f"t={format_time(at_us)}: back, or at or past a pending event"
            )
        self.now_us = at_us

    def run_until(self, horizon_us: int) -> None:
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
        while self._heap and self._heap[0][0] <= horizon_us:
            at_us, _seq, action = heapq.heappop(self._heap)
            self.now_us = at_us
            self.processed_total += 1
            action()


class RandomSource:
    """Seeded uniform integer draws; the only randomness in a run.

    The draws are part of the output contract, for they pick every arrival
    time, road and wanted item. draw(n) runs the rejection loop that
    CPython's random.Random(seed).randrange(n) runs on getrandbits (draw
    n.bit_length() bits until the value is below n), so it returns the same
    values, without randrange's argument handling.
    """

    def __init__(self, seed: int) -> None:
        self._bits = random.Random(seed).getrandbits

    def draw(self, n: int) -> int:
        """Uniform integer in [0, n), n >= 1."""
        bits = self._bits
        k = n.bit_length()  # not (n - 1): n may be 1
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def draws(self, n: int, count: int) -> list[int]:
        """What count successive calls of draw(n) return, in order."""
        bits = self._bits
        k = n.bit_length()
        out = []
        for _ in range(count):
            r = bits(k)
            while r >= n:
                r = bits(k)
            out.append(r)
        return out
