"""Per-run metric accumulation and the time-series CSV renderers.

The ledger stores raw timestamped events (deliveries, server fetches,
per-RSU request arrivals, cache hits/misses); every series is recomputed
from those events on demand, so sampled output and run totals can never
disagree.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import IO

from .simcore import format_time

SOURCE_RSU_HIT = "rsu-hit"
SOURCE_SERVER_FETCH = "server-fetch"
SOURCE_LOCAL_PRECACHE = "local-precache"
SOURCE_RELAY_HIT = "relay-hit"
DELIVERY_SOURCES = (
    SOURCE_RSU_HIT,
    SOURCE_SERVER_FETCH,
    SOURCE_LOCAL_PRECACHE,
    SOURCE_RELAY_HIT,
)

TARGET_SERVER = "server"
TARGET_ALL_RSUS = "all-rsus"


class NegativeCdt(ValueError):
    """A delivery record carried a negative delivery time."""


class UnknownRsu(KeyError):
    """A series was requested for an RSU id the run does not contain."""


@dataclass(frozen=True)
class DeliveryRecord:
    vehicle: str
    name: str
    first_request_at_us: int
    delivered_at_us: int
    cdt_us: int
    source: str

    def __post_init__(self) -> None:
        if self.cdt_us < 0:
            raise NegativeCdt(f"cdt {self.cdt_us} us for {self.vehicle}")
        if self.delivered_at_us < self.first_request_at_us:
            raise NegativeCdt(
                f"delivery at {format_time(self.delivered_at_us)} precedes the "
                f"request at {format_time(self.first_request_at_us)}"
            )
        if self.source not in DELIVERY_SOURCES:
            raise ValueError(f"unknown delivery source: {self.source!r}")


def sample_grid(duration_us: int, interval_us: int) -> list[int]:
    """Sample times 0, interval, 2*interval, ... plus the final instant."""
    grid = list(range(0, duration_us + 1, interval_us))
    if grid[-1] != duration_us:
        grid.append(duration_us)
    return grid


_AFTER_ALL = (2**63 - 1,)  # one sample instant, after every event a run can record


def _counts(stamps: list[int], times_us: list[int]) -> list[int]:
    """How many of the time-ordered stamps lie at or before each sample time."""
    return [bisect_right(stamps, t) for t in times_us]


class MetricsLedger:
    """Append-only event log for one run; series are derived views."""

    def __init__(self, rsu_ids: list[str]) -> None:
        self.rsu_ids = list(rsu_ids)
        self._rsu_id_set = set(rsu_ids)
        self.deliveries: list[DeliveryRecord] = []
        self.server_events: list[tuple[int, str]] = []  # (t_us, name text)
        self.rsu_events: list[tuple[int, str]] = []  # (t_us, rsu id)
        self.cache_events: list[tuple[int, str, bool]] = []  # (t_us, rsu id, hit)

    # -- recording ---------------------------------------------------------

    def record_delivery(self, record: DeliveryRecord) -> None:
        if self.deliveries and record.delivered_at_us < self.deliveries[-1].delivered_at_us:
            raise ValueError("deliveries must be recorded in time order")
        self.deliveries.append(record)

    def record_server_fetch(self, t_us: int, name: str) -> None:
        self.server_events.append((t_us, name))

    def record_rsu_request(self, t_us: int, rsu_id: str) -> None:
        if rsu_id not in self._rsu_id_set:
            raise UnknownRsu(rsu_id)
        self.rsu_events.append((t_us, rsu_id))

    def record_cache_event(self, t_us: int, rsu_id: str, hit: bool) -> None:
        if rsu_id not in self._rsu_id_set:
            raise UnknownRsu(rsu_id)
        self.cache_events.append((t_us, rsu_id, hit))

    # -- series ------------------------------------------------------------

    def avg_cdt_series(self, times_us: list[int]) -> list[tuple[int, int, float]]:
        """(time, deliveries so far, running average cdt in us) per sample.

        Sample points before the first delivery are omitted: a running
        average over nothing is undefined, not zero.
        """
        deliveries = self.deliveries
        totals = list(accumulate((r.cdt_us for r in deliveries), initial=0))
        counts = _counts([r.delivered_at_us for r in deliveries], times_us)
        return [(t, count, totals[count] / count) for t, count in zip(times_us, counts) if count]

    def request_count_series(
        self, times_us: list[int], target: str
    ) -> list[tuple[int, int]]:
        """Cumulative requests of one RSU, all RSUs or the server at each sample time."""
        if target == TARGET_SERVER:
            events = [t for t, _ in self.server_events]
        elif target == TARGET_ALL_RSUS:
            events = [t for t, _ in self.rsu_events]
        elif target in self._rsu_id_set:
            events = [t for t, rid in self.rsu_events if rid == target]
        else:
            raise UnknownRsu(target)
        events.sort()
        return list(zip(times_us, _counts(events, times_us)))

    def chr_series(
        self, times_us: list[int], scope: str = TARGET_ALL_RSUS
    ) -> list[tuple[int, int, int, float]]:
        """(time, hits, misses, ratio) per sample; undefined points omitted.

        The aggregate scope sums hits and misses across RSU caches before
        dividing.
        """
        if scope != TARGET_ALL_RSUS and scope not in self._rsu_id_set:
            raise UnknownRsu(scope)
        events = [(t, hit) for t, rid, hit in self.cache_events if scope in (TARGET_ALL_RSUS, rid)]
        hits_so_far = list(accumulate((hit for _, hit in events), initial=0))
        counts = _counts([t for t, _ in events], times_us)
        return [
            (t, hits_so_far[n], n - hits_so_far[n], hits_so_far[n] / n)
            for t, n in zip(times_us, counts)
            if n
        ]

    # -- run totals ----------------------------------------------------------
    # the last point of a series sampled once, after every event

    def final_avg_cdt_us(self) -> float | None:
        series = self.avg_cdt_series(_AFTER_ALL)
        return series[-1][2] if series else None

    def total_server_fetches(self) -> int:
        return len(self.server_events)

    def total_rsu_requests(self, target: str = TARGET_ALL_RSUS) -> int:
        if target == TARGET_SERVER:  # the series takes it, but it is no RSU: total_server_fetches
            raise UnknownRsu(target)
        return self.request_count_series(_AFTER_ALL, target)[-1][1]

    def final_chr(self, scope: str = TARGET_ALL_RSUS) -> float | None:
        series = self.chr_series(_AFTER_ALL, scope)
        return series[-1][3] if series else None

    def deliveries_by_source(self) -> dict[str, int]:
        out = {source: 0 for source in DELIVERY_SOURCES}
        for record in self.deliveries:
            out[record.source] += 1
        return out

    def max_cdt_us(self) -> int | None:
        if not self.deliveries:
            return None
        return max(r.cdt_us for r in self.deliveries)


# -- CSV rendering -----------------------------------------------------------
# One string per file, from the ledger's series, in one write. Times print as
# exact fixed-point seconds, once per grid point, and derived ratios and
# averages with 6 digits (_fmt_*, inlined), so identical runs are
# byte-identical; only RSU ids and scopes can need CSV quoting.


def _fmt_seconds(value_us: float) -> str:
    return f"{value_us / 1_000_000:.6f}"


def _fmt_ratio(value: float) -> str:
    return f"{value:.6f}"


def _between(field: str) -> str:
    """",field," as csv.writer writes the field inside a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(("", field, ""))
    return buffer.getvalue()[:-1]


def _by_time(columns: list[list[str]]) -> str:
    """The rows of each sample time in column order, as one string."""
    return "".join(chain.from_iterable(zip(*columns)))


def write_cdt_csv(stream: IO[str], ledger: MetricsLedger, times_us: list[int]) -> None:
    rows = [
        f"{format_time(t)},{avg_us / 1_000_000:.6f},{count}\n"
        for t, count, avg_us in ledger.avg_cdt_series(times_us)
    ]
    stream.write("time_s,avg_cdt_s,deliveries\n" + "".join(rows))


def write_server_requests_csv(
    stream: IO[str], ledger: MetricsLedger, times_us: list[int]
) -> None:
    rows = [
        f"{format_time(t)},{count}\n"
        for t, count in ledger.request_count_series(times_us, TARGET_SERVER)
    ]
    stream.write("time_s,cumulative\n" + "".join(rows))


def write_rsu_requests_csv(
    stream: IO[str], ledger: MetricsLedger, times_us: list[int]
) -> None:
    """One row per RSU at each sample time, in the ledger's RSU order."""
    times = list(map(format_time, times_us))
    columns = []
    for rsu_id in ledger.rsu_ids:
        between = _between(rsu_id)
        columns.append([
            f"{time}{between}{count}\n"
            for time, (_, count) in zip(times, ledger.request_count_series(times_us, rsu_id))
        ])
    stream.write("time_s,rsu_id,cumulative\n" + _by_time(columns))


def write_chr_csv(stream: IO[str], ledger: MetricsLedger, times_us: list[int]) -> None:
    """Aggregate rows first, then one row per RSU, at each sample time."""
    times = list(map(format_time, times_us))
    columns = []
    for scope in (TARGET_ALL_RSUS, *ledger.rsu_ids):
        series = ledger.chr_series(times_us, scope)
        # a series omits only its undefined prefix: its points are the
        # last len(series) sample times
        skipped = len(times) - len(series)
        between = _between(scope)
        columns.append([""] * skipped + [
            f"{time}{between}{hits},{misses},{ratio:.6f}\n"
            for time, (_, hits, misses, ratio) in zip(times[skipped:], series)
        ])
    stream.write("time_s,scope,hits,misses,chr\n" + _by_time(columns))



# -- trace rendering ---------------------------------------------------------
# A traced run keeps records (instant in us, KIND, *fields) of raw str and int
# values. TRACE_FIELDS is the trace grammar, each kind's fields in line order.
# The instant and the TRACE_TIMES fields print as seconds (format_time).

TRACE_FIELDS = {
    "SPAWN": ("vehicle", "road", "wanted"),
    "EXIT": ("vehicle",),
    "TX": ("kind", "sender", "channel", "name", "start", "end"),
    "FETCH": ("rsu", "name", "id"),
    "SERVER": ("name", "id"),
    "DELIVER": ("vehicle", "name", "source", "cdt"),
    "EVICT": ("rsu", "name"),
    "ANNOUNCE": ("rsu", "items"),
}
TRACE_TIMES = ("start", "end", "cdt")


def trace_text(records: list[tuple]) -> list[str]:
    """The trace.log lines of a run's records: t=<instant> KIND field=value ..."""
    lines = []
    for at_us, kind, *values in records:
        fields = [f"t={format_time(at_us)}", kind]
        for name, value in zip(TRACE_FIELDS[kind], values, strict=True):
            fields.append(f"{name}={format_time(value) if name in TRACE_TIMES else value}")
        lines.append(" ".join(fields))
    return lines
