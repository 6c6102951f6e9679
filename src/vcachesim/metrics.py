"""Per-run metric accumulation and the time-series CSV renderers.

The ledger stores raw timestamped events (deliveries, server fetches,
per-RSU request arrivals, cache hits/misses); every series is recomputed
from those events on demand, so sampled output and run totals can never
disagree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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
        out: list[tuple[int, int, float]] = []
        idx = 0
        count = 0
        total_us = 0
        for t in times_us:
            while idx < len(self.deliveries) and self.deliveries[idx].delivered_at_us <= t:
                count += 1
                total_us += self.deliveries[idx].cdt_us
                idx += 1
            if count:
                out.append((t, count, total_us / count))
        return out

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
        out: list[tuple[int, int]] = []
        idx = 0
        for t in times_us:
            while idx < len(events) and events[idx] <= t:
                idx += 1
            out.append((t, idx))
        return out

    def chr_series(
        self, times_us: list[int], scope: str = TARGET_ALL_RSUS
    ) -> list[tuple[int, int, int, float]]:
        """(time, hits, misses, ratio) per sample; undefined points omitted.

        The aggregate scope sums hits and misses across RSU caches before
        dividing.
        """
        if scope != TARGET_ALL_RSUS and scope not in self._rsu_id_set:
            raise UnknownRsu(scope)
        events = [
            (t, hit)
            for t, rid, hit in self.cache_events
            if scope == TARGET_ALL_RSUS or rid == scope
        ]
        out: list[tuple[int, int, int, float]] = []
        idx = 0
        hits = 0
        misses = 0
        for t in times_us:
            while idx < len(events) and events[idx][0] <= t:
                if events[idx][1]:
                    hits += 1
                else:
                    misses += 1
                idx += 1
            if hits + misses:
                out.append((t, hits, misses, hits / (hits + misses)))
        return out

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
# Times print as exact fixed-point seconds; derived ratios and averages use a
# fixed 6-digit format so identical runs are byte-identical.


def _fmt_seconds(value_us: float) -> str:
    return f"{value_us / 1_000_000:.6f}"


def _fmt_ratio(value: float) -> str:
    return f"{value:.6f}"


def _writer(stream: IO[str]) -> csv.writer:
    return csv.writer(stream, lineterminator="\n")


def write_cdt_csv(stream: IO[str], ledger: MetricsLedger, times_us: list[int]) -> None:
    out = _writer(stream)
    out.writerow(["time_s", "avg_cdt_s", "deliveries"])
    for t, count, avg_us in ledger.avg_cdt_series(times_us):
        out.writerow([format_time(t), _fmt_seconds(avg_us), count])


def write_server_requests_csv(
    stream: IO[str], ledger: MetricsLedger, times_us: list[int]
) -> None:
    out = _writer(stream)
    out.writerow(["time_s", "cumulative"])
    for t, count in ledger.request_count_series(times_us, TARGET_SERVER):
        out.writerow([format_time(t), count])


def write_rsu_requests_csv(
    stream: IO[str], ledger: MetricsLedger, times_us: list[int]
) -> None:
    out = _writer(stream)
    out.writerow(["time_s", "rsu_id", "cumulative"])
    per_rsu = {
        rsu_id: ledger.request_count_series(times_us, rsu_id)
        for rsu_id in ledger.rsu_ids
    }
    for i, t in enumerate(times_us):
        for rsu_id in ledger.rsu_ids:
            out.writerow([format_time(t), rsu_id, per_rsu[rsu_id][i][1]])


def write_chr_csv(stream: IO[str], ledger: MetricsLedger, times_us: list[int]) -> None:
    """Aggregate rows first, then one row per RSU, at each sample time."""
    out = _writer(stream)
    out.writerow(["time_s", "scope", "hits", "misses", "chr"])
    scopes = [TARGET_ALL_RSUS] + list(ledger.rsu_ids)
    series = {scope: {p[0]: p for p in ledger.chr_series(times_us, scope)} for scope in scopes}
    for t in times_us:
        for scope in scopes:
            point = series[scope].get(t)
            if point is not None:
                _, hits, misses, ratio = point
                out.writerow([format_time(t), scope, hits, misses, _fmt_ratio(ratio)])

