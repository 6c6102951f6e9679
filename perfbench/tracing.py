"""Tracing for the benchmark's traced run, installed from outside the program.

Nothing in ``src/`` knows about this module. Each tracer replaces public
functions and methods of the simulator's modules with wrappers for the
duration of one unit of work, then puts the originals back.

* ``SpanTracer`` records a span (name, start, end, parent) at every layer
  boundary: each event handler (by wrapping the action handed to
  ``EventQueue.schedule``), ``MobilityWorld.tick``, the agents' frame,
  attempt, content and announce handlers, ``Channel.reserve``, the
  ``MetricsLedger`` series, ``write_outputs`` and the builders. Spans stay
  in memory until ``write_csv``. A span's self time is its duration minus
  the time its child spans cover.
* ``CallCounter`` counts the hot leaves (``is_active``, ``fix``,
  ``advance_kinematics``, ``in_range``, ``LruStore.get``/``put``) in a
  separate pass, so that their wrappers do not inflate the span self
  times. It also counts events by handler kind, frames by kind and the
  tick scan, which the span pass does not see.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

from vcachesim import cli, content, engine, metrics, mobility, protocol, radio, scenarios, simcore

# Event handler kinds, keyed by the name of the function an event calls.
# Actions scheduled through the services' ``after`` are lambdas.
HANDLER_KINDS = {
    "_on_tick": "tick",
    "_on_attempt": "attempt",
    "_on_beacon": "beacon",
    "_on_frame_end": "frame_end",
    "_on_receive": "receive",
    "_on_announce": "announce",
    "_on_server_request": "server",
    "_on_backhaul_return": "backhaul",
    "<lambda>": "deferred",
}
EVENT_KINDS = (*HANDLER_KINDS.values(), "other")
FRAME_KINDS = ("request", "response", "beacon", "relayrebroadcast", "other")

# Span names are "<layer>.<what>"; the layer is the module that does the work.
LAYERS = ("simcore", "engine", "mobility", "radio", "protocol", "metrics", "cli", "scenarios")


def handler_kind(action) -> str:
    func = getattr(action, "func", action)  # functools.partial or plain callable
    return HANDLER_KINDS.get(getattr(func, "__name__", ""), "other")


class Patches:
    """Replace attributes defined directly on an owner; restore them on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make_wrapper) -> None:
        original = vars(owner)[name]  # KeyError if the owner no longer defines it
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _protocol_handlers() -> list[tuple[type, str, str]]:
    """(class, method, span name) for every agent handler the engine calls."""
    targets = [
        (protocol.VehicleAgent, "on_attempt", "protocol.on_attempt"),
        (protocol.VehicleAgent, "on_frame", "protocol.vehicle_on_frame"),
        (protocol.RsuBase, "on_frame", "protocol.rsu_on_frame"),
    ]
    for cls in (protocol.RsuBase, *protocol.RsuBase.__subclasses__()):
        for method in ("on_content", "on_announce"):
            if method in vars(cls):
                targets.append((cls, method, f"protocol.{method}"))
    return targets


class SpanTracer:
    """Spans at layer boundaries, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn):
        """Wrap fn so that every call records one span called name."""
        nid = self._name_id(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return spanned

    def install(self, patches: Patches) -> None:
        event_names = {kind: f"engine.{kind}" for kind in EVENT_KINDS}

        def schedule_wrapper(original):
            schedule = self.span("simcore.schedule", original)

            def traced_schedule(queue, at_us, action):
                handler = self.span(event_names[handler_kind(action)], action)
                return schedule(queue, at_us, handler)

            return traced_schedule

        patches.wrap(simcore.EventQueue, "schedule", schedule_wrapper)
        span = self.span
        patches.wrap(simcore.EventQueue, "run_until", lambda f: span("simcore.run_until", f))
        patches.wrap(engine.Simulation, "__init__", lambda f: span("engine.init", f))
        patches.wrap(engine.Simulation, "run", lambda f: span("engine.run", f))
        patches.wrap(engine, "generate_arrivals", lambda f: span("mobility.arrivals", f))
        patches.wrap(mobility.MobilityWorld, "tick", lambda f: span("mobility.tick", f))
        patches.wrap(radio.Channel, "reserve", lambda f: span("radio.reserve", f))
        for cls, method, name in _protocol_handlers():
            patches.wrap(cls, method, lambda f, name=name: span(name, f))
        for method in ("avg_cdt_series", "request_count_series", "chr_series"):
            patches.wrap(metrics.MetricsLedger, method, lambda f: span("metrics.series", f))
        patches.wrap(cli, "write_outputs", lambda f: span("cli.write_outputs", f))
        for builder in scenarios.BUILDERS:
            patches.wrap(scenarios, builder, lambda f: span("scenarios.build", f))
        for module in (scenarios, engine):
            patches.wrap(module, "validate_config", lambda f: span("scenarios.validate", f))

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        if self._stack != [-1]:
            raise RuntimeError("totals() called while spans are still open")
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(len(start)):
            duration = end[i] - start[i]
            nid = name_of[i]
            calls[nid] += 1
            self_ns[nid] += duration
            if parent[i] >= 0:
                self_ns[name_of[parent[i]]] -= duration
        return {
            name: (calls[nid], self_ns[nid] / 1e9) for nid, name in enumerate(self.names)
        }

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8", newline="") as stream:
            out = csv.writer(stream, lineterminator="\n")
            out.writerow(["index", "name", "start_ns", "end_ns", "parent"])
            names, name_of, parent, start, end = (
                self.names, self.name_of, self.parent, self.start, self.end
            )
            for i in range(len(start)):
                out.writerow([i, names[name_of[i]], start[i] - t0, end[i] - t0, parent[i]])


class ScanCounter:
    """How many vehicles the tick scan visits, and how many of them are active."""

    def __init__(self) -> None:
        self.scanned = 0
        self.active = 0

    def install(self, patches: Patches) -> None:
        def make(original):
            @functools.wraps(original)  # keeps the name handler_kind looks up
            def counted_tick(sim):
                original(sim)
                # the scan loops run after exits and spawns, over every
                # vehicle ever spawned
                self.scanned += len(sim.vehicles)
                self.active += sim.world.spawned_total - sim.world.exited_total

            return counted_tick

        patches.wrap(engine.Simulation, "_on_tick", make)

    @property
    def active_ratio(self) -> float:
        return self.active / self.scanned if self.scanned else 0.0


class CallCounter:
    """Counts of hot leaves, events, frames and the tick scan."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.events = dict.fromkeys(EVENT_KINDS, 0)
        self.frames = dict.fromkeys(FRAME_KINDS, 0)
        self.scan = ScanCounter()
        self.peak_queue_len = 0
        self.lru_ns = 0
        self.handler: str | None = None

    def install(self, patches: Patches) -> None:
        counts = self.counts

        def counted(key):
            def make(original):
                def wrapper(*args):
                    counts[key] += 1
                    return original(*args)

                return wrapper

            return make

        self.scan.install(patches)
        patches.wrap(simcore.EventQueue, "schedule", self._schedule_wrapper)
        patches.wrap(mobility.MobilityWorld, "is_active", counted("is_active"))
        patches.wrap(mobility.MobilityWorld, "fix", counted("fix"))
        patches.wrap(mobility, "advance_kinematics", counted("advance"))
        patches.wrap(engine, "in_range", self._in_range_wrapper)
        patches.wrap(engine.Simulation, "transmit", self._transmit_wrapper)
        patches.wrap(content.LruStore, "get", self._lru_get_wrapper)
        patches.wrap(content.LruStore, "put", self._lru_put_wrapper)
        for method in (
            "record_delivery",
            "record_server_fetch",
            "record_rsu_request",
            "record_cache_event",
        ):
            patches.wrap(metrics.MetricsLedger, method, counted("record"))

    def _schedule_wrapper(self, original):
        def counted_schedule(queue, at_us, action):
            kind = handler_kind(action)
            self.counts["schedule"] += 1
            if kind == "receive":
                self.counts["receivers_scheduled"] += 1

            def counted_action():
                self.events[kind] += 1
                self.handler = kind
                try:
                    action()
                finally:
                    self.handler = None

            seq = original(queue, at_us, counted_action)
            self.peak_queue_len = max(self.peak_queue_len, len(queue))
            return seq

        return counted_schedule

    def _in_range_wrapper(self, original):
        counts = self.counts

        def counted_in_range(zone, point):
            counts["in_range"] += 1
            if self.handler == "frame_end":
                counts["fanout_tests"] += 1
            return original(zone, point)

        return counted_in_range

    def _transmit_wrapper(self, original):
        frames = self.frames

        def counted_transmit(sim, channel_owner, frame, sender):
            kind = type(frame).__name__.lower()
            frames[kind if kind in frames else "other"] += 1
            return original(sim, channel_owner, frame, sender)

        return counted_transmit

    def _lru_get_wrapper(self, original):
        counts = self.counts
        clock = time.perf_counter_ns

        def timed_get(store, name):
            t0 = clock()
            item = original(store, name)
            self.lru_ns += clock() - t0
            counts["lru_get"] += 1
            return item

        return timed_get

    def _lru_put_wrapper(self, original):
        counts = self.counts
        clock = time.perf_counter_ns

        def timed_put(store, item):
            t0 = clock()
            evicted = original(store, item)
            self.lru_ns += clock() - t0
            counts["lru_put"] += 1
            if evicted is not None:
                counts["lru_evictions"] += 1
            return evicted

        return timed_put
