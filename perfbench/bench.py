"""The vcachesim benchmark: one workload, timed untraced or traced.

``--trace 0`` repeats the workload's unit of work until ``--seconds`` have
passed, with SETUP_SLOTS set-up-only passes before each unit, and reports
the end-to-end metrics as medians. Their times are scaled to a reference
host speed measured while they run (hostspeed.py). ``--trace 1`` repeats untraced units in
the same way (the base of trace.overhead), then runs one unit under the
span tracer and one under the call counter, and reports the per-layer
metrics. Every run checks its CSV digests against references.json; the
traced run also checks that the layer counts are conserved.

Human-readable detail goes to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE / "out"
REFERENCE_FILE = HERE / "references.json"

SETUP_SLOTS = 9
CHANNEL_RSUS = ("r0", "r1", "r2")
COVERAGE_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "run_s": "s",
    "sim_s_per_host_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="vcachesim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Runs attempted and failed, and what went wrong."""

    def __init__(self, table: dict[str, dict[str, str]]) -> None:
        self.table = table
        self.first_seen: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_digests(self, outcome) -> None:
        """Compare with the reference; a seed outside it must repeat itself."""
        run_id = outcome.spec.run_id
        expected = self.table.get(run_id)
        if expected is None:
            expected = self.first_seen.setdefault(run_id, outcome.digests)
        if outcome.digests != expected:
            self.failed += 1
            self.problems.append(f"{run_id}: CSV digests differ from the reference")

    def unreferenced(self) -> list[str]:
        return sorted(self.first_seen)


def run_unit(specs, out_dir: Path, tally: Tally, keep: bool):
    """One unit of work. Returns the outcomes, or None if a run raised.

    Without keep, each outcome is reduced to its stamps and simulated end
    time at once, so that no finished simulation stays alive while the
    next one runs.
    """
    kept = []
    for spec in specs:
        tally.attempted += 1
        try:
            outcome = workloads.execute(spec, out_dir)
        except Exception:
            tally.failed += 1
            tally.problems.append(f"{spec.run_id}: raised")
            traceback.print_exc()
            return None
        tally.check_digests(outcome)
        if keep:
            kept.append(outcome)
        else:
            kept.append((outcome.stamps, outcome.sim.queue.now_us))
        del outcome
    return kept


@dataclass
class UnitTiming:
    """Host seconds of one unit, with the calibration handler's time taken out.

    scale is the host-speed factor (hostspeed.Sampler.scale) over the unit
    and the set-up passes made just before it; a time times scale is in
    reference seconds.
    """

    total_s: float  # build to last file written, summed over the unit's runs
    run_s: float  # inside run(), summed over the unit's runs
    simulated_s: float
    setup_s: list[float]  # one per set-up slot
    scale: float


def timed_units(specs, seconds: float, out_dir: Path, tally: Tally, setup_slots: int = 0):
    """Untraced units until the time is up, with setup_slots set-up-only
    passes before each, all under the host-speed sampler."""
    clock = time.perf_counter
    units = []
    deadline = clock() + seconds
    with hostspeed.Sampler() as sampler:
        while True:
            # A finished Simulation can sit in a reference cycle (events left
            # past the horizon hold its bound methods); free it now, so that
            # each unit starts from the same heap and peak_rss_mb does not
            # depend on when the cyclic collector last ran.
            gc.collect()
            start = clock()
            setups = []
            for _ in range(setup_slots):
                t0 = clock()
                for spec in specs:
                    workloads.setup_only(spec)
                t1 = clock()
                setups.append(t1 - t0 - sampler.busy(t0, t1))
            unit = run_unit(specs, out_dir, tally, keep=False)
            if unit is not None:
                units.append(
                    UnitTiming(
                        total_s=sum(t3 - t0 - sampler.busy(t0, t3) for (t0, _, _, t3), _ in unit),
                        run_s=sum(t2 - t1 - sampler.busy(t1, t2) for (_, t1, t2, _), _ in unit),
                        simulated_s=sum(now_us for _, now_us in unit) / 1e6,
                        setup_s=setups,
                        scale=sampler.scale(start, clock()),
                    )
                )
            if clock() >= deadline:
                return units


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    text = f"{name}: median {statistics.median(values):.6g} {unit}, n={n}"
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", q1 {q1:.6g}, q3 {q3:.6g}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        text += f", p{pct} {ordered[min(n - 1, int(n * pct / 100))]:.6g}"
    else:
        text += ", no tail percentile (fewer than 20 samples)"
    return text + f", min {ordered[0]:.6g}, max {ordered[-1]:.6g}"


def end_to_end(specs, args, out_dir: Path, tally: Tally):
    units = timed_units(specs, args.seconds, out_dir, tally, SETUP_SLOTS)
    if not units:
        return None
    run_s = [u.total_s * u.scale for u in units]
    rate = [u.simulated_s / (u.run_s * u.scale) for u in units]
    # Set-up passes take milliseconds, so a slow stretch of the host can
    # cover every pass before one unit. Each slot therefore averages its
    # passes over the whole run, so that set-up time is sampled across the
    # same stretch of time as run_s.
    scaled_setups = ([s * u.scale for s in u.setup_s] for u in units)
    setup = [statistics.fmean(slot) for slot in zip(*scaled_setups)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(describe("run_s", run_s, "s"))
    print(describe("sim_s_per_host_s", rate, "s/s"))
    print(describe("setup_s", setup, "s"))
    print(f"peak_rss_mb: {peak_mb:.6g} MB (whole process)")
    print(describe("unscaled run_s", [u.total_s for u in units], "host s"))
    print(describe("host-speed scale", [u.scale for u in units], "ref s per host s"))
    return {
        "run_s": statistics.median(run_s),
        "sim_s_per_host_s": statistics.median(rate),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }


def traced(specs, args, out_dir: Path, tally: Tally):
    """Per-layer metrics from one span pass and one counting pass."""
    units = timed_units(specs, args.seconds, out_dir, tally)
    if not units:
        return None
    # The traced passes run without the sampler, so their base is the
    # unscaled untraced time; events_per_s is a throughput and is scaled.
    untraced_run_s = statistics.median(u.total_s for u in units)
    untraced_sim_s = statistics.median(u.run_s * u.scale for u in units)
    print(describe("unscaled untraced run_s", [u.total_s for u in units], "host s"))

    spans = tracing.SpanTracer()
    with tracing.Patches() as patches:
        spans.install(patches)
        span_unit = run_unit(specs, out_dir, tally, keep=True)
    counter = tracing.CallCounter()
    with tracing.Patches() as patches:
        counter.install(patches)
        count_unit = run_unit(specs, out_dir, tally, keep=True)
    if span_unit is None or count_unit is None:
        return None
    spans.write_csv(out_dir / "spans.csv")
    totals = spans.totals()
    traced_run_s = sum(o.total_s for o in span_unit)
    metrics = layer_metrics(
        totals, counter, count_unit, traced_run_s, untraced_run_s, untraced_sim_s
    )
    tally.problems.extend(conservation_problems(totals, counter, span_unit, count_unit))
    coverage = metrics["trace.self_coverage"]
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        tally.problems.append(f"span self times cover {coverage:.3f} of the traced run_s")
    return metrics


def layer_metrics(totals, counter, outcomes, traced_run_s, untraced_run_s, untraced_sim_s):
    def self_s(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0))[1] for name in names)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    counts = counter.counts
    events = sum(o.sim.queue.processed_total for o in outcomes)
    fanout_tests = counts["fanout_tests"]
    lookups = [hit for o in outcomes for _, _, hit in o.result.ledger.cache_events]
    m: dict[str, float] = {
        "simcore.events": events,
        "simcore.events_per_s": events / untraced_sim_s,
        "simcore.schedule_s": self_s("simcore.schedule"),
        "simcore.schedule_calls": counts["schedule"],
        "simcore.loop_self_s": self_s("simcore.run_until"),
        "simcore.peak_queue_len": counter.peak_queue_len,
        "engine.tick_scan_s": self_s("engine.tick"),
        "engine.scan_active_ratio": counter.scan.active_ratio,
        "engine.fanout_s": self_s("engine.frame_end"),
        "engine.init_s": self_s("engine.init"),
    }
    for kind in tracing.EVENT_KINDS:
        m[f"engine.events.{kind}"] = counter.events[kind]
    m.update(
        {
            "mobility.tick_s": self_s("mobility.tick"),
            "mobility.advance_calls": counts["advance"],
            "mobility.is_active_calls": counts["is_active"],
            "mobility.fix_calls": counts["fix"],
            "mobility.arrivals_s": self_s("mobility.arrivals"),
            "radio.in_range_calls": counts["in_range"],
            "radio.fanout_tests": fanout_tests,
            "radio.receivers_scheduled": counts["receivers_scheduled"],
            "radio.fanout_yield": (
                counts["receivers_scheduled"] / fanout_tests if fanout_tests else 0.0
            ),
            "radio.reserve_s": self_s("radio.reserve"),
        }
    )
    for kind in tracing.FRAME_KINDS:
        m[f"radio.frames.{kind}"] = counter.frames[kind]
    for rsu_id in CHANNEL_RSUS:
        sims = [o.sim for o in outcomes if rsu_id in o.sim.channels]
        busy = sum(sim.channels[rsu_id].busy_time_us for sim in sims)
        span_us = sum(sim.duration_us for sim in sims)
        m[f"radio.channel_util.{rsu_id}"] = busy / span_us if span_us else 0.0
    m.update(
        {
            "protocol.vehicle_on_frame_s": self_s("protocol.vehicle_on_frame"),
            "protocol.vehicle_on_frame_calls": calls("protocol.vehicle_on_frame"),
            "protocol.rsu_on_frame_s": self_s("protocol.rsu_on_frame"),
            "protocol.rsu_on_frame_calls": calls("protocol.rsu_on_frame"),
            "protocol.on_attempt_s": self_s("protocol.on_attempt"),
            "protocol.on_attempt_calls": calls("protocol.on_attempt"),
            "content.lru_get_calls": counts["lru_get"],
            "content.lru_put_calls": counts["lru_put"],
            "content.lru_evictions": counts["lru_evictions"],
            "content.lru_s": counter.lru_ns / 1e9,
            "content.rsu_chr": sum(lookups) / len(lookups) if lookups else 0.0,
            "metrics.record_calls": counts["record"],
            "metrics.series_s": self_s("metrics.series"),
            "cli.write_outputs_s": self_s("cli.write_outputs"),
            "cli.bytes_written": sum(o.bytes_written for o in outcomes),
            "scenarios.build_s": self_s("scenarios.build", "scenarios.validate"),
        }
    )
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, (_, seconds) in totals.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m.update(
        {
            "trace.run_s": traced_run_s,
            "trace.untraced_run_s": untraced_run_s,
            "trace.overhead": traced_run_s / untraced_run_s,
            "trace.self_coverage": sum(layer_self.values()) / traced_run_s,
        }
    )
    return m


def conservation_problems(totals, counter, span_unit, count_unit) -> list[str]:
    problems = []

    def expect(ok: bool, text: str) -> None:
        if not ok:
            problems.append(f"conservation: {text}")

    for label, unit in (("span pass", span_unit), ("count pass", count_unit)):
        processed = sum(o.result.events_processed for o in unit)
        expect(
            processed == sum(o.sim.queue.processed_total for o in unit),
            f"{label}: events_processed differs from the queue's count",
        )
        for o in unit:
            r = o.result
            by_source = sum(r.ledger.deliveries_by_source().values())
            expect(
                by_source == r.satisfied == r.spawned,
                f"{label} {o.spec.run_id}: deliveries {by_source}, satisfied "
                f"{r.satisfied}, spawned {r.spawned}",
            )
    processed = sum(o.result.events_processed for o in count_unit)
    expect(
        sum(counter.events.values()) == processed,
        f"engine.events.* sum to {sum(counter.events.values())}, not {processed}",
    )
    span_events = {kind: totals.get(f"engine.{kind}", (0, 0.0))[0] for kind in tracing.EVENT_KINDS}
    expect(
        sum(span_events.values()) == sum(o.result.events_processed for o in span_unit),
        "handler spans do not sum to the span pass's events_processed",
    )
    expect(span_events == counter.events, "handler counts differ between the two passes")
    expect(
        totals.get("simcore.schedule", (0, 0.0))[0] == counter.counts["schedule"],
        "schedule calls differ between the two passes",
    )
    carried = sum(ch.frames_carried for o in count_unit for ch in o.sim.channels.values())
    expect(
        sum(counter.frames.values()) == carried,
        f"radio.frames.* sum to {sum(counter.frames.values())}, channels carried {carried}",
    )

    def fingerprint(o):
        r = o.result
        return (r.events_processed, r.spawned, r.exited, r.satisfied, r.server_fetches)

    expect(
        [fingerprint(o) for o in span_unit] == [fingerprint(o) for o in count_unit],
        "the two traced passes ran differently",
    )
    return problems


def layer_unit(name: str) -> str:
    if name == "simcore.events_per_s":
        return "1/s"
    if name == "cli.bytes_written":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if ".channel_util." in name or name.endswith(
        ("_ratio", "_yield", "_chr", ".overhead", "_coverage")
    ):
        return "ratio"
    return "count"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCE_FILE.read_text())["digests"][args.workload]

    specs = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = OUT_ROOT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    tally = Tally(references)
    if args.trace:
        values = traced(specs, args, out_dir, tally)
    else:
        values = end_to_end(specs, args, out_dir, tally)
    for problem in tally.problems:
        print(f"problem: {problem}")
    if tally.unreferenced():
        print(
            f"seed {args.seed} is outside the reference table: "
            f"{len(tally.unreferenced())} run(s) checked for repeat agreement only"
        )
    if values is None:
        print("perfbench: no unit of work completed", file=sys.stderr)
        return 1
    units = {name: layer_unit(name) for name in values} if args.trace else END_TO_END_UNITS
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0
