"""Smoke test of the benchmark's tracers on one small run.

perfbench/tracing.py patches the simulator's methods by name and counts
events through EventQueue.schedule. A renamed method, or an event that
reaches the heap some other way, would otherwise show only in the
benchmark's traced run.
"""

import sys
from pathlib import Path

from vcachesim.engine import Simulation
from vcachesim.scenarios import urban_single

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402 - found through the path entry above


def traced_run(tracer):
    with tracing.Patches() as patches:
        tracer.install(patches)
        return Simulation(urban_single(count=10, seed=1)).run()


def test_span_and_call_counts_sum_to_the_events_processed():
    spans = tracing.SpanTracer()
    span_result = traced_run(spans)
    counter = tracing.CallCounter()
    count_result = traced_run(counter)

    assert span_result.events_processed == count_result.events_processed
    assert sum(counter.events.values()) == count_result.events_processed
    totals = spans.totals()
    span_events = {kind: totals.get(f"engine.{kind}", (0, 0.0))[0] for kind in tracing.EVENT_KINDS}
    assert span_events == counter.events
    assert counter.events["tick"] > 0 and counter.events["other"] == 0
    assert totals["simcore.schedule"][0] == counter.counts["schedule"]
