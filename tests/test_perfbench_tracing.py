"""Smoke test of the benchmark's tracers on one small run.

perfbench/tracing.py patches the simulator's methods by name, counts
events through EventQueue.schedule and frames through Simulation.transmit.
A renamed method, an event that reaches the heap some other way, or a frame
that takes airtime without transmit would otherwise show only in the
benchmark's traced run.
"""

import sys
from pathlib import Path

from vcachesim.engine import Simulation
from vcachesim.protocol import VehicleAgent
from vcachesim.scenarios import urban_single

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402 - found through the path entry above


def small_run():
    return Simulation(urban_single(count=10, seed=1))


def traced_run(tracer):
    """Run the small config under tracer; returns the finished Simulation."""
    with tracing.Patches() as patches:
        tracer.install(patches)
        sim = small_run()
        sim.run()
        return sim


def test_span_and_call_counts_sum_to_the_events_processed():
    spans = tracing.SpanTracer()
    span_sim = traced_run(spans)
    counter = tracing.CallCounter()
    count_sim = traced_run(counter)

    processed = count_sim.queue.processed_total
    assert span_sim.queue.processed_total == processed
    assert sum(counter.events.values()) == processed
    totals = spans.totals()
    span_events = {kind: totals.get(f"engine.{kind}", (0, 0.0))[0] for kind in tracing.EVENT_KINDS}
    assert span_events == counter.events
    assert counter.events["tick"] > 0 and counter.events["other"] == 0
    assert totals["simcore.schedule"][0] == counter.counts["schedule"]


def test_frames_sum_to_what_the_channels_carried():
    counter = tracing.CallCounter()
    sim = traced_run(counter)
    carried = sum(channel.frames_carried for channel in sim.channels.values())
    assert sum(counter.frames.values()) == carried
    assert counter.frames["beacon"] > 0 and counter.frames["request"] > 0


def test_attempts_and_beacons_run_inside_the_tick_and_are_still_traced(monkeypatch):
    counter = tracing.CallCounter()
    traced_run(counter)
    assert counter.events["attempt"] == counter.events["beacon"] == 0
    spans = tracing.SpanTracer()
    traced_run(spans)

    attempts = []
    on_attempt = VehicleAgent.on_attempt

    def counted(agent, now_us, target, services):
        attempts.append(agent.id)
        on_attempt(agent, now_us, target, services)

    monkeypatch.setattr(VehicleAgent, "on_attempt", counted)
    small_run().run()
    assert spans.totals()["protocol.on_attempt"][0] == len(attempts) > 0
