"""Differential test against a frozen copy of the dense engine.

tests/reference/vcachesim_ref is the package as it stood before any
optimisation (see its README): every tick steps every vehicle and scans
them all, each receiver gets its own event, and nothing is memoised. It
never changes with the code it checks. Small drawn configs that today's
validate_config accepts must give byte-identical output files in both, with
the trace on and with it off.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import reference_outputs
from vcachesim.cli import write_outputs
from vcachesim.engine import run_simulation
from vcachesim.scenarios import resolve_config, validate_config


def interval(choices, low, high):
    return st.sampled_from(choices) | st.floats(low, high).map(lambda value: round(value, 3))


# each optional override, drawn or left at the builder's value; min_gap_m
# lands often on 7.0 and 14.0 m, the rounding edges at which vehicles
# entering at 14 m/s with a 0.1 s tick brake behind their leaders, and now
# and then past a road's end (800 m urban, 2 100 m highway), where the entry
# opens only at the exit of the vehicle before
OPTIONAL = {
    "request_interval_s": interval([1.0, 2.5, 10.0], 0.3, 30.0),
    "radio.beacon_interval_s": interval([1.0, 3.7, 10.0], 0.3, 30.0),
    "relay_announce_interval_s": interval([3.0, 7.5, 21.0], 0.5, 60.0),
    "sample_interval_s": interval([0.5, 1.0, 5.0], 0.2, 30.0),
    "tick_s": st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3]),
    "kinematics.min_gap_m": st.sampled_from([7.0, 14.0, 7.0, 14.0, 900.0, 2500.0])
    | st.floats(0.5, 40.0),
    "catalog_size": st.sampled_from([1, 2, 5, 10, 30]),
    "rsu_cache_capacity": st.sampled_from([1, 2, 4, 16]),
    # a slow backhaul ends frames ticks after the request that caused them,
    # at instants the tick loop jumps over
    "backhaul_latency_s": st.sampled_from([0.05, 0.35, 2.0]) | st.floats(0.0, 5.0),
}


@st.composite
def draws(draw):
    """(builder, overrides, the duration past the arrival window or None)."""
    builder = draw(st.sampled_from(["highway_multi", "highway_single", "urban_multi", "urban_single"]))
    overrides = {
        "count": draw(st.integers(1, 12)),
        "seed": draw(st.integers(0, 1000)),
        # the relays of highway_multi need caching
        "caching": builder == "highway_multi" or draw(st.booleans()),
    }
    for key, values in OPTIONAL.items():
        if draw(st.booleans()):
            overrides[key] = draw(values)
    drain_s = draw(st.none() | st.sampled_from([0.0, 10.0, 30.0]) | st.floats(0.0, 60.0))
    return builder, overrides, drain_s


def output_bytes(paths):
    return {name: path.read_bytes() for name, path in paths.items()}


# a draw's frozen run takes up to a few tenths of a second
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=draws())
def test_outputs_match_the_frozen_dense_engine(drawn, tmp_path_factory):
    builder, overrides, drain_s = drawn
    cfg = resolve_config(builder, overrides)
    if drain_s is not None:
        cfg.duration_s = cfg.arrival_window_s + drain_s
    try:
        validate_config(cfg)
    except ValueError:
        return  # only today's valid configs are drawn
    out = tmp_path_factory.mktemp("oracle")
    reference = reference_outputs(builder, overrides, drain_s, out / "ref")
    traced = run_simulation(dataclasses.replace(cfg, trace=True))
    assert output_bytes(write_outputs(traced, out / "traced")) == reference
    untraced = output_bytes(write_outputs(run_simulation(cfg), out / "untraced"))
    assert untraced == {name: data for name, data in reference.items() if name != "trace.log"}
