"""Metamorphic relations: how the outputs of two related configs must agree.

A relation needs no stored answer, so it checks any config the gate
accepts. A longer run extends a shorter one: two configs that differ only
in duration_s, both at least the arrival window, give the same trace records
up to the shorter duration D, and the same CSV rows at every sample instant
up to D that both grids share. The duration only cuts work off: the tick
loop stops at the last tick instant and the event loop at the duration, so
what either run does up to D cannot depend on where it ends.

Caching does not move traffic: caching on and off give the same SPAWN and
EXIT records in the same order, because the kinematics read nothing from the
radio. Later arrivals do not reach back: a highway builder at counts n < m
with the same vehicle id width gives the same trace records before the
(n+1)-th spawn of the larger run, because highway arrivals are one a second
in id order and no vehicle acts on one that has not spawned.
"""

import dataclasses
import io

from hypothesis import example, given, settings, strategies as st

from vcachesim.engine import Simulation
from vcachesim.metrics import (
    sample_grid,
    write_cdt_csv,
    write_chr_csv,
    write_rsu_requests_csv,
    write_server_requests_csv,
)
from vcachesim.scenarios import BUILDERS
from vcachesim.simcore import format_time, seconds_to_us

WRITERS = (write_cdt_csv, write_server_requests_csv, write_rsu_requests_csv, write_chr_csv)


@st.composite
def cuts(draw):
    """(builder name, count, seed, D in us): D at least the arrival window
    and below the builder's duration, on the tick grid, on the relays'
    announce grid or off both."""
    name = draw(st.sampled_from(sorted(BUILDERS)))
    count, seed = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    cfg = BUILDERS[name](count=count, seed=seed)
    window_us, duration_us = seconds_to_us(cfg.arrival_window_s), seconds_to_us(cfg.duration_s)
    tick_us = seconds_to_us(cfg.tick_s)
    step = draw(st.sampled_from([tick_us, seconds_to_us(cfg.relay_announce_interval_s), None]))
    if step is None:
        cut_us = draw(st.integers(window_us, duration_us - 1).filter(lambda us: us % tick_us))
    else:
        cut_us = step * draw(st.integers(-(-window_us // step), (duration_us - 1) // step))
    return name, count, seed, cut_us


def csv_rows(result):
    """Each CSV file's header and its rows by sample time, as write_outputs writes them."""
    cfg = result.config
    grid = sample_grid(seconds_to_us(cfg.duration_s), seconds_to_us(cfg.sample_interval_s))
    files = {}
    for write in WRITERS:
        stream = io.StringIO()
        write(stream, result.ledger, grid)
        header, *rows = stream.getvalue().splitlines()
        by_time = {}
        for row in rows:
            by_time.setdefault(row.split(",", 1)[0], []).append(row)
        files[write.__name__] = header, by_time
    return grid, files


@settings(max_examples=150, deadline=None)
@given(cuts())
# a vehicle's re-armed beacon at exactly the cut: the last tick instant
# runs the due work its plan put there
@example(("highway_single", 2, 1, 60_000_000))
# a relay announce at exactly the cut, with content in its cache
@example(("highway_multi", 2, 1, 42_000_000))
def test_a_longer_run_extends_a_shorter_one(case):
    name, count, seed, cut_us = case
    cfg = dataclasses.replace(BUILDERS[name](count=count, seed=seed), trace=True)
    short_cfg = dataclasses.replace(cfg, duration_s=cut_us / 1_000_000)
    assert seconds_to_us(cfg.arrival_window_s) <= cut_us < seconds_to_us(cfg.duration_s)
    assert seconds_to_us(short_cfg.duration_s) == cut_us
    longer, shorter = Simulation(cfg).run(), Simulation(short_cfg).run()

    assert shorter.trace_records == [r for r in longer.trace_records if r[0] <= cut_us]
    long_grid, long_files = csv_rows(longer)
    short_grid, short_files = csv_rows(shorter)
    shared = [format_time(t) for t in sorted(set(long_grid) & set(short_grid)) if t <= cut_us]
    for file_name, (header, by_time) in long_files.items():
        short_header, short_by_time = short_files[file_name]
        assert short_header == header
        for time in shared:
            assert short_by_time.get(time) == by_time.get(time), (file_name, time)


def traced(name, **changes):
    """The trace records of one run of builder name, built with changes."""
    cfg = dataclasses.replace(BUILDERS[name](**changes), trace=True)
    return Simulation(cfg).run().trace_records


@settings(max_examples=100, deadline=None)
@given(
    # highway_multi has relays, and a layout with a relay runs only with caching
    st.sampled_from(sorted(name for name in BUILDERS if name != "highway_multi")),
    st.integers(2, 12),
    st.integers(1, 3),
)
def test_caching_does_not_move_traffic(name, count, seed):
    on, off = (
        [r for r in traced(name, count=count, seed=seed, caching=caching)
         if r[1] in ("SPAWN", "EXIT")]
        for caching in (True, False)
    )
    assert on == off
    assert sum(r[1] == "SPAWN" for r in on) == count


@st.composite
def highway_counts(draw):
    """(highway builder name, seed, n, m): 60 <= n < m <= 120, so that the
    vehicle ids of both runs are three digits wide and the records before the
    (n+1)-th spawn, n s in, hold the first vehicles' traffic, which starts
    about 37 s (highway_multi) or 50 s (highway_single) in."""
    name = draw(st.sampled_from(["highway_single", "highway_multi"]))
    n = draw(st.integers(60, 119))
    return name, draw(st.integers(1, 3)), n, draw(st.integers(n + 1, 120))


@settings(max_examples=50, deadline=None)
@given(highway_counts())
@example(("highway_single", 1, 60, 80))
@example(("highway_multi", 2, 120, 200))
def test_later_arrivals_do_not_reach_back(case):
    name, seed, n, m = case
    smaller, larger = (traced(name, count=count, seed=seed) for count in (n, m))
    spawns = [i for i, r in enumerate(larger) if r[1] == "SPAWN"]
    assert len(spawns) == m
    before = spawns[n]  # the records before the larger run's (n+1)-th spawn
    assert smaller[:before] == larger[:before]
    assert {r[1] for r in larger[:before]} > {"SPAWN"}
