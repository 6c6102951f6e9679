"""The CSV writers render what a csv.writer row per line rendered, byte for byte.

Each writer builds its file as one string. The frozen package's writers
(tests/reference/vcachesim_ref) are the row-by-row csv.writer form they
replaced; a Hypothesis test draws ledgers and grids and holds the two
identical, and a run whose RSU ids need quoting must read back through
csv.reader.
"""

import csv
import io
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from vcachesim.cli import write_outputs
from vcachesim.engine import Simulation
from vcachesim.metrics import (
    DeliveryRecord,
    MetricsLedger,
    SOURCE_RSU_HIT,
    TARGET_ALL_RSUS,
    sample_grid,
    write_cdt_csv,
    write_chr_csv,
    write_rsu_requests_csv,
    write_server_requests_csv,
)
from vcachesim.scenarios import urban_multi
from vcachesim_ref import metrics as ref_metrics

PAIRS = (
    (write_cdt_csv, ref_metrics.write_cdt_csv),
    (write_server_requests_csv, ref_metrics.write_server_requests_csv),
    (write_rsu_requests_csv, ref_metrics.write_rsu_requests_csv),
    (write_chr_csv, ref_metrics.write_chr_csv),
)


def render(writer, ledger, times_us):
    stream = io.StringIO()
    writer(stream, ledger, times_us)
    return stream.getvalue()


# -- drawn ledgers and grids --------------------------------------------------

# ids that csv.writer quotes (a comma, a quote, a newline), one it leaves
# bare for all its spaces, and the empty id
RSU_IDS = st.lists(
    st.one_of(st.sampled_from(["r0", "a,b", 'q"t', "s p", " ", "", "x\ny"]), st.text(max_size=4)),
    min_size=1,
    max_size=4,
    unique=True,
)


@st.composite
def ledgers_and_grids(draw):
    duration_us = draw(st.integers(0, 2_000_000), label="duration_us")
    interval_us = draw(st.integers(max(1, duration_us // 40), duration_us + 1), label="interval_us")
    grid = sample_grid(duration_us, interval_us)  # the final instant may lie off the grid
    # events at sample instants, between them, on one instant together and
    # after the last sample; any list may be empty
    times = st.one_of(st.sampled_from(grid), st.integers(0, duration_us + interval_us))
    if draw(st.integers(0, 19), label="no grid") == 0:  # a header alone
        grid = []
    rsu_ids = draw(RSU_IDS, label="rsu_ids")
    rsu = st.sampled_from(rsu_ids)
    ledger = MetricsLedger(rsu_ids)
    deliveries = draw(st.lists(st.tuples(times, st.integers(0, 3_000_000)), max_size=30))
    for at_us, cdt_us in sorted(deliveries):
        ledger.record_delivery(
            DeliveryRecord("v000", "n", max(0, at_us - cdt_us), at_us, min(at_us, cdt_us), SOURCE_RSU_HIT)
        )
    for t_us in draw(st.lists(times, max_size=30)):
        ledger.record_server_fetch(t_us, "n")
    for t_us, rsu_id in draw(st.lists(st.tuples(times, rsu), max_size=30)):
        ledger.record_rsu_request(t_us, rsu_id)
    for t_us, rsu_id, hit in draw(st.lists(st.tuples(times, rsu, st.booleans()), max_size=30)):
        ledger.record_cache_event(t_us, rsu_id, hit)
    return ledger, grid


@settings(max_examples=150, deadline=None)
@given(ledgers_and_grids())
def test_every_writer_renders_what_csv_writer_rendered(case):
    ledger, grid = case
    for writer, reference in PAIRS:
        assert render(writer, ledger, grid) == render(reference, ledger, grid), writer.__name__


# -- a run whose RSU ids need quoting ------------------------------------------


def test_rsu_ids_with_a_comma_a_quote_and_a_space_read_back_through_csv_reader(tmp_path):
    ids = ['east, "main"', "west gate"]
    cfg = urban_multi(10, seed=2)
    cfg.rsus = [replace(spec, id=rsu_id) for spec, rsu_id in zip(cfg.rsus, ids)]
    paths = write_outputs(Simulation(cfg).run(), tmp_path)

    with open(paths["requests_rsu.csv"], encoding="utf-8", newline="") as stream:
        rows = list(csv.reader(stream))
    assert rows[0] == ["time_s", "rsu_id", "cumulative"]
    assert [row[1] for row in rows[1:]] == ids * (len(rows[1:]) // 2)
    assert sum(int(row[2]) for row in rows[-2:]) > 0

    with open(paths["chr.csv"], encoding="utf-8", newline="") as stream:
        rows = list(csv.reader(stream))
    assert rows[0] == ["time_s", "scope", "hits", "misses", "chr"]
    assert {row[1] for row in rows[1:]} == {TARGET_ALL_RSUS, *ids}
    assert all(len(row) == 5 for row in rows)
