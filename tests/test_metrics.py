"""Ledger recording, derived series, and CSV rendering."""

import io

import pytest
from hypothesis import given, strategies as st

from vcachesim.metrics import (
    DeliveryRecord,
    MetricsLedger,
    NegativeCdt,
    SOURCE_LOCAL_PRECACHE,
    SOURCE_RSU_HIT,
    SOURCE_SERVER_FETCH,
    TARGET_ALL_RSUS,
    TARGET_SERVER,
    UnknownRsu,
    sample_grid,
    write_cdt_csv,
    write_chr_csv,
    write_rsu_requests_csv,
    write_server_requests_csv,
)

NAME = "/traffic/1"


def delivery(vehicle="v0", first=100, at=500, source=SOURCE_RSU_HIT):
    return DeliveryRecord(
        vehicle=vehicle,
        name=NAME,
        first_request_at_us=first,
        delivered_at_us=at,
        cdt_us=at - first,
        source=source,
    )


# -- record validation -----------------------------------------------------------


def test_delivery_record_rejects_negative_cdt():
    with pytest.raises(NegativeCdt):
        DeliveryRecord("v0", NAME, 100, 500, -1, SOURCE_RSU_HIT)


def test_delivery_record_rejects_time_travel():
    with pytest.raises(NegativeCdt):
        DeliveryRecord("v0", NAME, 500, 100, 0, SOURCE_RSU_HIT)


def test_delivery_record_rejects_unknown_source():
    with pytest.raises(ValueError):
        DeliveryRecord("v0", NAME, 0, 0, 0, "teleport")


def test_zero_cdt_is_legal_for_precache():
    record = DeliveryRecord("v0", NAME, 100, 100, 0, SOURCE_LOCAL_PRECACHE)
    assert record.cdt_us == 0


# -- sample grid -----------------------------------------------------------------


def test_sample_grid_regular():
    assert sample_grid(20, 5) == [0, 5, 10, 15, 20]


def test_sample_grid_appends_unaligned_end():
    assert sample_grid(23, 5) == [0, 5, 10, 15, 20, 23]


def test_sample_grid_interval_larger_than_duration():
    assert sample_grid(3, 10) == [0, 3]


# -- series ----------------------------------------------------------------------


def test_avg_cdt_series_omits_points_before_first_delivery():
    led = MetricsLedger(["r0"])
    led.record_delivery(delivery(first=1_000_000, at=1_000_002))
    series = led.avg_cdt_series([0, 500_000, 1_000_000, 2_000_000])
    # the 1_000_000 point predates the delivery instant by 2us, so it is
    # undefined too; only points at or after delivered_at survive
    assert [t for t, _, _ in series] == [2_000_000]


def test_avg_cdt_series_running_mean():
    led = MetricsLedger(["r0"])
    led.record_delivery(delivery(first=0, at=2))       # cdt 2
    led.record_delivery(delivery(first=10, at=16))     # cdt 6
    series = led.avg_cdt_series([5, 20])
    assert series == [(5, 1, 2.0), (20, 2, 4.0)]


def test_deliveries_must_arrive_in_time_order():
    led = MetricsLedger(["r0"])
    led.record_delivery(delivery(at=500))
    with pytest.raises(ValueError):
        led.record_delivery(delivery(first=0, at=400))


def test_request_count_series_cumulative():
    led = MetricsLedger(["r0", "r1"])
    led.record_rsu_request(10, "r0")
    led.record_rsu_request(20, "r1")
    led.record_rsu_request(30, "r0")
    led.record_server_fetch(25, "/traffic/1")
    grid = [0, 15, 25, 40]
    assert led.request_count_series(grid, "r0") == [(0, 0), (15, 1), (25, 1), (40, 2)]
    assert led.request_count_series(grid, TARGET_ALL_RSUS) == [(0, 0), (15, 1), (25, 2), (40, 3)]
    assert led.request_count_series(grid, TARGET_SERVER) == [(0, 0), (15, 0), (25, 1), (40, 1)]


def test_unknown_rsu_rejected_everywhere():
    led = MetricsLedger(["r0"])
    with pytest.raises(UnknownRsu):
        led.record_rsu_request(0, "r9")
    with pytest.raises(UnknownRsu):
        led.record_cache_event(0, "r9", hit=True)
    with pytest.raises(UnknownRsu):
        led.request_count_series([0], "r9")
    with pytest.raises(UnknownRsu):
        led.chr_series([0], "r9")
    with pytest.raises(UnknownRsu):
        led.total_rsu_requests("r9")
    with pytest.raises(UnknownRsu):
        led.final_chr("r9")


def test_chr_series_aggregates_across_caches():
    led = MetricsLedger(["r0", "r1"])
    led.record_cache_event(10, "r0", hit=True)
    led.record_cache_event(20, "r0", hit=True)
    led.record_cache_event(30, "r0", hit=False)
    led.record_cache_event(40, "r1", hit=True)
    led.record_cache_event(50, "r1", hit=False)
    full = led.chr_series([100], TARGET_ALL_RSUS)
    assert full == [(100, 3, 2, 0.6)]
    assert led.chr_series([100], "r0") == [(100, 2, 1, 2 / 3)]
    assert led.final_chr() == pytest.approx(0.6)
    assert led.final_chr("r1") == pytest.approx(0.5)


def test_chr_series_omits_undefined_prefix():
    led = MetricsLedger(["r0"])
    led.record_cache_event(1_000, "r0", hit=False)
    assert [t for t, *_ in led.chr_series([0, 500, 2_000])] == [2_000]
    empty = MetricsLedger(["r0"])
    assert empty.chr_series([0, 10]) == []
    assert empty.final_chr() is None


def test_run_totals():
    led = MetricsLedger(["r0"])
    assert led.final_avg_cdt_us() is None
    assert led.max_cdt_us() is None
    led.record_delivery(delivery(first=0, at=4))
    led.record_delivery(delivery(first=10, at=20))
    led.record_server_fetch(5, "/traffic/1")
    led.record_rsu_request(1, "r0")
    assert led.final_avg_cdt_us() == pytest.approx(7.0)
    assert led.max_cdt_us() == 10
    assert led.total_server_fetches() == 1
    assert led.total_rsu_requests() == 1
    by_source = led.deliveries_by_source()
    assert by_source[SOURCE_RSU_HIT] == 2
    assert by_source[SOURCE_SERVER_FETCH] == 0


def check_totals(ledger, cdts, rsu_events, cache_events):
    """The ledger's run totals against counts made here, for every scope."""
    expected_cdt = sum(cdts) / len(cdts) if cdts else None
    assert ledger.final_avg_cdt_us() == expected_cdt
    for scope in (TARGET_ALL_RSUS, *ledger.rsu_ids):
        requests = 0
        for _, rid in rsu_events:
            if scope in (TARGET_ALL_RSUS, rid):
                requests += 1
        assert ledger.total_rsu_requests(scope) == requests
        hits = misses = 0
        for _, rid, hit in cache_events:
            if scope in (TARGET_ALL_RSUS, rid):
                if hit:
                    hits += 1
                else:
                    misses += 1
        assert ledger.final_chr(scope) == (hits / (hits + misses) if hits + misses else None)
    unknown = [rid for rid in ("r0", "r1", "r2", "r3") if rid not in ledger.rsu_ids]
    for scope in (*unknown, TARGET_SERVER):
        with pytest.raises(UnknownRsu):
            ledger.total_rsu_requests(scope)
        with pytest.raises(UnknownRsu):
            ledger.final_chr(scope)


@given(data=st.data())
def test_run_totals_count_every_recorded_event(data):
    rsu_ids = ["r0", "r1", "r2"][: data.draw(st.integers(1, 3), label="rsus")]
    times = st.integers(0, 10**9)
    rsu = st.sampled_from(rsu_ids)
    deliveries = data.draw(st.lists(st.tuples(times, st.integers(0, 10**6))), label="deliveries")
    rsu_events = data.draw(st.lists(st.tuples(times, rsu)), label="rsu requests")
    cache_events = data.draw(st.lists(st.tuples(times, rsu, st.booleans())), label="lookups")
    ledger = MetricsLedger(rsu_ids)
    check_totals(ledger, [], [], [])  # an empty ledger
    for first, cdt in sorted(deliveries, key=sum):  # in delivery-time order
        ledger.record_delivery(delivery(first=first, at=first + cdt))
    for t_us, rid in rsu_events:
        ledger.record_rsu_request(t_us, rid)
    for t_us, rid, hit in cache_events:
        ledger.record_cache_event(t_us, rid, hit)
    check_totals(ledger, [cdt for _, cdt in deliveries], rsu_events, cache_events)


# -- CSV rendering ----------------------------------------------------------------


def _render(writer, ledger, grid):
    stream = io.StringIO()
    writer(stream, ledger, grid)
    return stream.getvalue()


def test_cdt_csv_shape_and_formatting():
    led = MetricsLedger(["r0"])
    led.record_delivery(delivery(first=4_999_600, at=5_000_000))
    text = _render(write_cdt_csv, led, [0, 5_000_000, 10_000_000])
    lines = text.splitlines()
    assert lines[0] == "time_s,avg_cdt_s,deliveries"
    assert lines[1] == "5.000000,0.000400,1"
    assert lines[2] == "10.000000,0.000400,1"
    assert len(lines) == 3
    assert "\r" not in text


def test_server_csv_has_row_per_sample():
    led = MetricsLedger(["r0"])
    led.record_server_fetch(2_500_000, "/traffic/1")
    text = _render(write_server_requests_csv, led, [0, 5_000_000])
    assert text.splitlines() == ["time_s,cumulative", "0.000000,0", "5.000000,1"]


def test_rsu_csv_orders_rsus_within_each_time():
    led = MetricsLedger(["r0", "r1"])
    led.record_rsu_request(1_000_000, "r1")
    text = _render(write_rsu_requests_csv, led, [0, 2_000_000])
    assert text.splitlines() == [
        "time_s,rsu_id,cumulative",
        "0.000000,r0,0",
        "0.000000,r1,0",
        "2.000000,r0,0",
        "2.000000,r1,1",
    ]


def test_chr_csv_aggregate_then_per_rsu_rows():
    led = MetricsLedger(["r0", "r1"])
    led.record_cache_event(1_000_000, "r0", hit=False)
    led.record_cache_event(1_500_000, "r0", hit=True)
    text = _render(write_chr_csv, led, [0, 2_000_000])
    assert text.splitlines() == [
        "time_s,scope,hits,misses,chr",
        "2.000000,all-rsus,1,1,0.500000",
        "2.000000,r0,1,1,0.500000",
    ]


def test_chr_csv_recomputes_from_columns():
    """The chr column must equal hits/(hits+misses) recomputed from the row."""
    led = MetricsLedger(["r0"])
    for i in range(28):
        led.record_cache_event(i, "r0", hit=True)
    for i in range(28, 40):
        led.record_cache_event(i, "r0", hit=False)
    text = _render(write_chr_csv, led, [50])
    row = text.splitlines()[1].split(",")
    hits, misses, ratio = int(row[2]), int(row[3]), row[4]
    assert f"{hits / (hits + misses):.6f}" == ratio == "0.700000"
