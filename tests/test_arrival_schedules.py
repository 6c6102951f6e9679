"""The seeded arrival schedules match the recorded ones, draw for draw.

tests/golden/arrivals.json holds the schedules (times, roads, vehicle ids,
wanted names) that mobility.generate_arrivals drew when the table was
recorded, for both arrival patterns; tests/golden/make_arrivals.py writes it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from vcachesim.mobility import Arrival

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_arrivals", _GOLDEN_DIR / "make_arrivals.py")
make_arrivals = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_arrivals)

RECORDED = json.loads(make_arrivals.ARRIVALS_FILE.read_text())
ARRIVALS = make_arrivals.arrivals()
SCHEDULES = {key: make_arrivals.render(drawn) for key, drawn in ARRIVALS.items()}


def test_table_covers_every_case():
    assert sorted(RECORDED) == sorted(SCHEDULES)


@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_schedule_matches_the_recorded_one(case):
    assert make_arrivals.record(SCHEDULES[case]) == RECORDED[case]


@pytest.mark.parametrize("case", sorted(ARRIVALS))
def test_every_arrival_is_an_arrival_with_its_named_fields(case):
    # a plain tuple compares equal to an Arrival, so the schedule match
    # above cannot tell them apart
    assert Arrival._fields == ("at_us", "road_id", "vehicle_id", "wanted")
    for arrival in ARRIVALS[case]:
        assert type(arrival) is Arrival
        at_us, road_id, vehicle_id, wanted = arrival
        assert (arrival.at_us, arrival.road_id, arrival.vehicle_id, arrival.wanted) == (
            at_us, road_id, vehicle_id, wanted
        )
        assert type(at_us) is int
        assert type(road_id) is type(vehicle_id) is type(wanted) is str
