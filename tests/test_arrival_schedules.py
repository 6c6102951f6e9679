"""The seeded arrival schedules match the recorded ones, draw for draw.

tests/golden/arrivals.json holds the schedules (times, roads, vehicle ids,
wanted names) that mobility.generate_arrivals drew when the table was
recorded, for both arrival patterns; tests/golden/make_arrivals.py writes it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_arrivals", _GOLDEN_DIR / "make_arrivals.py")
make_arrivals = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_arrivals)

RECORDED = json.loads(make_arrivals.ARRIVALS_FILE.read_text())
SCHEDULES = make_arrivals.schedules()


def test_table_covers_every_case():
    assert sorted(RECORDED) == sorted(SCHEDULES)


@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_schedule_matches_the_recorded_one(case):
    assert make_arrivals.record(SCHEDULES[case]) == RECORDED[case]
