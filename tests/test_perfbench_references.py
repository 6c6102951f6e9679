"""The benchmark's reference digests, checked by the test suite.

perfbench/references.json holds the SHA-256 of every CSV that each run of
each benchmark workload writes, per seed; a benchmark run reports a
workload correct only when its runs match. Here every workload runs at the
benchmark's default and held-out seeds, through perfbench/workloads.py as
the benchmark runs it, so a change that moves any output of the 1 200-vehicle
highway, the relay storm or the urban sweep fails here too.
"""

import json
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(_PERFBENCH))
import workloads  # noqa: E402 - found through the path entry above

REFERENCES = json.loads((_PERFBENCH / "references.json").read_text())


@pytest.mark.parametrize("seed", [REFERENCES["default_seed"], REFERENCES["held_out_seed"]])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_runs_match_the_reference_digests(workload, seed, tmp_path):
    expected = REFERENCES["digests"][workload]
    for spec in workloads.WORKLOADS[workload](seed):
        assert workloads.execute(spec, tmp_path).digests == expected[spec.run_id], spec.run_id
