"""Regenerate perfbench/references.json, the reference CSV digests.

This is the only code that writes the reference file; a benchmark run
only reads it. Run it on purpose, from the repository root, on the commit
whose outputs are the contract:

    python3 perfbench/make_references.py [--jobs 2]

It runs every workload at every seed in REFERENCE_SEEDS and stores the
SHA-256 of each CSV the run writes, keyed by workload and run id.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE_FILE = HERE / "references.json"
REFERENCE_SEEDS = range(0, 100)
DEFAULT_SEED = 1
HELD_OUT_SEED = 42
OUT_ROOT = HERE / "out" / "references"


def _digest_run(job: tuple[str, workloads.RunSpec]) -> tuple[str, str, dict[str, str]]:
    workload, spec = job
    outcome = workloads.execute(spec, OUT_ROOT / workload)
    return workload, spec.run_id, outcome.digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="worker processes")
    args = parser.parse_args()

    jobs: dict[tuple[str, str], tuple[str, workloads.RunSpec]] = {}
    for workload, unit in workloads.WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            for spec in unit(seed):
                jobs[(workload, spec.run_id)] = (workload, spec)
    shutil.rmtree(OUT_ROOT, ignore_errors=True)
    table: dict[str, dict[str, dict[str, str]]] = {name: {} for name in workloads.WORKLOADS}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        for workload, run_id, digests in pool.imap_unordered(_digest_run, jobs.values()):
            table[workload][run_id] = digests
    shutil.rmtree(OUT_ROOT, ignore_errors=True)

    document = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": [REFERENCE_SEEDS.start, REFERENCE_SEEDS.stop - 1],
        "digests": table,
    }
    REFERENCE_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} runs to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
