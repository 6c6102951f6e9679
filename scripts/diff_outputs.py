#!/usr/bin/env python3
"""Compare every output file of drawn configs against a base revision, byte for byte.

    python3 scripts/diff_outputs.py --base HEAD~1 [--draws 200] [--seed 1]

Draws N configs from a seeded random.Random: a builder, its count, seed and
caching, and overrides of the request, beacon, announce and sample
intervals, the tick, kinematics.min_gap_m (the 7.0 and 14.0 m rounding
edges among them), the catalog size, the RSU cache capacity and the drain
(the duration past the arrival window), which cuts runs where work is still
due. The trace is on. The base revision is extracted with `git archive`, as
scripts/bench_pairs.py does. One subprocess per tree, the base tree and the
working tree, runs every draw and writes its files under a temporary
directory. Draws the base rejects are skipped and counted. For each other
draw every output file must be byte-identical; for each draw that differs
the script prints the config and the first differing line. Exits 1 on any
difference.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from bench_pairs import extract

ROOT = Path(__file__).resolve().parent.parent
BUILDER_NAMES = ("highway_multi", "highway_single", "urban_multi", "urban_single")
REJECTED = "rejected"

# runs in each tree, with that tree's src first on the path: the draws come
# on stdin, and each one's status ("ok", REJECTED or the error) goes to stdout
WORKER = """
import json, sys
from pathlib import Path
from vcachesim.cli import write_outputs
from vcachesim.engine import run_simulation
from vcachesim.scenarios import ValidationError, resolve_config
statuses = []
for i, draw in enumerate(json.load(sys.stdin)):
    try:
        cfg = resolve_config(draw["builder"], {**draw["overrides"], "trace": True})
        if draw["drain_s"] is not None:
            cfg.duration_s = cfg.arrival_window_s + draw["drain_s"]
        write_outputs(run_simulation(cfg), Path(sys.argv[1]) / str(i))
        statuses.append("ok")
    except ValidationError:
        statuses.append("rejected")
    except Exception as exc:
        statuses.append(f"error: {type(exc).__name__}: {exc}")
print(json.dumps(statuses))
"""


def draw_configs(count: int, seed: int) -> list[dict]:
    """count configs, each {"builder": name, "overrides": {field: value},
    "drain_s": the duration past the arrival window, or None for the builder's}."""
    rng = random.Random(seed)

    def interval(choices, low, high):
        return rng.choice(choices) if rng.random() < 0.5 else round(rng.uniform(low, high), 3)

    draws = []
    for _ in range(count):
        overrides = {
            "count": rng.randint(1, 40),
            "seed": rng.randint(0, 1000),
            "caching": rng.random() < 0.8,
        }
        optional = {
            "request_interval_s": lambda: interval([1.0, 2.5, 10.0], 0.3, 30.0),
            "radio.beacon_interval_s": lambda: interval([1.0, 3.7, 10.0], 0.3, 30.0),
            "relay_announce_interval_s": lambda: interval([3.0, 7.5, 21.0], 0.5, 60.0),
            "sample_interval_s": lambda: interval([0.5, 1.0, 5.0], 0.2, 30.0),
            "tick_s": lambda: rng.choice([0.05, 0.1, 0.2, 0.25, 0.3]),
            "kinematics.min_gap_m": lambda: interval([7.0, 14.0], 0.5, 20.0),
            "catalog_size": lambda: rng.choice([1, 2, 5, 10, 30, 100]),
            "rsu_cache_capacity": lambda: rng.choice([1, 2, 4, 16, 64]),
        }
        for field, value in optional.items():
            if rng.random() < 0.4:
                overrides[field] = value()
        drain_s = interval([0, 10, 30, 60], 0.0, 120.0) if rng.random() < 0.4 else None
        draws.append(
            {"builder": rng.choice(BUILDER_NAMES), "overrides": overrides, "drain_s": drain_s}
        )
    return draws


def run_draws(tree: Path, draws: list[dict], out_dir: Path) -> list[str]:
    """Each draw's status from one worker process in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-c", WORKER, str(out_dir)],
        input=json.dumps(draws), cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"the worker failed in {tree}")
    return json.loads(done.stdout)


def first_difference(base_dir: Path, change_dir: Path) -> str | None:
    """The first difference between the output files of two runs, or None
    when both directories hold the same files with the same bytes."""
    base_files = {p.name for p in base_dir.iterdir()} if base_dir.is_dir() else set()
    change_files = {p.name for p in change_dir.iterdir()} if change_dir.is_dir() else set()
    if base_files != change_files:
        return f"files: base {sorted(base_files)}, change {sorted(change_files)}"
    for name in sorted(base_files):
        base_bytes = (base_dir / name).read_bytes()
        change_bytes = (change_dir / name).read_bytes()
        if base_bytes == change_bytes:
            continue
        lines = zip_longest(base_bytes.splitlines(), change_bytes.splitlines())
        for number, (old, new) in enumerate(lines, start=1):
            if old != new:
                return f"{name}:{number}: base {_shown(old)}, change {_shown(new)}"
        return f"{name}: line endings differ"
    return None


def _shown(line: bytes | None) -> str:
    return "end of file" if line is None else repr(line.decode())


def compare(
    draws: list[dict], base: list[str], change: list[str], base_root: Path, change_root: Path
) -> tuple[list[tuple[dict, str]], int]:
    """(each differing draw with its first difference, the draws the base
    rejected). A draw differs when its status differs, or when both runs
    finished and their output files differ."""
    differing, rejected = [], 0
    for i, draw in enumerate(draws):
        if base[i] == REJECTED:
            rejected += 1
            continue
        if base[i] != change[i]:
            differing.append((draw, f"status: base {base[i]!r}, change {change[i]!r}"))
            continue
        found = first_difference(base_root / str(i), change_root / str(i))
        if found is not None:
            differing.append((draw, found))
    return differing, rejected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    draws = draw_configs(args.draws, args.seed)
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        tmp = Path(tmp)
        extract(args.base, tmp / "base")
        base = run_draws(tmp / "base", draws, tmp / "out_base")
        change = run_draws(ROOT, draws, tmp / "out_change")
        differing, rejected = compare(draws, base, change, tmp / "out_base", tmp / "out_change")
    for draw, found in differing:
        print(json.dumps(draw, sort_keys=True))
        print(f"  {found}")
    print(
        f"{len(draws)} draws, seed {args.seed}, base {args.base}: {rejected} rejected by the"
        f" base and skipped, {len(draws) - rejected - len(differing)} identical,"
        f" {len(differing)} differ"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
