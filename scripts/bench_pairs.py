#!/usr/bin/env python3
"""Run the benchmark in alternating pairs against a base revision and judge the claim.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload highway_long [--pairs 10] \
        [--seconds 30] [--seed 1]

The base revision is extracted with `git archive` into a temporary
directory. Each pair runs `perfbench/run.py --trace 0` once from that tree
and once from the working tree, switching which side goes first from one
pair to the next. For every end-to-end metric named in BENCHMARK.json it
prints every pair, each side's median and quartiles, and the pairs the
change won (ties count for neither side). The verdict is the rule for
claiming a gain: the change wins at least nine tenths of the pairs, and the
medians differ by more than the base's interquartile range, in the metric's
better direction. Exits 1 if any run reports `correct: false` or fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), as perfbench reports them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str) -> dict:
    """Judge paired samples of one metric; better is "lower" or "higher".

    A pair is won by the side whose value is better; equal values count for
    neither. The change claims a gain when it wins at least nine tenths of
    all pairs and its median beats the base's by more than the base's
    interquartile range."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change samples")
    sign = -1 if better == "lower" else 1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    base_q = quartiles(base)
    change_q = quartiles(change)
    iqr = base_q[2] - base_q[0]
    gap = sign * (change_q[1] - base_q[1])
    return {
        "pairs": len(base),
        "wins": wins,
        "losses": losses,
        "base": base_q,
        "change": change_q,
        "base_iqr": iqr,
        "gap": gap,
        "gain": wins * 10 >= 9 * len(base) and gap > iqr,
    }


def run_once(tree: Path, args) -> dict:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def extract(rev: str, into: Path) -> None:
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        # the data filter is missing from Pythons older than 3.10.12 and 3.11.4
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    samples = {side: {m["name"]: [] for m in metrics} for side in ("base", "change")}
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_tree = Path(tmp) / "base"
        extract(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(trees[side], args)
                if not result.get("correct"):
                    all_correct = False
                    print(f"pair {i + 1}: {side} run not correct")
                for m in metrics:
                    value = result["metrics"].get(m["name"], {}).get("value")
                    samples[side][m["name"]].append(float("nan") if value is None else value)
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds} s per run, base {args.base}")
    for m in metrics:
        name, base, change = m["name"], samples["base"][m["name"]], samples["change"][m["name"]]
        print(f"\n{name} ({m['unit']}, {m['better']} is better)")
        for i, (b, c) in enumerate(zip(base, change)):
            print(f"  pair {i + 1:2d}: base {b:.6g}  change {c:.6g}")
        v = verdict(base, change, m["better"])
        for side in ("base", "change"):
            q1, q2, q3 = v[side]
            print(f"  {side:6s} median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
        print(
            f"  change won {v['wins']}/{v['pairs']} pairs (lost {v['losses']}); "
            f"median gap {v['gap']:.6g} against base IQR {v['base_iqr']:.6g}: "
            f"{'gain' if v['gain'] else 'no claimable gain'}"
        )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
