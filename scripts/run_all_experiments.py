#!/usr/bin/env python3
"""Run the six canonical experiments across seeds and print the comparisons.

Writes every run's CSV series under the output root (same layout as the
CLI) and ends with the cross-experiment summary: content download time
with and without RSU caching, server offload, relay-chain gains, and the
load split between twin RSUs.
"""

import argparse
import sys
import time
from pathlib import Path

from vcachesim.cli import parse_seeds, run_dir_name, write_outputs
from vcachesim.engine import run_simulation
from vcachesim.metrics import TARGET_ALL_RSUS
from vcachesim.scenarios import resolve_config

EXPERIMENTS = [
    ("urban_single", True),
    ("urban_single", False),
    ("urban_multi", True),
    ("highway_single", True),
    ("highway_single", False),
    ("highway_multi", True),
]


def label(name, caching):
    return f"{name}/{'cached' if caching else 'nocache'}"


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=parse_seeds, default=list(range(1, 11)),
        help="comma-separated seed list (default 1..10)",
    )
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args(argv)
    seeds = args.seeds

    stats = {}
    for name, caching in EXPERIMENTS:
        key = label(name, caching)
        cdt, server, rsu, hit_ratio = [], [], [], []
        started = time.perf_counter()
        for seed in seeds:
            cfg = resolve_config(name, {"caching": caching, "seed": seed})
            result = run_simulation(cfg)
            write_outputs(result, args.out / run_dir_name(cfg))
            ledger = result.ledger
            cdt.append(ledger.final_avg_cdt_us() / 1_000_000)
            server.append(ledger.total_server_fetches())
            rsu.append(ledger.total_rsu_requests(TARGET_ALL_RSUS))
            if caching:
                hit_ratio.append(ledger.final_chr(TARGET_ALL_RSUS))
            if result.satisfied != result.spawned:
                print(
                    f"warning: {key} seed {seed}: only {result.satisfied} of "
                    f"{result.spawned} vehicles satisfied",
                    file=sys.stderr,
                )
        stats[key] = {
            "cdt_s": mean(cdt),
            "server": mean(server),
            "rsu": mean(rsu),
            "chr": mean(hit_ratio) if hit_ratio else None,
            "elapsed_s": time.perf_counter() - started,
        }
        print(f"done: {key} ({len(seeds)} seeds, {stats[key]['elapsed_s']:.1f}s)")

    print()
    print(f"{'experiment':<24} {'avg_cdt_s':>10} {'server':>8} {'rsu':>8} {'chr':>8}")
    for key, row in stats.items():
        chr_text = f"{row['chr']:.3f}" if row["chr"] is not None else "-"
        print(
            f"{key:<24} {row['cdt_s']:>10.6f} {row['server']:>8.1f} "
            f"{row['rsu']:>8.1f} {chr_text:>8}"
        )

    print()
    urban_ratio = stats["urban_single/cached"]["cdt_s"] / stats["urban_single/nocache"]["cdt_s"]
    highway_ratio = (
        stats["highway_single/cached"]["cdt_s"] / stats["highway_single/nocache"]["cdt_s"]
    )
    chain_ratio = stats["highway_multi/cached"]["cdt_s"] / stats["highway_single/cached"]["cdt_s"]
    offload = stats["highway_multi/cached"]["rsu"] / stats["highway_single/cached"]["rsu"]
    print(f"urban cdt ratio (cached/nocache):       {urban_ratio:.3f}")
    print(f"highway cdt ratio (cached/nocache):     {highway_ratio:.3f}")
    print(f"relay chain cdt ratio (multi/single):   {chain_ratio:.3f}")
    print(f"relay chain rsu-request ratio:          {offload:.3f}")
    print(f"results written under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
