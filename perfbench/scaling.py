"""Opt-in scaling report: highway_single at growing vehicle counts.

Not part of the gated benchmark. Run from the repository root:

    python3 perfbench/scaling.py [--seed 1] [--counts 300,600,1200,2400]

One run per count. It prints run_s (build to last file written), run_s
per vehicle and engine.scan_active_ratio, the share of vehicles visited by
the tick scan that are still on the road. Cost that grows linearly with the
vehicle count keeps run_s per vehicle flat. The only hook installed is the
per-tick scan counter, which adds one call per 0.1 s tick.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description="highway_single scaling report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--counts",
        type=lambda text: [int(tok) for tok in text.split(",")],
        default=[300, 600, 1200, 2400],
    )
    args = parser.parse_args()

    print("vehicles  run_s      run_s/vehicle  scan_active_ratio  events")
    for count in args.counts:
        spec = workloads.RunSpec("highway_single", count, True, args.seed)
        scan = tracing.ScanCounter()
        with tracing.Patches() as patches:
            scan.install(patches)
            outcome = workloads.execute(spec, HERE / "out" / "scaling")
        print(
            f"{count:8d}  {outcome.total_s:9.4f}  {outcome.total_s / count:13.6f}"
            f"  {scan.active_ratio:17.4f}  {outcome.result.events_processed}"
        )
        del outcome
    return 0


if __name__ == "__main__":
    sys.exit(main())
