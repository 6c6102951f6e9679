"""Entry point of the vcachesim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload highway_long --seed 1 --seconds 30 --trace 0

The simulator is imported from src/ next to this directory; the logic is in
bench.py. Exits with 2, printing no result, when the simulator is missing.

String hashing is fixed (PYTHONHASHSEED=0) by replacing this process with a
fresh interpreter at start, so that the layout of the simulator's
string-keyed dicts, and with it their speed, is the same in every run.
"""

import os
import sys
from pathlib import Path

if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    import bench
except ImportError as exc:
    print(f"perfbench: cannot import the simulator from src/: {exc}", file=sys.stderr)
    sys.exit(2)

if __name__ == "__main__":
    sys.exit(bench.main(sys.argv[1:]))
