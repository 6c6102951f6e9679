#!/usr/bin/env python3
"""Profile one simulation run and print self time per code object.

pstats keys its rows by (file, first line, function name). Every method that
dataclasses generates is compiled from a string and labelled <string>:2, so
pstats keeps one of them and drops the calls of all the others. This script
reads cProfile's raw entries (Profile.getstats()) instead and keeps one row
per code object: file, first line, qualified name, self time and calls. A
generated method is named by the function that holds its code, such as
Request.__init__; builtins keep cProfile's own label.

    PYTHONPATH=src python3 scripts/profile_run.py highway_multi --count 300 --seed 1
"""

import argparse
import cProfile
import sys
from pathlib import Path

from vcachesim.engine import run_simulation
from vcachesim.scenarios import resolve_config


def function_names(package="vcachesim"):
    """Qualified name of each function and method of the package, by the id
    of its code object: a generated method's code names itself
    __create_fn__.<locals>.x, and two classes with the same fields generate
    equal code objects, which a dict keyed by code would merge."""
    names = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != package:
            continue
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for member in members:
                func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                code = getattr(func, "__code__", None)
                if code is not None:
                    names[id(code)] = func.__qualname__
    return names


def rows_by_code(profile):
    """(self_s, calls, label) per code object, most self time first."""
    names = function_names()
    rows = []
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: cProfile's own label
            label = code
        else:
            qualname = names.get(id(code)) or getattr(code, "co_qualname", code.co_name)
            label = f"{Path(code.co_filename).name}:{code.co_firstlineno} {qualname}"
        rows.append((entry.inlinetime, entry.callcount, label))
    return sorted(rows, reverse=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("source", help="scenario builder name or config file path")
    parser.add_argument("--count", type=int, help="vehicle count")
    parser.add_argument("--seed", type=int, default=1, help="default 1")
    parser.add_argument("--top", type=int, default=30, help="rows to print (default 30)")
    args = parser.parse_args(argv)
    overrides = {"seed": args.seed}
    if args.count is not None:
        overrides["count"] = args.count
    cfg = resolve_config(args.source, overrides)

    profile = cProfile.Profile()
    profile.runcall(run_simulation, cfg)
    rows = rows_by_code(profile)
    print(f"{'self_s':>9} {'calls':>9}  code")
    for self_s, calls, label in rows[: args.top]:
        print(f"{self_s:9.4f} {calls:9d}  {label}")
    total_s = sum(s for s, _, _ in rows)
    total_calls = sum(c for _, c, _ in rows)
    print(f"{total_s:9.4f} {total_calls:9d}  total over {len(rows)} code objects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
