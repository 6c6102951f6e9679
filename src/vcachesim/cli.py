"""Command line front end.

Two subcommands: `run` executes one scenario once and writes its CSV
series; `sweep` repeats a scenario across seeds and compares the cached
and uncached variants. Printed summaries are the run's totals, formatted
as the CSV writers format the last row of each series, so the numbers on
screen are the numbers on disk.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .engine import SimulationResult, run_simulation
from .metrics import (
    _fmt_ratio,
    _fmt_seconds,
    sample_grid,
    write_cdt_csv,
    write_chr_csv,
    write_rsu_requests_csv,
    write_server_requests_csv,
)
from .scenarios import (
    BUILDERS,
    ParseError,
    ScenarioConfig,
    ValidationError,
    caching_only,
    resolve_config,
    validate_config,
)
from .simcore import seconds_to_us

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcachesim",
        description="simulate RSU content caching with vehicular broadcast pre-caching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario and write its CSV series")
    _add_shared_flags(run_p)
    run_p.add_argument("--seed", type=int, help="replace the scenario's seed")

    sweep_p = sub.add_parser(
        "sweep", help="run a scenario across seeds and compare caching variants"
    )
    _add_shared_flags(sweep_p)
    sweep_p.add_argument(
        "--seeds",
        type=parse_seeds,
        default=list(range(1, 11)),
        help="comma-separated seed list (default: 1,2,...,10)",
    )
    return parser


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=sorted(BUILDERS), help="built-in scenario name")
    p.add_argument("--config", type=Path, help="scenario config file")
    p.add_argument(
        "--caching", dest="caching", action="store_true", default=None,
        help="force RSU caching on",
    )
    p.add_argument(
        "--no-caching", dest="caching", action="store_false",
        help="force RSU caching off",
    )
    p.add_argument("--count", type=int, help="vehicle count override")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory root")
    p.add_argument(
        "--sample-interval", type=float, help="metric sampling interval in seconds"
    )
    p.add_argument("--trace", action="store_true", help="write a protocol event log")


def parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0: {text!r}")
    if len(set(seeds)) < len(seeds):  # a repeat would run twice into one directory
        raise argparse.ArgumentTypeError(f"seeds must be distinct: {text!r}")
    return seeds


def _resolve_config(args, caching: bool | None, seed: int | None) -> ScenarioConfig:
    if args.config is not None and args.scenario is not None:
        raise ValidationError("pass either --scenario or --config, not both")
    source = args.scenario if args.config is None else args.config
    if source is None:
        raise ValidationError("one of --scenario or --config is required")
    overrides = {
        "count": args.count,
        "caching": caching,
        "seed": seed,
        "sample_interval_s": args.sample_interval,
        "trace": args.trace or None,  # without --trace the file's value stands
    }
    return resolve_config(source, {k: v for k, v in overrides.items() if v is not None})


# -- output ---------------------------------------------------------------


def run_dir_name(cfg: ScenarioConfig) -> str:
    variant = "cached" if cfg.caching else "nocache"
    return f"{cfg.name}_{variant}_s{cfg.seed}"


def write_outputs(result: SimulationResult, out_dir: Path) -> dict[str, Path]:
    """Write the CSV series (and trace) for one finished run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    grid = sample_grid(seconds_to_us(cfg.duration_s), seconds_to_us(cfg.sample_interval_s))
    paths: dict[str, Path] = {}

    def _emit(filename: str, writer) -> None:
        path = out_dir / filename
        with open(path, "w", encoding="utf-8", newline="") as stream:
            writer(stream, result.ledger, grid)
        paths[filename] = path

    _emit("cdt.csv", write_cdt_csv)
    _emit("requests_server.csv", write_server_requests_csv)
    _emit("requests_rsu.csv", write_rsu_requests_csv)
    if cfg.caching:
        _emit("chr.csv", write_chr_csv)
    if result.trace_lines is not None:
        path = out_dir / "trace.log"
        body = "".join(line + "\n" for line in result.trace_lines)
        path.write_text(body, encoding="utf-8")
        paths["trace.log"] = path
    return paths


def run_summary(result: SimulationResult) -> dict[str, str]:
    """The run's totals, in the writers' formats of its CSV files' last rows."""
    ledger = result.ledger
    avg_cdt_us = ledger.final_avg_cdt_us()
    hit_ratio = ledger.final_chr() if result.config.caching else None
    return {
        "final_avg_cdt_s": "Undefined" if avg_cdt_us is None else _fmt_seconds(avg_cdt_us),
        "deliveries": str(len(ledger.deliveries)),
        "server_requests": str(ledger.total_server_fetches()),
        "rsu_requests": str(ledger.total_rsu_requests()),
        "chr": "Undefined" if hit_ratio is None else _fmt_ratio(hit_ratio),
    }


# -- subcommands ------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = _resolve_config(args, args.caching, args.seed)
    result = run_simulation(cfg)
    out_dir = args.out / run_dir_name(cfg)
    write_outputs(result, out_dir)
    summary = run_summary(result)
    print(f"scenario: {cfg.name}")
    print(f"seed: {cfg.seed}")
    print(f"caching: {'on' if cfg.caching else 'off'}")
    print(f"final_avg_cdt_s: {summary['final_avg_cdt_s']}")
    print(f"deliveries: {summary['deliveries']}")
    print(f"server_requests: {summary['server_requests']}")
    print(f"rsu_requests: {summary['rsu_requests']}")
    print(f"chr: {summary['chr']}")
    print(f"satisfied: {result.satisfied}/{result.spawned}")
    print(f"out: {out_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    # resolved once, each run replacing caching and seed; a config error ends
    # the sweep before any run and prints nothing, not even the note
    base = _resolve_config(args, args.caching, None)
    validate_config(replace(base, seed=args.seeds[0]))  # the file's seed is not run
    if args.caching is not None:
        variants = [args.caching]
    else:
        variants = [True, False]
        if caching_only(base):
            variants = [True]
            print(
                f"note: {base.name} has relay RSUs and runs caching-only; "
                "skipping the no-cache variant"
            )

    rows: list[dict[str, str]] = []
    failures: list[str] = []
    for caching in variants:
        for seed in args.seeds:
            label = f"{'cached' if caching else 'nocache'} seed={seed}"
            try:
                cfg = replace(base, caching=caching, seed=seed)
                result = run_simulation(cfg)
                write_outputs(result, args.out / run_dir_name(cfg))
                summary = run_summary(result)
            except Exception as exc:  # noqa: BLE001 - isolate per-run failures
                failures.append(f"{label}: {exc}")
                continue
            rows.append(
                {
                    "variant": "cached" if caching else "nocache",
                    "seed": str(seed),
                    "final_avg_cdt_s": summary["final_avg_cdt_s"],
                    "deliveries": summary["deliveries"],
                    "server_requests": summary["server_requests"],
                    "rsu_requests": summary["rsu_requests"],
                    "chr": summary["chr"],
                    "satisfied": f"{result.satisfied}/{result.spawned}",
                }
            )

    header = (
        "variant",
        "seed",
        "final_avg_cdt_s",
        "deliveries",
        "server_requests",
        "rsu_requests",
        "chr",
        "satisfied",
    )
    print(" ".join(header))
    for row in rows:
        print(" ".join(row[col] for col in header))

    means: dict[str, float] = {}
    for variant in ("cached", "nocache"):
        values = [
            float(row["final_avg_cdt_s"])
            for row in rows
            if row["variant"] == variant and row["final_avg_cdt_s"] != "Undefined"
        ]
        if values:
            means[variant] = sum(values) / len(values)
            print(f"mean_final_avg_cdt_s[{variant}]: {means[variant]:.6f}")
    if "cached" in means and "nocache" in means and means["nocache"] > 0:
        print(f"cdt_ratio_cached_over_nocache: {means['cached'] / means['nocache']:.6f}")

    if failures:
        print(f"failed runs ({len(failures)}):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (ParseError, ValidationError, OSError, UnicodeDecodeError) as exc:
        # a config file that is missing, unreadable or not UTF-8 text too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
