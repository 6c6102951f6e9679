"""The benchmark's workloads and how one unit of work runs.

A workload maps the benchmark seed to a list of runs. Each run goes
through the simulator's public API exactly as a user would drive it: a
builder from ``vcachesim.scenarios``, ``dataclasses.replace`` overrides,
``Simulation(cfg).run()`` and ``vcachesim.cli.write_outputs``. Builders,
``Simulation`` and ``write_outputs`` are looked up on their modules at
call time so that the tracer's wrappers see every call.

Why each workload exists, and which layer metric each should move, is
written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from pathlib import Path

from vcachesim import cli, engine, scenarios

CSV_FILES = ("cdt.csv", "requests_server.csv", "requests_rsu.csv", "chr.csv")

URBAN_SWEEP_SEEDS = 10


@dataclass(frozen=True)
class RunSpec:
    """One simulation run: builder name and arguments, overrides, seed."""

    builder: str
    count: int
    caching: bool
    seed: int
    overrides: tuple[tuple[str, object], ...] = ()

    @property
    def run_id(self) -> str:
        variant = "cached" if self.caching else "nocache"
        return f"{self.builder}_{variant}_n{self.count}_s{self.seed}"

    def build(self) -> scenarios.ScenarioConfig:
        kwargs = {"count": self.count, "seed": self.seed}
        if self.builder != "highway_multi":  # highway_multi is caching-only
            kwargs["caching"] = self.caching
        cfg = getattr(scenarios, self.builder)(**kwargs)
        if self.overrides:
            cfg = replace(cfg, **dict(self.overrides))
        return cfg


RELAY_STORM_OVERRIDES = (
    ("catalog_size", 100),
    ("rsu_cache_capacity", 16),
    ("relay_announce_interval_s", 3.0),
)

URBAN_VARIANTS = (("urban_single", True), ("urban_single", False), ("urban_multi", True))


def highway_long(seed: int) -> list[RunSpec]:
    return [RunSpec("highway_single", 1200, True, seed)]


def relay_storm(seed: int) -> list[RunSpec]:
    return [RunSpec("highway_multi", 300, True, seed, RELAY_STORM_OVERRIDES)]


def urban_sweep(seed: int) -> list[RunSpec]:
    return [
        RunSpec(builder, 40, caching, s)
        for builder, caching in URBAN_VARIANTS
        for s in range(seed, seed + URBAN_SWEEP_SEEDS)
    ]


WORKLOADS = {
    "highway_long": highway_long,
    "relay_storm": relay_storm,
    "urban_sweep": urban_sweep,
}


@dataclass
class RunOutcome:
    """Host times of one run, the objects it produced and its CSV digests.

    stamps are the perf_counter readings at the start, before and after
    run(), and after the last file written.
    """

    spec: RunSpec
    sim_run_s: float
    total_s: float
    stamps: tuple[float, float, float, float]
    sim: engine.Simulation
    result: engine.SimulationResult
    digests: dict[str, str]
    bytes_written: int


def execute(spec: RunSpec, out_root: Path) -> RunOutcome:
    """Run one spec end to end; the timed span ends at the last file written."""
    clock = time.perf_counter
    t0 = clock()
    cfg = spec.build()
    sim = engine.Simulation(cfg)
    t1 = clock()
    result = sim.run()
    t2 = clock()
    paths = cli.write_outputs(result, out_root / cli.run_dir_name(cfg))
    t3 = clock()
    return RunOutcome(
        spec=spec,
        sim_run_s=t2 - t1,
        total_s=t3 - t0,
        stamps=(t0, t1, t2, t3),
        sim=sim,
        result=result,
        digests=file_digests(paths),
        bytes_written=sum(path.stat().st_size for path in paths.values()),
    )


def setup_only(spec: RunSpec) -> None:
    """The builder, validation and Simulation.__init__, and nothing else."""
    engine.Simulation(spec.build())


def file_digests(paths: dict[str, Path]) -> dict[str, str]:
    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in sorted(paths.items())
        if name in CSV_FILES
    }
