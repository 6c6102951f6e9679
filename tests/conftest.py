"""Shared fixtures and helpers: acceptance verdict recording, end-of-run
reporting, the ids of a simulation's active vehicles, vehicles put on a
road by hand, and runs of the frozen dense engine."""

import dataclasses
import sys
from pathlib import Path

import pytest

from vcachesim.mobility import Traffic, VehicleState

sys.path.insert(0, str(Path(__file__).resolve().parent / "reference"))
import vcachesim_ref  # noqa: E402 - found through the path entry above
from vcachesim_ref import cli as ref_cli, engine as ref_engine  # noqa: E402

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance():
    """Record one PASS/FAIL line per acceptance criterion, then assert it."""

    def record(num, ok, detail):
        line = f"ACCEPTANCE-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
        _acceptance_lines.append(line)
        print(line)
        if not ok:
            pytest.fail(line, pytrace=False)

    return record


def active_ids(sim):
    """Ids of the vehicles on the road, in spawn order: an exited vehicle
    has dropped its track."""
    return [vid for vid in sim.vehicles if sim.world.riding(vid)[1] is not None]


def lane(world, road_id):
    """The road's active vehicles, front to back, which is spawn order."""
    states = world._states.values()
    return [state for state in states if state.road_id == road_id and state.track is not None]


def spawn(world, vehicle_id, road_id, speed_mps):
    """Put a vehicle at the road's entry as of world.now, behind the road's
    rear vehicle, with the path admit would fix for it there; for tests
    that then place it."""
    if vehicle_id in world._states:
        raise ValueError(f"vehicle already spawned: {vehicle_id}")
    rear = lane(world, road_id)[-1:]
    state = VehicleState(vehicle_id, road_id, world.now)
    world._fix_path(state, speed_mps, rear[0] if rear else None)
    world.tick(Traffic(world.now, [], [(state, None)]))


def reference_outputs(builder, overrides, drain_s, out_dir):
    """File name -> bytes of every output of the frozen dense engine
    (tests/reference), traced, for a builder and the overrides that
    resolve_config takes; drain_s, unless None, is the duration past the
    arrival window."""
    args = {k: v for k, v in overrides.items() if k in ("count", "caching", "seed")}
    if builder == "highway_multi":
        args.pop("caching", None)  # its relays need caching, always on there
    cfg = vcachesim_ref.BUILDERS[builder](**args)
    blocks = {"radio": {}, "kinematics": {}}
    for key, value in overrides.items():
        block, _, field = key.rpartition(".")
        if block:
            blocks[block][field] = value
        elif key not in ("count", "caching", "seed"):
            setattr(cfg, key, value)
    for block, fields in blocks.items():
        setattr(cfg, block, dataclasses.replace(getattr(cfg, block), **fields))
    if drain_s is not None:
        cfg.duration_s = cfg.arrival_window_s + drain_s
    cfg.trace = True
    paths = ref_cli.write_outputs(ref_engine.run_simulation(cfg), out_dir)
    return {name: path.read_bytes() for name, path in paths.items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
