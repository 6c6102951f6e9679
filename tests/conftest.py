"""Shared fixtures and helpers: acceptance verdict recording, end-of-run
reporting, and the ids of a simulation's active vehicles."""

import pytest

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
