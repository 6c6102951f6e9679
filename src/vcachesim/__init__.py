"""Discrete-event simulator of RSU content caching for vehicular networks.

Vehicles travel along road segments, request named content from roadside
units, and opportunistically pre-cache whatever they overhear on the
broadcast channel. The package measures how RSU-side caching and relay
RSUs change content delivery time, server load, and cache hit ratio.

Everything is deterministic for a given scenario config and seed.
"""

from .engine import Simulation, SimulationResult, run_simulation
from .scenarios import (
    BUILDERS,
    ParseError,
    RsuSpec,
    ScenarioConfig,
    ValidationError,
    highway_multi,
    highway_single,
    resolve_config,
    urban_multi,
    urban_single,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "BUILDERS",
    "ParseError",
    "RsuSpec",
    "ScenarioConfig",
    "Simulation",
    "SimulationResult",
    "ValidationError",
    "highway_multi",
    "highway_single",
    "resolve_config",
    "run_simulation",
    "urban_multi",
    "urban_single",
    "validate_config",
    "__version__",
]
