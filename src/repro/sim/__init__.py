"""Discrete-event simulation substrate (kernel, resources, measurement)."""

from .kernel import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
    any_of,
)
from .monitor import (
    LatencyRecorder,
    UtilizationTracker,
)
from .resources import (
    Container,
    Mailbox,
    Resource,
    Store,
)
from .rng import RngRegistry

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "all_of",
    "any_of",
    "LatencyRecorder",
    "UtilizationTracker",
    "Container",
    "Mailbox",
    "Resource",
    "Store",
    "RngRegistry",
]
