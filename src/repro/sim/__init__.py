"""Discrete-event simulation substrate (kernel, resources, measurement)."""

from .kernel import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
    any_of,
)
from .monitor import (
    ByteCounter,
    LatencyRecorder,
    TallyStats,
    TimeSeries,
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
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "all_of",
    "any_of",
    "ByteCounter",
    "LatencyRecorder",
    "TallyStats",
    "TimeSeries",
    "UtilizationTracker",
    "Container",
    "Mailbox",
    "Resource",
    "Store",
    "RngRegistry",
]
