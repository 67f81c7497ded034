"""Discrete-event simulation: the flat arrival/departure calendar engine and
the DDC driver.  At equal times arrivals fire before departures, and
equal-time departures fire in placement-commit order."""

from .engine import EngineSnapshot, FlatEngine
from .event_log import EventLog, SimEvent
from .results import SimulationResult
from .simulator import DDCSimulator, RunCheckpoint, SimCheckpoint, simulate

__all__ = [
    "DDCSimulator",
    "EngineSnapshot",
    "EventLog",
    "FlatEngine",
    "RunCheckpoint",
    "SimEvent",
    "SimulationResult",
    "SimCheckpoint",
    "simulate",
]
