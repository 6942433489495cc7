"""Tracing toolchain analogues: Extrae-like tracer, Vehave-like vector
trace, Paraver-like export, and trace-based analysis."""

from repro.obs.tracer import Tracer
from repro.trace import paraver
from repro.trace.analysis import PhaseTraceStats, phase_stats, timeline
from repro.trace.events import BlockEvent, VectorInstrEvent

__all__ = [
    "BlockEvent",
    "VectorInstrEvent",
    "Tracer",
    "PhaseTraceStats",
    "phase_stats",
    "timeline",
    "paraver",
]
