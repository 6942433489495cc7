"""Figure-1 instruction hierarchy: classification and counting.

The paper classifies every executed instruction into a tree (its Figure 1)
and reports counts at the "scalar / vector-configuration / vector" level
and, inside vector, at the "arithmetic / memory / control-lane" level.
This module provides the classification of :class:`~repro.isa.instructions.
InstrSpec` objects and a small counter container used by traces and tests.

The machine model keeps its own richer counters
(:class:`repro.metrics.counters.PhaseCounters`); this module is the
authoritative definition of *which bucket an opcode belongs to*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import InstrClass, InstrSpec

#: Ordered bucket names as they appear in the paper's Figure 3 legend.
VECTOR_BUCKETS = ("arithmetic", "memory", "control_lane")

#: All leaf bucket names of the hierarchy tree.
LEAF_BUCKETS = ("scalar", "vector_config") + VECTOR_BUCKETS


def classify(spec: InstrSpec) -> str:
    """Return the leaf bucket name of *spec* in the Figure-1 hierarchy."""
    if spec.iclass is InstrClass.SCALAR:
        return "scalar"
    if spec.iclass is InstrClass.VECTOR_CONFIG:
        return "vector_config"
    assert spec.vkind is not None
    return spec.vkind.value


@dataclass
class HierarchyCounts:
    """Instruction counts at each leaf of the Figure-1 tree."""

    scalar: int = 0
    vector_config: int = 0
    arithmetic: int = 0
    memory: int = 0
    control_lane: int = 0

    def add(self, spec: InstrSpec, count: int = 1) -> None:
        bucket = classify(spec)
        setattr(self, bucket, getattr(self, bucket) + count)
