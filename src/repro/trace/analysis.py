"""Trace analysis: derive the §2.2 metrics from trace events.

This is the second, independent path to the paper's numbers: instead of
reading hardware counters, aggregate the (Extrae-like) block events and
(Vehave-like) vector-instruction events.  The test suite checks both
paths agree -- the same sanity the authors get from combining tools.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.isa.hierarchy import HierarchyCounts
from repro.isa.instructions import OPCODES
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class PhaseTraceStats:
    """Per-phase aggregates computed purely from trace events."""

    phase: int
    cycles: float
    vector_instrs: float
    vl_sum: float
    hierarchy: HierarchyCounts

    @property
    def avl(self) -> float:
        return self.vl_sum / self.vector_instrs if self.vector_instrs else 0.0


def phase_stats(tracer: Tracer) -> dict[int, PhaseTraceStats]:
    """Aggregate a trace into per-phase statistics."""
    cycles: Counter = Counter()
    for b in tracer.blocks:
        cycles[b.phase] += b.cycles
    vec: dict[int, float] = Counter()
    vl_sum: dict[int, float] = Counter()
    hier: dict[int, HierarchyCounts] = {}
    for e in tracer.vector_instrs:
        h = hier.setdefault(e.phase, HierarchyCounts())
        h.add(OPCODES[e.opcode], e.count)
        if OPCODES[e.opcode].is_vector:
            vec[e.phase] += e.count
            vl_sum[e.phase] += e.vl * e.count
    phases = sorted(set(cycles) | set(vec))
    return {
        p: PhaseTraceStats(
            phase=p,
            cycles=float(cycles.get(p, 0.0)),
            vector_instrs=float(vec.get(p, 0.0)),
            vl_sum=float(vl_sum.get(p, 0.0)),
            hierarchy=hier.get(p, HierarchyCounts()),
        )
        for p in phases
    }


def timeline(tracer: Tracer, buckets: int = 40) -> list[tuple[float, int]]:
    """Coarse phase timeline: dominant phase per time bucket.

    A text-mode substitute for a Paraver phase-gradient view; returns
    (bucket start time, dominant phase) pairs.
    """
    total = tracer.total_cycles()
    if total <= 0 or not tracer.blocks:
        return []
    width = total / buckets
    out = []
    for i in range(buckets):
        lo, hi = i * width, (i + 1) * width
        weights: Counter = Counter()
        for b in tracer.blocks:
            overlap = min(hi, b.t_end) - max(lo, b.t_start)
            if overlap > 0:
                weights[b.phase] += overlap
        if weights:
            out.append((lo, weights.most_common(1)[0][0]))
    return out
