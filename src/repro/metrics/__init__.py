"""Performance metrics (§2.2) and the Table-6 regression analysis."""

from repro.metrics.counters import PhaseCounters, RunCounters
from repro.metrics.metrics import (
    PhaseMetrics,
    avl,
    dcm_per_kiloinstruction,
    mem_instruction_ratio,
    occupancy,
    vcpi,
    vector_activity,
    vector_mix,
)
from repro.metrics.regression import (
    RegressionResult,
    cycles_vs_memory_model,
    linear_regression,
)
from repro.metrics.roofline import (
    RooflinePoint,
    machine_ridge,
    phase_roofline,
    render_roofline,
    run_roofline,
)

__all__ = [
    "PhaseCounters",
    "RunCounters",
    "PhaseMetrics",
    "avl",
    "dcm_per_kiloinstruction",
    "mem_instruction_ratio",
    "occupancy",
    "vcpi",
    "vector_activity",
    "vector_mix",
    "RegressionResult",
    "cycles_vs_memory_model",
    "linear_regression",
    "RooflinePoint",
    "machine_ridge",
    "phase_roofline",
    "render_roofline",
    "run_roofline",
]
