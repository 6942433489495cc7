"""Validation layer: prove the reproduction *detects* corruption.

The paper's measurements come from a fragile stack -- a 50 MHz FPGA
prototype, a research compiler, hand-instrumented phase counters --
where one silent mis-measurement poisons every downstream table.  This
package is the reproduction's answer: every simulated run can be
cross-checked against cheap structural invariants
(:mod:`repro.validation.invariants`) and, per optimization rung, against
the NumPy golden reference of phases 1-12
(:mod:`repro.validation.golden`).

The sweep executor threads these checks through
``execute_plan(validate=True)``; the :mod:`repro.faults` chaos harness
proves they fire on injected faults.
"""

from repro.validation.invariants import (
    check_flop_ladder,
    check_phase_counters,
    check_phase_digest_ladder,
    check_run_counters,
    validate_run,
    vl_max_for,
)
from repro.validation.digests import phase_output_digests, solver_phase_digests
from repro.validation.golden import GoldenReport, golden_check, solver_golden_check
from repro.validation.probe import PROBE_MESH, PROBE_VECTOR_SIZE, Probe

__all__ = [
    "GoldenReport",
    "PROBE_MESH",
    "PROBE_VECTOR_SIZE",
    "Probe",
    "check_flop_ladder",
    "check_phase_counters",
    "check_phase_digest_ladder",
    "check_run_counters",
    "golden_check",
    "phase_output_digests",
    "solver_golden_check",
    "solver_phase_digests",
    "validate_run",
    "vl_max_for",
]
