"""Vector-processing-unit timing model.

Reproduces the timing facts the paper reports for the RISC-V VEC
prototype (Vitruvius VPU):

* A vector FMA with vl = 256 takes ~32 cycles: 8 lanes each hosting one
  FPU, so 256 elements / 8 lanes = 32 cycles; shorter vector lengths take
  proportionally fewer cycles.
* The element state machine advances in groups of ``lanes * fsm_depth``
  elements (8 x 5 = 40); a vector length that is *not* a multiple of 40
  pays a flush penalty on the trailing partial group.  This is why
  VECTOR_SIZE = 240 outperforms 256 ("performance are maximized when the
  vector length is a multiple of 8 ... and 5", footnote 4).
* Decoding/issuing/dispatching a vector instruction has a fixed overhead;
  with tiny vector lengths (the AVL = 4 situation created by the VEC2
  optimization) this overhead dominates and vectorization *loses* to
  scalar execution.

The NEC SX-Aurora and AVX-512 models use the same formulas with
``fsm_depth = None`` (no grouping quirk) and their own lane counts.
"""

from __future__ import annotations

import math

from repro.isa.instructions import InstrSpec, MemPattern, VectorKind
from repro.machine.params import VPUParams


class VPUModel:
    """Cycle cost of individual vector instructions on one VPU."""

    def __init__(self, params: VPUParams):
        self.params = params
        #: elements a vector memory instruction moves per cycle, by pattern.
        self._rates = {
            MemPattern.UNIT_STRIDE: params.mem_unit_elems_per_cycle,
            MemPattern.STRIDED: params.mem_strided_elems_per_cycle,
            MemPattern.INDEXED: params.mem_indexed_elems_per_cycle,
        }
        #: ``(id(spec), vl)`` -> ``(spec, instr_cycles(spec, vl))``: a
        #: program repeats a few specs at a few vector lengths.  Keyed by
        #: identity (the spec is kept, so an ``id`` cannot alias): hashing
        #: a spec costs more than computing its cycles.
        self._cycles: dict[tuple[int, int], tuple[InstrSpec, float]] = {}

    # -- execution-stage costs (no issue overhead) ------------------------

    def arith_exec_cycles(self, vl: int, long_latency: bool = False) -> float:
        """Execution cycles of an arithmetic vector instruction."""
        p = self.params
        if vl <= 0:
            return 0.0
        group = p.fsm_group_elems
        if group is None:
            cycles = math.ceil(vl / p.lanes)
        else:
            full, rem = divmod(vl, group)
            cycles = full * p.fsm_depth
            if rem:
                cycles += math.ceil(rem / p.lanes) + p.fsm_flush_cycles
        if long_latency:
            cycles *= p.long_latency_factor
        return float(cycles)

    def mem_exec_cycles(self, vl: int, pattern: MemPattern) -> float:
        """Execution cycles of a vector memory instruction (cache-hit)."""
        p = self.params
        if vl <= 0:
            return 0.0
        rate = self._rates[pattern]
        group = p.fsm_group_elems
        if group is None or pattern is not MemPattern.UNIT_STRIDE:
            return math.ceil(vl / rate)
        # Unit-stride streams move through the same element FSM as
        # arithmetic on Vitruvius; the 64 B/cycle bandwidth (8 elem/cycle)
        # matches the 40-elements-per-5-cycles group rate.
        full, rem = divmod(vl, group)
        cycles = full * p.fsm_depth
        if rem:
            cycles += math.ceil(rem / p.lanes) + p.fsm_flush_cycles
        return float(cycles)

    # -- full per-instruction cost ----------------------------------------

    def instr_cycles(self, spec: InstrSpec, vl: int) -> float:
        """Total cycles attributed to one dynamic vector instruction."""
        entry = self._cycles.get((id(spec), vl))
        if entry is None or entry[0] is not spec:
            entry = self._cycles[id(spec), vl] = (
                spec, self._instr_cycles(spec, vl))
        return entry[1]

    def _instr_cycles(self, spec: InstrSpec, vl: int) -> float:
        p = self.params
        if spec.vkind is VectorKind.ARITHMETIC:
            return p.issue_overhead + self.arith_exec_cycles(vl, spec.long_latency)
        if spec.vkind is VectorKind.MEMORY:
            assert spec.mem_pattern is not None
            return p.issue_overhead + self.mem_exec_cycles(vl, spec.mem_pattern)
        if spec.vkind is VectorKind.CONTROL_LANE:
            return p.issue_overhead + p.control_lane_cycles
        raise ValueError(f"not a vector instruction: {spec.opcode}")

    def config_cycles(self) -> float:
        """Cycles of a vsetvl vector-configuration instruction."""
        return self.params.config_cycles
