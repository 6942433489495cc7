"""Hardware parameter records for the machine models.

All quantities are per core, matching the paper's Table 2 ("All the
entries are measured per core").  Timing is expressed in cycles; the
frequency is only used to convert to wall-clock time when a caller asks
for it (the paper compares cycle counts within a machine and speed-up
ratios across machines, never absolute seconds across machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CacheParams:
    """One cache level (set-associative, LRU, write-allocate)."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    assoc: int = 4
    #: extra cycles paid per miss *at this level* (latency to next level).
    miss_penalty: float = 10.0

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line_bytes*assoc = {self.line_bytes * self.assoc}"
            )
        # the simulator takes an address's line and set from its bits, as
        # hardware does.
        for what, value in (("line size", self.line_bytes),
                            ("set count", self.n_sets)):
            if value & (value - 1):
                raise ValueError(
                    f"{self.name}: {what} {value} is not a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class MemoryParams:
    """Cache hierarchy + main-memory characteristics."""

    l1: CacheParams
    l2: Optional[CacheParams] = None
    #: sustained bandwidth, bytes per cycle (Table 2 row "Bandwidth").
    bandwidth_bytes_per_cycle: float = 64.0


@dataclass(frozen=True)
class VPUParams:
    """Vector-unit timing model.

    The execution time of a vector instruction is::

        cycles = issue_overhead + exec_cycles(kind, pattern, vl)

    For the RISC-V VEC prototype, ``exec_cycles`` follows the Vitruvius
    FSM: elements are processed in groups of ``lanes * fsm_depth``
    (8 lanes x depth 5 = 40 elements per 5-cycle group); a *partial*
    trailing group still pays a flush penalty on top of its per-lane
    cycles.  This is the micro-architectural reason the paper gives for
    vector lengths that are multiples of 40 (hence VECTOR_SIZE = 240)
    outperforming the full 256-element vector length.

    Machines without the quirk (NEC SX-Aurora, AVX-512) set
    ``fsm_depth = None`` and use plain ``ceil(vl / lanes)`` throughput.
    """

    vl_max: int
    lanes: int
    issue_overhead: float = 8.0
    fsm_depth: Optional[int] = 5
    fsm_flush_cycles: float = 2.0
    #: multiplier on execution cycles for long-latency ops (div, sqrt).
    long_latency_factor: float = 4.0
    #: elements per cycle for each vector memory pattern (cache-hit case).
    mem_unit_elems_per_cycle: float = 8.0
    mem_strided_elems_per_cycle: float = 2.0
    mem_indexed_elems_per_cycle: float = 1.0
    #: cycles for a control-lane instruction (independent of vl).
    control_lane_cycles: float = 4.0
    #: cycles for a vsetvl vector-configuration instruction.
    config_cycles: float = 1.0
    #: fraction of cache-miss latency a vector memory access exposes
    #: (long vectors pipeline and overlap much of the miss latency).
    #: This is the *floor*; the effective exposure rises toward 1.0 as
    #: the vector length shrinks (a 4-element access hides nothing):
    #: ``exposure(vl) = clamp(floor * vl_max / vl, floor, 1.0)``.
    vector_miss_exposure: float = 0.5
    #: scalar-core stall per executed strip of a vectorized loop: the
    #: decoupled VPU's round-trip before dependent scalar bookkeeping can
    #: proceed.  Constant per strip, so it amortizes over long vectors
    #: but dominates tiny-AVL loops -- the mechanism behind the paper's
    #: VEC2 slowdown ("decoding, issuing and dispatching vector
    #: instructions ... computing only 4 elements produces significant
    #: overhead").
    strip_stall_cycles: float = 0.0

    def miss_exposure(self, vl: float) -> float:
        """Effective miss-latency exposure for accesses of length *vl*."""
        base = self.vector_miss_exposure
        if vl <= 0:
            return 1.0
        return max(base, min(1.0, base * self.vl_max / vl))

    @property
    def fsm_group_elems(self) -> Optional[int]:
        if self.fsm_depth is None:
            return None
        return self.lanes * self.fsm_depth

    def __post_init__(self) -> None:
        if self.vl_max <= 0 or self.lanes <= 0:
            raise ValueError("vl_max and lanes must be positive")
        if self.fsm_depth is not None and self.fsm_depth <= 0:
            raise ValueError("fsm_depth must be positive or None")


@dataclass(frozen=True)
class ScalarParams:
    """Scalar-pipeline CPI model (coarse, per instruction category)."""

    cpi_alu: float = 1.0
    cpi_mul: float = 2.0
    cpi_fp: float = 2.0
    cpi_fdiv: float = 12.0
    cpi_load: float = 1.0       # cache-hit cost; misses add penalties
    cpi_store: float = 1.0
    cpi_branch: float = 1.5


@dataclass(frozen=True)
class MachineParams:
    """Everything the simulator needs to know about one platform."""

    name: str
    isa: str
    frequency_mhz: float
    scalar: ScalarParams
    memory: MemoryParams
    vpu: Optional[VPUParams] = None
    #: Table-2 row "Throughput [FLOP/cycle]" (reporting only).
    peak_flops_per_cycle: float = 0.0
    compiler: str = ""
    os: str = ""
    cores_per_socket: int = 1

    @property
    def vl_max(self) -> int:
        if self.vpu is None:
            raise ValueError(f"{self.name} has no vector unit")
        return self.vpu.vl_max

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.frequency_mhz * 1e6)
