"""The machine: executes compiled kernels and accumulates counters.

``Machine.execute_kernel`` walks the blocks produced by
:mod:`repro.compiler.codegen` against one :class:`~repro.compiler.program.
KernelInstance` (a chunk of mesh elements) and charges cycles and
instruction counts into :class:`~repro.metrics.counters.RunCounters`.

Two performance properties of the implementation matter:

* block iteration repeats are *analytically* accounted (all iterations of
  a homogeneous block cost the same base cycles), so simulation cost is
  proportional to the number of distinct blocks and strips, not to the
  dynamic instruction count;
* cache behaviour, which is *not* homogeneous across iterations, is
  simulated from the real address streams evaluated in NumPy batches.

A kernel runs in two passes.  First every access stream of the kernel,
in block order, goes to the memory hierarchy in one call, which decides
them all at once (one call per kernel instead of one per stream is what
lets the vectorized cache amortize its per-call cost).  Then the blocks
are accounted in order, each charging its base cycles and then its
streams' stall penalties.  The cache sees the same lines in the same
order as a walk that accessed it block by block, and every float sum is
formed from the same terms in the same order, so the counters are
identical to that walk's.

Vector length selection follows the RVV vector-length-agnostic model:
the program asks for the remaining trip count and the machine grants at
most its ``vl_max``, so one compiled program runs unmodified on machines
with 256-element vectors (RISC-V VEC, SX-Aurora) and 8-element vectors
(AVX-512), as the paper's portability study requires.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.isa.instructions import ScalarOp
from repro.machine.cache import MemoryHierarchy
from repro.machine.params import MachineParams
from repro.machine.vpu import VPUModel
from repro.metrics.counters import PhaseCounters, RunCounters
from repro.compiler.program import (
    AccessDesc,
    CompiledKernel,
    KernelInstance,
    ScalarBlock,
    VectorBlock,
    byte_addresses,
    loop_grid,
)


def strip_lengths(total_trip: int, vl_max: int) -> list[int]:
    """Vector lengths granted strip by strip (VLA semantics)."""
    full, rem = divmod(total_trip, vl_max)
    return [vl_max] * full + ([rem] if rem else [])


class Machine:
    """One simulated core (scalar pipeline + optional VPU + caches).

    The ambient :func:`repro.obs.active` tracer at construction (if any:
    a :class:`repro.obs.tracer.Tracer`) receives timed events for every
    executed block -- the simulation-side equivalent of running under
    Extrae + Vehave -- so a ``with obs.use(tracer):`` scope observes
    every machine built inside it, including machines built deep inside
    executor workers.  Phase kernels are additionally stamped as
    SIM-domain spans on the cycle clock
    (:meth:`~repro.obs.tracer.Tracer.span_at`), the timeline the
    Chrome/Paraver exporters render.
    """

    def __init__(self, params: MachineParams, cache_enabled: bool = True):
        from repro.obs.tracer import active as _obs_active

        self.params = params
        self.vpu: Optional[VPUModel] = VPUModel(params.vpu) if params.vpu else None
        self.mem = MemoryHierarchy(params.memory, enabled=cache_enabled)
        self.tracer = _obs_active()
        #: running cycle clock (advances as blocks execute).
        self.clock = 0.0
        self._cpi = {
            ScalarOp.ALU: params.scalar.cpi_alu,
            ScalarOp.MUL: params.scalar.cpi_mul,
            ScalarOp.FP: params.scalar.cpi_fp,
            ScalarOp.FDIV: params.scalar.cpi_fdiv,
            ScalarOp.LOAD: params.scalar.cpi_load,
            ScalarOp.STORE: params.scalar.cpi_store,
            ScalarOp.BRANCH: params.scalar.cpi_branch,
        }

    # ------------------------------------------------------------------

    @staticmethod
    def _addresses(desc: AccessDesc, env_vars: tuple[str, ...],
                   env_extents: tuple[int, ...],
                   instance: KernelInstance) -> np.ndarray:
        """The byte addresses one access descriptor touches, in order."""
        env = loop_grid(env_vars, env_extents)
        addrs = np.broadcast_to(
            byte_addresses(desc.ref, env, instance), env_extents or (1,)
        ).reshape(-1)
        if desc.weight < 1.0:
            addrs = addrs[: int(round(addrs.size * desc.weight))]
        return addrs

    def _streams(self, compiled: CompiledKernel, instance: KernelInstance):
        """Every access stream of *compiled*, in execution order.  Nothing
        here holds a stream once it is yielded, so each one is freed as
        soon as the caches have collapsed it to lines."""
        for block in compiled.blocks:
            if isinstance(block, VectorBlock):
                env_vars = block.loop_vars + (block.vec_var,)
                env_extents = block.loop_extents + (block.total_trip,)
                descs = [i.access for i in block.instrs if i.access is not None]
            else:
                env_vars, env_extents = block.loop_vars, block.loop_extents
                descs = block.accesses
            for desc in descs:
                yield self._addresses(desc, env_vars, env_extents, instance)

    @staticmethod
    def _charge(stream: tuple[float, int, int, int],
                counters: PhaseCounters) -> float:
        """Count one stream's misses and elements; return its penalty."""
        penalty, l1_misses, l2_misses, elements = stream
        counters.l1_misses += l1_misses
        counters.l2_misses += l2_misses
        counters.mem_element_accesses += elements
        return penalty

    # ------------------------------------------------------------------

    def _exec_scalar_block(self, block: ScalarBlock, streams: Iterator,
                           counters: PhaseCounters) -> None:
        trips = block.trips
        cycles_per_iter = 0.0
        instr_per_iter = 0.0
        mem_instr_per_iter = 0.0
        for op, n in block.counts:
            cycles_per_iter += n * self._cpi[op]
            instr_per_iter += n
            if op in (ScalarOp.LOAD, ScalarOp.STORE):
                mem_instr_per_iter += n
        cycles = trips * cycles_per_iter
        for _ in block.accesses:
            cycles += self._charge(next(streams), counters)
        counters.cycles_total += cycles
        counters.instr_scalar += trips * instr_per_iter
        counters.instr_scalar_mem += trips * mem_instr_per_iter
        counters.flops += trips * block.flops_per_iter

    def _exec_vector_block(self, block: VectorBlock, streams: Iterator,
                           counters: PhaseCounters) -> None:
        if self.vpu is None:
            raise RuntimeError(
                f"machine {self.params.name!r} has no VPU but the program "
                f"contains vector block {block.label!r}"
            )
        vpu = self.vpu
        repeats = block.repeats
        vls = strip_lengths(block.total_trip, self.params.vpu.vl_max)

        # Per-repeat base cost is identical across repeats: compute once.
        cycles_vec = 0.0
        n_arith = n_mem = n_ctrl = 0
        vl_sum = 0.0
        flops = 0.0
        for vl in vls:
            for desc in block.instrs:
                c = vpu.instr_cycles(desc.spec, vl)
                cycles_vec += c
                vl_sum += vl
                counters.vl_hist[vl] += repeats
                if desc.spec.is_arith:
                    n_arith += 1
                    flops += desc.spec.flops_per_elem * vl
                elif desc.spec.is_memory:
                    n_mem += 1
                else:
                    n_ctrl += 1
        n_strips = len(vls)
        config_cycles = n_strips * (
            vpu.config_cycles() + self.params.vpu.strip_stall_cycles)

        if self.tracer is not None:
            records = [("vsetvl", vl, repeats) for vl in vls]
            records += [
                (desc.spec.opcode, vl, repeats)
                for vl in vls for desc in block.instrs
            ]
            self.tracer.on_vector_instrs(block.phase, self.clock, records)

        scalar_cycles = 0.0
        scalar_instr = 0.0
        scalar_mem_instr = 0.0
        for op, n in block.scalar_counts_per_strip:
            scalar_cycles += n * self._cpi[op] * n_strips
            scalar_instr += n * n_strips
            if op in (ScalarOp.LOAD, ScalarOp.STORE):
                scalar_mem_instr += n * n_strips

        counters.cycles_total += repeats * (cycles_vec + config_cycles + scalar_cycles)
        counters.cycles_vector += repeats * cycles_vec
        counters.instr_vector_arith += repeats * n_arith
        counters.instr_vector_mem += repeats * n_mem
        counters.instr_vector_ctrl += repeats * n_ctrl
        counters.instr_vconfig += repeats * n_strips
        counters.instr_scalar += repeats * scalar_instr
        counters.instr_scalar_mem += repeats * scalar_mem_instr
        counters.vl_sum += repeats * vl_sum
        counters.flops += repeats * flops

        # Stalls of the full (repeats x trip) address streams.
        vl_avg = block.total_trip / n_strips
        exposure = self.params.vpu.miss_exposure(vl_avg)
        for desc in block.instrs:
            if desc.access is None:
                continue
            penalty = self._charge(next(streams), counters)
            counters.cycles_total += penalty * exposure
            counters.cycles_vector += penalty * exposure

    # ------------------------------------------------------------------

    def execute_kernel(self, compiled: CompiledKernel, instance: KernelInstance,
                       run: RunCounters) -> None:
        """Execute one compiled kernel over one instance (chunk): all its
        streams through the caches first, then the blocks in order."""
        counters = run.phase(compiled.phase)
        streams = iter(self.mem.access(self._streams(compiled, instance)))
        kernel_t0 = self.clock
        for block in compiled.blocks:
            t0 = self.clock
            before = counters.cycles_total
            if isinstance(block, VectorBlock):
                self._exec_vector_block(block, streams, counters)
                kind = "vector"
            else:
                self._exec_scalar_block(block, streams, counters)
                kind = "scalar"
            delta = counters.cycles_total - before
            self.clock += delta
            if self.tracer is not None:
                self.tracer.on_block(block.phase, block.label, kind, t0, delta)
        if self.tracer is not None:
            self.tracer.span_at(compiled.name, cat="phase", t0=kernel_t0,
                                t1=self.clock, phase=compiled.phase)

    def execute_program(self, kernels: list[CompiledKernel],
                        instance: KernelInstance, run: RunCounters) -> None:
        for k in kernels:
            self.execute_kernel(k, instance, run)
