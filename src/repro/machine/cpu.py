"""The machine: executes compiled kernels and accumulates counters.

``Machine.execute_program`` walks the blocks produced by
:mod:`repro.compiler.codegen` over every chunk of mesh elements of a run
and charges cycles and instruction counts into
:class:`~repro.metrics.counters.RunCounters`.

Two performance properties of the implementation matter:

* block iteration repeats are *analytically* accounted (all iterations of
  a homogeneous block cost the same base cycles), so simulation cost is
  proportional to the number of distinct blocks and strips, not to the
  dynamic instruction count;
* cache behaviour, which is *not* homogeneous across iterations, is
  simulated from the real address streams evaluated in NumPy batches.

A run is one loop domain over (chunk, kernel, block, access).
:meth:`Machine.execute_program` takes a program, one
:class:`~repro.compiler.program.KernelInstance` and the chunk-base value
of every chunk the run visits: the chunks' instances would differ only
in the :data:`~repro.compiler.program.CHUNK_BASE` index constant.
:class:`RunStreams` classifies each access descriptor once per run.  A
stream that reads neither the chunk base nor a gather table is the same
in every chunk: it is collapsed to cache lines once and reused (within
:data:`REUSE_LINES`).  Every other stream is evaluated once per group of
chunks (:data:`GROUP_ACCESSES`), with the chunk base as a leading grid
axis, and collapsed row by row.  With the cache off no line is needed:
element counts follow from grid sizes and access weights, and only the
gathers are evaluated, for their index checks.

Each stream's own geometry picks how it becomes lines.  One that reads
no gather table and strides at most half a line along its innermost
loop takes the closed form
(:func:`~repro.machine.cache.strided_lines`): one address per row of
its grid, and each row is the range of lines between its first and last
element's.  Any other stream is evaluated element by element, and its
lines are shifted out of the addresses and de-duplicated.

Either way a stream's lines are built over its kept grid.  A repeat
loop of a stream is an outer loop of more than
:data:`KEPT_ITERATIONS` (three) iterations whose variable its ref does
not read, gathers included: each iteration touches the addresses the
one before did.  Only the first three iterations of each repeat loop
are kept, and every line of a third iteration is weighted by the
iterations left, ``E - 2`` (weights multiply across nested repeat
loops); :class:`~repro.machine.cache.Lines` carries the weights.  By
LRU's stack property the hierarchy decides the third iteration as it
would every later one, and ends in the same state, so the weighted
counts equal the full grid's (:data:`KEPT_ITERATIONS` says why three).
A stream cut short by an access weight below one keeps its full grid.
With the cache off only a gather is built, on its kept grid: the same
addresses are checked.

A run makes one call to the memory hierarchy: every stream of every
chunk's kernels, in run order, which lets the vectorized cache decide
full batches across kernel and chunk boundaries.  The call returns each
stream's misses (:class:`~repro.machine.cache.Charges`).  Then the
chunks run in order, each chunk's kernels in order, each kernel's
blocks in order: a block charges its base cycles, which do not depend
on the chunk and are computed once per block, and then its streams'
stall penalties.  The cache sees the same lines in the same order as a
walk that built every chunk's instance and accessed the cache kernel by
kernel, and every float sum is formed from the same terms in the same
order, so the counters are identical to that walk's.
:meth:`Machine.execute_kernel` on its own is a one-chunk run of one
kernel.

Vector length selection follows the RVV vector-length-agnostic model:
the program asks for the remaining trip count and the machine grants at
most its ``vl_max``, so one compiled program runs unmodified on machines
with 256-element vectors (RISC-V VEC, SX-Aurora) and 8-element vectors
(AVX-512), as the paper's portability study requires.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.compiler.ir import Ref
from repro.compiler.program import (
    CHUNK_BASE,
    CompiledKernel,
    KernelInstance,
    ScalarBlock,
    VectorBlock,
    byte_addresses,
    loop_grid,
)
from repro.isa.instructions import ScalarOp
from repro.machine.cache import (
    Lines,
    MemoryHierarchy,
    Rows,
    addresses_to_lines,
    dedup_rows,
    strided_lines,
)
from repro.machine.params import MachineParams
from repro.machine.vpu import VPUModel
from repro.metrics.counters import PhaseCounters, RunCounters

#: chunk-dependent element accesses of one kernel evaluated at once: the
#: kernel's chunk group spans as many chunks as fit, and the group's lines
#: are held until its last chunk has run.  A quick-mesh vec1 run at
#: VECTOR_SIZE 16 (60 chunks; on a 2.1 GHz Xeon) took 0.73 s with
#: one-chunk groups and 0.46 s at 1 << 15, for 0.2 MB more peak resident
#: memory (42.0 MB); 1 << 17 was no faster and held 0.9 MB more.  A
#: constant, not an option, for that reason.
GROUP_ACCESSES = 1 << 15

#: lines of chunk-invariant streams a run keeps for reuse (8 bytes each,
#: and 8 more for the weight of a folded stream's line).
#: A chunk's invariant streams are about 52k lines at VECTOR_SIZE 16, 210k
#: at 64 and 790k at 240.  With 1 << 17 the quick-mesh vec1 run at VS 16
#: took 0.48 s (1.14 s with no reuse), and the VS 240 run (4 chunks, the
#: budget full) peaked at 44.7 MB against 43.8 MB with no reuse; 1 << 18
#: added another 0.8 MB for a gain at VS 64 alone.
REUSE_LINES = 1 << 17

#: iterations of a repeat loop a stream keeps: the hierarchy depth plus
#: one.  A cache level fed a repeating period decides identically from
#: the period's second copy on, and ends every copy in the state it
#: ended the first in (LRU's stack property: a set holds the last
#: ``assoc`` distinct lines it was sent).  L1's input repeats from the
#: first iteration, but L2's input, L1's misses, only from the second:
#: L1 misses differently in the first copy than in the rest.  So the
#: third iteration decides as every later one does, at both levels, and
#: stands for all of them.  Two kept iterations go wrong whenever a line
#: still hot in L1 has left L2.
KEPT_ITERATIONS = 3


def strip_lengths(total_trip: int, vl_max: int) -> list[int]:
    """Vector lengths granted strip by strip (VLA semantics)."""
    full, rem = divmod(total_trip, vl_max)
    return [vl_max] * full + ([rem] if rem else [])


class _ScalarCost(NamedTuple):
    """What a scalar block charges in every chunk, before its streams'
    stall penalties."""

    cycles: float
    instr_scalar: float
    instr_scalar_mem: float
    flops: float
    accesses: int


class _VectorCost(NamedTuple):
    """What a vector block charges in every chunk (all its repeats),
    before its streams' stall penalties, which ``exposure`` scales."""

    vl_hist: tuple[tuple[int, int], ...]
    #: the block's ``(opcode, vl, count)`` batches for the tracer, built
    #: only when one is active: on 8-lane vectors there is one per strip
    #: and instruction, and the machine keeps every block's cost.
    records: Optional[list]
    cycles_total: float
    cycles_vector: float
    instr_vector_arith: float
    instr_vector_mem: float
    instr_vector_ctrl: float
    instr_vconfig: float
    instr_scalar: float
    instr_scalar_mem: float
    vl_sum: float
    flops: float
    exposure: float
    accesses: int


class _Stream(NamedTuple):
    """One access descriptor of a compiled kernel, over its block's loop
    grid."""

    ref: Ref
    loop_vars: tuple[str, ...]
    extents: tuple[int, ...]
    #: element accesses per chunk: the grid size, cut by the access weight.
    elements: int
    #: reads a gather table (an ``Indirect`` index).
    gathers: bool
    #: differs from chunk to chunk: reads the chunk base or a gather table.
    varies: bool
    #: byte stride along the innermost loop (0 with no loop); ``None``
    #: for a gather.
    stride: Optional[int]


def _kernel_streams(compiled: CompiledKernel) -> list[_Stream]:
    """Every access stream of *compiled*, in execution order."""
    out = []
    for block in compiled.blocks:
        if isinstance(block, VectorBlock):
            loop_vars = block.loop_vars + (block.vec_var,)
            extents = block.loop_extents + (block.total_trip,)
            descs = [i.access for i in block.instrs if i.access is not None]
        else:
            loop_vars, extents = block.loop_vars, block.loop_extents
            descs = block.accesses
        size = math.prod(extents)
        for desc in descs:
            ref = desc.ref
            elements = (int(round(size * desc.weight)) if desc.weight < 1.0
                        else size)
            gathers = ref.has_indirect()
            if gathers:
                stride = None
            elif loop_vars:
                stride = ref.stride_along(loop_vars[-1]) * ref.array.itemsize
            else:
                stride = 0
            out.append(_Stream(ref, loop_vars, extents, elements, gathers,
                               gathers or CHUNK_BASE in ref.vars(), stride))
    return out


class _Fold(NamedTuple):
    """The part of a stream's grid its lines are built from."""

    shape: tuple[int, ...]
    #: elements of the kept grid the stream reads.
    count: int
    #: the weight of each innermost row of the kept grid, outermost
    #: first; ``None`` when nothing is folded.
    weights: Optional[np.ndarray]


def _fold(stream: _Stream) -> _Fold:
    """*stream*'s grid with each repeat loop cut to its first
    :data:`KEPT_ITERATIONS` iterations.  A row's weight is the product,
    over the repeat loops whose last kept iteration it lies in, of the
    iterations each has left."""
    shape = stream.extents or (1,)
    count = math.prod(shape)
    if len(shape) < 2 or stream.elements < count:
        return _Fold(shape, stream.elements, None)
    read = stream.ref.vars()
    repeat = [j for j, (var, extent) in enumerate(zip(stream.loop_vars,
                                                      shape[:-1]))
              if extent > KEPT_ITERATIONS and var not in read]
    if not repeat:
        return _Fold(shape, count, None)
    outer = list(shape[:-1])
    for j in repeat:
        outer[j] = KEPT_ITERATIONS
    weights = np.ones(outer, dtype=np.int64)
    for j in repeat:
        weights[(slice(None),) * j + (KEPT_ITERATIONS - 1,)] *= (
            shape[j] - KEPT_ITERATIONS + 1)
    outer.append(shape[-1])
    return _Fold(tuple(outer), math.prod(outer), weights.reshape(-1))


@dataclass
class _KernelStreams:
    """One kernel's streams in a run, and the chunk group it is in: the
    chunk-dependent streams' lines for chunks ``start`` on, by stream
    index (one row per chunk, :class:`~repro.machine.cache.Rows`)."""

    streams: list[_Stream]
    #: chunks one group spans.
    group: int
    #: runs of the kernel per chunk (a program may repeat a kernel).
    repeats: int
    #: the streams as a hierarchy that is off takes them, element counts
    #: alone: built once, where a new ``Lines`` per stream and chunk took
    #: a quarter of a quick-mesh scalar@16 run with the cache off.
    bare: list[Lines]
    start: int = 0
    #: runs of the kernel left in the group.
    uses: int = 0
    rows: dict[int, Optional[Rows]] = field(default_factory=dict)


class RunStreams:
    """The access streams of one run: a program of compiled kernels over
    a sequence of chunks that differ only in their chunk base.

    :meth:`run` yields every stream of the run, chunk by chunk and each
    chunk's kernels in program order, as
    :class:`~repro.machine.cache.Lines` for
    :meth:`~repro.machine.cache.MemoryHierarchy.access`.  All the work is
    lazy: a kernel's streams are classified on its first run, and lines
    are built as the hierarchy consumes them.
    """

    def __init__(self, kernels: Sequence[CompiledKernel],
                 instance: KernelInstance,
                 chunk_bases: Optional[Sequence[int]],
                 memory: MemoryHierarchy):
        self.kernels = kernels
        self.instance = instance
        #: ``None``: one chunk, the instance's own.
        self.bases = (None if chunk_bases is None
                      else np.asarray(chunk_bases, dtype=np.int64))
        self.nchunks = 1 if self.bases is None else self.bases.size
        self.enabled = memory.enabled
        self.line_bytes = memory.params.l1.line_bytes
        self._repeats = Counter(id(k) for k in kernels)
        self._kernels: dict[int, _KernelStreams] = {}
        self._reused: dict[tuple[int, int], Lines] = {}
        self._budget = REUSE_LINES if self.enabled and self.nchunks > 1 else 0

    def _classify(self, compiled: CompiledKernel) -> _KernelStreams:
        """*compiled*'s streams and chunk group, built on first use."""
        key = id(compiled)
        k = self._kernels.get(key)
        if k is None:
            streams = _kernel_streams(compiled)
            varying = sum(s.elements for s in streams if s.varies)
            group = max(1, min(self.nchunks,
                               GROUP_ACCESSES // max(varying, 1)))
            k = self._kernels[key] = _KernelStreams(
                streams, group, self._repeats[key],
                [Lines(None, s.elements) for s in streams])
        return k

    def run(self) -> Iterator[Lines]:
        """Every stream of the run, in run order: chunk by chunk, each
        chunk's kernels in program order, each kernel's streams in block
        order."""
        for chunk in range(self.nchunks):
            for compiled in self.kernels:
                key = id(compiled)
                k = self._classify(compiled)
                if not k.uses:  # a group starts at this chunk
                    k.start, k.rows = chunk, {}
                    k.uses = (min(chunk + k.group, self.nchunks)
                              - chunk) * k.repeats
                row = chunk - k.start
                for i, stream in enumerate(k.streams):
                    if stream.varies and i not in k.rows:
                        k.rows[i] = self._group_lines(stream, k)
                    if not self.enabled:
                        yield k.bare[i]
                    elif stream.varies:
                        rows = k.rows[i]
                        cut = slice(rows.offsets[row], rows.offsets[row + 1])
                        yield Lines(rows.lines[cut], stream.elements,
                                    None if rows.weights is None
                                    else rows.weights[cut])
                    else:
                        yield self._invariant(key, i, stream)
                k.uses -= 1
                if not k.uses:  # drop the group's lines now, not later
                    k.rows = {}

    def _grid(self, stream: _Stream, shape: tuple[int, ...],
              bases: Optional[np.ndarray]) -> np.ndarray:
        """The stream's byte addresses over the grid *shape* of its loops,
        one row per chunk base in *bases* (one row, on the instance's own
        constants, for ``None``)."""
        rows = 1 if bases is None else bases.size
        env = loop_grid(stream.loop_vars, shape)
        if bases is not None:
            env[CHUNK_BASE] = bases.reshape((rows,) + (1,) * len(shape))
        addrs = byte_addresses(stream.ref, env, self.instance)
        return np.broadcast_to(addrs, (rows,) + shape).reshape(rows, -1)

    def _addresses(self, stream: _Stream, bases: Optional[np.ndarray],
                   fold: _Fold) -> np.ndarray:
        """Every element address of the stream's kept grid (*fold*), a
        row per chunk."""
        return self._grid(stream, fold.shape, bases)[:, :fold.count]

    def _lines(self, stream: _Stream, bases: Optional[np.ndarray]) -> Rows:
        """The stream's lines, a row per chunk, built from its kept grid
        (:func:`_fold`) and weighted where it is folded: in closed form
        with no gather and at most half a line's stride, else from every
        element address."""
        fold = _fold(stream)
        if stream.stride is None or 2 * abs(stream.stride) > self.line_bytes:
            return dedup_rows(
                addresses_to_lines(self._addresses(stream, bases, fold),
                                   self.line_bytes),
                None if fold.weights is None
                else np.repeat(fold.weights, fold.shape[-1]))
        return self._strided_lines(stream, bases, fold)

    def _strided_lines(self, stream: _Stream, bases: Optional[np.ndarray],
                       fold: _Fold) -> Rows:
        """:meth:`_lines` from the address of each innermost row's first
        element alone."""
        *outer, inner = fold.shape
        starts = self._grid(stream, (*outer, 1), bases)
        return strided_lines(starts, stream.stride, inner, fold.count,
                             self.line_bytes, fold.weights)

    def _group_lines(self, stream: _Stream, k: _KernelStreams):
        """The lines of a chunk-dependent stream for every chunk of *k*'s
        group.  With the cache off only a gather is evaluated, for its
        index checks."""
        bases = (None if self.bases is None
                 else self.bases[k.start:k.start + k.group])
        if self.enabled:
            return self._lines(stream, bases)
        if stream.gathers:
            self._addresses(stream, bases, _fold(stream))
        return None

    def _invariant(self, key: int, i: int, stream: _Stream) -> Lines:
        """A stream that is the same in every chunk: built on first use,
        kept while :data:`REUSE_LINES` allows."""
        kept = self._reused.get((key, i))
        if kept is None:
            rows = self._lines(stream, None)
            kept = Lines(rows.lines, stream.elements, rows.weights)
            if kept.lines.size <= self._budget:
                self._budget -= kept.lines.size
                self._reused[key, i] = kept
        return kept


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
        #: ``id(block)`` -> ``(block, its chunk-independent charges)``.
        self._costs: dict[int, tuple] = {}
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
    def _charge(stream: tuple[float, int, int, int],
                counters: PhaseCounters) -> float:
        """Count one stream's misses and elements; return its penalty."""
        penalty, l1_misses, l2_misses, elements = stream
        counters.l1_misses += l1_misses
        counters.l2_misses += l2_misses
        counters.mem_element_accesses += elements
        return penalty

    # ------------------------------------------------------------------

    def _cost(self, block: ScalarBlock | VectorBlock
              ) -> "_ScalarCost | _VectorCost":
        """*block*'s chunk-independent charges, computed once per block
        (the block is kept with them, so a reused ``id`` cannot alias)."""
        entry = self._costs.get(id(block))
        if entry is None or entry[0] is not block:
            cost = (self._vector_cost(block) if isinstance(block, VectorBlock)
                    else self._scalar_cost(block))
            entry = self._costs[id(block)] = (block, cost)
        return entry[1]

    def _scalar_cost(self, block: ScalarBlock) -> "_ScalarCost":
        trips = block.trips
        cycles_per_iter = 0.0
        instr_per_iter = 0.0
        mem_instr_per_iter = 0.0
        for op, n in block.counts:
            cycles_per_iter += n * self._cpi[op]
            instr_per_iter += n
            if op in (ScalarOp.LOAD, ScalarOp.STORE):
                mem_instr_per_iter += n
        return _ScalarCost(
            cycles=trips * cycles_per_iter,
            instr_scalar=trips * instr_per_iter,
            instr_scalar_mem=trips * mem_instr_per_iter,
            flops=trips * block.flops_per_iter,
            accesses=len(block.accesses))

    def _vector_cost(self, block: VectorBlock) -> "_VectorCost":
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

        scalar_cycles = 0.0
        scalar_instr = 0.0
        scalar_mem_instr = 0.0
        for op, n in block.scalar_counts_per_strip:
            scalar_cycles += n * self._cpi[op] * n_strips
            scalar_instr += n * n_strips
            if op in (ScalarOp.LOAD, ScalarOp.STORE):
                scalar_mem_instr += n * n_strips

        records = None
        if self.tracer is not None:
            records = [("vsetvl", vl, repeats) for vl in vls]
            records += [(desc.spec.opcode, vl, repeats)
                        for vl in vls for desc in block.instrs]
        # Stalls of the full (repeats x trip) address streams are exposed
        # by the average granted vector length.
        vl_avg = block.total_trip / n_strips
        return _VectorCost(
            vl_hist=tuple((vl, repeats * len(block.instrs)) for vl in vls
                          if block.instrs),
            records=records,
            cycles_total=repeats * (cycles_vec + config_cycles + scalar_cycles),
            cycles_vector=repeats * cycles_vec,
            instr_vector_arith=repeats * n_arith,
            instr_vector_mem=repeats * n_mem,
            instr_vector_ctrl=repeats * n_ctrl,
            instr_vconfig=repeats * n_strips,
            instr_scalar=repeats * scalar_instr,
            instr_scalar_mem=repeats * scalar_mem_instr,
            vl_sum=repeats * vl_sum,
            flops=repeats * flops,
            exposure=self.params.vpu.miss_exposure(vl_avg),
            accesses=sum(1 for d in block.instrs if d.access is not None))

    def _exec_scalar_block(self, cost: "_ScalarCost", charges: Iterator,
                           counters: PhaseCounters) -> None:
        cycles = cost.cycles
        for _ in range(cost.accesses):
            cycles += self._charge(next(charges), counters)
        counters.cycles_total += cycles
        counters.instr_scalar += cost.instr_scalar
        counters.instr_scalar_mem += cost.instr_scalar_mem
        counters.flops += cost.flops

    def _exec_vector_block(self, block: VectorBlock, cost: "_VectorCost",
                           charges: Iterator, counters: PhaseCounters) -> None:
        for vl, n in cost.vl_hist:
            counters.vl_hist[vl] += n
        if self.tracer is not None:
            self.tracer.on_vector_instrs(block.phase, self.clock, cost.records)
        counters.cycles_total += cost.cycles_total
        counters.cycles_vector += cost.cycles_vector
        counters.instr_vector_arith += cost.instr_vector_arith
        counters.instr_vector_mem += cost.instr_vector_mem
        counters.instr_vector_ctrl += cost.instr_vector_ctrl
        counters.instr_vconfig += cost.instr_vconfig
        counters.instr_scalar += cost.instr_scalar
        counters.instr_scalar_mem += cost.instr_scalar_mem
        counters.vl_sum += cost.vl_sum
        counters.flops += cost.flops
        for _ in range(cost.accesses):
            penalty = self._charge(next(charges), counters)
            counters.cycles_total += penalty * cost.exposure
            counters.cycles_vector += penalty * cost.exposure

    # ------------------------------------------------------------------

    def execute_kernel(self, compiled: CompiledKernel, instance: KernelInstance,
                       run: RunCounters,
                       charges: Optional[Iterator[tuple[float, int, int, int]]]
                       = None) -> None:
        """Account one compiled kernel over one chunk, block by block.

        *charges* iterates the run's
        :class:`~repro.machine.cache.Charges` from this kernel's first
        stream in this chunk on, and the kernel takes one per access
        stream, in block order.  By default the kernel runs alone over
        *instance* as bound, a one-chunk run, and its streams go through
        the caches first.
        """
        if charges is None:
            charges = iter(self.mem.access(
                RunStreams([compiled], instance, None, self.mem).run()))
        counters = run.phase(compiled.phase)
        kernel_t0 = self.clock
        for block in compiled.blocks:
            t0 = self.clock
            before = counters.cycles_total
            cost = self._cost(block)
            if isinstance(block, VectorBlock):
                self._exec_vector_block(block, cost, charges, counters)
                kind = "vector"
            else:
                self._exec_scalar_block(cost, charges, counters)
                kind = "scalar"
            delta = counters.cycles_total - before
            self.clock += delta
            if self.tracer is not None:
                self.tracer.on_block(block.phase, block.label, kind, t0, delta)
        if self.tracer is not None:
            self.tracer.span_at(compiled.name, cat="phase", t0=kernel_t0,
                                t1=self.clock, phase=compiled.phase)

    def execute_program(self, kernels: Sequence[CompiledKernel],
                        instance: KernelInstance, run: RunCounters,
                        chunk_bases: Optional[Sequence[int]] = None) -> None:
        """Execute *kernels* over every chunk of a run: for each value of
        *chunk_bases* in turn, every kernel in order, on *instance* with
        its chunk base set to that value.  ``None`` runs the kernels once
        on *instance* as bound.

        Every stream of the run goes through the memory hierarchy in one
        call; then each (chunk, kernel) is accounted from its streams'
        charges."""
        plan = RunStreams(kernels, instance, chunk_bases, self.mem)
        charges = iter(self.mem.access(plan.run()))
        for _ in range(plan.nchunks):
            for compiled in kernels:
                self.execute_kernel(compiled, instance, run, charges)
