"""The machine's whole-run timing path against the per-chunk walk.

:class:`WalkMachine` is the machine as it was before a run became one
loop domain: one ``KernelInstance`` per chunk, and for every kernel of
every chunk each access descriptor's byte addresses evaluated over its
loop grid and fed to ``MemoryHierarchy.access``, then every block's
base cost computed strip by strip and charged stream by stream (kept
here verbatim).  ``run_timed`` and ``run_timed_solve`` on a plain
:class:`Machine`, which accounts each kernel over all of its rows at
once, must produce the same counters, cache counts, clock and trace,
exactly, including when the chunk groups of ``repro.machine.cpu`` and
the cache batches are tiny.
"""

import dataclasses
from functools import lru_cache
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cfd.assembly import OPT_LEVELS, MiniApp
from repro.cfd.mesh import box_mesh
from repro.cfd.solver_path import TIMED_ITERATION_MIX
from repro.cfd.solver_phases import DOT_PHASE, SPMV_PHASE
from repro.compiler.program import (
    AccessDesc,
    CompiledKernel,
    KernelInstance,
    ScalarBlock,
    VectorBlock,
    byte_addresses,
    loop_grid,
)
from repro.experiments.config import TINY_MESH
from repro.isa.instructions import ScalarOp
from repro.machine import cache as cache_mod, cpu as cpu_mod
from repro.machine.cpu import Machine, strip_lengths
from repro.machine.machines import MN4_AVX512, RISCV_VEC, SX_AURORA
from repro.machine.params import CacheParams
from repro.metrics.counters import PhaseCounters, RunCounters, counters_to_json

from ..obs import phase_span_names
from . import address_lines, charge_tuples, recurring_paths

MACHINES = [RISCV_VEC, MN4_AVX512, SX_AURORA]
#: the five rungs, plus vec1's passes strip-mined by 4.
SCHEDULES = [(opt, None) for opt in OPT_LEVELS] + [
    ("vec1", ("const-trip-count", "loop-interchange", "loop-fission",
              "strip-mine:4"))]
#: 10 does not divide the tiny mesh's 64 elements; 240, 250 and 512 are
#: one chunk.  On MN4_AVX512's 8 lanes, 250 is 31 strips and a 2-lane
#: remainder, and 512 is 64 strips.
VECTOR_SIZES = [8, 10, 16, 40, 64, 240, 250, 512]


class WalkMachine(Machine):
    """The per-chunk walk: every stream of a kernel built from the
    chunk's own instance, and every block's base cost computed anew."""

    @staticmethod
    def _charge(stream: tuple[float, int, int, int],
                counters: PhaseCounters) -> float:
        """Count one stream's misses and elements; return its penalty."""
        penalty, l1_misses, l2_misses, elements = stream
        counters.l1_misses += l1_misses
        counters.l2_misses += l2_misses
        counters.mem_element_accesses += elements
        return penalty

    @staticmethod
    def _addresses(desc: AccessDesc, env_vars: tuple[str, ...],
                   env_extents: tuple[int, ...],
                   instance: KernelInstance) -> np.ndarray:
        env = loop_grid(env_vars, env_extents)
        addrs = np.broadcast_to(
            byte_addresses(desc.ref, env, instance), env_extents or (1,)
        ).reshape(-1)
        if desc.weight < 1.0:
            addrs = addrs[: int(round(addrs.size * desc.weight))]
        return addrs

    def _streams(self, compiled: CompiledKernel, instance: KernelInstance):
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

    def _walk_scalar_block(self, block: ScalarBlock, streams: Iterator,
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

    def _walk_vector_block(self, block: VectorBlock, streams: Iterator,
                           counters: PhaseCounters) -> None:
        vpu = self.vpu
        repeats = block.repeats
        vls = strip_lengths(block.total_trip, self.params.vpu.vl_max)
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
        vl_avg = block.total_trip / n_strips
        exposure = self.params.vpu.miss_exposure(vl_avg)
        for desc in block.instrs:
            if desc.access is None:
                continue
            penalty = self._charge(next(streams), counters)
            counters.cycles_total += penalty * exposure
            counters.cycles_vector += penalty * exposure

    def execute_kernel(self, compiled, instance, run) -> None:
        counters = run.phase(compiled.phase)
        streams = charge_tuples(self.mem.access(address_lines(
            self.mem, self._streams(compiled, instance))))
        kernel_t0 = self.clock
        for block in compiled.blocks:
            t0 = self.clock
            before = counters.cycles_total
            if isinstance(block, VectorBlock):
                self._walk_vector_block(block, streams, counters)
                kind = "vector"
            else:
                self._walk_scalar_block(block, streams, counters)
                kind = "scalar"
            delta = counters.cycles_total - before
            self.clock += delta
            if self.tracer is not None:
                self.tracer.on_block(block.phase, block.label, kind, t0, delta)
        if self.tracer is not None:
            self.tracer.span_at(compiled.name, cat="phase", t0=kernel_t0,
                                t1=self.clock, phase=compiled.phase)


def walk_run_timed(app: MiniApp, machine: WalkMachine,
                   run: RunCounters) -> RunCounters:
    """``MiniApp.run_timed``, one instance per chunk."""
    for chunk in app.chunks:
        inst = app.context.instance_for_chunk(
            chunk, globals_data={"elpos": app.elpos})
        for compiled in app.compiled:
            machine.execute_kernel(compiled, inst, run)
    return run


def walk_run_timed_solve(app: MiniApp, machine: WalkMachine) -> RunCounters:
    """``MiniApp.run_timed_solve``, one instance per row chunk."""
    run = walk_run_timed(app, machine, RunCounters())
    workload, _ = app.build_solver()
    iterations = max(app.reference_solve().iterations, 1)
    insts = [workload.context.instance_for_chunk(c)
             for c in workload.context.chunks()]
    program = [workload.compiled_by_phase[phase]
               for phase, repeats in TIMED_ITERATION_MIX
               for _ in range(repeats)]
    for _ in range(iterations):
        for inst in insts:
            for compiled in program:
                machine.execute_kernel(compiled, inst, run)
    return run


@lru_cache(maxsize=None)
def tiny_app(opt: str, passes, vector_size: int) -> MiniApp:
    app = MiniApp(box_mesh(*TINY_MESH), vector_size, opt, passes=passes)
    app.build_solver()  # outside any tracer scope: it runs the passes
    return app


def assert_same_run(params, schedule, vector_size, cache, solve):
    """The whole-run path and the walk: same counters, cache counts and
    clock."""
    app = tiny_app(*schedule, vector_size)
    fused = Machine(params, cache_enabled=cache)
    walk = WalkMachine(params, cache_enabled=cache)
    if solve:
        got, _ = app.run_timed_solve(params, machine=fused)
        want = walk_run_timed_solve(app, walk)
    else:
        got = app.run_timed(params, machine=fused)
        want = walk_run_timed(app, walk, RunCounters())
    assert counters_to_json(got) == counters_to_json(want)
    for level in ("l1", "l2"):
        a, b = getattr(fused.mem, level), getattr(walk.mem, level)
        if b is not None:
            assert (a.accesses, a.misses) == (b.accesses, b.misses), level
    assert fused.mem.element_accesses == walk.mem.element_accesses
    assert fused.clock == walk.clock


runs = dict(
    params=st.sampled_from(MACHINES),
    schedule=st.sampled_from(SCHEDULES),
    vector_size=st.sampled_from(VECTOR_SIZES),
    cache=st.booleans(),
    solve=st.booleans(),
)


@settings(deadline=None, max_examples=40)
@given(**runs)
def test_whole_run_matches_per_chunk_walk(params, schedule, vector_size,
                                          cache, solve):
    assert_same_run(params, schedule, vector_size, cache, solve)


@settings(deadline=None, max_examples=25)
@given(**runs, group_accesses=st.integers(1, 5_000),
       batch_lines=st.integers(128, 5_000))
def test_tiny_groups_and_batches_match_walk(
        params, schedule, vector_size, cache, solve, group_accesses,
        batch_lines):
    """Groups of a few chunks (group boundaries inside the run), and
    cache batches of a few hundred lines, whose boundaries fall inside
    the streams, kernels and chunks of the run's one hierarchy call.  A
    tiny-mesh run is 140k-830k lines and a batch costs about 0.1 ms, so
    smaller batches are left to the hierarchy oracles
    (test_cache_oracle)."""
    with mock.patch.object(cpu_mod, "GROUP_ACCESSES", group_accesses), \
            mock.patch.object(cache_mod, "BATCH_LINES", batch_lines):
        assert_same_run(params, schedule, vector_size, cache, solve)


@pytest.mark.parametrize("group_accesses", [1, 4000])
def test_group_boundaries_fall_inside_the_run(group_accesses):
    """VECTOR_SIZE 8 is eight chunks.  A budget of one access makes every
    group one chunk; with 4000, phases 1, 2 and 8 (424, 1280 and 1514
    chunk-dependent accesses a chunk) group 8, 3 and 2 chunks, so groups
    end inside the run and phase 2's last group is short."""
    rows = []
    group = cpu_mod.RunStreams._group

    def spy(plan, kernel, bases):
        rows.append(bases.size)  # a kernel's chunk-dependent streams' group
        return group(plan, kernel, bases)

    with mock.patch.object(cpu_mod, "GROUP_ACCESSES", group_accesses), \
            mock.patch.object(cpu_mod.RunStreams, "_group", spy):
        assert_same_run(RISCV_VEC, ("vec1", None), 8, True, False)
    if group_accesses == 1:
        assert set(rows) == {1}
    else:
        assert set(rows) == {8, 3, 2}


def test_interleaved_program_matches_walk():
    """A kernel at positions that are not adjacent in the program (the
    SpMV of ``[spmv, dot, spmv]``) is accounted over rows gathered from
    non-adjacent columns of the run's charges: the same counters, clock
    and trace as the walk."""
    workload, _ = tiny_app("vec1", None, 16).build_solver()
    spmv, dot = (workload.compiled_by_phase[phase]
                 for phase in (SPMV_PHASE, DOT_PHASE))
    program = [spmv, dot, spmv]
    chunks = workload.context.chunks()
    insts = [workload.context.instance_for_chunk(c) for c in chunks]
    results = []
    for make in (Machine, WalkMachine):
        tracer, run = obs.Tracer(), RunCounters()
        with obs.use(tracer):
            machine = make(RISCV_VEC)
        if make is Machine:
            machine.execute_program(program, insts[0], run,
                                    [int(c.elements[0]) for c in chunks])
        else:
            for inst in insts:
                for compiled in program:
                    machine.execute_kernel(compiled, inst, run)
        results.append((counters_to_json(run), machine.clock,
                        obs.chrome.dumps(tracer)))
    assert results[0] == results[1]


def test_kernels_sharing_a_phase_are_refused():
    """A phase's counters are folded per kernel, so two kernels of one
    program may not share a phase."""
    app = tiny_app("vec1", None, 16)
    first, second = app.compiled[:2]
    clone = CompiledKernel(second.name, first.phase, second.blocks)
    inst = app.context.instance_for_chunk(
        app.chunks[0], globals_data={"elpos": app.elpos})
    with pytest.raises(ValueError, match="share a phase"):
        Machine(RISCV_VEC).execute_program([first, clone], inst,
                                           RunCounters())


@pytest.mark.parametrize("params, opt, vector_size", [
    (RISCV_VEC, "vec1", 16),
    # 31 strips of 8 lanes and a 2-lane remainder per vector block.
    (MN4_AVX512, "vec1", 250),
], ids=["riscv_vec-vec1-16", "mn4_avx512-vec1-250"])
def test_trace_matches_walk(params, opt, vector_size):
    """Inside ``obs.use(tracer)``: the same Chrome export, byte for byte."""
    app = tiny_app(opt, None, vector_size)
    exports = []
    for make, run in ((Machine, lambda m: app.run_timed_solve(
                           params, machine=m)),
                      (WalkMachine, lambda m: walk_run_timed_solve(app, m))):
        tracer = obs.Tracer()
        with obs.use(tracer):
            run(make(params))
        exports.append(obs.chrome.dumps(tracer))
    assert exports[0] == exports[1]
    solver_chunks = len(app.build_solver()[0].context.chunks())
    iterations = max(app.reference_solve().iterations, 1)
    per_iteration = sum(repeats for _, repeats in TIMED_ITERATION_MIX)
    phases = phase_span_names(obs.chrome.loads(exports[0]))
    assert len(phases) == (len(app.chunks) * len(app.compiled)
                           + solver_chunks * iterations * per_iteration)


#: RISCV_VEC with a 256-line L2 (64 sets x 4 ways): a tiny-mesh kernel's
#: L1 misses in one chunk can fill it, so L2 decides them alone.
SMALL_L2 = dataclasses.replace(RISCV_VEC, memory=dataclasses.replace(
    RISCV_VEC.memory, l2=CacheParams("L2", 16 << 10, line_bytes=64,
                                     assoc=4, miss_penalty=40.0)))


@pytest.mark.parametrize("params, vector_size, paths", [
    # eight chunks: full L1 replays, and partial ones where a chunk's
    # varying kernels rewrote some sets.
    (RISCV_VEC, 8, {("L1d", "full"), ("L1d", "partial")}),
    (SMALL_L2, 10, {("L2", "anew"), ("L2", "partial"), ("L2", "full")}),
], ids=["riscv_vec-8", "small-l2-10"])
def test_replayed_runs_match_walk(params, vector_size, paths):
    """A chunk-invariant kernel's item recurs in every chunk, and a
    level replays its decisions set by set: the assembly and solver
    runs, two hierarchy calls on one machine, must match the walk, and
    each path (*paths*) must have run."""
    with recurring_paths() as seen:
        assert_same_run(params, ("vec1", None), vector_size, True, True)
    assert paths <= seen
