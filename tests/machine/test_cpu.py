"""Tests for the machine executor on hand-built blocks."""

import numpy as np
import pytest

from repro.compiler.ir import Array, Indirect, Ref, var
from repro.compiler.program import (
    AccessDesc,
    CompiledKernel,
    KernelInstance,
    ScalarBlock,
    VectorBlock,
    VectorInstrDesc,
)
from repro.isa.instructions import ScalarOp, VFMADD, VLE, VSE
from repro.machine.cpu import Machine, strip_lengths
from repro.machine.machines import MN4_AVX512, RISCV_VEC
from repro.metrics.counters import RunCounters


def test_strip_lengths():
    assert strip_lengths(512, 256) == [256, 256]
    assert strip_lengths(240, 256) == [240]
    assert strip_lengths(300, 256) == [256, 44]
    assert strip_lengths(8, 8) == [8]
    assert strip_lengths(1, 256) == [1]


@pytest.fixture
def instance():
    inst = KernelInstance()
    a = Array("a", (64,), scope="local")
    b = Array("b", (64,), scope="local")
    inst.bind(a)
    inst.bind(b)
    return inst, a, b


def _scalar_block(a, b, trips=10):
    return ScalarBlock(
        phase=1,
        loop_vars=("i",),
        loop_extents=(trips,),
        counts=((ScalarOp.LOAD, 1.0), (ScalarOp.FP, 2.0), (ScalarOp.STORE, 1.0)),
        flops_per_iter=2.0,
        accesses=(
            AccessDesc(Ref(a, (var("i"),)), False),
            AccessDesc(Ref(b, (var("i"),)), True),
        ),
        label="t",
    )


def test_scalar_block_cycles_and_instructions(instance):
    inst, a, b = instance
    m = Machine(RISCV_VEC, cache_enabled=False)
    run = RunCounters()
    m.execute_program([CompiledKernel("k", 1, [_scalar_block(a, b)])], inst,
                      run)
    pc = run.phases[1]
    sp = RISCV_VEC.scalar
    expected = 10 * (sp.cpi_load + 2 * sp.cpi_fp + sp.cpi_store)
    assert pc.cycles_total == pytest.approx(expected)
    assert pc.instr_scalar == 40  # 4 instrs x 10 trips
    assert pc.instr_scalar_mem == 20
    assert pc.flops == 20
    assert pc.i_v == 0


def test_scalar_block_cache_misses_add_penalty(instance):
    inst, a, b = instance
    m = Machine(RISCV_VEC, cache_enabled=True)
    run = RunCounters()
    m.execute_program(
        [CompiledKernel("k", 1, [_scalar_block(a, b, trips=64)])], inst, run)
    pc = run.phases[1]
    # 64 elements x 8 B = 8 lines per array, all cold misses.
    assert pc.l1_misses == 16
    sp = RISCV_VEC.scalar
    base = 64 * (sp.cpi_load + 2 * sp.cpi_fp + sp.cpi_store)
    assert pc.cycles_total == pytest.approx(
        base + 16 * RISCV_VEC.memory.l1.miss_penalty
        + 16 * RISCV_VEC.memory.l2.miss_penalty)


def _vector_block(a, b, trip=256, repeats=1):
    return VectorBlock(
        phase=2,
        loop_vars=("g",) if repeats > 1 else (),
        loop_extents=(repeats,) if repeats > 1 else (),
        vec_var="i",
        total_trip=trip,
        instrs=(
            VectorInstrDesc(VLE, AccessDesc(Ref(a, (var("i"),)), False)),
            VectorInstrDesc(VFMADD),
            VectorInstrDesc(VSE, AccessDesc(Ref(b, (var("i"),)), True)),
        ),
        scalar_counts_per_strip=((ScalarOp.ALU, 2.0), (ScalarOp.BRANCH, 1.0)),
        label="v",
    )


def test_vector_block_counters(instance):
    inst, a, b = instance
    m = Machine(RISCV_VEC, cache_enabled=False)
    run = RunCounters()
    m.execute_program(
        [CompiledKernel("k", 2, [_vector_block(a, b, trip=64)])], inst, run)
    pc = run.phases[2]
    assert pc.instr_vector_mem == 2
    assert pc.instr_vector_arith == 1
    assert pc.instr_vconfig == 1      # one strip -> one vsetvl
    assert pc.vl_hist[64] == 3
    assert pc.vl_sum == 3 * 64
    assert pc.flops == 2 * 64         # FMA = 2 flops/element
    assert pc.cycles_vector > 0
    assert pc.cycles_total > pc.cycles_vector  # strip stall + scalar bookkeeping


def test_vector_block_strip_mining_vla(instance):
    """trip 512 on a 256-wide machine -> 2 strips; on AVX-512 -> 64 strips."""
    inst, a_, b_ = instance
    a = Array("a2", (512,), scope="local")
    b = Array("b2", (512,), scope="local")
    inst.bind(a)
    inst.bind(b)
    block = _vector_block(a, b, trip=512)
    for machine_params, nstrips in ((RISCV_VEC, 2), (MN4_AVX512, 64)):
        m = Machine(machine_params, cache_enabled=False)
        run = RunCounters()
        m.execute_program([CompiledKernel("k", 2, [block])], inst, run)
        pc = run.phases[2]
        assert pc.instr_vconfig == nstrips
        assert pc.instr_vector_mem == 2 * nstrips
        assert pc.vl_sum == 3 * 512


def test_vector_block_repeats_scale_everything(instance):
    inst, a, b = instance
    m1 = Machine(RISCV_VEC, cache_enabled=False)
    r1 = RunCounters()
    m1.execute_program(
        [CompiledKernel("k", 2, [_vector_block(a, b, trip=64)])], inst, r1)
    m8 = Machine(RISCV_VEC, cache_enabled=False)
    r8 = RunCounters()
    m8.execute_program(
        [CompiledKernel("k", 2, [_vector_block(a, b, trip=64, repeats=8)])],
        inst, r8)
    assert r8.phases[2].cycles_total == pytest.approx(8 * r1.phases[2].cycles_total)
    assert r8.phases[2].i_v == 8 * r1.phases[2].i_v


def test_machine_without_vpu_rejects_vector_blocks(instance):
    inst, a, b = instance
    from dataclasses import replace

    scalar_only = replace(RISCV_VEC, vpu=None)
    m = Machine(scalar_only, cache_enabled=False)
    with pytest.raises(RuntimeError, match="no VPU"):
        m.execute_program([CompiledKernel("k", 2, [_vector_block(a, b)])],
                          inst, RunCounters())


def test_access_weight_subsets_addresses(instance):
    inst, a, b = instance
    half = ScalarBlock(
        phase=1, loop_vars=("i",), loop_extents=(64,),
        counts=((ScalarOp.LOAD, 0.5),), flops_per_iter=0.0,
        accesses=(AccessDesc(Ref(a, (var("i"),)), False, weight=0.5),),
        label="guarded",
    )
    m = Machine(RISCV_VEC, cache_enabled=True)
    run = RunCounters()
    m.execute_program([CompiledKernel("k", 1, [half])], inst, run)
    # only the first 32 elements (4 lines) are touched.
    assert run.phases[1].l1_misses == 4


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
def test_out_of_range_gather_raises(cache):
    """``a[idx[i]]`` for ``i < 8`` through a 4-entry ``idx``: the gather
    is evaluated even when the cache is off and no line is needed."""
    inst = KernelInstance()
    a = Array("a", (64,), scope="local")
    idx = Array("idx", (4,), "i8", scope="global")
    inst.bind(a)
    inst.bind(idx, np.arange(4))
    gather = ScalarBlock(
        phase=1, loop_vars=("i",), loop_extents=(8,),
        counts=((ScalarOp.LOAD, 1.0),), flops_per_iter=0.0,
        accesses=(AccessDesc(Ref(a, (Indirect(idx, (var("i"),)),)), False),),
        label="gather",
    )
    m = Machine(RISCV_VEC, cache_enabled=cache)
    with pytest.raises(IndexError):
        m.execute_program([CompiledKernel("k", 1, [gather])], inst,
                          RunCounters())


def test_clock_advances_with_blocks(instance):
    inst, a, b = instance
    m = Machine(RISCV_VEC, cache_enabled=False)
    run = RunCounters()
    assert m.clock == 0.0
    m.execute_program([CompiledKernel("k", 1, [_scalar_block(a, b)])], inst,
                      run)
    assert m.clock == pytest.approx(run.phases[1].cycles_total)
