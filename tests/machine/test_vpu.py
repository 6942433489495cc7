"""Tests for the VPU timing model, anchored to the paper's numbers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instructions import VFADD, VFDIV, VFMADD, VLE, VLSE, VLXE, VMV
from repro.machine.machines import MN4_AVX512, RISCV_VEC, SX_AURORA
from repro.machine.params import VPUParams
from repro.machine.vpu import VPUModel


@pytest.fixture
def riscv() -> VPUModel:
    return VPUModel(RISCV_VEC.vpu)


def test_fma_vl256_execution_near_32_cycles(riscv):
    """Paper: 'one vector FMA takes around 32 cycles with a vector length
    of 256, while with a lower vector length takes less cycles'."""
    exec256 = riscv.arith_exec_cycles(256)
    assert 30 <= exec256 <= 36
    assert riscv.arith_exec_cycles(128) < exec256
    assert riscv.arith_exec_cycles(16) < riscv.arith_exec_cycles(128)


def test_fsm_sweet_spot_vl240_beats_vl256(riscv):
    """Footnote 4: throughput is maximized at multiples of 40 elements."""
    tput240 = 240 / riscv.instr_cycles(VFMADD, 240)
    tput256 = 256 / riscv.instr_cycles(VFMADD, 256)
    assert tput240 > tput256
    # multiples of 40 hit the full 8 elements/cycle in the exec stage
    assert riscv.arith_exec_cycles(240) == pytest.approx(240 / 8)
    assert riscv.arith_exec_cycles(200) == pytest.approx(200 / 8)


def test_memory_pattern_ordering(riscv):
    """unit-stride < strided < indexed for equal vector lengths."""
    for vl in (8, 64, 256):
        unit = riscv.instr_cycles(VLE, vl)
        strided = riscv.instr_cycles(VLSE, vl)
        indexed = riscv.instr_cycles(VLXE, vl)
        assert unit <= strided <= indexed
        assert unit < indexed


def test_long_latency_ops_cost_more(riscv):
    assert riscv.instr_cycles(VFDIV, 64) > riscv.instr_cycles(VFADD, 64)


def test_control_lane_cost_independent_of_vl(riscv):
    assert riscv.instr_cycles(VMV, 4) == riscv.instr_cycles(VMV, 256)


def test_nec_fma_graduates_in_8_cycles():
    """Paper: 'a vector FMA ... needs 8 cycles to graduate' on SX-Aurora."""
    nec = VPUModel(SX_AURORA.vpu)
    assert nec.arith_exec_cycles(256) == pytest.approx(8.0)


def test_avx512_fma_is_cheap():
    avx = VPUModel(MN4_AVX512.vpu)
    assert avx.instr_cycles(VFMADD, 8) <= 2.0


def test_no_fsm_machines_have_linear_throughput():
    nec = VPUModel(SX_AURORA.vpu)
    # no multiple-of-40 quirk: 240 and 256 have identical elements/cycle
    # in the execution stage (ceil rounding aside).
    assert nec.arith_exec_cycles(240) == pytest.approx(240 / 32, abs=1)
    assert nec.arith_exec_cycles(256) == pytest.approx(256 / 32, abs=1)


def test_zero_vl_costs_nothing_in_exec(riscv):
    assert riscv.arith_exec_cycles(0) == 0.0
    assert riscv.mem_exec_cycles(0, VLE.mem_pattern) == 0.0


def test_elements_per_cycle_peaks_at_multiple_of_40(riscv):
    best = max(range(1, 257),
               key=lambda vl: vl / riscv.instr_cycles(VFMADD, vl))
    assert best % 40 == 0


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=255))
def test_instr_cycles_monotone_except_fsm_boundaries(vl):
    """More elements never execute in fewer cycles -- except when vl+1
    completes an FSM group of 40, the very quirk the paper exploits
    (a 40-element instruction is cheaper than a 39-element one)."""
    m = VPUModel(RISCV_VEC.vpu)
    if (vl + 1) % 40 != 0:
        assert m.instr_cycles(VFMADD, vl + 1) >= m.instr_cycles(VFMADD, vl)
        assert m.instr_cycles(VLE, vl + 1) >= m.instr_cycles(VLE, vl)
    else:
        # completing the group flushes nothing: strictly cheaper or equal
        assert m.instr_cycles(VFMADD, vl + 1) <= m.instr_cycles(VFMADD, vl)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=256))
def test_exec_cycles_at_least_lane_limited(vl):
    """The 8 lanes bound throughput: never more than 8 elements/cycle."""
    m = VPUModel(RISCV_VEC.vpu)
    assert m.arith_exec_cycles(vl) >= vl / 8


def test_vpu_params_validation():
    with pytest.raises(ValueError):
        VPUParams(vl_max=0, lanes=8)
    with pytest.raises(ValueError):
        VPUParams(vl_max=256, lanes=8, fsm_depth=0)


def test_miss_exposure_scales_with_vl():
    p = RISCV_VEC.vpu
    assert p.miss_exposure(4) == 1.0
    assert p.miss_exposure(256) == pytest.approx(p.vector_miss_exposure)
    assert p.miss_exposure(64) > p.miss_exposure(128) > p.miss_exposure(256)
