"""Tests for the Table-2 platform presets."""

import pytest

from repro.machine.machines import MACHINES, MN4_AVX512, RISCV_VEC, SX_AURORA, get_machine


def test_table2_riscv_values():
    m = RISCV_VEC
    assert m.frequency_mhz == 50.0
    assert m.cores_per_socket == 1
    assert m.memory.bandwidth_bytes_per_cycle == 64.0
    assert m.peak_flops_per_cycle == 16.0
    assert m.vl_max == 256
    assert m.vpu.lanes == 8
    assert m.vpu.fsm_group_elems == 40
    assert m.memory.l2.size_bytes == 1024 * 1024  # the FPGA's 1 MB L2


def test_table2_nec_values():
    m = SX_AURORA
    assert m.frequency_mhz == 1600.0
    assert m.cores_per_socket == 8
    assert m.memory.bandwidth_bytes_per_cycle == 120.0
    assert m.peak_flops_per_cycle == 192.0
    assert m.vl_max == 256
    assert m.vpu.fsm_depth is None


def test_table2_mn4_values():
    m = MN4_AVX512
    assert m.frequency_mhz == 2100.0
    assert m.cores_per_socket == 24
    assert m.peak_flops_per_cycle == 32.0
    assert m.vl_max == 8


def test_peak_gflops():
    def gflops(m):
        return m.peak_flops_per_cycle * m.frequency_mhz / 1e3

    # NEC: 307.2 GFLOPS per VE core (paper section 2.4)
    assert gflops(SX_AURORA) == pytest.approx(307.2)
    # MN4: 67.2 GFLOPS per core
    assert gflops(MN4_AVX512) == pytest.approx(67.2)
    # RISC-V VEC at 50 MHz FPGA: 16 FLOP/cycle * 50 MHz = 0.8 GFLOPS
    assert gflops(RISCV_VEC) == pytest.approx(0.8)


def test_cycles_to_seconds():
    assert RISCV_VEC.cycles_to_seconds(50_000_000) == pytest.approx(1.0)


def test_get_machine_lookup():
    assert get_machine("riscv_vec") is RISCV_VEC
    assert get_machine("SX_AURORA") is SX_AURORA
    with pytest.raises(KeyError):
        get_machine("cray1")


def test_all_machines_have_vpus_and_caches():
    for m in MACHINES.values():
        assert m.vpu is not None
        assert m.memory.l1.size_bytes > 0
        assert m.vpu.vl_max in (8, 256)


def test_next_prototype_preset():
    from repro.machine.machines import RISCV_VEC_NEXT

    assert RISCV_VEC_NEXT.vpu.fsm_depth is None
    assert RISCV_VEC_NEXT.vpu.fsm_flush_cycles == 0.0
    # everything else inherited from the current prototype
    assert RISCV_VEC_NEXT.vl_max == RISCV_VEC.vl_max
    assert RISCV_VEC_NEXT.frequency_mhz == RISCV_VEC.frequency_mhz


def test_a64fx_preset():
    from repro.machine.machines import A64FX

    assert A64FX.vl_max == 8          # 512-bit SVE, doubles
    assert A64FX.vpu.fsm_depth is None
    assert get_machine("a64fx") is A64FX
