"""Emulator edge cases: zero-length strips, AVL clamping, OOB accesses."""

import numpy as np
import pytest

from repro.isa.emulator import (
    VectorEmulator,
    li,
    vle,
    vlxe,
    vop,
    vse,
    vsetvl,
    vsse,
    vsxe,
)

from . import run_strip_mined_axpy


def _machine(vl_max=8, mem_size=128) -> VectorEmulator:
    return VectorEmulator(vl_max=vl_max, mem_size=mem_size)


# -- vsetvl: the VLA contract at its edges ---------------------------------


def test_vsetvl_clamps_avl_above_vl_max():
    emu = _machine(vl_max=8)
    emu.execute([li("n", 1000.0), vsetvl("vl", "n")])
    assert emu.vl == 8
    assert emu.sreg("vl") == 8.0


def test_vsetvl_zero_and_negative_requests_grant_zero():
    emu = _machine()
    emu.execute([li("n", 0.0), vsetvl("vl", "n")])
    assert emu.vl == 0
    emu.execute([li("n", -3.0), vsetvl("vl", "n")])
    assert emu.vl == 0
    assert emu.validate_state() == []


def test_vl_zero_makes_vector_ops_no_ops():
    emu = _machine()
    emu.mem[:8] = np.arange(8.0)
    emu.vregs[1, :] = 7.0
    snapshot_mem = emu.mem.copy()
    snapshot_regs = emu.vregs.copy()
    emu.execute([li("n", 0.0), vsetvl("vl", "n"),
                 vle(2, 0), vop("vfadd", 3, 1, 2), vse(3, 16)])
    # zero granted lanes: nothing moves, per RVV tail-undisturbed rules.
    assert np.array_equal(emu.mem, snapshot_mem)
    assert np.array_equal(emu.vregs, snapshot_regs)
    assert [r.vl for r in emu.trace] == [0, 0, 0, 0]
    assert emu.validate_state() == []


# -- strip-mining: tails and exact multiples -------------------------------


def test_strip_mined_tail_shorter_than_vl_max():
    emu = _machine(vl_max=8, mem_size=64)
    n = 11  # strips of 8 then 3
    emu.mem[0:n] = np.arange(1.0, n + 1)          # x
    emu.mem[16:16 + n] = 2.0                      # y
    run_strip_mined_axpy(emu, n, a_addr=32, x_addr=0, y_addr=16, alpha=3.0)
    assert np.allclose(emu.mem[32:32 + n], 3.0 * np.arange(1.0, n + 1) + 2.0)
    grants = [r.vl for r in emu.trace if r.opcode == "vsetvl"]
    assert grants == [8, 3]
    assert emu.validate_state() == []


def test_strip_mined_exact_multiple_has_no_tail():
    emu = _machine(vl_max=4, mem_size=64)
    n = 8
    emu.mem[0:n] = 1.0
    emu.mem[16:16 + n] = 1.0
    run_strip_mined_axpy(emu, n, a_addr=32, x_addr=0, y_addr=16, alpha=1.0)
    grants = [r.vl for r in emu.trace if r.opcode == "vsetvl"]
    assert grants == [4, 4]
    assert np.allclose(emu.mem[32:32 + n], 2.0)


def test_single_element_strip():
    emu = _machine(vl_max=8, mem_size=64)
    emu.mem[0] = 5.0
    emu.mem[16] = 1.0
    run_strip_mined_axpy(emu, 1, a_addr=32, x_addr=0, y_addr=16, alpha=2.0)
    assert emu.mem[32] == 11.0
    assert [r.vl for r in emu.trace if r.opcode == "vsetvl"] == [1]


# -- out-of-bounds accesses -------------------------------------------------


def test_unit_stride_load_past_end_raises():
    emu = _machine(vl_max=8, mem_size=16)
    emu.execute([li("n", 8.0), vsetvl("vl", "n")])
    with pytest.raises(IndexError, match="out of bounds"):
        emu.step(vle(1, 12))  # touches addresses 12..19, mem ends at 15


def test_strided_store_past_end_raises():
    emu = _machine(vl_max=8, mem_size=16)
    emu.execute([li("n", 4.0), vsetvl("vl", "n"), li("stride", 8.0)])
    with pytest.raises(IndexError, match="out of bounds"):
        emu.step(vsse(1, 0, "stride"))  # addresses 0, 8, 16, 24


def test_indexed_load_oob_index_raises():
    emu = _machine(vl_max=4, mem_size=16)
    emu.execute([li("n", 4.0), vsetvl("vl", "n")])
    emu.vregs[2, :4] = [0.0, 1.0, 2.0, 99.0]  # index 99 is out of range
    with pytest.raises(IndexError, match="out of bounds"):
        emu.step(vlxe(1, 0, 2))


def test_indexed_store_negative_index_raises():
    emu = _machine(vl_max=4, mem_size=16)
    emu.execute([li("n", 4.0), vsetvl("vl", "n")])
    emu.vregs[2, :4] = [0.0, 1.0, -5.0, 3.0]
    with pytest.raises(IndexError, match="out of bounds"):
        emu.step(vsxe(1, 0, 2))


def test_oob_check_respects_granted_vl():
    # lanes past vl must NOT be bounds-checked (they are inactive).
    emu = _machine(vl_max=4, mem_size=16)
    emu.execute([li("n", 2.0), vsetvl("vl", "n")])
    emu.vregs[2, :] = [0.0, 1.0, 9999.0, -1.0]  # poison only inactive lanes
    emu.step(vlxe(1, 0, 2))  # active indices 0,1: fine
    assert emu.validate_state() == []
