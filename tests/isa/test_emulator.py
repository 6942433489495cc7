"""Tests for the functional vector emulator (the Vehave analogue)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.emulator import (
    Instr,
    VectorEmulator,
    li,
    vle,
    vlse,
    vlxe,
    vop,
    vse,
    vsetvl,
    vsse,
    vsxe,
)

from . import run_strip_mined_axpy


@pytest.fixture
def m() -> VectorEmulator:
    return VectorEmulator(vl_max=16, mem_size=256)


def test_vsetvl_grants_at_most_vlmax(m):
    m.step(vsetvl("vl", 300))
    assert m.vl == 16 and m.sreg("vl") == 16
    m.step(vsetvl("vl", 5))
    assert m.vl == 5
    m.step(vsetvl("vl", 0))
    assert m.vl == 0


def test_unit_stride_roundtrip(m):
    m.mem[10:18] = np.arange(8.0)
    m.step(vsetvl("vl", 8))
    m.step(vle(1, 10))
    m.step(vse(1, 50))
    np.testing.assert_array_equal(m.mem[50:58], np.arange(8.0))


def test_strided_load_store(m):
    m.mem[: 20] = np.arange(20.0)
    m.step(vsetvl("vl", 5))
    m.step(vlse(1, 0, 4))          # 0, 4, 8, 12, 16
    np.testing.assert_array_equal(m.vregs[1][:5], [0, 4, 8, 12, 16])
    m.step(vsse(1, 100, 2))
    np.testing.assert_array_equal(m.mem[100:110:2], [0, 4, 8, 12, 16])


def test_gather_scatter(m):
    m.mem[:10] = np.arange(10.0) * 10
    m.step(vsetvl("vl", 4))
    m.vregs[2][:4] = [7, 0, 3, 3]
    m.step(vlxe(1, 0, 2))
    np.testing.assert_array_equal(m.vregs[1][:4], [70, 0, 30, 30])
    m.step(vsxe(1, 100, 2))
    assert m.mem[107] == 70 and m.mem[100] == 0
    # duplicate index 3: last write in element order wins
    assert m.mem[103] == 30


def test_arithmetic_vv_and_vf_forms(m):
    m.step(vsetvl("vl", 4))
    m.vregs[1][:4] = [1, 2, 3, 4]
    m.vregs[2][:4] = [10, 20, 30, 40]
    m.step(vop("vfadd", 3, 1, 2))
    np.testing.assert_array_equal(m.vregs[3][:4], [11, 22, 33, 44])
    m.step(li("a0", 2.0))
    m.step(vop("vfmul", 4, 1, "a0"))       # .vf form
    np.testing.assert_array_equal(m.vregs[4][:4], [2, 4, 6, 8])
    m.step(vop("vfmadd", 5, 1, "a0", 2))   # a*b + c
    np.testing.assert_array_equal(m.vregs[5][:4], [12, 24, 36, 48])


def test_sqrt_div_minmax_neg_abs(m):
    m.step(vsetvl("vl", 3))
    m.vregs[1][:3] = [4.0, 9.0, 16.0]
    m.step(vop("vfsqrt", 2, 1))
    np.testing.assert_array_equal(m.vregs[2][:3], [2, 3, 4])
    m.step(vop("vfdiv", 3, 1, 2))
    np.testing.assert_array_equal(m.vregs[3][:3], [2, 3, 4])
    m.vregs[4][:3] = [-1.0, 5.0, -2.0]
    m.step(vop("vfabs", 5, 4))
    np.testing.assert_array_equal(m.vregs[5][:3], [1, 5, 2])
    m.step(vop("vfneg", 6, 4))
    np.testing.assert_array_equal(m.vregs[6][:3], [1, -5, 2])
    m.step(vop("vfmax", 7, 4, 5))
    np.testing.assert_array_equal(m.vregs[7][:3], [1, 5, 2])


def test_tail_elements_undisturbed(m):
    m.vregs[1][:] = 7.0
    m.step(vsetvl("vl", 4))
    m.step(vop("vfmv_v_f", 1, 0.0))
    np.testing.assert_array_equal(m.vregs[1][:4], 0.0)
    np.testing.assert_array_equal(m.vregs[1][4:], 7.0)  # tail preserved


def test_vslidedown(m):
    m.step(vsetvl("vl", 6))
    m.vregs[1][:6] = [1, 2, 3, 4, 5, 6]
    m.step(li("off", 2))
    m.step(vop("vslidedown", 2, 1, "off"))
    np.testing.assert_array_equal(m.vregs[2][:6], [3, 4, 5, 6, 0, 0])


def test_out_of_bounds_access_raises(m):
    m.step(vsetvl("vl", 8))
    with pytest.raises(IndexError):
        m.step(vle(1, 255))


def test_uninitialized_scalar_register(m):
    with pytest.raises(KeyError):
        m.step(vsetvl("vl", "nope"))


def test_unknown_opcode_rejected():
    with pytest.raises(ValueError):
        Instr("vfrobnicate")


def test_trace_records_granted_vl(m):
    m.step(vsetvl("vl", 300))
    m.step(vop("vfmv_v_f", 1, 1.0))
    m.step(vsetvl("vl", 4))
    m.step(vop("vfadd", 2, 1, 1))
    vls = [(r.opcode, r.vl) for r in m.trace]
    assert ("vfmv_v_f", 16) in vls and ("vfadd", 4) in vls


# -- the VLA portability theorem, executed -----------------------------------


@settings(deadline=None, max_examples=20)
@given(n=st.integers(1, 120), alpha=st.floats(-10, 10),
       seed=st.integers(0, 100))
def test_same_binary_any_vector_length(n, alpha, seed):
    """The strip-mined kernel produces bit-identical results on machines
    with vl_max 256, 16 and 3 -- the RVV vector-length-agnostic claim."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    results = {}
    for vl_max in (256, 16, 3):
        m = VectorEmulator(vl_max=vl_max, mem_size=512)
        m.mem[0:n] = x
        m.mem[128:128 + n] = y
        run_strip_mined_axpy(m, n, a_addr=300, x_addr=0, y_addr=128,
                             alpha=alpha)
        results[vl_max] = m.mem[300:300 + n].copy()
    np.testing.assert_array_equal(results[256], results[16])
    np.testing.assert_array_equal(results[256], results[3])
    np.testing.assert_array_equal(results[256], alpha * x + y)


def test_strip_count_depends_on_vl_max():
    n = 40
    counts = {}
    for vl_max in (256, 8):
        m = VectorEmulator(vl_max=vl_max, mem_size=512)
        run_strip_mined_axpy(m, n, 300, 0, 128, 1.0)
        counts[vl_max] = sum(1 for r in m.trace if r.opcode == "vsetvl")
    assert counts[256] == 1
    assert counts[8] == 5
