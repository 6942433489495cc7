"""Tests for the program representation and address evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.ir import Affine, Array, Indirect, Ref, const_idx, var
from repro.compiler.program import (
    ArrayBinding,
    KernelInstance,
    MemoryLayout,
    VectorInstrDesc,
    byte_addresses,
    element_offsets,
    eval_index,
    loop_grid,
)
from repro.isa.instructions import VFMADD, VLE


def test_memory_layout_no_overlap_and_aligned():
    layout = MemoryLayout(start=0x1000, align=64)
    a = Array("a", (10,))
    b = Array("b", (100,))
    base_a = layout.place(a)
    base_b = layout.place(b)
    assert base_a == 0x1000
    assert base_b >= base_a + a.nbytes
    assert base_b % 64 == 0
    # placing again returns the same address
    assert layout.place(a) == base_a


def test_array_binding_shape_check():
    a = Array("a", (4, 2))
    with pytest.raises(ValueError):
        ArrayBinding(a, 0, np.zeros((2, 4)))


def test_instance_bind_and_data():
    inst = KernelInstance()
    a = Array("a", (8,), dtype="i8")
    inst.bind(a, np.arange(8))
    assert inst.data("a").dtype == np.int64
    with pytest.raises(KeyError):
        inst.binding("missing")
    f = Array("f", (8,))
    inst.bind(f)
    with pytest.raises(ValueError, match="no data"):
        inst.data("f")
    d = inst.ensure_data(f)
    assert d.shape == (8,) and d.dtype == np.float64


def test_loop_grid_iteration_order():
    env = loop_grid(("i", "j"), (2, 3))
    # flattening i*3 + j must be iteration order (j fastest)
    flat = (env["i"] * 3 + env["j"])
    assert np.broadcast_to(flat, (2, 3)).reshape(-1).tolist() == list(range(6))


def test_eval_index_affine_with_index_consts():
    inst = KernelInstance(index_consts={"chunk0": 100})
    env = loop_grid(("i",), (4,))
    e = Affine((("i", 1), ("chunk0", 1)), const=2)
    vals = np.broadcast_to(eval_index(e, env, inst), (4,))
    assert vals.tolist() == [102, 103, 104, 105]


def test_eval_index_unbound_var_raises():
    inst = KernelInstance()
    with pytest.raises(KeyError):
        eval_index(var("zz"), {}, inst)


def test_eval_index_indirect_gather():
    inst = KernelInstance()
    idx = Array("idx", (4,), dtype="i8")
    inst.bind(idx, np.array([5, 1, 7, 2]))
    e = Indirect(idx, (var("i"),), scale=2, offset=1)
    env = loop_grid(("i",), (4,))
    vals = np.broadcast_to(eval_index(e, env, inst), (4,))
    assert vals.tolist() == [11, 3, 15, 5]


def test_byte_addresses_column_major():
    inst = KernelInstance()
    a = Array("a", (4, 3))
    binding = inst.bind(a)
    ref = Ref(a, (var("i"), var("j")))
    env = loop_grid(("i", "j"), (4, 3))
    addrs = np.broadcast_to(byte_addresses(ref, env, inst), (4, 3))
    # column-major: element (i, j) at base + 8*(i + 4*j)
    assert addrs[2, 1] == binding.base_addr + 8 * (2 + 4 * 1)
    assert addrs[0, 0] == binding.base_addr


def test_element_offsets_with_nested_indirect():
    inst = KernelInstance()
    lnods = Array("lnods", (4, 2), dtype="i8")
    inst.bind(lnods, np.array([[0, 1], [2, 3], [4, 5], [6, 7]]))
    coord = Array("coord", (8, 3))
    inst.bind(coord)
    ref = Ref(coord, (Indirect(lnods, (var("e"), var("n"))), const_idx(2)))
    env = loop_grid(("e", "n"), (4, 2))
    offs = np.broadcast_to(element_offsets(ref, env, inst), (4, 2))
    # coord is (8, 3) column-major: offset = node + 8*2
    assert offs[1, 0] == 2 + 16
    assert offs[3, 1] == 7 + 16


def test_vector_instr_desc_memory_requires_access():
    with pytest.raises(ValueError):
        VectorInstrDesc(VLE, None)
    VectorInstrDesc(VFMADD)  # arithmetic needs no access


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=1000),
)
def test_addresses_stay_in_bounds(shape, start):
    """Every address of an in-bounds ref lies inside the allocation."""
    inst = KernelInstance(layout=MemoryLayout(start=start or 64))
    a = Array("a", tuple(shape))
    binding = inst.bind(a)
    loop_vars = tuple(f"v{k}" for k in range(len(shape)))
    ref = Ref(a, tuple(var(v) for v in loop_vars))
    env = loop_grid(loop_vars, tuple(shape))
    addrs = np.broadcast_to(byte_addresses(ref, env, inst), tuple(shape)).reshape(-1)
    assert addrs.min() >= binding.base_addr
    assert addrs.max() + 8 <= binding.base_addr + a.nbytes
    # all addresses distinct (bijective linearization)
    assert len(set(addrs.tolist())) == a.size
