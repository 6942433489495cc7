"""Tests for the reference IR interpreter."""

import numpy as np
import pytest

from repro.compiler.interpreter import run_kernel
from repro.compiler.ir import (
    Array,
    Assign,
    BinOp,
    Cond,
    Const,
    Extent,
    If,
    Indirect,
    Kernel,
    Load,
    Loop,
    Param,
    Ref,
    Unary,
    var,
)
from repro.compiler.program import KernelInstance

A = Array("a", (8,))
B = Array("b", (8,))


def make_instance(**arrays) -> KernelInstance:
    inst = KernelInstance()
    for name, data in arrays.items():
        data = np.asarray(data)
        dtype = "i8" if data.dtype.kind == "i" else "f8"
        inst.bind(Array(name, data.shape, dtype), data)
    return inst


def loop(body, n=8):
    return Loop("i", Extent(n), tuple(body))


def test_simple_copy():
    inst = make_instance(a=np.zeros(8), b=np.arange(8.0))
    run_kernel(Kernel("k", 1, (loop([Assign(Ref(A, (var("i"),)), Load(Ref(B, (var("i"),))))]),)), inst)
    np.testing.assert_array_equal(inst.data("a"), np.arange(8.0))


def test_arithmetic_and_params():
    inst = make_instance(a=np.zeros(8), b=np.arange(8.0))
    expr = BinOp("add", BinOp("mul", Param("alpha"), Load(Ref(B, (var("i"),)))),
                 Const(1.0))
    run_kernel(Kernel("k", 1, (loop([Assign(Ref(A, (var("i"),)), expr)]),)), inst,
               params={"alpha": 2.0})
    np.testing.assert_allclose(inst.data("a"), 2.0 * np.arange(8.0) + 1.0)


def test_missing_param_raises():
    inst = make_instance(a=np.zeros(8))
    k = Kernel("k", 1, (loop([Assign(Ref(A, (var("i"),)), Param("nope"))]),))
    with pytest.raises(KeyError, match="nope"):
        run_kernel(k, inst)


def test_kernel_default_params_used():
    inst = make_instance(a=np.zeros(8))
    k = Kernel("k", 1, (loop([Assign(Ref(A, (var("i"),)), Param("c"))]),),
               params=(("c", 3.5),))
    run_kernel(k, inst)
    assert inst.data("a")[0] == 3.5


def test_accumulate():
    inst = make_instance(a=np.ones(8), b=np.arange(8.0))
    run_kernel(Kernel("k", 1, (
        loop([Assign(Ref(A, (var("i"),)), Load(Ref(B, (var("i"),))), accumulate=True)]),
    )), inst)
    np.testing.assert_allclose(inst.data("a"), 1.0 + np.arange(8.0))


def test_gather_through_index_array():
    idx = Array("idx", (8,), dtype="i8")
    g = Array("g", (20,))
    inst = make_instance(a=np.zeros(8), idx=np.array([3, 1, 4, 1, 5, 9, 2, 6]),
                         g=np.arange(20.0) * 10)
    run_kernel(Kernel("k", 1, (
        loop([Assign(Ref(A, (var("i"),)),
                     Load(Ref(g, (Indirect(idx, (var("i"),)),))))]),
    )), inst)
    np.testing.assert_allclose(inst.data("a"), [30, 10, 40, 10, 50, 90, 20, 60])


def test_if_condition_evaluated_for_real():
    inst = make_instance(a=np.zeros(8), b=np.array([0.0, 1, 0, 1, 1, 0, 0, 1]))
    guarded = If(Cond("gt", Load(Ref(B, (var("i"),))), Const(0.5)),
                 (Assign(Ref(A, (var("i"),)), Const(7.0)),))
    run_kernel(Kernel("k", 1, (loop([guarded]),)), inst)
    np.testing.assert_array_equal(inst.data("a"),
                                  [0, 7, 0, 7, 7, 0, 0, 7])


def test_nested_loops_and_unary():
    m = Array("m", (4, 3))
    inst = make_instance(m=np.zeros((4, 3)))
    body = Loop("i", Extent(4), (
        Loop("j", Extent(3), (
            Assign(Ref(m, (var("i"), var("j"))),
                   Unary("sqrt", BinOp("mul", Const(4.0), Const(4.0)))),
        )),
    ))
    run_kernel(Kernel("k", 1, (body,)), inst)
    np.testing.assert_allclose(inst.data("m"), 4.0)


def test_index_consts_offset_global_rows():
    g = Array("g", (20,))
    inst = make_instance(a=np.zeros(8), g=np.arange(20.0))
    inst.index_consts["chunk0"] = 10
    from repro.compiler.ir import Affine

    elem = Affine((("i", 1), ("chunk0", 1)))
    run_kernel(Kernel("k", 1, (
        loop([Assign(Ref(A, (var("i"),)), Load(Ref(g, (elem,))))]),
    )), inst)
    np.testing.assert_allclose(inst.data("a"), np.arange(10.0, 18.0))


def test_min_max_abs_neg():
    inst = make_instance(a=np.zeros(8), b=np.arange(-4.0, 4.0))
    expr = BinOp("max", Unary("abs", Load(Ref(B, (var("i"),)))), Const(2.0))
    run_kernel(Kernel("k", 1, (loop([Assign(Ref(A, (var("i"),)), expr)]),)), inst)
    np.testing.assert_allclose(inst.data("a"), np.maximum(np.abs(np.arange(-4.0, 4.0)), 2.0))
