"""Tests for the loop-nest IR data model."""

import pytest
from hypothesis import given, strategies as st

from repro.compiler.ir import (
    Affine,
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
    Ref,
    Unary,
    const_idx,
    var,
    walk_loops,
)


def test_array_strides_column_major():
    a = Array("a", (4, 3, 2))
    assert a.strides_elems == (1, 4, 12)
    assert a.size == 24
    assert a.nbytes == 192


def test_array_validation():
    with pytest.raises(ValueError):
        Array("bad", (0, 3))
    with pytest.raises(ValueError):
        Array("bad", (2,), dtype="f4")
    with pytest.raises(ValueError):
        Array("bad", (2,), scope="shared")


def test_affine_helpers():
    e = Affine((("i", 2), ("j", 1)), const=5)
    assert e.coef("i") == 2
    assert e.coef("k") == 0
    assert e.vars() == {"i", "j"}
    with pytest.raises(ValueError):
        Affine((("i", 1), ("i", 2)))


def test_var_and_const_idx():
    assert var("i").coef("i") == 1
    assert var("i", 3).coef("i") == 3
    assert const_idx(7).const == 7 and const_idx(7).vars() == set()


def test_ref_stride_along():
    a = Array("a", (16, 8, 3))
    r = Ref(a, (var("i"), var("j"), const_idx(1)))
    assert r.stride_along("i") == 1
    assert r.stride_along("j") == 16
    assert r.stride_along("k") == 0
    # combined: a(i, i, 0) has stride 1 + 16 along i
    r2 = Ref(a, (var("i"), var("i"), const_idx(0)))
    assert r2.stride_along("i") == 17


def test_ref_indirect_stride_is_none():
    idx = Array("idx", (16,), dtype="i8")
    a = Array("a", (100,))
    gather = Ref(a, (Indirect(idx, (var("i"),)),))
    assert gather.stride_along("i") is None
    assert gather.stride_along("j") == 0
    assert gather.has_indirect()


def test_indirect_requires_integer_array():
    f = Array("f", (16,))
    with pytest.raises(ValueError):
        Indirect(f, (var("i"),))


def test_ref_rank_mismatch():
    a = Array("a", (4, 4))
    with pytest.raises(ValueError):
        Ref(a, (var("i"),))


def test_extent_validation():
    assert Extent(8).compile_time_known
    assert Extent(8, "param", "VS").compile_time_known
    assert not Extent(8, "runtime_dummy", "VECTOR_DIM").compile_time_known
    with pytest.raises(ValueError):
        Extent(8, "maybe")
    with pytest.raises(ValueError):
        Extent(0)


def test_binop_unary_validation():
    a = Const(1.0)
    with pytest.raises(ValueError):
        BinOp("pow", a, a)
    with pytest.raises(ValueError):
        Unary("exp", a)
    with pytest.raises(ValueError):
        Cond("like", a, a)


def _loop(varname, n, body, vectorized=False):
    return Loop(varname, Extent(n), tuple(body), vectorized=vectorized)


def test_walk_loops():
    a = Array("a", (8, 8))
    inner = _loop("j", 8, [Assign(Ref(a, (var("i"), var("j"))), Const(0.0))])
    outer = _loop("i", 8, [inner])
    loops = list(walk_loops((outer,)))
    assert [l.var for l in loops] == ["i", "j"]
    # a loop nested inside an If is walked too.
    guarded = If(Cond("ne", Const(1.0), Const(0.0)), (inner,))
    assert [l.var for l in walk_loops((_loop("i", 4, [guarded]),))] == [
        "i", "j"]


def test_kernel_arrays_collects_indirect_targets():
    idx = Array("idx", (8,), dtype="i8")
    src = Array("src", (100,))
    dst = Array("dst", (8,))
    k = Kernel("k", 1, (
        _loop("i", 8, [
            Assign(Ref(dst, (var("i"),)),
                   Load(Ref(src, (Indirect(idx, (var("i"),)),)))),
        ]),
    ))
    assert set(k.arrays()) == {"idx", "src", "dst"}


def test_kernel_arrays_conflicting_definition_raises():
    a1 = Array("a", (8,))
    a2 = Array("a", (9,))
    k = Kernel("k", 1, (
        _loop("i", 8, [
            Assign(Ref(a1, (var("i"),)), Load(Ref(a2, (var("i"),)))),
        ]),
    ))
    with pytest.raises(ValueError, match="conflicting"):
        k.arrays()


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4))
def test_strides_product_property(shape):
    """stride[k] * shape[k] == stride[k+1]; last stride * dim == size."""
    a = Array("a", tuple(shape))
    s = a.strides_elems
    for k in range(len(shape) - 1):
        assert s[k] * shape[k] == s[k + 1]
    assert s[-1] * shape[-1] == a.size
