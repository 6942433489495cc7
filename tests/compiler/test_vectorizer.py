"""Tests for the vectorizer: cost model, decisions, remarks."""

from hypothesis import given, settings, strategies as st

from repro.compiler.flags import PAPER_FLAGS, SCALAR_FLAGS
from repro.compiler.ir import (
    Array,
    Assign,
    BinOp,
    Cond,
    Const,
    Extent,
    If,
    Kernel,
    Load,
    Loop,
    Ref,
    var,
    walk_loops,
)
from repro.compiler.vectorizer import (
    OpMix,
    body_cost,
    estimate_speedup,
    expr_op_mix,
    vectorize_kernel,
)

A = Array("a", (512,))
B = Array("b", (512,))
C_ = Array("c", (512,))


def L(arr):
    return Load(Ref(arr, (var("i"),)))


def loop(body, n=256, kind="param"):
    return Loop("i", Extent(n, kind, "VS"), tuple(body))


def kernel(body):
    return Kernel("k", 1, tuple(body))


# -- op mix / FMA contraction -------------------------------------------------


def test_fma_contraction_left():
    # a*b + c -> one FMA
    e = BinOp("add", BinOp("mul", L(A), L(B)), L(C_))
    assert expr_op_mix(e, PAPER_FLAGS) == OpMix(fma=1, plain=0, long=0)


def test_fma_contraction_right():
    e = BinOp("add", L(C_), BinOp("mul", L(A), L(B)))
    assert expr_op_mix(e, PAPER_FLAGS) == OpMix(fma=1, plain=0, long=0)


def test_fms_contraction():
    e = BinOp("sub", BinOp("mul", L(A), L(B)), L(C_))
    assert expr_op_mix(e, PAPER_FLAGS).fma == 1


def test_no_contraction_without_flag():
    e = BinOp("add", BinOp("mul", L(A), L(B)), L(C_))
    mix = expr_op_mix(e, PAPER_FLAGS.with_(ffp_contract_fast=False))
    assert mix == OpMix(fma=0, plain=2, long=0)


def test_division_and_sqrt_are_long():
    from repro.compiler.ir import Unary

    e = BinOp("div", L(A), L(B))
    assert expr_op_mix(e, PAPER_FLAGS).long == 1
    assert expr_op_mix(Unary("sqrt", L(A)), PAPER_FLAGS).long == 1


def test_chained_fsum_contracts_every_term_after_first():
    # m1 + m2 + m3 (left fold) -> m1 stays a mul, 2 FMAs
    terms = [BinOp("mul", L(A), L(B)) for _ in range(3)]
    e = BinOp("add", BinOp("add", terms[0], terms[1]), terms[2])
    mix = expr_op_mix(e, PAPER_FLAGS)
    assert mix.fma == 2 and mix.plain == 1
    assert mix.flops == 2 * 2 + 1


# -- body cost ----------------------------------------------------------------


def test_body_cost_counts_patterns():
    M = Array("m", (512, 4))
    from repro.compiler.ir import Indirect, const_idx

    IDX = Array("idx", (512,), dtype="i8")
    G = Array("g", (9999,))
    stmt = Assign(
        Ref(A, (var("i"),)),
        BinOp("add",
              Load(Ref(M, (const_idx(1), var("i")))),        # strided load
              Load(Ref(G, (Indirect(IDX, (var("i"),)),)))),   # gather
    )
    cost = body_cost(loop([stmt]), PAPER_FLAGS)
    assert cost.strided_loads == 1
    assert cost.indexed_loads == 1
    assert cost.unit_loads == 1  # the idx array itself is unit-stride
    assert cost.unit_stores == 1
    assert cost.fp_ops == 1


def test_accumulate_adds_load_and_op():
    stmt = Assign(Ref(A, (var("i"),)), L(B), accumulate=True)
    cost = body_cost(loop([stmt]), PAPER_FLAGS)
    assert cost.unit_loads == 2  # b + the read-modify-write of a
    assert cost.fp_ops == 1


# -- speed-up estimates --------------------------------------------------------


def test_estimate_grows_with_trip_count():
    stmt = Assign(Ref(A, (var("i"),)),
                  BinOp("add", BinOp("mul", L(B), L(C_)), L(A)))
    est16 = estimate_speedup(loop([stmt], n=16), PAPER_FLAGS)
    est256 = estimate_speedup(loop([stmt], n=256), PAPER_FLAGS)
    assert est256 > est16 > 0


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=1024))
def test_estimate_positive_and_finite(trip):
    stmt = Assign(Ref(A, (var("i"),)), L(B))
    est = estimate_speedup(Loop("i", Extent(trip), (stmt,)), PAPER_FLAGS)
    assert est > 0 and est < 1000


# -- decisions -----------------------------------------------------------------


def vec_statuses(kern, flags=PAPER_FLAGS):
    res = vectorize_kernel(kern, flags)
    return {r.loop_var: r.status for r in res.remarks}, res


def test_copy_loop_bypasses_cost_model_even_tiny_trip():
    """The VEC2 mechanism: a 4-element copy loop still vectorizes."""
    small = Loop("j", Extent(4), (Assign(Ref(A, (var("j"),)), Load(Ref(B, (var("j"),)))),))
    statuses, res = vec_statuses(kernel([small]))
    assert statuses["j"] == "vectorized"
    (remark,) = res.remarks
    assert remark.loop_var == "j" and "cost model bypassed" in remark.reason


def test_copy_loop_respects_disabled_idiom_flag():
    small = Loop("j", Extent(4), (Assign(Ref(A, (var("j"),)), Load(Ref(B, (var("j"),)))),))
    flags = PAPER_FLAGS.with_(disable_loop_idiom_memcpy=False)
    statuses, _ = vec_statuses(kernel([small]), flags)
    assert statuses["j"] == "unprofitable"


def test_disabled_when_no_mepi():
    statuses, _ = vec_statuses(kernel([loop([Assign(Ref(A, (var("i"),)), L(B))])]),
                               SCALAR_FLAGS)
    assert statuses["i"] == "disabled"


def test_multi_versioned_mixed_loop():
    """The phase-1 situation: copies + control flow in one loop body."""
    body = [
        Assign(Ref(A, (var("i"),)), L(B)),
        If(Cond("ne", L(C_), Const(0.0)), (Assign(Ref(C_, (var("i"),)), Const(1.0)),)),
    ]
    statuses, res = vec_statuses(kernel([loop(body)]))
    assert statuses["i"] == "multi_versioned"
    # and the loop is NOT actually vectorized
    lp = next(walk_loops(res.kernel.body))
    assert not lp.vectorized


def test_blocked_loop_with_only_stores_is_plain_blocked():
    body = [If(Cond("ne", L(C_), Const(0.0)),
               (Assign(Ref(C_, (var("i"),)), Const(1.0)),))]
    statuses, _ = vec_statuses(kernel([loop(body)]))
    assert statuses["i"] == "blocked"


def test_vectorized_flag_set_in_rewritten_tree():
    k = kernel([loop([Assign(Ref(A, (var("i"),)), L(B))])])
    res = vectorize_kernel(k, PAPER_FLAGS)
    lp = next(walk_loops(res.kernel.body))
    assert lp.vectorized
    assert [(r.loop_var, r.status) for r in res.remarks] == [
        ("i", "vectorized")]


def test_only_innermost_loops_considered():
    inner = Loop("j", Extent(8), (Assign(Ref(A, (var("j"),)), Load(Ref(B, (var("j"),)))),))
    outer = loop([inner])
    res = vectorize_kernel(kernel([outer]), PAPER_FLAGS)
    assert {r.loop_var for r in res.remarks} == {"j"}
    loops = {l.var: l for l in walk_loops(res.kernel.body)}
    assert loops["j"].vectorized and not loops["i"].vectorized
