"""Semantics of the vectorized numpy backend against the interpreter.

Synthetic-kernel probes for the tricky lowering corners (NaN min/max,
duplicate-index scatter-accumulate ordering, loop-carried recurrences
that must stay sequential, masked guards), plus full byte-exact array
comparison on real rungs of the mini-app.
"""

import numpy as np
import pytest

from repro.backends import get_backend, plan_kernel
from repro.backends.numpy_backend import (
    NumpyExecutor,
    PlanAssign,
    PlanIf,
    PlanLoop,
)
from repro.compiler.interpreter import Interpreter
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
    var,
    walk_loops,
)
from repro.compiler.program import KernelInstance
from repro.validation.probe import Probe

A = Array("a", (8,))
B = Array("b", (8,))


def make_instance(**arrays) -> KernelInstance:
    inst = KernelInstance()
    for name, data in arrays.items():
        data = np.asarray(data)
        dtype = "i8" if data.dtype.kind == "i" else "f8"
        inst.bind(Array(name, data.shape, dtype), data)
    return inst


def loop(body, n=8, v="i"):
    return Loop(v, Extent(n), tuple(body))


def run_both(kernel, **arrays):
    """Run *kernel* under both backends on identical data; return the
    two instances for comparison."""
    interp = make_instance(**{k: np.array(v) for k, v in arrays.items()})
    vec = make_instance(**{k: np.array(v) for k, v in arrays.items()})
    Interpreter(interp).run(kernel)
    NumpyExecutor(vec).run(kernel)
    return interp, vec


def assert_identical(interp, vec, *names):
    for name in names:
        a = np.asarray(interp.data(name))
        b = np.asarray(vec.data(name))
        assert a.tobytes() == b.tobytes(), name


# -- NaN semantics of min/max (satellite) ------------------------------


NANS = [float("nan"), 1.0, -0.0, 0.0, float("nan"), -3.5, 2.0, float("nan")]
VALS = [0.5, float("nan"), 0.0, -0.0, 2.5, float("nan"), -1.0, float("nan")]


@pytest.mark.parametrize("op,ufunc", [("min", np.minimum),
                                      ("max", np.maximum)])
def test_min_max_propagate_nan_like_numpy(op, ufunc):
    """Chaos campaigns inject NaNs; min/max must not silently un-poison
    a lane.  Both backends pin np.minimum/np.maximum semantics: NaN in
    either operand propagates, first operand wins ties (incl. +/-0)."""
    k = Kernel("k", 1, (loop([
        Assign(Ref(A, (var("i"),)),
               BinOp(op, Load(Ref(A, (var("i"),))),
                     Load(Ref(B, (var("i"),))))),
    ]),))
    interp, vec = run_both(k, a=NANS, b=VALS)
    want = ufunc(np.array(NANS), np.array(VALS))
    assert_identical(interp, vec, "a")
    got = np.asarray(interp.data("a"))
    assert got.tobytes() == want.tobytes()


# -- scatter-accumulate ordering ---------------------------------------


def test_duplicate_index_accumulate_preserves_loop_order():
    """a[idx[i]] += b[i] with colliding indices: the numpy lowering must
    apply duplicate additions in loop order (np.add.at over indices
    flattened in iteration order), or FP non-associativity shows up as
    byte drift."""
    idx = Array("idx", (8,), dtype="i8")
    acc = Array("acc", (3,))
    k = Kernel("k", 1, (loop([
        Assign(Ref(acc, (Indirect(idx, (var("i"),)),)),
               Load(Ref(B, (var("i"),))), accumulate=True),
    ]),))
    rng = np.random.default_rng(42)
    interp, vec = run_both(
        k, acc=np.zeros(3), idx=np.array([0, 1, 0, 2, 1, 0, 2, 0]),
        b=rng.uniform(-1e3, 1e3, 8) + rng.uniform(-1e-9, 1e-9, 8))
    assert_identical(interp, vec, "acc")


def test_resolved_accumulate_uses_fast_path_and_matches():
    """A gather-free accumulate whose index resolves the loop var is
    duplicate-free: the plan takes the fancy += path, same bytes."""
    k = Kernel("k", 1, (loop([
        Assign(Ref(A, (var("i"),)), Load(Ref(B, (var("i"),))),
               accumulate=True),
    ]),))
    (pl,) = plan_kernel(k)
    assert isinstance(pl, PlanLoop) and pl.vectorize
    assert pl.body[0].unique
    interp, vec = run_both(k, a=np.ones(8), b=np.arange(8.0) * 0.1)
    assert_identical(interp, vec, "a")


# -- sequential demotion -----------------------------------------------


def test_loop_carried_recurrence_stays_sequential():
    """a[i+1] = a[i] + b[i] reads what a previous iteration wrote; the
    planner must refuse the loop (array both loaded and stored) and the
    demoted sequential execution must match the oracle exactly."""
    k = Kernel("k", 1, (loop([
        Assign(Ref(A, (Affine((("i", 1),), 1),)),
               BinOp("add", Load(Ref(A, (var("i"),))),
                     Load(Ref(B, (var("i"),))))),
    ], n=7),))
    (pl,) = plan_kernel(k)
    assert isinstance(pl, PlanLoop) and not pl.vectorize
    interp, vec = run_both(k, a=np.ones(8), b=np.arange(8.0) * 0.25)
    assert_identical(interp, vec, "a")


def test_unresolved_plain_store_stays_sequential():
    """a[idx[i]] = b[i] with duplicate idx is last-write-wins; the
    gather index does not resolve ``i``, so the loop must not join the
    grid (a vectorized fancy set would be unordered)."""
    idx = Array("idx", (8,), dtype="i8")
    out = Array("out", (3,))
    k = Kernel("k", 1, (loop([
        Assign(Ref(out, (Indirect(idx, (var("i"),)),)),
               Load(Ref(B, (var("i"),)))),
    ]),))
    (pl,) = plan_kernel(k)
    assert isinstance(pl, PlanLoop) and not pl.vectorize
    interp, vec = run_both(
        k, out=np.zeros(3), idx=np.array([0, 1, 0, 2, 1, 0, 2, 0]),
        b=np.arange(8.0))
    assert_identical(interp, vec, "out")


# -- the two resolution rules: mixed radix, outer vars constant --------


def _nest(store: Affine, accumulate: bool = False) -> Kernel:
    """``a[store] (+)= b[4*s + i]`` over a 2x4 nest, ``s`` outer."""
    flat = Affine((("s", 4), ("i", 1)))
    return Kernel("k", 1, (loop([loop([
        Assign(Ref(A, (store,)), Load(Ref(B, (flat,))),
               accumulate=accumulate),
    ], n=4, v="i")], n=2, v="s"),))


def _nest_plan(kernel):
    (outer,) = plan_kernel(kernel)
    (inner,) = outer.body
    (store,) = inner.body
    return outer.vectorize, inner.vectorize, store.unique


WIDE = np.random.default_rng(7).uniform(-1e3, 1e3, 8) * 10.0 ** np.arange(8)


def test_mixed_radix_store_joins_both_loops():
    """a[4*s + i] with 0 <= i < 4 is StripMine's index map: 4 exceeds
    the span 3 of ``i``, so the dim is injective and resolves ``s`` and
    ``i`` together.  Both loops join the grid, duplicate-free."""
    k = _nest(Affine((("s", 4), ("i", 1))))
    assert _nest_plan(k) == (True, True, True)
    interp, vec = run_both(k, a=np.zeros(8), b=WIDE)
    assert_identical(interp, vec, "a")


@pytest.mark.parametrize("coef", [2, 3])
def test_overlapping_plain_store_keeps_outer_loop_sequential(coef):
    """a[2*s + i] overlaps across ``s`` (2, or 3 at the boundary, does
    not exceed the span 3 of ``i``), so last-write-wins needs ``s`` in
    order.  Inside one ``s`` iteration ``s`` is a constant, and ``i``
    alone resolves the dim."""
    k = _nest(Affine((("s", coef), ("i", 1))))
    assert _nest_plan(k) == (False, True, True)
    interp, vec = run_both(k, a=np.zeros(8), b=WIDE)
    assert_identical(interp, vec, "a")


@pytest.mark.parametrize("coef", [2, 3])
def test_overlapping_accumulate_flattens_to_ordered_add_at(coef):
    """The same overlapping map as an accumulate joins both loops, but
    is not duplicate-free over the grid: ordered ``np.add.at`` replays
    the interpreter's addition sequence."""
    k = _nest(Affine((("s", coef), ("i", 1))), accumulate=True)
    assert _nest_plan(k) == (True, True, False)
    interp, vec = run_both(k, a=np.full(8, 0.1), b=WIDE)
    assert_identical(interp, vec, "a")


def test_same_index_stores_must_both_resolve():
    """Two stores share the index tuple ``a[4*s + i]`` but sit in sibling
    ``i`` loops of extent 2 and 8: only the first is injective.  The
    plain store and the accumulate then interleave on shared locations,
    so ``s`` must stay sequential."""
    big = Array("a", (12,))
    idx = (Affine((("s", 4), ("i", 1))),)
    k = Kernel("k", 1, (loop([
        loop([Assign(Ref(big, idx), Load(Ref(B, (var("i"),))))],
             n=2, v="i"),
        loop([Assign(Ref(big, idx), Load(Ref(B, (var("i"),))),
                     accumulate=True)], n=8, v="i"),
    ], n=2, v="s"),))
    (outer,) = plan_kernel(k)
    assert not outer.vectorize
    assert all(pl.vectorize for pl in outer.body)
    interp, vec = run_both(k, a=np.zeros(12), b=WIDE)
    assert_identical(interp, vec, "a")


def _sequential_vars(nodes) -> set:
    out = set()
    for node in nodes:
        if isinstance(node, PlanLoop) and not node.vectorize:
            out.add(node.stmt.var)
        if isinstance(node, (PlanLoop, PlanIf)):
            out |= _sequential_vars(node.body)
    return out


def _probe_kernels(passes) -> list:
    """The probe's assembly and solver kernels (phases 1-12)."""
    app = Probe(passes=passes).build_app()
    workload, _ = app.build_solver()
    return [*app.kernels, *workload.kernels]


def _plan_shape(kernels) -> dict:
    return {(k.phase, k.name): _sequential_vars(plan_kernel(k))
            for k in kernels}


@pytest.mark.parametrize("schedule", [
    ("const-trip-count",),
    ("const-trip-count", "loop-interchange", "loop-fission"),
])
def test_strip_mining_keeps_the_plan_shape(schedule):
    """At the probe's VECTOR_SIZE 8, strip-mine:4 splits the ``ivect``
    loops of all 12 kernels; the planner must leave exactly the loops
    of the unstripped plan sequential (the scratch-reusing gauss
    loops), in every assembly and solver kernel."""
    stripped = _probe_kernels(schedule + ("strip-mine:4",))
    assert len(stripped) == 12
    assert all(any(lp.var == "ivect_strip" for lp in walk_loops(k.body))
               for k in stripped)
    assert _plan_shape(stripped) == _plan_shape(_probe_kernels(schedule))


# -- guards and gathers under the grid ---------------------------------


def test_masked_guard_matches_oracle():
    k = Kernel("k", 1, (loop([
        If(Cond("gt", Load(Ref(B, (var("i"),))), Const(0.0)),
           (Assign(Ref(A, (var("i"),)),
                   BinOp("div", Const(1.0), Load(Ref(B, (var("i"),))))),)),
    ]),))
    (pl,) = plan_kernel(k)
    assert isinstance(pl, PlanLoop) and pl.vectorize
    interp, vec = run_both(
        k, a=np.zeros(8), b=[0.0, 2.0, -1.0, 4.0, 0.0, -0.5, 8.0, 1e-30])
    assert_identical(interp, vec, "a")


def test_nested_vectorized_gather():
    idx = Array("idx", (8,), dtype="i8")
    g = Array("g", (20,))
    m = Array("m", (8, 3))
    k = Kernel("k", 1, (loop([
        loop([
            Assign(Ref(m, (var("i"), var("j"))),
                   BinOp("mul",
                         Load(Ref(g, (Indirect(idx, (var("i"),)),))),
                         Load(Ref(A, (var("j"),))))),
        ], n=3, v="j"),
    ]),))
    interp, vec = run_both(
        k, m=np.zeros((8, 3)), idx=np.array([3, 1, 4, 1, 5, 9, 2, 6]),
        g=np.arange(20.0) * 1.1, a=np.arange(8.0) + 0.5)
    assert_identical(interp, vec, "m")


# -- real rungs, full arrays -------------------------------------------


def _phase_arrays(opt: str, backend_name: str, seed: int = 0):
    from repro.cfd.reference import PHASE_OUTPUTS

    app = Probe(opt=opt, field_seed=seed).build_app()
    backend = get_backend(backend_name)
    globals_data = {**app.global_float_data(), "elpos": app.elpos}
    out = []
    for chunk in app.chunks:
        inst = app.context.instance_for_chunk(chunk, with_data=True,
                                              globals_data=globals_data)
        ex = backend.executor(inst, app.context.params)
        for kern in app.kernels:
            ex.run(kern)
            for name in PHASE_OUTPUTS[kern.phase]:
                out.append((kern.phase, name,
                            np.asarray(inst.data(name)).tobytes()))
    return out


@pytest.mark.parametrize("opt", ["vanilla", "vec1"])
def test_rung_phase_arrays_byte_identical(opt):
    """Not just digests: every output array of every phase of every
    chunk is byte-identical between the two backends."""
    ref = _phase_arrays(opt, "interpreter")
    got = _phase_arrays(opt, "numpy")
    assert [(p, n) for p, n, _ in ref] == [(p, n) for p, n, _ in got]
    for (phase, name, want), (_, _, have) in zip(ref, got):
        assert want == have, f"phase {phase} array {name!r} diverged"


# -- strided views and ordered accumulate folds --------------------------


def _cancelling(shape, seed):
    """A shuffled mix of 1e16, 1.0 and -1e16 in equal parts: the large
    terms cancel, so any reordering of their sums shows as byte
    drift."""
    mix = np.resize([1e16, 1.0, -1e16], int(np.prod(shape)))
    return np.random.default_rng(seed).permutation(mix).reshape(shape)


def _order_matters(rows) -> bool:
    """True if the rows' loop-order sums differ somewhere from their sums
    backwards, and somewhere from their pairwise ``np.add.reduce``."""
    rows = [list(row) for row in rows]
    ordered = [sum(row) for row in rows]
    return (ordered != [sum(row[::-1]) for row in rows]
            and ordered != [np.add.reduce(row) for row in rows])


def _assign_nodes(nodes):
    for node in nodes:
        if isinstance(node, (PlanLoop, PlanIf)):
            yield from _assign_nodes(node.body)
        else:
            yield node


def test_240_lane_reduction_folds_in_loop_order():
    """``s(0) += x(i)*y(i)`` over 240 lanes: the store reads no grid
    axis, so all 240 additions land on one location, folded in loop
    order after its current value."""
    x, y, s = Array("x", (240,)), Array("y", (240,)), Array("s", (1,))
    k = Kernel("k", 10, (loop([
        Assign(Ref(s, (Affine((), 0),)),
               BinOp("mul", Load(Ref(x, (var("i"),))),
                     Load(Ref(y, (var("i"),)))), accumulate=True),
    ], n=240),))
    (node,) = _assign_nodes(plan_kernel(k))
    assert not node.unique and node.fold == (0,) and node.view.shape == ()
    terms = _cancelling(240, 3)
    ys = np.random.default_rng(2).choice([1.0, -1.0], 240)
    assert _order_matters([[1.0, *terms]])
    interp, vec = run_both(k, s=[1.0], x=terms * ys, y=ys)
    assert_identical(interp, vec, "s")


def test_outer_unread_axis_folds_per_location():
    """Phase 4's shape, ``g(i,d) += w(n)*e(i,n,d)`` with the ``n`` loop
    outermost: each location's additions run over ``n`` in order."""
    g, w, e = Array("g", (240, 3)), Array("w", (8,)), Array("e", (240, 8, 3))
    k = Kernel("k", 4, (loop([loop([loop([
        Assign(Ref(g, (var("i"), var("d"))),
               BinOp("mul", Load(Ref(w, (var("n"),))),
                     Load(Ref(e, (var("i"), var("n"), var("d"))))),
               accumulate=True),
    ], n=240, v="i")], n=3, v="d")], n=8, v="n"),))
    (node,) = _assign_nodes(plan_kernel(k))
    assert node.fold == (0, 1, 2) and node.view.shape == (3, 240)
    gs, es = _cancelling((240, 3), 3), _cancelling((240, 8, 3), 4)
    assert _order_matters(np.concatenate((gs[:, None], es), axis=1)
                          .transpose(0, 2, 1).reshape(-1, 9))
    interp, vec = run_both(k, g=gs, w=np.ones(8), e=es)
    assert_identical(interp, vec, "g")


def test_strip_mined_load_store_and_fold_take_views():
    """``40*strip + i`` over 6 strips: a copy's load and store and a
    dot's ordered accumulate all go through views."""
    x, y, w = Array("x", (240,)), Array("y", (240,)), Array("w", (240,))
    s = Array("s", (1,))
    flat = Affine((("strip", 40), ("i", 1)))
    k = Kernel("k", 10, (loop([loop([
        Assign(Ref(y, (flat,)), Load(Ref(x, (flat,)))),
        Assign(Ref(s, (Affine((), 0),)),
               BinOp("mul", Load(Ref(x, (flat,))),
                     Load(Ref(w, (flat,)))), accumulate=True),
    ], n=40, v="i")], n=6, v="strip"),))
    copy, dot = _assign_nodes(plan_kernel(k))
    assert copy.unique and copy.view.shape == (6, 40) and not copy.fold
    assert len(copy.loads) == 1
    assert dot.fold == (0, 1) and len(dot.loads) == 2
    xs = _cancelling(240, 7)
    assert _order_matters([[1.0, *xs]])
    interp, vec = run_both(k, x=xs, y=np.zeros(240), w=np.ones(240),
                           s=[1.0])
    assert_identical(interp, vec, "y", "s")


def test_negative_coefficient_views():
    """``a(7-i) += b(7-i)`` and ``s(0) += b(7-i)``: negative strides,
    as a unique store, a load and a fold."""
    rev = Affine((("i", -1),), 7)
    s = Array("s", (1,))
    k = Kernel("k", 1, (loop([
        Assign(Ref(A, (rev,)), Load(Ref(B, (rev,))), accumulate=True),
        Assign(Ref(s, (Affine((), 0),)), Load(Ref(B, (rev,))),
               accumulate=True),
    ]),))
    store, fold = _assign_nodes(plan_kernel(k))
    assert store.view.strides == (-8,) and fold.fold == (0,)
    bs = _cancelling(8, 2)
    assert _order_matters([[1.0, *bs[::-1]]])
    interp, vec = run_both(k, a=_cancelling(8, 7), b=bs, s=[1.0])
    assert_identical(interp, vec, "a", "s")


def _shifted_copy(shift: Affine) -> Kernel:
    """``a(i) = b(i + shift)`` over 8 lanes."""
    idx = Affine((("i", 1), *shift.terms), shift.const)
    return Kernel("k", 1, (loop([
        Assign(Ref(A, (var("i"),)), Load(Ref(B, (idx,)))),
    ]),))


def _run_at(executor, kernel, consts, **arrays):
    inst = make_instance(**{k: np.array(v) for k, v in arrays.items()})
    inst.index_consts.update(consts)
    executor(inst).run(kernel)
    return inst


@pytest.mark.parametrize("shift,consts", [(Affine((), 1), {}),
                                          (var("base"), {"base": 1})],
                         ids=["constant", "index-constant"])
def test_index_past_the_end_raises_like_the_interpreter(shift, consts):
    """An index past the end keeps fancy indexing's IndexError, whether
    the plan sees it (a constant) or only the run (the chunk base)."""
    k = _shifted_copy(shift)
    (node,) = _assign_nodes(plan_kernel(k))
    assert bool(node.loads) == bool(consts)
    for executor in (Interpreter, NumpyExecutor):
        with pytest.raises(IndexError):
            _run_at(executor, k, consts, a=np.zeros(8), b=np.arange(8.0))


@pytest.mark.parametrize("shift,consts", [(Affine((), -1), {}),
                                          (var("base"), {"base": -1})],
                         ids=["constant", "index-constant"])
def test_negative_index_wraps_like_the_interpreter(shift, consts):
    """``b(i - 1)`` reads ``b(-1)``, the last element, at ``i = 0``:
    the wrap-around stays, through fancy indexing."""
    k = _shifted_copy(shift)
    (node,) = _assign_nodes(plan_kernel(k))
    assert bool(node.loads) == bool(consts)
    interp, vec = (_run_at(executor, k, consts, a=np.zeros(8),
                           b=np.arange(8.0) + 0.5)
                   for executor in (Interpreter, NumpyExecutor))
    assert_identical(interp, vec, "a")
    assert np.asarray(vec.data("a"))[0] == 7.5


def _loads(expr):
    if isinstance(expr, Load):
        yield expr
    elif isinstance(expr, BinOp):
        yield from _loads(expr.lhs)
        yield from _loads(expr.rhs)
    elif isinstance(expr, Unary):
        yield from _loads(expr.x)


def _without_view(nodes, on_grid=False) -> list:
    """The gather-free references of the unmasked statements and
    conditions on the grid whose plan node gives them no view."""
    out = []
    for node in nodes:
        if isinstance(node, PlanLoop):
            out += _without_view(node.body, on_grid or node.vectorize)
        elif on_grid:
            if isinstance(node, PlanAssign):
                exprs, stmt = (node.stmt.expr,), node.stmt
                if not stmt.ref.has_indirect() and node.view is None:
                    out.append(stmt.ref)
            else:
                exprs = (node.stmt.cond.lhs, node.stmt.cond.rhs)
            out += [ld.ref for e in exprs for ld in _loads(e)
                    if not ld.ref.has_indirect() and id(ld) not in node.loads]
    return out


@pytest.mark.parametrize("passes", [None,
                                    ("const-trip-count", "strip-mine:40")],
                         ids=["vanilla", "strip-mine-40"])
def test_probe_grid_references_carry_views(passes):
    """At the autotuner's VECTOR_SIZE 240, every gather-free reference
    of an unmasked statement on the grid reads or writes through a
    view, and the accumulates over unread axes (phase 3's and 4's over
    ``inode``, the SpMV's over ``jnz``, the dot's over every lane) fold.
    Fancy indexing everywhere would stay byte-identical, so only this
    test sees the speed-up go."""
    app = Probe(vector_size=240, passes=passes).build_app()
    workload, _ = app.build_solver()
    folds = set()
    for kernel in [*app.kernels, *workload.kernels]:
        plan = plan_kernel(kernel)
        assert _without_view(plan) == [], kernel.name
        folds |= {kernel.phase for node in _assign_nodes(plan) if node.fold}
    assert folds == {3, 4, 9, 10}
