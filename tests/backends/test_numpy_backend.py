"""Semantics of the vectorized numpy backend against the interpreter.

Synthetic-kernel probes for the tricky lowering corners (NaN min/max,
duplicate-index scatter-accumulate ordering, loop-carried recurrences
that must stay sequential, masked guards), plus full byte-exact array
comparison on real rungs of the mini-app.
"""

import numpy as np
import pytest

from repro.backends import get_backend, plan_kernel
from repro.backends.numpy_backend import NumpyExecutor, PlanIf, PlanLoop
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
