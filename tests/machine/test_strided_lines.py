"""Cache lines of kernel streams: the closed form, the element path,
and the fold, against each stream's every element address.

``RunStreams`` builds a stream's lines over its kept grid: every loop
the ref does not read cut to its first three iterations, the lines of
the third weighted by the iterations left (:func:`repro.machine.cpu.
_fold`).  A stream that reads no gather table and strides at most half a
line along its innermost loop becomes consecutive-distinct cache lines
from one address per innermost row
(:func:`repro.machine.cache.strided_lines`).  Every such stream must
give exactly what the element path gives on the same grid: every
element address shifted to its line and de-duplicated, row per chunk,
with the same weights.  The closed form holds up to one line's stride,
so it is checked there too.  And every stream, folded, must charge
exactly what its full grid of element addresses does.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfd.assembly import OPT_LEVELS, MiniApp
from repro.cfd.mesh import box_mesh
from repro.compiler.ir import Affine, Array, Ref
from repro.compiler.program import (
    CHUNK_BASE,
    AccessDesc,
    CompiledKernel,
    KernelInstance,
    ScalarBlock,
    byte_addresses,
    loop_grid,
)
from repro.experiments.config import QUICK_MESH, TINY_MESH, RunConfig
from repro.experiments.executor import simulate_run
from repro.isa.instructions import ScalarOp
from repro.machine import cache as cache_mod
from repro.machine.cache import (
    Lines,
    MemoryHierarchy,
    addresses_to_lines,
    dedup_consecutive,
    dedup_rows,
    strided_lines,
)
from repro.machine.cpu import RunStreams, _fold, _kernel_streams
from repro.machine.machines import MN4_AVX512, RISCV_VEC, SX_AURORA

MACHINES = [RISCV_VEC, SX_AURORA, MN4_AVX512]
SCHEDULES = [(opt, None) for opt in OPT_LEVELS] + [
    ("vec1", ("const-trip-count", "loop-interchange", "loop-fission",
              "strip-mine:4"))]
SCHEDULE_IDS = [s[0] if s[1] is None else "strip-mine:4" for s in SCHEDULES]
VECTOR_SIZES = [8, 10, 16, 40, 64, 240, 512]


def element_lines(plan: RunStreams, stream, bases):
    """Every element address of *stream*'s kept grid, shifted to lines
    and de-duplicated row by row, with the fold's weights: what the
    closed form must reproduce."""
    fold = _fold(stream)
    return dedup_rows(
        addresses_to_lines(plan._addresses(stream, bases, fold),
                           plan.line_bytes),
        None if fold.weights is None
        else np.repeat(fold.weights, fold.shape[-1]))


def full_grid(instance: KernelInstance, stream, bases) -> np.ndarray:
    """Every element address of *stream*'s full grid, a row per chunk
    base in *bases* (one row, the instance as bound, for ``None``):
    built here, apart from ``RunStreams``."""
    env = loop_grid(stream.loop_vars, stream.extents)
    rows = []
    for base in [None] if bases is None else bases:
        if base is not None:
            env[CHUNK_BASE] = np.int64(base)
        addrs = byte_addresses(stream.ref, env, instance)
        rows.append(np.broadcast_to(addrs, stream.extents or (1,))
                    .reshape(-1)[:stream.elements])
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


def assert_same_rows(got, want):
    np.testing.assert_array_equal(got.lines, want.lines)
    np.testing.assert_array_equal(got.offsets, want.offsets)
    if want.weights is None:
        assert got.weights is None
    else:
        np.testing.assert_array_equal(got.weights, want.weights)


def resident(cache) -> np.ndarray:
    """Each set's resident lines, least recently used first, right
    aligned; -1 in the empty ways."""
    empty = np.arange(cache._assoc) < (cache._assoc - cache._fill)[:, None]
    return np.where(empty, -1, cache._ways)


def assert_folds_exact(params, streams, rng) -> None:
    """*streams*: each folded stream's rows, its full grid of element
    addresses (a row per chunk) and its element count.  Every chunk row
    of every stream, each after its own random warm-up, folded into one
    fresh hierarchy and in full into another: the same charges per
    stream, counts and resident lines."""
    line_bytes = params.memory.l1.line_bytes
    folded, full = [], []
    for rows, grid, elements in streams:
        for r in range(grid.shape[0]):
            # the stream's own lines, half of them moved to a neighbour,
            # in random order.
            n = rng.integers(0, 512)
            warm = grid[r, rng.integers(0, grid.shape[1], n)] + line_bytes * (
                rng.integers(-64, 64, n) * rng.integers(0, 2, n))
            cut = slice(rows.offsets[r], rows.offsets[r + 1])
            folded += [warm, Lines(rows.lines[cut], elements,
                                   rows.weights[cut])]
            full += [warm, grid[r]]
    a, b = MemoryHierarchy(params.memory), MemoryHierarchy(params.memory)
    assert list(a.access(folded)) == list(b.access(full))
    assert a.element_accesses == b.element_accesses
    for x, y in ((a.l1, b.l1), (a.l2, b.l2)):
        assert (x.accesses, x.misses) == (y.accesses, y.misses)
        np.testing.assert_array_equal(resident(x), resident(y))


@lru_cache(maxsize=None)
def runs(opt: str, passes, vector_size: int):
    """The assembly and solver programs of a tiny-mesh app: each as
    ``(kernels, instance, chunk bases)``."""
    app = MiniApp(box_mesh(*TINY_MESH), vector_size, opt, passes=passes)
    workload, _ = app.build_solver()
    solver = workload.context
    return [
        (app.compiled, app.context.instance_for_chunk(
            app.chunks[0], globals_data={"elpos": app.elpos}),
         [int(c.elements[0]) for c in app.chunks]),
        (list(workload.compiled_by_phase.values()),
         solver.instance_for_chunk(solver.chunks()[0]),
         [int(c.elements[0]) for c in solver.chunks()]),
    ]


@pytest.mark.parametrize("vector_size", VECTOR_SIZES)
@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
def test_kernel_streams_closed_form_matches_elements(schedule, vector_size):
    """Every gather-free stream of every assembly and solver kernel, on
    64- and 128-byte lines: chunk-dependent streams over all the run's
    chunks at once, the others on the instance as bound."""
    seen = {"closed": 0, "partial": 0, "zero_stride": 0, "folded": 0}
    for kernels, instance, bases in runs(*schedule, vector_size):
        for params in MACHINES:
            plan = RunStreams(kernels, instance, bases,
                              MemoryHierarchy(params.memory))
            for compiled in kernels:
                for stream in _kernel_streams(compiled):
                    if stream.gathers or abs(stream.stride) > plan.line_bytes:
                        continue
                    rows = plan.bases if stream.varies else None
                    fold = _fold(stream)
                    assert_same_rows(plan._strided_lines(stream, rows, fold),
                                     element_lines(plan, stream, rows))
                    inner = stream.extents[-1] if stream.extents else 1
                    seen["closed"] += 1
                    seen["partial"] += stream.elements % inner != 0
                    seen["zero_stride"] += stream.stride == 0 and inner > 1
                    seen["folded"] += fold.weights is not None
    # weighted streams cut their last row; broadcast operands stride 0.
    assert all(seen.values()), seen


@pytest.mark.parametrize("vector_size", VECTOR_SIZES)
@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
def test_kernel_streams_fold_exactly(schedule, vector_size):
    """Every stream of every assembly and solver kernel, gathers too, as
    ``RunStreams`` builds it, against its full grid of element
    addresses: a stream that folds nothing has the same lines and no
    weights; the folded streams of a kernel, each after a random
    warm-up, charge the same as their full grids."""
    rng = np.random.default_rng(vector_size)
    seen = 0
    for kernels, instance, bases in runs(*schedule, vector_size):
        plans = [RunStreams(kernels, instance, bases,
                            MemoryHierarchy(params.memory))
                 for params in MACHINES]
        for compiled in kernels:
            folded = [[] for _ in MACHINES]
            for stream in _kernel_streams(compiled):
                rows = plans[0].bases if stream.varies else None
                full = full_grid(instance, stream, rows)
                by_line = {}  # the stream's rows, by line size
                for plan, out in zip(plans, folded):
                    got = by_line.get(plan.line_bytes)
                    if got is None:
                        got = by_line[plan.line_bytes] = plan._lines(stream,
                                                                     rows)
                        if got.weights is None:
                            assert_same_rows(got, dedup_rows(
                                addresses_to_lines(full, plan.line_bytes)))
                    if got.weights is not None:
                        out.append((got, full, stream.elements))
            for params, streams in zip(MACHINES, folded):
                if streams:
                    assert_folds_exact(params, streams, rng)
                seen += len(streams)
    assert seen


def test_quick_vec1_decides_under_half_its_lines():
    """The fold is used: a quick-mesh riscv_vec vec1@240 run decides
    (``Cache._access_batch``) at most 45% of the L1 accesses it models.
    Every grid in full would decide all of them."""
    made, decided = [], []
    init, batch = MemoryHierarchy.__init__, cache_mod.Cache._access_batch

    def keep(hierarchy, *args, **kwargs):
        init(hierarchy, *args, **kwargs)
        made.append(hierarchy)

    def counted(cache, lines):
        decided.append((cache, lines.size))
        return batch(cache, lines)

    with mock.patch.object(MemoryHierarchy, "__init__", keep), \
            mock.patch.object(cache_mod.Cache, "_access_batch", counted):
        simulate_run(RunConfig(machine="riscv_vec", opt="vec1",
                               vector_size=240, mesh_dims=QUICK_MESH))
    [l1] = [h.l1 for h in made]
    assert l1.accesses == 3279100  # the modeled count, unchanged
    assert sum(n for c, n in decided if c is l1) <= 0.45 * l1.accesses


def test_closed_form_picked_by_stride():
    """The closed form serves exactly the gather-free streams of at most
    half a line's stride; the rest take the element path."""
    kernels, instance, bases = runs("vec1", None, 8)[0]
    streams = [s for k in kernels for s in _kernel_streams(k)]
    for params in MACHINES:
        plan = RunStreams(kernels, instance, bases,
                          MemoryHierarchy(params.memory))
        closed = []
        plan._strided_lines = lambda stream, rows, fold: closed.append(
            stream)
        for stream in streams:
            plan._lines(stream, None)
        assert 0 < len(closed) < len(streams)
        assert closed == [s for s in streams if s.stride is not None
                          and 2 * abs(s.stride) <= plan.line_bytes]


@settings(deadline=None, max_examples=200)
@given(
    line_bytes=st.sampled_from([64, 128]),
    starts=st.lists(st.lists(st.integers(-(1 << 12), 1 << 16), min_size=1,
                             max_size=6), min_size=1, max_size=4),
    stride_frac=st.fractions(-1, 1, max_denominator=16),
    length=st.integers(1, 40),
    cut=st.floats(0, 1),
)
def test_strided_lines_matches_element_addresses(line_bytes, starts,
                                                 stride_frac, length, cut):
    """Rows of runs at any stride up to one line either way (8-byte
    multiples, negative, zero and exactly one line), the last run cut
    anywhere."""
    width = min(len(r) for r in starts)
    starts = np.array([r[:width] for r in starts], dtype=np.int64)
    stride = 8 * round(stride_frac * line_bytes / 8)
    count = int(round(cut * width * length))
    addrs = (starts[:, :, None]
             + stride * np.arange(length)).reshape(len(starts), -1)[:, :count]
    want = dedup_rows(addresses_to_lines(addrs, line_bytes))
    assert_same_rows(strided_lines(starts, stride, length, count,
                                   line_bytes), want)


def test_strided_lines_rejects_wider_strides():
    with pytest.raises(ValueError, match="wider than a 64-byte line"):
        strided_lines(np.zeros((1, 1), dtype=np.int64), 72, 4, 4, 64)


LOOPS = ("i", "j", "k")


@st.composite
def affine_streams(draw):
    """A one-access scalar block over up to three loops: a 2-D array
    indexed by affine terms with negative, zero and line-sized strides,
    maybe the chunk base, and an access weight."""
    depth = draw(st.integers(0, 3))
    loop_vars = LOOPS[:depth]
    extents = tuple(draw(st.integers(1, 9)) for _ in loop_vars)
    coef = st.integers(-3, 3)
    idx = []
    for _ in range(2):
        terms = tuple((v, c) for v in loop_vars if (c := draw(coef)))
        if draw(st.booleans()):
            terms += ((CHUNK_BASE, draw(st.sampled_from([1, 8, 16]))),)
        idx.append(Affine(terms, draw(st.integers(0, 64))))
    array = Array("a", (draw(st.sampled_from([1, 4, 8, 16, 32])), 400))
    weight = draw(st.sampled_from([1.0, 0.75, 0.5, 0.3]))
    block = ScalarBlock(1, loop_vars, extents, ((ScalarOp.LOAD, 1.0),), 0.0,
                        (AccessDesc(Ref(array, tuple(idx)), False, weight),))
    bases = draw(st.lists(st.integers(0, 200), min_size=1, max_size=4))
    return CompiledKernel("k", 1, [block]), bases


@settings(deadline=None, max_examples=200)
@given(case=affine_streams(), params=st.sampled_from(MACHINES))
def test_affine_refs_closed_form_matches_elements(case, params):
    compiled, bases = case
    instance = KernelInstance(index_consts={CHUNK_BASE: bases[0]})
    instance.bind(compiled.blocks[0].accesses[0].ref.array)
    plan = RunStreams([compiled], instance, bases,
                      MemoryHierarchy(params.memory))
    [stream] = _kernel_streams(compiled)
    for rows in (plan.bases, None):
        want = element_lines(plan, stream, rows)
        got = plan._lines(stream, rows)
        assert_same_rows(got, want)
        if abs(stream.stride) <= plan.line_bytes:
            assert_same_rows(plan._strided_lines(stream, rows,
                                                 _fold(stream)), want)
        full = full_grid(instance, stream, rows)
        if got.weights is None:
            assert_same_rows(got, dedup_rows(addresses_to_lines(
                full, plan.line_bytes)))
        else:
            assert_folds_exact(params, [(got, full, stream.elements)],
                               np.random.default_rng(len(bases)))
    # the instance as bound is the first chunk.
    np.testing.assert_array_equal(
        plan._lines(stream, None).lines,
        dedup_consecutive(addresses_to_lines(
            plan._addresses(stream, plan.bases[:1], _fold(stream))[0],
            plan.line_bytes)))
