"""Cache lines of kernel streams, as ``RunStreams`` builds them, against
each stream's every element address.

``RunStreams`` builds a stream's lines over its kept grid: every loop
the ref does not read cut to its first three iterations, the lines of
the third weighted by the iterations left (:func:`repro.machine.cpu.
_fold`).  A gather-free stream's lines come from its address
coefficients (:func:`repro.machine.cpu._coefficients`) alone, segment
by segment: one segment per innermost row when the stream strides at
most one line along its innermost loop, else one per element, and a
segment's lines are the range from its first element's line to its
last's.  A gather's lines come from its element addresses.  A kernel's
streams arrive back to back, one item per chunk.

Every stream of every item must give exactly what the element
addresses of its kept grid give, built here with ``byte_addresses``:
shifted to lines and de-duplicated chunk by chunk, with the same
weights.  And every stream, folded, must charge exactly what its full
grid of element addresses does.
"""

from functools import lru_cache
from typing import NamedTuple
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
from repro.machine import cache as cache_mod, cpu as cpu_mod
from repro.machine.cache import (
    Lines,
    MemoryHierarchy,
    addresses_to_lines,
    dedup_consecutive,
    dedup_rows,
)
from repro.machine.cpu import (
    RunStreams,
    _expand,
    _fold,
    _kernel_streams,
    _runs,
    _segments,
)
from repro.machine.machines import MN4_AVX512, RISCV_VEC, SX_AURORA

MACHINES = [RISCV_VEC, SX_AURORA, MN4_AVX512]
SCHEDULES = [(opt, None) for opt in OPT_LEVELS] + [
    ("vec1", ("const-trip-count", "loop-interchange", "loop-fission",
              "strip-mine:4"))]
SCHEDULE_IDS = [s[0] if s[1] is None else "strip-mine:4" for s in SCHEDULES]
VECTOR_SIZES = [8, 10, 16, 40, 64, 240, 512]


#: one machine per line size: ``RunStreams`` reads nothing else of a
#: hierarchy, so each line size's items are built once.
BY_LINE_SIZE = list({m.memory.l1.line_bytes: m for m in MACHINES}.values())


def addresses(instance: KernelInstance, stream, shape, count, bases):
    """Every element address of *stream* over the grid *shape* of its
    loops, the first *count* of each row; a row per chunk base in
    *bases* (one row, the instance as bound, for ``None``).  Built here
    with ``byte_addresses``, apart from ``RunStreams``."""
    rows = 1 if bases is None else len(bases)
    env = loop_grid(stream.loop_vars, shape)
    if bases is not None:
        env[CHUNK_BASE] = np.asarray(bases, dtype=np.int64).reshape(
            (rows,) + (1,) * len(shape))
    addrs = byte_addresses(stream.ref, env, instance)
    return np.broadcast_to(addrs, (rows,) + shape).reshape(
        rows, -1)[:, :count]


def kept_grid(instance, stream, bases):
    """The element addresses of the stream's kept grid (:func:`_fold`),
    a row per chunk, and each element's weight (``None``: nothing is
    folded)."""
    fold = _fold(stream)
    return (addresses(instance, stream, fold.shape, fold.count, bases),
            None if fold.weights is None
            else np.repeat(fold.weights, fold.shape[-1]))


def items(kernels, instance, bases, params):
    """Every item ``RunStreams`` feeds *params*' hierarchy, as
    ``(chunk, kernel, item)``."""
    plan = RunStreams(kernels, instance, bases,
                      MemoryHierarchy(params.memory))
    run = plan.run()
    for chunk in range(plan.nchunks):
        for compiled in kernels:
            yield chunk, compiled, next(run)


def split(item: Lines):
    """The ``(lines, weights)`` of each stream of *item*."""
    begin = np.concatenate(([0], item.ends[:-1]))
    return [(item.lines[b:e], None if item.weights is None
             else item.weights[b:e])
            for b, e in zip(begin.tolist(), item.ends.tolist())]


def resident(cache) -> np.ndarray:
    """Each set's resident lines, least recently used first, right
    aligned; -1 in the empty ways."""
    empty = np.arange(cache._assoc) < (cache._assoc - cache._fill)[:, None]
    return np.where(empty, -1, cache._ways)


def full_lines(instance, stream, bases, line_bytes) -> np.ndarray:
    """The consecutive-distinct lines of *stream*'s full grid, on the
    instance as bound (``None``) or at the one chunk base in *bases*."""
    return dedup_consecutive(addresses_to_lines(
        addresses(instance, stream, stream.extents or (1,),
                  stream.elements, bases)[0], line_bytes))


def assert_folds_exact(params, streams, rng) -> None:
    """*streams*: each folded stream as ``(lines, weights, elements,
    full)``, *full* its full grid's consecutive-distinct lines
    (:func:`full_lines`).  Every stream, each after its own random
    warm-up, folded into one fresh hierarchy and in full into another:
    the same charges per stream, counts and resident lines."""
    folded, full = [], []
    for lines, weights, elements, grid in streams:
        # the stream's own lines, half of them moved to a neighbour, in
        # random order.
        n = int(rng.integers(0, 512)) if grid.size else 0
        warm = Lines(dedup_consecutive(
            grid[rng.integers(0, grid.size, n)]
            + rng.integers(-64, 64, n) * rng.integers(0, 2, n)), n)
        folded += [warm, Lines(lines, elements, weights)]
        full += [warm, Lines(grid, elements)]
    a, b = MemoryHierarchy(params.memory), MemoryHierarchy(params.memory)
    got, want = a.access(folded), b.access(full)
    for name in ("penalty", "l1_misses", "l2_misses", "elements"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert a.element_accesses == b.element_accesses
    for x, y in ((a.l1, b.l1), (a.l2, b.l2)):
        assert (x.accesses, x.misses) == (y.accesses, y.misses)
        np.testing.assert_array_equal(resident(x), resident(y))


def kernel_addresses(grids, nchunks: int):
    """A kernel's streams' kept grids (:func:`kept_grid`, a row per chunk
    or one row for all) side by side, a row per chunk, a spare column
    after each stream; the weight of each column (0 for a spare); and
    each stream's spare column."""
    widths = np.array([addrs.shape[1] for addrs, _ in grids], dtype=int)
    spare = np.cumsum(widths + 1) - 1
    out = np.empty((nchunks, int(spare[-1]) + 1 if grids else 0),
                   dtype=np.int64)
    weights = np.ones(out.shape[1], dtype=np.int64)
    weights[spare] = 0
    for (addrs, w), stop, width in zip(grids, spare.tolist(),
                                       widths.tolist()):
        out[:, stop - width:stop] = addrs
        if w is not None:
            weights[stop - width:stop] = w
    return out, weights, spare


def kernel_items(columns, nchunks: int, line_bytes: int, folded: bool):
    """What ``RunStreams`` must yield for a kernel, its streams' element
    addresses side by side (*columns*, :func:`kernel_addresses`), chunk
    by chunk: each stream's element lines de-duplicated row by row
    (``dedup_rows``), the streams back to back, as ``(lines, ends,
    weights)``; *weights* ``None`` unless a stream is *folded*.  A
    distinct negative line in each spare column keeps the streams
    apart."""
    addrs, weights, spare = columns
    lines = addresses_to_lines(addrs, line_bytes)
    lines[:, spare] = -1 - np.arange(spare.size)
    assert np.count_nonzero(lines < 0) == nchunks * spare.size
    rows = dedup_rows(lines, weights)
    for c in range(nchunks):
        cut = slice(rows.offsets[c], rows.offsets[c + 1])
        real = rows.lines[cut] >= 0
        yield (rows.lines[cut][real],
               np.flatnonzero(~real) - np.arange(spare.size),
               rows.weights[cut][real] if folded else None)


def assert_items_match_elements(built, streams, grids, nchunks):
    """Every item of *built* -- ``{line size: items}``, as :func:`items`
    gives them -- against :func:`kernel_items`.  *streams*: each
    kernel's, by ``id``; *grids*: each stream's kept grid
    (:func:`kept_grid`), by kernel ``id`` and stream index."""
    columns, want = {}, {}
    for line_bytes, run in built.items():
        for chunk, compiled, item in run:
            key = id(compiled)
            kernel = [grids[key, i] for i in range(len(streams[key]))]
            if key not in columns:
                columns[key] = kernel_addresses(kernel, nchunks)
            if (line_bytes, key) not in want:
                want[line_bytes, key] = list(kernel_items(
                    columns[key], nchunks, line_bytes,
                    any(w is not None for _, w in kernel)))
            lines, ends, weights = want[line_bytes, key][chunk]
            assert np.array_equal(item.lines, lines)
            assert np.array_equal(item.ends, ends)
            assert np.array_equal(item.elements,
                                  [s.elements for s in streams[key]])
            if weights is None:
                assert item.weights is None
            else:
                assert np.array_equal(item.weights, weights)


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


class Program(NamedTuple):
    """One program of a tiny-mesh app, as :func:`runs` gives it, and
    what both kernel-stream tests read of it."""

    kernels: list
    instance: KernelInstance
    bases: list
    #: each kernel's streams, by ``id``.
    streams: dict
    #: the run's items (:func:`items`) by line size.
    built: dict


class Case(NamedTuple):
    """One schedule and vector size of the kernel-stream tests."""

    vector_size: int
    #: the app's assembly and solver programs.
    programs: list[Program]


@pytest.fixture(scope="module", ids=[f"{s}-{vs}" for s in SCHEDULE_IDS
                                     for vs in VECTOR_SIZES],
                params=[(s, vs) for s in SCHEDULES for vs in VECTOR_SIZES])
def case(request) -> Case:
    """One schedule and vector size, for both kernel-stream tests: the
    assembly and solver programs of a tiny-mesh app, each with the items
    ``RunStreams`` builds for it on each line size (module-scoped, so
    pytest runs both tests of a case together and builds them once)."""
    (opt, passes), vector_size = request.param
    return Case(vector_size, [
        Program(kernels, instance, bases,
                {id(c): _kernel_streams(c) for c in kernels},
                {p.memory.l1.line_bytes: list(items(kernels, instance,
                                                    bases, p))
                 for p in BY_LINE_SIZE})
        for kernels, instance, bases in runs(opt, passes, vector_size)])


def test_kernel_streams_closed_form_matches_elements(case):
    """Every stream of every assembly and solver kernel, in every chunk,
    as the run's items carry it, on 64- and 128-byte lines: the
    gather-free ones from their coefficients, the gathers from their
    addresses.  Each stream's kept grid is evaluated once, a
    chunk-dependent one over all the run's chunks at once."""
    seen = dict.fromkeys(("rows", "partial", "zero_stride", "folded",
                          "gathers"), 0)
    for program in case.programs:
        grids = {(id(c), i): kept_grid(program.instance, s,
                                       program.bases if s.varies else None)
                 for c in program.kernels
                 for i, s in enumerate(program.streams[id(c)])}
        assert_items_match_elements(program.built, program.streams, grids,
                                    len(program.bases))
        for stream in (s for k in program.streams.values() for s in k):
            inner = stream.extents[-1] if stream.extents else 1
            seen["gathers"] += stream.gathers
            if stream.gathers or not stream.loop_vars:
                continue
            stride = stream.ref.stride_along(stream.loop_vars[-1])
            seen["rows"] += abs(stride) * 8 <= 64
            seen["partial"] += stream.elements % inner != 0
            seen["zero_stride"] += stride == 0 and inner > 1
            seen["folded"] += _fold(stream).weights is not None
    # weighted streams cut their last row; broadcast operands stride 0.
    assert all(seen.values()), seen


def test_kernel_streams_fold_exactly(case):
    """Every folded stream of every assembly and solver kernel, gathers
    too, as the run's items carry it -- a chunk-dependent one in every
    chunk, the others once -- against its full grid: each after a random
    warm-up, they charge the same as their full grids, all of a
    machine's in one hierarchy call.  (A stream that folds nothing is
    its kept grid, which the test above checks.)"""
    rng = np.random.default_rng(case.vector_size)
    folded = {p.memory.l1.line_bytes: [] for p in BY_LINE_SIZE}
    for program in case.programs:
        # the same chunks and kernels in order, on each line size.
        for built in zip(*program.built.values()):
            chunk, compiled, _ = built[0]
            parts = [split(item) for _, _, item in built]
            for i, stream in enumerate(program.streams[id(compiled)]):
                if _fold(stream).weights is None or (
                        chunk and not stream.varies):
                    continue
                grid = addresses(program.instance, stream,
                                 stream.extents or (1,), stream.elements,
                                 [program.bases[chunk]] if stream.varies
                                 else None)[0]
                for (line_bytes, out), part in zip(folded.items(), parts):
                    lines, weights = part[i]
                    out.append((lines, weights, stream.elements,
                                dedup_consecutive(addresses_to_lines(
                                    grid, line_bytes))))
    for params in MACHINES:
        streams = folded[params.memory.l1.line_bytes]
        assert streams
        assert_folds_exact(params, streams, rng)


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
    """A gather-free stream of at most one line's innermost stride takes
    one segment per innermost row of its kept grid, a wider one one per
    element; only the gathers' element addresses are evaluated."""
    kernels, instance, bases = runs("vec1", None, 40)[0]
    streams = [s for k in kernels for s in _kernel_streams(k)]
    for params in MACHINES:
        line_bytes = params.memory.l1.line_bytes
        kinds = set()
        for compiled in kernels:
            kernel = _kernel_streams(compiled)
            stop = _segments(kernel, instance, line_bytes, True).stop
            for i, stream in enumerate(kernel):
                count = stop[i] - (stop[i - 1] if i else 0)
                fold = _fold(stream)
                if stream.gathers:
                    assert count == 0
                    continue
                stride = (8 * stream.ref.stride_along(stream.loop_vars[-1])
                          if stream.loop_vars else 0)
                rows = abs(stride) <= line_bytes
                kinds.add(rows)
                assert count == (-(-fold.count // fold.shape[-1]) if rows
                                 else fold.count)
        assert kinds == {True, False}
        evaluated = []
        real = cpu_mod.byte_addresses

        def spy(ref, env, inst):
            evaluated.append(ref)
            return real(ref, env, inst)

        with mock.patch.object(cpu_mod, "byte_addresses", spy):
            for _ in items(kernels, instance, bases, params):
                pass
        assert set(evaluated) == {s.ref for s in streams if s.gathers}


@settings(deadline=None, max_examples=200)
@given(
    line_bytes=st.sampled_from([64, 128]),
    starts=st.lists(st.integers(-(1 << 12), 1 << 16), min_size=1,
                    max_size=6),
    stride_frac=st.fractions(-1, 1, max_denominator=16),
    length=st.integers(1, 40),
    cut=st.floats(0, 1),
)
def test_strided_lines_matches_element_addresses(line_bytes, starts,
                                                 stride_frac, length, cut):
    """One stream's runs of *length* elements at any stride up to one
    line either way (8-byte multiples, negative, zero and exactly one
    line), the last run cut anywhere, as row segments: their runs of
    lines (:func:`_runs`), expanded (:func:`_expand`), are the element
    addresses' consecutive-distinct lines."""
    stride = 8 * round(stride_frac * line_bytes / 8)
    count = int(round(cut * len(starts) * length))
    addrs = (np.array(starts)[:, None]
             + stride * np.arange(length)).reshape(-1)[:count]
    runs_ = -(-count // length)
    span = np.full(runs_, stride * (length - 1), dtype=np.int64)
    if runs_:
        span[-1] = stride * (count - (runs_ - 1) * length - 1)
    seg = cpu_mod._Segments(
        start=np.array(starts[:runs_], dtype=np.int64), span=span,
        chunk=np.zeros(runs_, dtype=np.int64),
        step=-np.ones(runs_, dtype=np.int64) if stride < 0 else None,
        weight=None, joins=np.arange(runs_) > 0, stop=np.array([runs_]))
    first, size = _runs(seg, None, line_bytes.bit_length() - 1)
    begin = np.cumsum(size) - size
    np.testing.assert_array_equal(
        _expand(first, size, begin, seg.step),
        dedup_consecutive(addresses_to_lines(addrs, line_bytes)))


LOOPS = ("i", "j", "k")


@st.composite
def affine_kernels(draw):
    """A kernel of one to three scalar blocks over up to three loops,
    with one or two accesses each: a 2-D array indexed by affine terms
    whose innermost strides are negative, zero, under a line, a line and
    wider, maybe the chunk base, and an access weight; and a run's chunk
    bases."""
    coef = st.integers(-3, 3)
    blocks = []
    for b in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(0, 3))
        loop_vars = LOOPS[:depth]
        extents = tuple(draw(st.integers(1, 9)) for _ in loop_vars)
        accesses = []
        for a in range(draw(st.integers(1, 2))):
            idx = []
            for _ in range(2):
                terms = tuple((v, c) for v in loop_vars if (c := draw(coef)))
                if draw(st.booleans()):
                    terms += ((CHUNK_BASE,
                               draw(st.sampled_from([1, 8, 16]))),)
                idx.append(Affine(terms, draw(st.integers(0, 64))))
            array = Array(f"a{b}{a}",
                          (draw(st.sampled_from([1, 4, 8, 16, 32])), 400))
            weight = draw(st.sampled_from([1.0, 0.75, 0.5, 0.3]))
            accesses.append(AccessDesc(Ref(array, tuple(idx)), False,
                                       weight))
        blocks.append(ScalarBlock(1, loop_vars, extents,
                                  ((ScalarOp.LOAD, 1.0),), 0.0,
                                  tuple(accesses)))
    bases = draw(st.lists(st.integers(0, 200), min_size=1, max_size=4))
    return CompiledKernel("k", 1, blocks), bases


@settings(deadline=None, max_examples=200)
@given(case=affine_kernels(), params=st.sampled_from(MACHINES))
def test_affine_refs_closed_form_matches_elements(case, params):
    """Random affine refs, a kernel's streams back to back, over many
    chunk bases and on the instance as bound: each stream's lines and
    weights are its kept grid's element lines, and its folded lines
    charge what its full grid of addresses does."""
    compiled, bases = case
    instance = KernelInstance(index_consts={CHUNK_BASE: bases[0]})
    for block in compiled.blocks:
        for desc in block.accesses:
            instance.bind(desc.ref.array)
    streams = _kernel_streams(compiled)
    line_bytes = params.memory.l1.line_bytes
    rng = np.random.default_rng(len(bases))
    for run in (bases, None):
        grids = {(id(compiled), i): kept_grid(instance, s,
                                              run if s.varies else None)
                 for i, s in enumerate(streams)}
        assert_items_match_elements(
            {line_bytes: items([compiled], instance, run, params)},
            {id(compiled): streams}, grids, 1 if run is None else len(run))
        folded = []
        for chunk, _, item in items([compiled], instance, run, params):
            for stream, (lines, weights) in zip(streams, split(item)):
                if _fold(stream).weights is not None:
                    folded.append((lines, weights, stream.elements,
                                   full_lines(instance, stream, None
                                              if run is None
                                              else [run[chunk]],
                                              line_bytes)))
        if folded:
            assert_folds_exact(params, folded, rng)
    # the instance as bound is the first chunk.
    [(_, _, first)] = items([compiled], instance, None, params)
    _, _, chunked = next(items([compiled], instance, bases, params))
    np.testing.assert_array_equal(first.lines, chunked.lines)
