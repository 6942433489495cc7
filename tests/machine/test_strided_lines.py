"""Closed-form cache lines of affine streams against their element path.

``RunStreams`` turns a stream that reads no gather table and strides at
most half a line along its innermost loop into consecutive-distinct
cache lines from one address per innermost row
(:func:`repro.machine.cache.strided_lines`).  Every such stream must give
exactly what the element path gives: every element address shifted to
its line and de-duplicated, row per chunk.  The closed form holds up to
one line's stride, so it is checked there too.
"""

from functools import lru_cache

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
)
from repro.experiments.config import TINY_MESH
from repro.isa.instructions import ScalarOp
from repro.machine.cache import (
    MemoryHierarchy,
    addresses_to_lines,
    dedup_consecutive,
    dedup_rows,
    strided_lines,
)
from repro.machine.cpu import RunStreams, _kernel_streams
from repro.machine.machines import MN4_AVX512, RISCV_VEC, SX_AURORA

MACHINES = [RISCV_VEC, SX_AURORA, MN4_AVX512]
SCHEDULES = [(opt, None) for opt in OPT_LEVELS] + [
    ("vec1", ("const-trip-count", "loop-interchange", "loop-fission",
              "strip-mine:4"))]
VECTOR_SIZES = [8, 10, 16, 40, 64, 240, 512]


def element_lines(plan: RunStreams, stream, bases):
    """Every element address of *stream*, shifted to lines and
    de-duplicated row by row: what the closed form must reproduce."""
    return dedup_rows(addresses_to_lines(plan._addresses(stream, bases),
                                         plan.line_bytes))


def assert_same_rows(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


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
@pytest.mark.parametrize("schedule", SCHEDULES,
                         ids=[s[0] if s[1] is None else "strip-mine:4"
                              for s in SCHEDULES])
def test_kernel_streams_closed_form_matches_elements(schedule, vector_size):
    """Every gather-free stream of every assembly and solver kernel, on
    64- and 128-byte lines: chunk-dependent streams over all the run's
    chunks at once, the others on the instance as bound."""
    seen = {"closed": 0, "partial": 0, "zero_stride": 0}
    for kernels, instance, bases in runs(*schedule, vector_size):
        for params in MACHINES:
            plan = RunStreams(kernels, instance, bases,
                              MemoryHierarchy(params.memory))
            for compiled in kernels:
                for stream in _kernel_streams(compiled):
                    if stream.gathers or abs(stream.stride) > plan.line_bytes:
                        continue
                    rows = plan.bases if stream.varies else None
                    assert_same_rows(plan._strided_lines(stream, rows),
                                     element_lines(plan, stream, rows))
                    inner = stream.extents[-1] if stream.extents else 1
                    seen["closed"] += 1
                    seen["partial"] += stream.elements % inner != 0
                    seen["zero_stride"] += stream.stride == 0 and inner > 1
    # weighted streams cut their last row; broadcast operands stride 0.
    assert all(seen.values()), seen


def test_closed_form_picked_by_stride():
    """The closed form serves exactly the gather-free streams of at most
    half a line's stride; the rest take the element path."""
    kernels, instance, bases = runs("vec1", None, 8)[0]
    streams = [s for k in kernels for s in _kernel_streams(k)]
    for params in MACHINES:
        plan = RunStreams(kernels, instance, bases,
                          MemoryHierarchy(params.memory))
        closed = []
        plan._strided_lines = lambda stream, rows: closed.append(stream)
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
        assert_same_rows(plan._lines(stream, rows), want)
        if abs(stream.stride) <= plan.line_bytes:
            assert_same_rows(plan._strided_lines(stream, rows), want)
    # the instance as bound is the first chunk.
    np.testing.assert_array_equal(
        plan._lines(stream, None)[0],
        dedup_consecutive(addresses_to_lines(
            plan._addresses(stream, plan.bases[:1])[0], plan.line_bytes)))
