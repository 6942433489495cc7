"""The machine: executes compiled kernels and accumulates counters.

``Machine.execute_program`` runs the blocks produced by
:mod:`repro.compiler.codegen` over every chunk of mesh elements of a run
and charges cycles and instruction counts into
:class:`~repro.metrics.counters.RunCounters`.

Two performance properties of the implementation matter:

* block iteration repeats are *analytically* accounted (all iterations of
  a homogeneous block cost the same base cycles), so simulation cost is
  proportional to the number of distinct blocks and strips, not to the
  dynamic instruction count;
* cache behaviour, which is *not* homogeneous across iterations, is
  simulated from the real address streams evaluated in NumPy batches.

A run is one loop domain over (chunk, kernel, block, access).
:meth:`Machine.execute_program` takes a program, one
:class:`~repro.compiler.program.KernelInstance` and the chunk-base value
of every chunk the run visits: the chunks' instances would differ only
in the :data:`~repro.compiler.program.CHUNK_BASE` index constant.
:class:`RunStreams` sets up each kernel's access streams once per run
and feeds the hierarchy one :class:`~repro.machine.cache.Lines` per
chunk and kernel: the kernel's streams back to back, with each one's
line end and element count.  With the cache off no line is needed:
element counts follow from grid sizes and access weights, and only the
gathers are evaluated, for their index checks.

A stream that reads no gather table is affine: its byte address is
``a0 + sum(k_v * v) + k_cb * chunk_base`` over its loop variables
(:func:`_coefficients`), and its lines follow from those coefficients
alone, without its element addresses.  It is cut into segments: one
innermost row of its grid when it strides at most one line along its
innermost loop, else one element.  A segment's consecutive-distinct
lines are the range from its first element's line to its last's, and
the seam -- a segment whose first line is the line the segment before
it in the same stream ended on -- drops that line.  All of a kernel's
segments are laid out in one vectorized pass once per run; a segment
whose stream does not read the chunk base keeps its run of lines (first
line, length, weight) for the whole run, and one that does is moved by
``k_cb`` times each chunk's base, once per group of chunks
(:data:`GROUP_ACCESSES`).  A gather is evaluated element by element
once per group of chunks, with the chunk base as a leading grid axis,
and its lines are shifted out of the addresses and de-duplicated row by
row.

Either way a stream's lines are built over its kept grid.  A repeat
loop of a stream is an outer loop of more than
:data:`KEPT_ITERATIONS` (three) iterations whose variable its ref does
not read, gathers included: each iteration touches the addresses the
one before did.  Only the first three iterations of each repeat loop
are kept, and every line of a third iteration is weighted by the
iterations left, ``E - 2`` (weights multiply across nested repeat
loops); :class:`~repro.machine.cache.Lines` carries the weights.  By
LRU's stack property the hierarchy decides the third iteration as it
would every later one, and ends in the same state, so the weighted
counts equal the full grid's (:data:`KEPT_ITERATIONS` says why three).
A stream cut short by an access weight below one keeps its full grid.
With the cache off only a gather is built, on its kept grid: the same
addresses are checked.

A run makes one call to the memory hierarchy: every stream of every
chunk's kernels, in run order, which lets the vectorized cache decide
full batches across kernel and chunk boundaries.  In a run of more than
one chunk with the cache on, :class:`RunStreams` keys the item of each
kernel none of whose streams varies (:attr:`_Stream.varies`) by its
program position: its lines are the same in every chunk (phases 3-7 on
every rung, whose scratch arrays every chunk reuses), so a cache level
replays its decisions wherever a set's contents recur
(:mod:`repro.machine.cache`, "Recurring items").  The call returns each
stream's misses (:class:`~repro.machine.cache.Charges`).  Then each
distinct kernel is accounted once, over all of its rows: a row is one
(chunk, program position) pair, in run order, and the kernel takes its
columns of the charges as ``[rows, streams]`` arrays.  A block's base
charges do not depend on the chunk and are laid out once per kernel;
a vector block's are computed once per distinct strip length.  Each
float counter of the kernel's phase is one ``np.add.accumulate`` over
every row's terms, in the order a per-chunk walk adds them: a scalar
block adds its base cycles plus its streams' penalties, folded first on
their own; a vector block its base cycles, then each penalty times its
exposure; and each block its instruction, ``vl_sum`` and flop constants.
Accumulate adds strictly left to right, so every partial sum is the
walk's; misses and element counts are integers, summed in any order.
A phase's counters come from its one kernel, so folding per kernel
rather than chunk by chunk changes no term's order.  The blocks' clock
deltas, read off the prefix sums, are folded into the clock in run
order, and a tracer's events are replayed in that order.  The cache
sees the same lines in the same order as a walk that built every
chunk's instance and accessed the cache kernel by kernel, so the
counters, clock and trace are identical to that walk's.
:meth:`Machine.execute_program` is the one entry: one kernel over one
chunk is a program of one kernel with no chunk bases.

Vector length selection follows the RVV vector-length-agnostic model:
the program asks for the remaining trip count and the machine grants at
most its ``vl_max``, so one compiled program runs unmodified on machines
with 256-element vectors (RISC-V VEC, SX-Aurora) and 8-element vectors
(AVX-512), as the paper's portability study requires.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.compiler.ir import Ref
from repro.compiler.program import (
    CHUNK_BASE,
    CompiledKernel,
    KernelInstance,
    ScalarBlock,
    VectorBlock,
    byte_addresses,
    loop_grid,
)
from repro.isa.instructions import ScalarOp
from repro.machine.cache import (
    Charges,
    Lines,
    MemoryHierarchy,
    Rows,
    addresses_to_lines,
    dedup_rows,
    join_lines,
)
from repro.machine.params import MachineParams
from repro.machine.vpu import VPUModel
from repro.metrics.counters import RunCounters

#: chunk-dependent element accesses of one kernel built at once: the
#: kernel's chunk group spans as many chunks as fit, and what the group
#: built is held until its last chunk has run.  A quick-mesh vec1 run at
#: VECTOR_SIZE 16 (60 chunks; on a 2.1 GHz Xeon) took 0.73 s with
#: one-chunk groups and 0.46 s at 1 << 15, for 0.2 MB more peak resident
#: memory (42.0 MB); 1 << 17 was no faster and held 0.9 MB more.  A
#: constant, not an option, for that reason.
GROUP_ACCESSES = 1 << 15

#: iterations of a repeat loop a stream keeps: the hierarchy depth plus
#: one.  A cache level fed a repeating period decides identically from
#: the period's second copy on, and ends every copy in the state it
#: ended the first in (LRU's stack property: a set holds the last
#: ``assoc`` distinct lines it was sent).  L1's input repeats from the
#: first iteration, but L2's input, L1's misses, only from the second:
#: L1 misses differently in the first copy than in the rest.  So the
#: third iteration decides as every later one does, at both levels, and
#: stands for all of them.  Two kept iterations go wrong whenever a line
#: still hot in L1 has left L2.
KEPT_ITERATIONS = 3


def strip_lengths(total_trip: int, vl_max: int) -> list[int]:
    """Vector lengths granted strip by strip (VLA semantics)."""
    full, rem = divmod(total_trip, vl_max)
    return [vl_max] * full + ([rem] if rem else [])


#: the counters each run of a block adds a constant to, in this order.
CONSTANT_FIELDS = ("instr_scalar", "instr_scalar_mem", "flops",
                   "instr_vector_arith", "instr_vector_mem",
                   "instr_vector_ctrl", "instr_vconfig", "vl_sum")


class _BlockCost(NamedTuple):
    """What a block charges in every chunk (all its repeats), before its
    streams' stall penalties."""

    #: a scalar block's base cycles, to which it adds its streams'
    #: penalties before it charges them; a vector block's cycles_total.
    cycles: float
    cycles_vector: float
    #: one value per :data:`CONSTANT_FIELDS` counter.
    constants: tuple[float, ...]
    #: a vector block charges each stream's penalty times its exposure,
    #: to both cycle counters; ``None`` for a scalar block.
    exposure: Optional[float]
    accesses: int
    vl_hist: tuple[tuple[int, int], ...] = ()
    #: the block's ``(opcode, vl, count)`` batches for the tracer, built
    #: only when one is active: on 8-lane vectors there is one per strip
    #: and instruction.
    records: Optional[list] = None


class _Account(NamedTuple):
    """How one compiled kernel charges each of its rows, laid out for
    :meth:`Machine.execute_kernel`'s folds.

    A row adds a sequence of *terms* to its phase's cycles_total and
    cycles_vector, in the order the per-chunk walk adds them: a scalar
    block one, its base cycles plus its streams' penalties; a vector
    block its base cycles, then one per stream, the stream's penalty
    times the block's exposure."""

    #: ``[terms, 2]``: each term's cycles_total and cycles_vector; a
    #: scalar block's is its base cycles, a penalty's 0.
    terms: np.ndarray
    #: the terms of the scalar blocks with streams, deepest first; for
    #: each ``j``, the ``j``-th streams of the ``scalar_steps[j]``
    #: blocks that have more than ``j``.
    scalar_terms: np.ndarray
    scalar_streams: np.ndarray
    scalar_steps: tuple[int, ...]
    #: the vector blocks' penalty terms, their streams, their exposures.
    vector_terms: np.ndarray
    vector_streams: np.ndarray
    exposure: np.ndarray
    #: each block's first and last term.
    first: np.ndarray
    last: np.ndarray
    #: the :data:`CONSTANT_FIELDS` some block adds to (adding 0.0 to
    #: the others would change nothing), and each block's constant for
    #: each, ``[fields, blocks]``.
    constant_fields: tuple[str, ...]
    constants: np.ndarray
    #: one row's vector lengths and their dynamic instruction counts.
    vl_hist: tuple[tuple[int, int], ...]
    #: each block's ``(phase, label, kind, records)`` for the tracer.
    trace: tuple[tuple, ...]


class _Stream(NamedTuple):
    """One access descriptor of a compiled kernel, over its block's loop
    grid."""

    ref: Ref
    loop_vars: tuple[str, ...]
    extents: tuple[int, ...]
    #: element accesses per chunk: the grid size, cut by the access weight.
    elements: int
    #: reads a gather table (an ``Indirect`` index).
    gathers: bool
    #: differs from chunk to chunk: reads the chunk base or a gather table.
    varies: bool


def _kernel_streams(compiled: CompiledKernel) -> list[_Stream]:
    """Every access stream of *compiled*, in execution order."""
    out = []
    for block in compiled.blocks:
        if isinstance(block, VectorBlock):
            loop_vars = block.loop_vars + (block.vec_var,)
            extents = block.loop_extents + (block.total_trip,)
            descs = [i.access for i in block.instrs if i.access is not None]
        else:
            loop_vars, extents = block.loop_vars, block.loop_extents
            descs = block.accesses
        size = math.prod(extents)
        for desc in descs:
            ref = desc.ref
            elements = (int(round(size * desc.weight)) if desc.weight < 1.0
                        else size)
            gathers = ref.has_indirect()
            out.append(_Stream(ref, loop_vars, extents, elements, gathers,
                               gathers or CHUNK_BASE in ref.vars()))
    return out


class _Fold(NamedTuple):
    """The part of a stream's grid its lines are built from."""

    shape: tuple[int, ...]
    #: elements of the kept grid the stream reads.
    count: int
    #: the weight of each innermost row of the kept grid, outermost
    #: first; ``None`` when nothing is folded.
    weights: Optional[np.ndarray]


def _fold(stream: _Stream) -> _Fold:
    """*stream*'s grid with each repeat loop cut to its first
    :data:`KEPT_ITERATIONS` iterations.  A row's weight is the product,
    over the repeat loops whose last kept iteration it lies in, of the
    iterations each has left."""
    shape = stream.extents or (1,)
    count = math.prod(shape)
    if len(shape) < 2 or stream.elements < count:
        return _Fold(shape, stream.elements, None)
    read = stream.ref.vars()
    repeat = [j for j, (var, extent) in enumerate(zip(stream.loop_vars,
                                                      shape[:-1]))
              if extent > KEPT_ITERATIONS and var not in read]
    if not repeat:
        return _Fold(shape, count, None)
    outer = list(shape[:-1])
    for j in repeat:
        outer[j] = KEPT_ITERATIONS
    weights = np.ones(outer, dtype=np.int64)
    for j in repeat:
        weights[(slice(None),) * j + (KEPT_ITERATIONS - 1,)] *= (
            shape[j] - KEPT_ITERATIONS + 1)
    outer.append(shape[-1])
    return _Fold(tuple(outer), math.prod(outer), weights.reshape(-1))


def _coefficients(ref: Ref, loop_vars: tuple[str, ...],
                  instance: KernelInstance, chunked: bool
                  ) -> tuple[int, list[int], int]:
    """A gather-free *ref*'s byte address as ``a0 + sum(k_v * v) +
    k_cb * chunk_base``: ``(a0, [k_v for v in loop_vars], k_cb)``.

    Index constants are bound as :func:`~repro.compiler.program.
    byte_addresses` binds them and folded into ``a0``; so is the chunk
    base, unless *chunked* (a run over many chunk bases)."""
    coef = dict.fromkeys(loop_vars, 0)
    a0 = instance.binding(ref.array.name).base_addr
    k_cb = 0
    consts = instance.index_consts
    for stride, index in zip(ref.array.strides_elems, ref.idx):
        scale = ref.array.itemsize * stride
        a0 += scale * index.const
        for var, c in index.terms:
            if var in coef:
                coef[var] += scale * c
            elif chunked and var == CHUNK_BASE:
                k_cb += scale * c
            elif var in consts:
                a0 += scale * c * consts[var]
            else:
                raise KeyError(f"loop variable {var!r} not bound in "
                               "environment")
    return a0, list(coef.values()), k_cb


class _Segments(NamedTuple):
    """A kernel's gather-free streams cut into segments, in stream order.

    A segment is one innermost row of a stream's kept grid when the
    stream strides at most one line along its innermost loop, and one
    element otherwise.  Either way its consecutive-distinct lines are
    the range from its first element's line to its last's."""

    #: each segment's first element's byte address, less the chunk
    #: base's term.
    start: np.ndarray
    #: bytes from a segment's first element to its last.
    span: np.ndarray
    #: the chunk base's coefficient: 0 for a segment that is the same in
    #: every chunk.
    chunk: np.ndarray
    #: 1, or -1 for a segment whose lines descend; ``None`` when every
    #: segment's ascend.
    step: Optional[np.ndarray]
    #: the weight of each segment's lines; ``None`` when no stream is
    #: folded.
    weight: Optional[np.ndarray]
    #: continues the stream of the segment before it, so its first line
    #: may be the seam: the line that segment ended on.
    joins: np.ndarray
    #: for each stream of the kernel, gathers too (they have none): the
    #: segments of the streams up to and including it.
    stop: np.ndarray

    def take(self, index: np.ndarray) -> "_Segments":
        """The segments at *index*, in order, without their streams'
        stops."""
        return _Segments(*(None if a is None else a[index]
                           for a in self[:-1]), None)


def _segments(streams: Sequence[_Stream], instance: KernelInstance,
              line_bytes: int, chunked: bool) -> _Segments:
    """The segments of every gather-free stream of *streams* over its
    kept grid (:func:`_fold`), the address of each segment's first
    element from the stream's coefficients (:func:`_coefficients`).
    The streams are set up one by one; their segments are laid out in
    one pass."""
    heads, grids, folded, stop = [], [], [], []
    for stream in streams:
        if not stream.gathers:
            fold = _fold(stream)
            a0, coef, k_cb = _coefficients(stream.ref, stream.loop_vars,
                                           instance, chunked)
            axes = list(zip(fold.shape, coef))[::-1]  # innermost first
            weights = fold.weights
            stride = coef[-1] if coef else 0
            if abs(stride) <= line_bytes:  # a segment per innermost row
                length, axes = fold.shape[-1], axes[1:]
            else:  # a segment per element
                length, stride = 1, 0
                if weights is not None:
                    weights = np.repeat(weights, fold.shape[-1])
            count = -(-fold.count // length)
            if weights is not None:
                folded.append((len(heads), weights))
            # the stream's last segment may be cut short by its access
            # weight.
            heads.append((a0, count, k_cb, stride < 0, stride * (length - 1),
                          stride * (fold.count - (count - 1) * length - 1)))
            grids.append(axes)
        stop.append(len(heads))
    a0, n, k_cb, descends, span, last = np.array(
        heads, dtype=np.int64).reshape(-1, 6).T
    cum = np.zeros(n.size + 1, dtype=np.int64)
    np.cumsum(n, out=cum[1:])
    has = n > 0
    # each segment's position in its stream's kept grid, innermost axis
    # first, and the address each axis adds.
    local = np.arange(cum[-1], dtype=np.int64) - np.repeat(cum[:-1], n)
    start = np.repeat(a0, n)
    depth = max(map(len, grids), default=0)
    axes = np.repeat(np.array([g + [(1, 0)] * (depth - len(g))
                               for g in grids], dtype=np.int64).reshape(
                                   len(grids), depth, 2), n, axis=0)
    for axis in range(depth):
        start += axes[:, axis, 1] * (local % axes[:, axis, 0])
        local //= axes[:, axis, 0]
    span = np.repeat(span, n)
    span[cum[1:][has] - 1] = last[has]
    weight = None
    if folded:
        weight = np.ones(start.size, dtype=np.int64)
        for i, w in folded:
            weight[cum[i]:cum[i + 1]] = w
    joins = np.ones(start.size, dtype=bool)
    joins[cum[:-1][has]] = False
    step = 1 - 2 * np.repeat(descends, n) if descends.any() else None
    return _Segments(start, span, np.repeat(k_cb, n), step, weight, joins,
                     cum[stop])


def _runs(seg: _Segments, bases: Optional[np.ndarray], shift: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's run of lines, a row per chunk base in *bases* (one
    row, on the start addresses alone, for ``None``): its first line and
    its length.  A segment whose first line is the one the segment
    before it in its stream ended on drops it, as consecutive-distinct
    lines do."""
    start = (seg.start if bases is None
             else seg.start + seg.chunk * bases[:, None])
    first = start >> shift
    last = (start + seg.span) >> shift
    size = np.abs(last - first) + 1
    seam = seg.joins[1:] & (first[..., 1:] == last[..., :-1])
    first[..., 1:] += seam if seg.step is None else seg.step[1:] * seam
    size[..., 1:] -= seam
    return first, size


def _expand(first: np.ndarray, size: np.ndarray, begin: np.ndarray,
            step: Optional[np.ndarray]) -> np.ndarray:
    """Every line of each run in turn: *size* lines from *first*, *step*
    apart, the run's first at *begin*.  Line ``t`` of a run is
    ``first + step * (t - begin)``."""
    total = int(begin[-1] + size[-1]) if size.size else 0
    if step is None:
        lines = np.repeat(first - begin, size)
        lines += np.arange(total)
    else:
        lines = np.repeat(first - step * begin, size)
        lines += np.repeat(step, size) * np.arange(total)
    return lines


@dataclass
class _KernelStreams:
    """One kernel's streams in a run, and the chunk group it is in."""

    streams: list[_Stream]
    #: each stream's element accesses per chunk.
    elements: np.ndarray
    #: chunks one group spans.
    group: int
    #: runs of the kernel per chunk (a program may repeat a kernel).
    repeats: int
    #: some stream differs from chunk to chunk (:attr:`_Stream.varies`).
    varies: bool
    #: with the cache on, each gather-free segment's run of lines: its
    #: first line and length (a moving segment's are set per chunk); the
    #: segments' steps and weights, and each stream's stop, as in
    #: :class:`_Segments`.
    first: Optional[np.ndarray] = None
    size: Optional[np.ndarray] = None
    step: Optional[np.ndarray] = None
    weight: Optional[np.ndarray] = None
    stop: Optional[np.ndarray] = None
    #: the segments that move with the chunk base (their streams read
    #: it): their indices, and those segments.
    moving: Optional[np.ndarray] = None
    moves: Optional[_Segments] = None
    start: int = 0
    #: runs of the kernel left in the group.
    uses: int = 0
    #: the group's moving segments' runs (first lines, lengths), a row
    #: per chunk.
    runs: Optional[tuple[np.ndarray, np.ndarray]] = None
    #: the group's gathers' lines by stream index, a row per chunk.
    rows: dict[int, Rows] = field(default_factory=dict)


class RunStreams:
    """The access streams of one run: a program of compiled kernels over
    a sequence of chunks that differ only in their chunk base.

    :meth:`run` yields every stream of the run, chunk by chunk and each
    chunk's kernels in program order, one
    :class:`~repro.machine.cache.Lines` per chunk and kernel for
    :meth:`~repro.machine.cache.MemoryHierarchy.access`.  All the work is
    lazy: a kernel's streams are set up on its first run, and lines are
    built as the hierarchy consumes them.
    """

    def __init__(self, kernels: Sequence[CompiledKernel],
                 instance: KernelInstance,
                 chunk_bases: "Optional[Sequence[int] | np.ndarray]",
                 memory: MemoryHierarchy):
        self.kernels = kernels
        self.instance = instance
        #: ``None``: one chunk, the instance's own.
        self.bases = (None if chunk_bases is None
                      else np.asarray(chunk_bases, dtype=np.int64))
        self.nchunks = 1 if self.bases is None else self.bases.size
        self.enabled = memory.enabled
        self.line_bytes = memory.params.l1.line_bytes
        self._shift = self.line_bytes.bit_length() - 1
        self._repeats = Counter(id(k) for k in kernels)
        self._kernels: dict[int, _KernelStreams] = {}

    def width(self, compiled: CompiledKernel) -> int:
        """Access streams of *compiled* in one chunk."""
        return len(self._classify(compiled).streams)

    def _classify(self, compiled: CompiledKernel) -> _KernelStreams:
        """*compiled*'s streams and chunk group, set up on first use;
        with the cache on, its segments and their runs of lines."""
        key = id(compiled)
        k = self._kernels.get(key)
        if k is None:
            streams = _kernel_streams(compiled)
            varying = sum(s.elements for s in streams if s.varies)
            group = max(1, min(self.nchunks,
                               GROUP_ACCESSES // max(varying, 1)))
            k = self._kernels[key] = _KernelStreams(
                streams, np.array([s.elements for s in streams],
                                  dtype=np.int64),
                group, self._repeats[key], any(s.varies for s in streams))
            if self.enabled:
                seg = _segments(streams, self.instance, self.line_bytes,
                                self.bases is not None)
                k.first, k.size = _runs(seg, None, self._shift)
                k.step, k.weight, k.stop = seg.step, seg.weight, seg.stop
                k.moving = np.flatnonzero(seg.chunk)
                k.moves = seg.take(k.moving)
        return k

    def run(self) -> Iterator[Lines]:
        """Every stream of the run, in run order: chunk by chunk, each
        chunk's kernels in program order, each kernel's streams in block
        order; one item per chunk and kernel.  In a run of many chunks
        with the cache on, the item of a kernel none of whose streams
        varies is the same in every chunk: it is keyed by its program
        position, so the hierarchy may replay its decisions."""
        recur = self.enabled and self.nchunks > 1
        for chunk in range(self.nchunks):
            for at, compiled in enumerate(self.kernels):
                k = self._classify(compiled)
                if not k.uses:  # a group starts at this chunk
                    k.start = chunk
                    k.uses = (min(chunk + k.group, self.nchunks)
                              - chunk) * k.repeats
                    if k.varies:
                        self._group(k, None if self.bases is None
                                    else self.bases[chunk:chunk + k.group])
                if not self.enabled:
                    yield Lines(None, k.elements)
                elif recur and not k.varies:
                    yield self._lines(k, chunk - k.start)._replace(key=at)
                else:
                    yield self._lines(k, chunk - k.start)
                k.uses -= 1
                if not k.uses:  # drop the group's lines now, not later
                    k.runs, k.rows = None, {}

    def _addresses(self, stream: _Stream, bases: Optional[np.ndarray],
                   fold: _Fold) -> np.ndarray:
        """Every element address of the stream's kept grid (*fold*), a
        row per chunk base in *bases* (one row, on the instance's own
        constants, for ``None``)."""
        rows = 1 if bases is None else bases.size
        env = loop_grid(stream.loop_vars, fold.shape)
        if bases is not None:
            env[CHUNK_BASE] = bases.reshape((rows,) + (1,) * len(fold.shape))
        addrs = byte_addresses(stream.ref, env, self.instance)
        return np.broadcast_to(addrs, (rows,) + fold.shape).reshape(
            rows, -1)[:, :fold.count]

    def _group(self, k: _KernelStreams, bases: Optional[np.ndarray]) -> None:
        """What *k*'s chunk-dependent streams need in the chunks of its
        group (*bases*), a row per chunk: the runs of its moving
        segments, and each gather's lines from its element addresses,
        weighted where it is folded.  With the cache off only the
        gathers are evaluated, for their index checks.  A gather equal
        to an earlier one (phase 8's read-modify-write pairs) is
        evaluated once: it takes the earlier one's lines."""
        first: dict[_Stream, int] = {}
        for i, stream in enumerate(k.streams):
            if not stream.gathers:
                continue
            j = first.setdefault(stream, i)
            if j != i:
                if self.enabled:
                    k.rows[i] = k.rows[j]
                continue
            fold = _fold(stream)
            addrs = self._addresses(stream, bases, fold)
            if self.enabled:
                k.rows[i] = dedup_rows(
                    addresses_to_lines(addrs, self.line_bytes),
                    None if fold.weights is None
                    else np.repeat(fold.weights, fold.shape[-1]))
        if self.enabled and k.moving.size:
            k.runs = _runs(k.moves, bases, self._shift)

    def _lines(self, k: _KernelStreams, row: int) -> Lines:
        """*k*'s streams in chunk *row* of its group, back to back: every
        segment's run of lines, and each gather's lines in its place."""
        first, size = k.first, k.size
        if k.moving.size:
            first, size = first.copy(), size.copy()
            first[k.moving] = k.runs[0][row]
            size[k.moving] = k.runs[1][row]
        ends = np.zeros(size.size + 1, dtype=np.int64)
        np.cumsum(size, out=ends[1:])
        lines = _expand(first, size, ends[:-1], k.step)
        weights = None if k.weight is None else np.repeat(k.weight, size)
        ends = ends[k.stop]
        if not k.rows:
            return Lines(lines, k.elements, weights, ends)
        # a gather's lines go where its stream's (empty) segments are.
        parts, at = [], 0
        grown = np.zeros(ends.size, dtype=np.int64)
        for i, rows in k.rows.items():
            cut = slice(rows.offsets[row], rows.offsets[row + 1])
            parts += [(lines[at:ends[i]],
                       None if weights is None else weights[at:ends[i]]),
                      (rows.lines[cut],
                       None if rows.weights is None else rows.weights[cut])]
            at = ends[i]
            grown[i] = cut.stop - cut.start
        parts.append((lines[at:], None if weights is None else weights[at:]))
        lines, weights = join_lines(parts)
        return Lines(lines, k.elements, weights, ends + np.cumsum(grown))


class Machine:
    """One simulated core (scalar pipeline + optional VPU + caches).

    The ambient :func:`repro.obs.active` tracer at construction (if any:
    a :class:`repro.obs.tracer.Tracer`) receives timed events for every
    executed block -- the simulation-side equivalent of running under
    Extrae + Vehave -- so a ``with obs.use(tracer):`` scope observes
    every machine built inside it, including machines built deep inside
    executor workers.  Phase kernels are additionally stamped as
    SIM-domain spans on the cycle clock
    (:meth:`~repro.obs.tracer.Tracer.span_at`), the timeline the
    Chrome/Paraver exporters render.
    """

    def __init__(self, params: MachineParams, cache_enabled: bool = True):
        from repro.obs.tracer import active as _obs_active

        self.params = params
        self.vpu: Optional[VPUModel] = VPUModel(params.vpu) if params.vpu else None
        self.mem = MemoryHierarchy(params.memory, enabled=cache_enabled)
        self.tracer = _obs_active()
        #: ``id(kernel)`` -> ``(kernel, its account)``.
        self._accounts: dict[int, tuple[CompiledKernel, _Account]] = {}
        #: running cycle clock (advances as blocks execute).
        self.clock = 0.0
        self._cpi = {
            ScalarOp.ALU: params.scalar.cpi_alu,
            ScalarOp.MUL: params.scalar.cpi_mul,
            ScalarOp.FP: params.scalar.cpi_fp,
            ScalarOp.FDIV: params.scalar.cpi_fdiv,
            ScalarOp.LOAD: params.scalar.cpi_load,
            ScalarOp.STORE: params.scalar.cpi_store,
            ScalarOp.BRANCH: params.scalar.cpi_branch,
        }

    # ------------------------------------------------------------------

    def _scalar_cost(self, block: ScalarBlock) -> _BlockCost:
        trips = block.trips
        cycles_per_iter = 0.0
        instr_per_iter = 0.0
        mem_instr_per_iter = 0.0
        for op, n in block.counts:
            cycles_per_iter += n * self._cpi[op]
            instr_per_iter += n
            if op in (ScalarOp.LOAD, ScalarOp.STORE):
                mem_instr_per_iter += n
        constants = (trips * instr_per_iter, trips * mem_instr_per_iter,
                     trips * block.flops_per_iter, 0.0, 0.0, 0.0, 0.0, 0.0)
        return _BlockCost(trips * cycles_per_iter, 0.0, constants, None,
                          len(block.accesses))

    def _vector_cost(self, block: VectorBlock) -> _BlockCost:
        """The block's charges: each instruction's cycles once per
        distinct strip length, the full strips' and the remainder's, and
        the strip-by-instruction sequence folded in strip order."""
        if self.vpu is None:
            raise RuntimeError(
                f"machine {self.params.name!r} has no VPU but the program "
                f"contains vector block {block.label!r}"
            )
        vpu = self.vpu
        repeats = block.repeats
        vl_max = self.params.vpu.vl_max
        full, rem = divmod(block.total_trip, vl_max)
        # each distinct strip length and its strips, in strip order.
        lengths = [(vl, n) for vl, n in ((vl_max, full), (rem, 1)) if vl and n]
        specs = [desc.spec for desc in block.instrs]
        arith = [spec for spec in specs if spec.is_arith]
        cycles, flops = [], []
        for vl, n in lengths:
            cycles += [vpu.instr_cycles(spec, vl) for spec in specs] * n
            flops += [spec.flops_per_elem * vl for spec in arith] * n
        # left folds from 0.0, strip by strip and instruction by
        # instruction, as the strips run.
        cycles_vec = reduce(add, cycles, 0.0)
        flops_vec = reduce(add, flops, 0.0)
        n_arith = len(arith)
        n_mem = sum(1 for spec in specs if not spec.is_arith and spec.is_memory)
        n_ctrl = len(specs) - n_arith - n_mem
        n_strips = full + (1 if rem else 0)
        config_cycles = n_strips * (
            vpu.config_cycles() + self.params.vpu.strip_stall_cycles)

        scalar_cycles = 0.0
        scalar_instr = 0.0
        scalar_mem_instr = 0.0
        for op, n in block.scalar_counts_per_strip:
            scalar_cycles += n * self._cpi[op] * n_strips
            scalar_instr += n * n_strips
            if op in (ScalarOp.LOAD, ScalarOp.STORE):
                scalar_mem_instr += n * n_strips

        records = None
        if self.tracer is not None:
            vls = strip_lengths(block.total_trip, vl_max)
            records = [("vsetvl", vl, repeats) for vl in vls]
            records += [(spec.opcode, vl, repeats)
                        for vl in vls for spec in specs]
        # Stalls of the full (repeats x trip) address streams are exposed
        # by the average granted vector length.
        vl_avg = block.total_trip / n_strips
        constants = (
            repeats * scalar_instr, repeats * scalar_mem_instr,
            repeats * flops_vec, repeats * (n_arith * n_strips),
            repeats * (n_mem * n_strips), repeats * (n_ctrl * n_strips),
            repeats * n_strips,
            # every strip adds its vl per instruction: integers, exact.
            repeats * float(len(specs) * block.total_trip))
        return _BlockCost(
            cycles=repeats * (cycles_vec + config_cycles + scalar_cycles),
            cycles_vector=repeats * cycles_vec,
            constants=constants,
            exposure=self.params.vpu.miss_exposure(vl_avg),
            accesses=sum(1 for d in block.instrs if d.access is not None),
            vl_hist=tuple((vl, repeats * len(specs) * n)
                          for vl, n in lengths if specs),
            records=records)

    def _account(self, compiled: CompiledKernel) -> _Account:
        """*compiled*'s account, laid out once per kernel (the kernel is
        kept with it, so a reused ``id`` cannot alias)."""
        entry = self._accounts.get(id(compiled))
        if entry is None or entry[0] is not compiled:
            entry = self._accounts[id(compiled)] = (
                compiled, self._lay_out(compiled))
        return entry[1]

    def _lay_out(self, compiled: CompiledKernel) -> _Account:
        """*compiled*'s block costs, laid out as its folds read them."""
        terms, constants, first, last, trace = [], [], [], [], []
        vector_terms, vector_streams, exposure = [], [], []
        scalar: list[tuple[int, int, list[int]]] = []
        hist: dict[int, int] = {}
        streams = term = 0  # laid out so far
        for block in compiled.blocks:
            vector = isinstance(block, VectorBlock)
            cost = (self._vector_cost(block) if vector
                    else self._scalar_cost(block))
            own = list(range(streams, streams + cost.accesses))
            streams += cost.accesses
            first.append(term)
            terms += (cost.cycles, cost.cycles_vector)
            term += 1
            if vector:
                vector_terms += range(term, term + len(own))
                terms += [0.0, 0.0] * len(own)
                term += len(own)
                vector_streams += own
                exposure += [cost.exposure] * len(own)
                for vl, n in cost.vl_hist:
                    hist[vl] = hist.get(vl, 0) + n
            elif own:
                scalar.append((-len(own), term - 1, own))
            last.append(term - 1)
            constants.append(cost.constants)
            trace.append((block.phase, block.label,
                          "vector" if vector else "scalar", cost.records))
        # deepest first, so the blocks with more than j streams are a
        # prefix of them: step j adds their j-th streams.
        scalar.sort()
        steps = [0] * (-scalar[0][0] if scalar else 0)
        for _, _, own in scalar:
            for j in range(len(own)):
                steps[j] += 1
        used = [(name, column) for name, column in
                zip(CONSTANT_FIELDS, zip(*constants)) if any(column)]
        return _Account(
            terms=np.array(terms, dtype=np.float64).reshape(-1, 2),
            scalar_terms=np.array([at for _, at, _ in scalar], dtype=np.int64),
            scalar_streams=np.array(
                [own[j] for j, m in enumerate(steps) for _, _, own in
                 scalar[:m]], dtype=np.int64),
            scalar_steps=tuple(steps),
            vector_terms=np.array(vector_terms, dtype=np.int64),
            vector_streams=np.array(vector_streams, dtype=np.int64),
            exposure=np.array(exposure, dtype=np.float64),
            first=np.array(first, dtype=np.int64),
            last=np.array(last, dtype=np.int64),
            constant_fields=tuple(name for name, _ in used),
            constants=np.array([column for _, column in used],
                               dtype=np.float64).reshape(len(used), len(last)),
            vl_hist=tuple(hist.items()),
            trace=tuple(trace))

    # ------------------------------------------------------------------

    def execute_kernel(self, compiled: CompiledKernel, run: RunCounters,
                       charges: Charges) -> np.ndarray:
        """Account one compiled kernel over all of its rows at once.

        A row is one (chunk, program position) pair: one run of the
        kernel in one chunk.  *charges* holds the kernel's streams'
        :class:`~repro.machine.cache.Charges`, a row each, in run order:
        ``[rows, streams]`` arrays.  Each float counter of the kernel's
        phase is folded with ``np.add.accumulate`` over the terms the
        per-chunk walk adds, in its order; misses and element counts are
        summed as integers.  Returns each row's block deltas (``[rows,
        blocks]``), the cycles each block added, for
        :meth:`execute_program` to fold into the clock.  To run a kernel
        on its own, pass :meth:`execute_program` a program of one.
        """
        account = self._account(compiled)
        counters = run.phase(compiled.phase)
        penalty = charges.penalty
        rows = penalty.shape[0]

        # every row's terms in run order, after the counters' values.
        cycles = np.empty((rows * len(account.terms) + 1, 2))
        cycles[0] = counters.cycles_total, counters.cycles_vector
        body = cycles[1:].reshape(rows, len(account.terms), 2)
        body[:] = account.terms
        # a scalar block's term: its base cycles, then each of its
        # streams' penalties in turn, the blocks' j-th streams at once.
        scalar = account.terms[account.scalar_terms, 0][:, None].repeat(
            rows, axis=1)
        penalties = penalty.T[account.scalar_streams]
        at = 0
        for blocks in account.scalar_steps:
            scalar[:blocks] += penalties[at:at + blocks]
            at += blocks
        body[:, account.scalar_terms, 0] = scalar.T
        body[:, account.vector_terms] = (penalty[:, account.vector_streams]
                                         * account.exposure)[..., None]
        np.add.accumulate(cycles, axis=0, out=cycles)
        total = cycles[:, 0]
        deltas = (total[1:].reshape(rows, -1)[:, account.last]
                  - total[:-1].reshape(rows, -1)[:, account.first])
        counters.cycles_total, counters.cycles_vector = cycles[-1].tolist()

        fields = account.constant_fields
        constants = np.empty((len(fields), rows * len(account.first) + 1))
        constants[:, 0] = [getattr(counters, name) for name in fields]
        constants[:, 1:].reshape(len(fields), rows, len(account.first))[:] = (
            account.constants[:, None])
        np.add.accumulate(constants, axis=1, out=constants)
        for name, value in zip(fields, constants[:, -1].tolist()):
            setattr(counters, name, value)

        counters.l1_misses += int(charges.l1_misses.sum())
        counters.l2_misses += int(charges.l2_misses.sum())
        counters.mem_element_accesses += int(charges.elements.sum())
        for vl, n in account.vl_hist:
            counters.vl_hist[vl] += n * rows
        return deltas

    def execute_program(self, kernels: Sequence[CompiledKernel],
                        instance: KernelInstance, run: RunCounters,
                        chunk_bases: "Optional[Sequence[int] | np.ndarray]"
                        = None) -> None:
        """Execute *kernels* over every chunk of a run: for each value of
        *chunk_bases* in turn, every kernel in order, on *instance* with
        its chunk base set to that value.  ``None`` runs the kernels once
        on *instance* as bound.

        Every stream of the run goes through the memory hierarchy in one
        call; then each distinct kernel is accounted over all of its rows
        (:meth:`execute_kernel`), the blocks' deltas are folded into the
        clock in run order, and a tracer's events are replayed in that
        order.  Each kernel must have a phase of its own: a phase's
        counters are folded per kernel."""
        positions: dict[int, list[int]] = {}
        for at, compiled in enumerate(kernels):
            positions.setdefault(id(compiled), []).append(at)
        phases = [kernels[at[0]].phase for at in positions.values()]
        if len(set(phases)) < len(phases):
            raise ValueError("two kernels of the program share a phase, "
                             "whose counters are folded per kernel")
        plan = RunStreams(kernels, instance, chunk_bases, self.mem)
        charges = self.mem.access(plan.run())
        chunks = plan.nchunks
        if not chunks:
            return
        # each position's first stream and first block in a chunk's run.
        streams = np.cumsum([0] + [plan.width(k) for k in kernels])
        blocks = np.cumsum([0] + [len(k.blocks) for k in kernels])
        grid = [a.reshape(chunks, -1) for a in (
            charges.penalty, charges.l1_misses, charges.l2_misses,
            charges.elements)]
        deltas = np.empty((chunks, blocks[-1]))
        for at in positions.values():
            compiled = kernels[at[0]]
            width = plan.width(compiled)
            mine = Charges(*(a[:, _columns(streams, at, width)].reshape(
                chunks * len(at), width) for a in grid))
            deltas[:, _columns(blocks, at, len(compiled.blocks))] = (
                self.execute_kernel(compiled, run, mine).reshape(chunks, -1))
        clock = np.empty(deltas.size + 1)
        clock[0] = self.clock
        clock[1:] = deltas.reshape(-1)
        np.add.accumulate(clock, out=clock)
        self.clock = float(clock[-1])
        if self.tracer is not None:
            self._replay(kernels, chunks, clock.tolist(),
                         deltas.reshape(-1).tolist())

    def _replay(self, kernels: Sequence[CompiledKernel], chunks: int,
                clock: list[float], deltas: list[float]) -> None:
        """The tracer's events of a run, in run order: ``clock[i]`` is
        the clock before the run's ``i``-th block, ``deltas[i]`` the
        cycles it added."""
        tracer = self.tracer
        i = 0
        for _ in range(chunks):
            for compiled in kernels:
                t0 = clock[i]
                for phase, label, kind, records in self._account(
                        compiled).trace:
                    if records is not None:
                        tracer.on_vector_instrs(phase, clock[i], records)
                    tracer.on_block(phase, label, kind, clock[i], deltas[i])
                    i += 1
                tracer.span_at(compiled.name, cat="phase", t0=t0,
                               t1=clock[i], phase=compiled.phase)


def _columns(offsets: np.ndarray, positions: list[int], width: int
             ) -> "slice | np.ndarray":
    """The columns of a chunk's run a kernel at *positions* owns, each
    position's *width* from its offset: a slice when the positions are
    adjacent."""
    if positions[-1] - positions[0] == len(positions) - 1:
        start = int(offsets[positions[0]])
        return slice(start, start + width * len(positions))
    return np.concatenate([np.arange(offsets[p], offsets[p] + width)
                           for p in positions])
