"""Compiled-program representation and address evaluation.

The code generator lowers a (vectorized) kernel into a list of *blocks*:

* :class:`ScalarBlock` -- a scalar loop nest with per-iteration
  instruction counts and the list of memory accesses each iteration
  performs;
* :class:`VectorBlock` -- a vectorized innermost loop (plus its enclosing
  scalar nest), holding the per-strip vector instruction sequence.

Blocks are *symbolic*: they reference IR :class:`~repro.compiler.ir.Ref`
objects rather than concrete addresses.  At execution time the machine
model pairs a program with one :class:`KernelInstance` -- the set of
array bindings (base addresses plus, for integer index arrays, the
actual data) -- and the sequence of chunks it runs over, which differ
only in the :data:`CHUNK_BASE` index constant.  It evaluates
byte-address streams with NumPy, each over its block's whole loop grid
(:func:`loop_grid`, :func:`byte_addresses`) and, for a stream that
depends on the chunk, over many chunks at once with the chunk base as
one more grid axis.  This keeps the simulator fast (the guides this repo
follows: vectorize the inner loops of *your own* code too) while staying
line-accurate for the cache model: the addresses fed to the cache are
the real mesh-dependent addresses.

A note on ordering: within one block, the cache sees each access
descriptor's full stream in turn rather than a per-iteration interleave.
Working-set behaviour (the quantity the paper's Table 6 ties to phase
1/8 performance) is preserved; fine-grained interleaving effects are
below this model's resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.isa.instructions import InstrSpec, ScalarOp
from repro.compiler.ir import Affine, Array, IndexExpr, Indirect, Ref

# ---------------------------------------------------------------------------
# Memory layout / kernel instance
# ---------------------------------------------------------------------------

#: the Affine index-constant name carrying the chunk's first element id.
CHUNK_BASE = "__chunk0__"


class MemoryLayout:
    """Sequential allocator assigning base byte addresses to arrays."""

    def __init__(self, start: int = 0x10_0000, align: int = 64):
        self._next = start
        self._align = align
        self.bases: dict[str, int] = {}

    def place(self, array: Array) -> int:
        if array.name in self.bases:
            return self.bases[array.name]
        base = self._next
        self.bases[array.name] = base
        self._next = -(-(base + array.nbytes) // self._align) * self._align
        return base


@dataclass
class ArrayBinding:
    array: Array
    base_addr: int
    #: actual contents; required for integer index arrays (gather targets)
    #: and by the reference interpreter, optional for timing-only floats.
    data: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.data is not None:
            if tuple(self.data.shape) != self.array.shape:
                raise ValueError(
                    f"{self.array.name}: data shape {self.data.shape} != "
                    f"declared {self.array.shape}"
                )


class KernelInstance:
    """Array bindings + scalar parameters for one kernel invocation."""

    def __init__(self, params: Optional[dict[str, float]] = None,
                 layout: Optional[MemoryLayout] = None,
                 index_consts: Optional[dict[str, int]] = None):
        self.bindings: dict[str, ArrayBinding] = {}
        self.params: dict[str, float] = dict(params or {})
        self.layout = layout or MemoryLayout()
        #: named integer constants usable in Affine index terms (e.g. the
        #: chunk's base element id); lets one compiled kernel serve every
        #: chunk of the mesh.
        self.index_consts: dict[str, int] = dict(index_consts or {})

    def bind(self, array: Array, data: Optional[np.ndarray] = None) -> ArrayBinding:
        base = self.layout.place(array)
        if data is not None:
            data = np.asarray(data)
            if data.dtype != np.dtype("int64" if array.dtype == "i8" else "float64"):
                data = data.astype("int64" if array.dtype == "i8" else "float64")
        binding = ArrayBinding(array, base, data)
        self.bindings[array.name] = binding
        return binding

    def binding(self, name: str) -> ArrayBinding:
        try:
            return self.bindings[name]
        except KeyError:
            raise KeyError(f"array {name!r} is not bound in this instance") from None

    def data(self, name: str) -> np.ndarray:
        b = self.binding(name)
        if b.data is None:
            raise ValueError(f"array {name!r} has no data bound")
        return b.data

    def ensure_data(self, array: Array) -> np.ndarray:
        """Bind zero-initialized data for *array* if none exists yet."""
        b = self.bindings.get(array.name)
        if b is None:
            b = self.bind(array)
        if b.data is None:
            dtype = "int64" if array.dtype == "i8" else "float64"
            b.data = np.zeros(array.shape, dtype=dtype)
        return b.data


# ---------------------------------------------------------------------------
# Address evaluation
# ---------------------------------------------------------------------------


def eval_index(expr: IndexExpr, env: dict[str, np.ndarray],
               instance: KernelInstance) -> np.ndarray:
    """Evaluate one index expression over a grid environment.

    ``env`` maps loop variables to broadcast-compatible integer arrays;
    the result broadcasts over them.
    """
    if isinstance(expr, Affine):
        out: np.ndarray | int = expr.const
        for v, c in expr.terms:
            if v in env:
                out = out + c * env[v]
            elif v in instance.index_consts:
                out = out + c * instance.index_consts[v]
            else:
                raise KeyError(f"loop variable {v!r} not bound in environment")
        return np.asarray(out, dtype=np.int64)
    if isinstance(expr, Indirect):
        idx = tuple(eval_index(e, env, instance) for e in expr.idx)
        data = instance.data(expr.array.name)
        vals = data[tuple(np.broadcast_arrays(*idx))] if len(idx) > 1 else data[idx[0]]
        return np.asarray(expr.scale * vals + expr.offset, dtype=np.int64)
    raise TypeError(f"unknown index expression {expr!r}")


def element_offsets(ref: Ref, env: dict[str, np.ndarray],
                    instance: KernelInstance) -> np.ndarray:
    """Flat element offsets of *ref* over the environment grid
    (column-major linearization)."""
    off: np.ndarray | int = 0
    for stride, e in zip(ref.array.strides_elems, ref.idx):
        off = off + stride * eval_index(e, env, instance)
    return np.asarray(off, dtype=np.int64)


def byte_addresses(ref: Ref, env: dict[str, np.ndarray],
                   instance: KernelInstance) -> np.ndarray:
    """Flat byte addresses of *ref* over the environment grid."""
    base = instance.binding(ref.array.name).base_addr
    return base + ref.array.itemsize * element_offsets(ref, env, instance)


def loop_grid(loop_vars: tuple[str, ...], loop_extents: tuple[int, ...],
              extra: Optional[dict[str, np.ndarray]] = None) -> dict[str, np.ndarray]:
    """Build the meshgrid environment of a loop nest.

    Axes are ordered outermost-first, so flattening results in iteration
    order (innermost fastest).
    """
    env: dict[str, np.ndarray] = {}
    n = len(loop_vars)
    for axis, (v, e) in enumerate(zip(loop_vars, loop_extents)):
        shape = [1] * n
        shape[axis] = e
        env[v] = np.arange(e, dtype=np.int64).reshape(shape)
    if extra:
        env.update(extra)
    return env


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessDesc:
    """One memory access per (innermost) iteration of a block."""

    ref: Ref
    is_store: bool
    #: fraction of iterations that perform this access (If guards).
    weight: float = 1.0


@dataclass(frozen=True)
class ScalarBlock:
    """A scalar loop nest with homogeneous iterations."""

    phase: int
    loop_vars: tuple[str, ...]
    loop_extents: tuple[int, ...]
    #: scalar instruction counts per innermost iteration, by category.
    counts: tuple[tuple[ScalarOp, float], ...]
    flops_per_iter: float
    accesses: tuple[AccessDesc, ...] = ()
    label: str = ""

    @property
    def trips(self) -> int:
        n = 1
        for e in self.loop_extents:
            n *= e
        return n


@dataclass(frozen=True)
class VectorInstrDesc:
    """One vector instruction emitted per strip."""

    spec: InstrSpec
    access: Optional[AccessDesc] = None

    def __post_init__(self) -> None:
        if self.spec.is_memory and self.access is None:
            raise ValueError(f"{self.spec.opcode}: vector memory instr needs an access")


@dataclass(frozen=True)
class VectorBlock:
    """A vectorized innermost loop under an enclosing scalar nest."""

    phase: int
    loop_vars: tuple[str, ...]       # enclosing scalar loops, outermost first
    loop_extents: tuple[int, ...]
    vec_var: str
    total_trip: int                  # logical trip count of the vector loop
    instrs: tuple[VectorInstrDesc, ...]
    #: scalar bookkeeping instructions per strip (loop control, address
    #: generation feeding the vector unit).
    scalar_counts_per_strip: tuple[tuple[ScalarOp, float], ...] = ()
    label: str = ""

    @property
    def repeats(self) -> int:
        n = 1
        for e in self.loop_extents:
            n *= e
        return n


Block = ScalarBlock | VectorBlock


@dataclass
class CompiledKernel:
    """The lowered form of one phase kernel."""

    name: str
    phase: int
    blocks: list[Block] = field(default_factory=list)

    def vector_blocks(self) -> list[VectorBlock]:
        return [b for b in self.blocks if isinstance(b, VectorBlock)]

    def scalar_blocks(self) -> list[ScalarBlock]:
        return [b for b in self.blocks if isinstance(b, ScalarBlock)]


# ---------------------------------------------------------------------------
# The multi-stage compilation driver
# ---------------------------------------------------------------------------


@dataclass
class CompileResult:
    """Everything the pipeline produced for one program: the baseline
    kernels, the transformed kernels, the transform and vectorization
    remarks, and the lowered machine programs."""

    baseline: list          # list[Kernel] before any pass ran
    kernels: list           # list[Kernel] after the pass pipeline
    transform_remarks: list  # list[TransformRemark]
    vec_remarks: list       # list[VecRemark]
    compiled: list[CompiledKernel] = field(default_factory=list)


def compile_kernels(kernels, flags, pipeline=None) -> CompileResult:
    """Run the full compilation: transform -> vectorize -> lower.

    *pipeline* is a :class:`~repro.compiler.transforms.PassPipeline`
    (``None`` means no transformations -- baseline straight to the
    vectorizer).  Inside a build scope (:mod:`repro.scope`) a
    transformed kernel already compiled with equal *flags* is not
    compiled again: vectorizing and lowering are pure functions of the
    kernel IR and the flags.  Imports are deferred: this module sits
    below codegen and the vectorizer in the import graph.
    """
    from repro.compiler.codegen import lower_kernel
    from repro.compiler.transforms import PassPipeline
    from repro.compiler.vectorizer import vectorize_kernel
    from repro.scope import shared

    def compile_one(kern) -> tuple[tuple, CompiledKernel]:
        vec = vectorize_kernel(kern, flags)
        return tuple(vec.remarks), lower_kernel(vec.kernel, flags)

    baseline = list(kernels)
    if pipeline is None:
        pipeline = PassPipeline()
    transformed, transform_remarks = pipeline.run_all(baseline)
    result = CompileResult(baseline=baseline, kernels=transformed,
                           transform_remarks=transform_remarks,
                           vec_remarks=[])
    for kern in transformed:
        remarks, compiled = shared("compiled", (kern, flags),
                                   lambda: compile_one(kern))
        result.vec_remarks.extend(remarks)
        result.compiled.append(compiled)
    return result
