"""The Krylov solver substrate as loop-nest IR kernels (phases 9-12).

The paper times only the eight assembly phases, but section 2.3 names
the algebraic solver as the second structural half of a CFD code.  This
module lowers the solver's vector primitives to the same loop-nest IR
the assembly phases use, so the full assemble+solve cycle runs through
the compiler pass pipeline, the auto-vectorizer, both execution
backends, the machine model, the tracer and the validation stack:

9.  **SpMV** over a padded ELL layout -- the CSR indirect gather
    (``x[ellcol[jnz, row]]``), the kernel class the related work calls
    out as resisting vectorization (Autovesk);  the kernel also folds
    the Jacobi diagonal-reciprocal computation into a guarded head so
    the row loop is *fissionable* (like phase 1) while the gather
    reduction is *not interchange-legal* (the guard and the
    ``yout``-carried reduction block ``LoopInterchange``);
10. **dot** -- a stride-0 reduction whose trip count is, like phase 2's,
    a runtime dummy argument: it vectorizes only after
    ``ConstantTripCount`` (and under ``-ffp-contract=fast``);
11. **axpy** -- the streaming BLAS-1 update ``w = y + alpha x``;
12. **Jacobi apply** -- ``z = r * dinv`` (multiply by the reciprocal
    computed in the SpMV head, exactly like
    :func:`repro.cfd.solver.jacobi_preconditioner`).

The matrix is stored in padded ELL form: rows are chunked by
VECTOR_SIZE (the solver's "elements" are matrix rows), every row is
padded to the mesh's maximal row length with zero values gathering
column 0, and slot order within a row follows CSR column order -- so a
row's sequential accumulation reproduces :func:`repro.cfd.csr.spmv`'s
``np.add.reduceat`` segment sums.

``SolverWorkload`` packages the compiled kernels with a
:class:`SolverContext` (layout + per-row-chunk instances) and provides
both the *semantic* path -- :meth:`SolverWorkload.ir_solve`, a
host-orchestrated CG/BiCGSTAB whose every vector operation runs through
the IR kernels on a pluggable backend -- and the *timed* path --
:meth:`SolverWorkload.run_timed`, which charges one representative
preconditioned-Krylov iteration per solver iteration into phases 9-12
of a :class:`~repro.metrics.counters.RunCounters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.cfd.csr import CSRPattern, diagonal
from repro.cfd.kernel_context import CHUNK_BASE
from repro.cfd.mesh import Chunk, chunk_range
from repro.cfd.phases import (
    C,
    L,
    P,
    R,
    add,
    div,
    mul,
    _loop,
    _vec_dummy_extent,
    _vec_extent,
)
from repro.compiler.ir import (
    Affine,
    Array,
    Assign,
    Cond,
    Extent,
    If,
    Indirect,
    Kernel,
    Load,
    Ref,
    Stmt,
    Unary,
    var,
)
from repro.compiler.program import KernelInstance, MemoryLayout

#: the chunk-local matrix row id as a global-array index (the solver's
#: analogue of the assembly phases' ``ELEM``).
ROW = Affine((("ivect", 1), (CHUNK_BASE, 1)))

#: solver phase ids, continuing the paper's 1-8 assembly numbering.
SPMV_PHASE = 9
DOT_PHASE = 10
AXPY_PHASE = 11
PRECOND_PHASE = 12


@dataclass(frozen=True)
class SolverSizes:
    """Problem dimensions needed to declare the solver arrays."""

    vector_size: int
    nrow: int          # true matrix dimension (mesh nodes)
    padded_nrow: int   # rows padded to a whole number of chunks
    rowlen: int        # ELL row length (max CSR row nnz)


def declare_solver_arrays(sz: SolverSizes) -> dict[str, Array]:
    """All solver arrays, keyed by name (column-major shapes).

    Everything is ``global`` scope: the vectors persist across row
    chunks (a chunk updates its row slice of each), and ``dotacc``
    accumulates across chunks.  ``ellval``/``ellcol`` are laid out
    ``(rowlen, padded_nrow)`` column-major, so the gather loop's loads
    are unit-stride along ``jnz`` -- the value stream and the index
    vector stream the long-vector ISA can actually use.
    """
    g = lambda name, shape, dtype="f8": Array(name, shape, dtype, scope="global")
    arrays = [
        g("ellval", (sz.rowlen, sz.padded_nrow)),
        g("ellcol", (sz.rowlen, sz.padded_nrow), "i8"),
        g("diagv", (sz.padded_nrow,)),
        g("dinv", (sz.padded_nrow,)),
        g("xvec", (sz.padded_nrow,)),
        g("yvec", (sz.padded_nrow,)),
        g("yout", (sz.padded_nrow,)),
        g("wvec", (sz.padded_nrow,)),
        g("rvec", (sz.padded_nrow,)),
        g("zvec", (sz.padded_nrow,)),
        g("dotacc", (1,)),
    ]
    return {a.name: a for a in arrays}


# ---------------------------------------------------------------------------
# the four solver kernels
# ---------------------------------------------------------------------------


def solver_spmv(A: dict[str, Array], vs: int) -> Kernel:
    """Phase 9: ELL SpMV with the Jacobi reciprocal folded into a
    guarded head.

    The head (``dinv``) carries data-dependent control flow -- the
    ``|diag| > 0`` guard of :func:`repro.cfd.solver.jacobi_preconditioner`
    -- so the row loop as written cannot vectorize; ``LoopFission`` can
    split it off (the head and the gather tail touch disjoint outputs),
    after which the tail is a clean gather reduction.  ``LoopInterchange``
    stays illegal on every rung: before fission the guard blocks it,
    after fission the ``yout``-carried reduction does.
    """
    rowlen = A["ellval"].shape[0]
    gather = Load(Ref(A["xvec"], (Indirect(A["ellcol"], (var("jnz"), ROW)),)))
    head: list[Stmt] = [
        Assign(R(A["dinv"], ROW), C(1.0)),
        If(
            Cond("gt", Unary("abs", L(A["diagv"], ROW)), C(0.0)),
            (Assign(R(A["dinv"], ROW), div(C(1.0), L(A["diagv"], ROW))),),
            est_taken=0.99,
        ),
    ]
    tail: list[Stmt] = [
        Assign(R(A["yout"], ROW), C(0.0)),
        _loop("jnz", Extent(rowlen, "const"), [
            Assign(R(A["yout"], ROW),
                   mul(L(A["ellval"], "jnz", ROW), gather),
                   accumulate=True),
        ]),
    ]
    body: tuple[Stmt, ...] = (_loop("ivect", _vec_extent(vs), head + tail),)
    return Kernel(name="solver_spmv_ell", phase=SPMV_PHASE, body=body)


def solver_dot(A: dict[str, Array], vs: int) -> Kernel:
    """Phase 10: ``dotacc += xvec . yvec`` over one row chunk.

    Canonical form keeps the original sin of phase 2: the trip count is
    a runtime dummy, so the vanilla vectorizer refuses; after
    ``ConstantTripCount`` the stride-0 accumulate vectorizes as a
    strip-mined reduction (legal only under ``-ffp-contract=fast``,
    like the paper's reduction loops).
    """
    body: tuple[Stmt, ...] = (
        _loop("ivect", _vec_dummy_extent(vs), [
            Assign(R(A["dotacc"], 0),
                   mul(L(A["xvec"], ROW), L(A["yvec"], ROW)),
                   accumulate=True),
        ]),
    )
    return Kernel(name="solver_dot", phase=DOT_PHASE, body=body)


def solver_axpy(A: dict[str, Array], vs: int) -> Kernel:
    """Phase 11: ``wvec = yvec + alpha * xvec`` (streaming BLAS-1)."""
    body: tuple[Stmt, ...] = (
        _loop("ivect", _vec_extent(vs), [
            Assign(R(A["wvec"], ROW),
                   add(L(A["yvec"], ROW), mul(P("alpha"), L(A["xvec"], ROW)))),
        ]),
    )
    return Kernel(name="solver_axpy", phase=AXPY_PHASE, body=body,
                  params=(("alpha", 1.0),))


def solver_precond(A: dict[str, Array], vs: int) -> Kernel:
    """Phase 12: Jacobi apply ``zvec = rvec * dinv`` (reciprocal
    multiply; ``dinv`` is produced by the SpMV head)."""
    body: tuple[Stmt, ...] = (
        _loop("ivect", _vec_extent(vs), [
            Assign(R(A["zvec"], ROW), mul(L(A["rvec"], ROW), L(A["dinv"], ROW))),
        ]),
    )
    return Kernel(name="solver_precond_jacobi", phase=PRECOND_PHASE, body=body)


#: solver phase builders, keyed by phase id (a parallel registry to
#: ``repro.cfd.phases.PHASE_BUILDERS``).
SOLVER_PHASE_BUILDERS: dict[int, object] = {
    SPMV_PHASE: solver_spmv,
    DOT_PHASE: solver_dot,
    AXPY_PHASE: solver_axpy,
    PRECOND_PHASE: solver_precond,
}

#: human-readable solver phase names (span labels, Paraver states,
#: summary sections), continuing ``repro.cfd.phases.PHASE_NAMES``.
SOLVER_PHASE_NAMES: dict[int, str] = {
    SPMV_PHASE: "solver spmv (ELL gather)",
    DOT_PHASE: "solver dot (reduction)",
    AXPY_PHASE: "solver axpy",
    PRECOND_PHASE: "solver jacobi apply",
}

#: arrays each solver phase writes -- folded into
#: ``repro.cfd.reference.PHASE_OUTPUTS`` (golden checks + digest rungs).
SOLVER_PHASE_OUTPUTS: dict[int, tuple[str, ...]] = {
    SPMV_PHASE: ("dinv", "yout"),
    DOT_PHASE: ("dotacc",),
    AXPY_PHASE: ("wvec",),
    PRECOND_PHASE: ("zvec",),
}


def build_solver_kernels(arrays: dict[str, Array],
                         vector_size: int) -> list[Kernel]:
    """The four solver kernels in canonical baseline form (pre-pass)."""
    return [SOLVER_PHASE_BUILDERS[p](arrays, vector_size)
            for p in sorted(SOLVER_PHASE_BUILDERS)]


# ---------------------------------------------------------------------------
# NumPy reference semantics (the golden-check oracle side)
# ---------------------------------------------------------------------------


def ref_solver_spmv(d: dict[str, np.ndarray], params: Mapping[str, float],
                    rows: np.ndarray) -> None:
    diag = d["diagv"][rows]
    inv = np.ones_like(diag)
    nz = np.abs(diag) > 0.0
    inv[nz] = 1.0 / diag[nz]
    d["dinv"][rows] = inv
    val = d["ellval"][:, rows]
    col = d["ellcol"][:, rows]
    d["yout"][rows] = np.sum(val * d["xvec"][col], axis=0)


def ref_solver_dot(d: dict[str, np.ndarray], params: Mapping[str, float],
                   rows: np.ndarray) -> None:
    d["dotacc"][0] += float(d["xvec"][rows] @ d["yvec"][rows])


def ref_solver_axpy(d: dict[str, np.ndarray], params: Mapping[str, float],
                    rows: np.ndarray) -> None:
    alpha = float(params.get("alpha", 1.0))
    d["wvec"][rows] = d["yvec"][rows] + alpha * d["xvec"][rows]


def ref_solver_precond(d: dict[str, np.ndarray], params: Mapping[str, float],
                       rows: np.ndarray) -> None:
    d["zvec"][rows] = d["rvec"][rows] * d["dinv"][rows]


#: reference implementations keyed by phase id -- folded into
#: ``repro.cfd.reference.REF_PHASES``.
SOLVER_REF_PHASES: dict[int, object] = {
    SPMV_PHASE: ref_solver_spmv,
    DOT_PHASE: ref_solver_dot,
    AXPY_PHASE: ref_solver_axpy,
    PRECOND_PHASE: ref_solver_precond,
}


# ---------------------------------------------------------------------------
# ELL construction + solver context
# ---------------------------------------------------------------------------


def build_ell(pattern: CSRPattern, amatr: np.ndarray, vector_size: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded ELL form of a CSR matrix: ``(ellval, ellcol, diagv)``.

    Shapes are ``(rowlen, padded_nrow)`` with slot order = CSR column
    order, zero-padding at the row end gathering column 0 (a real,
    always-valid address whose contribution is ``0.0 * x[0]``).  Padded
    rows past ``pattern.n`` get a unit diagonal so the Jacobi head stays
    benign.
    """
    if amatr.shape != (pattern.nnz,):
        raise ValueError(f"amatr must have shape ({pattern.nnz},)")
    n = pattern.n
    counts = np.diff(pattern.indptr)
    rowlen = max(int(counts.max()) if n else 1, 1)
    nchunks = -(-n // vector_size)
    padded = nchunks * vector_size
    ellval = np.zeros((rowlen, padded))
    ellcol = np.zeros((rowlen, padded), dtype=np.int64)
    rows = pattern.row_of_entry()
    slot = np.arange(pattern.nnz, dtype=np.int64) - pattern.indptr[rows]
    ellval[slot, rows] = amatr
    ellcol[slot, rows] = pattern.indices
    diagv = np.zeros(padded)
    diagv[:n] = diagonal(pattern, amatr)
    diagv[n:] = 1.0
    return ellval, ellcol, diagv


def seeded_solver_inputs(context: "SolverContext", seed: int
                         ) -> dict[str, np.ndarray]:
    """Deterministic input vectors for solver-kernel golden checks and
    digest rungs: seeded ``xvec``/``yvec``/``rvec`` over the real rows
    (padded tail stays zero), everything else fresh from
    :meth:`SolverContext.solver_data`."""
    data = context.solver_data()
    rng = np.random.default_rng(seed + 0x50F7)
    n = context.sizes.nrow
    for name in ("xvec", "yvec", "rvec"):
        data[name][:n] = rng.standard_normal(n)
    return data


class SolverContext:
    """Shared memory layout + per-row-chunk instances for one matrix."""

    def __init__(self, pattern: CSRPattern, amatr: np.ndarray,
                 vector_size: int,
                 params: Optional[dict[str, float]] = None):
        self.pattern = pattern
        self.vector_size = vector_size
        self.ellval, self.ellcol, self.diagv = build_ell(
            pattern, amatr, vector_size)
        self.sizes = SolverSizes(
            vector_size=vector_size,
            nrow=pattern.n,
            padded_nrow=self.ellval.shape[1],
            rowlen=self.ellval.shape[0],
        )
        self.arrays = declare_solver_arrays(self.sizes)
        self.layout = MemoryLayout()
        self.params: dict[str, float] = {"alpha": 1.0, **(params or {})}
        for arr in self.arrays.values():
            self.layout.place(arr)

    def chunks(self) -> list[Chunk]:
        """Contiguous VECTOR_SIZE row chunks over the padded row range."""
        return chunk_range(self.sizes.nrow, self.vector_size)

    def solver_data(self) -> dict[str, np.ndarray]:
        """Fresh float/vector global data for a semantic run (shared by
        reference across chunk instances, like the mini-app's globals)."""
        z = lambda: np.zeros(self.sizes.padded_nrow)
        return {
            "ellval": self.ellval.copy(),
            "ellcol": self.ellcol.copy(),
            "diagv": self.diagv.copy(),
            "dinv": z(), "xvec": z(), "yvec": z(), "yout": z(),
            "wvec": z(), "rvec": z(), "zvec": z(),
            "dotacc": np.zeros(1),
        }

    def instance_for_chunk(self, chunk: Chunk, *, with_data: bool = False,
                           globals_data: Optional[dict[str, np.ndarray]] = None
                           ) -> KernelInstance:
        """Build the kernel instance for one row chunk.

        The timing path only needs the integer gather table (``ellcol``,
        held by the context); ``with_data`` additionally binds zeroed
        float data; ``globals_data`` supplies shared arrays (bound by
        reference, so vector updates persist across chunks).
        """
        inst = KernelInstance(
            params=self.params,
            layout=self.layout,
            index_consts={CHUNK_BASE: int(chunk.elements[0])},
        )
        gdata = globals_data or {}
        for arr in self.arrays.values():
            if arr.name in gdata:
                inst.bind(arr, gdata[arr.name])
            elif arr.name == "ellcol":
                inst.bind(arr, self.ellcol)
            elif with_data:
                inst.ensure_data(arr)
            else:
                inst.bind(arr)
        return inst
