"""Mini-app working storage: array declarations and chunk instances.

Declares every array the eight phases touch, in two groups mirroring the
Fortran mini-app:

* **global** (mesh-level) arrays: coordinates, nodal unknowns,
  connectivity, property tables, subscales, the global RHS and the CSR
  matrix -- allocated once, addresses fixed for the whole run;
* **local** (element-level) working arrays sized by VECTOR_SIZE --
  allocated once and reused by every chunk, exactly like Alya's
  elemental scratch arrays, so growing VECTOR_SIZE grows the kernel's
  resident working set (the capacity effect behind the paper's phase-1/
  phase-8 analysis in Table 6).

A :class:`MiniAppContext` owns the shared
:class:`~repro.compiler.program.MemoryLayout` and builds one
:class:`~repro.compiler.program.KernelInstance` per chunk: same arrays,
same addresses, different chunk-base index constant and (for the
interpreter/reference paths) different gather data.  The timing path
builds one instance and passes the machine every chunk's base instead
(:meth:`~repro.machine.cpu.Machine.execute_program`).

:func:`run_chunked` is the one semantic chunk loop of phases 1-12: the
golden checks, the digest rungs and ``MiniApp.run_interpreted`` all
execute kernels through it, on this context or on the solver's
:class:`~repro.cfd.solver_phases.SolverContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.backends import get_backend
from repro.cfd.elements import NDIME, NDOFN, NGAUS, PNODE, hex08_basis
from repro.cfd.mesh import Chunk, Mesh, chunk_range
from repro.compiler.ir import Array, Kernel
from repro.compiler.program import CHUNK_BASE, KernelInstance, MemoryLayout


def run_chunked(context, kernels: Sequence[Kernel],
                data: dict[str, np.ndarray], backend: str
                ) -> Iterator[tuple[Chunk, KernelInstance, int]]:
    """Run *kernels* over every chunk of *context* on a *backend*.

    Each chunk gets an instance with *data* bound by reference (so
    scatter-accumulates and vector updates persist across chunks) and
    fresh zeroed chunk-local arrays, then one backend executor, then
    each kernel in order.  Yields ``(chunk, instance, phase)`` after
    every kernel: where the golden checks compare and the digest rungs
    hash.  *context* is a :class:`MiniAppContext` or a
    :class:`~repro.cfd.solver_phases.SolverContext`.
    """
    be = get_backend(backend)
    for chunk in context.chunks():
        inst = context.instance_for_chunk(chunk, with_data=True,
                                          globals_data=data)
        executor = be.executor(inst, context.params)
        for kern in kernels:
            executor.run(kern)
            yield chunk, inst, kern.phase


@dataclass(frozen=True)
class Sizes:
    """Problem dimensions needed to declare the arrays."""

    vector_size: int
    npoin: int
    nelem: int
    nmate: int
    nnz: int  # CSR non-zeros of the assembled matrix

    @property
    def vs(self) -> int:
        return self.vector_size


def declare_arrays(sz: Sizes) -> dict[str, Array]:
    """All mini-app arrays, keyed by name (column-major shapes)."""
    V = sz.vs
    g = lambda name, shape, dtype="f8": Array(name, shape, dtype, scope="global")
    l = lambda name, shape, dtype="f8": Array(name, shape, dtype, scope="local")
    arrays = [
        # -- global mesh data --------------------------------------------
        g("coord", (sz.npoin, NDIME)),
        g("unkno", (sz.npoin, NDOFN)),
        g("unkno_old", (sz.npoin, NDIME)),
        g("lnods", (sz.nelem, PNODE), "i8"),
        g("ltype", (sz.nelem,), "i8"),
        g("lmate", (sz.nelem,), "i8"),
        g("densi_mat", (sz.nmate,)),
        g("visco_mat", (sz.nmate,)),
        g("tesgs", (sz.nelem, NDIME, NGAUS)),
        g("tesgs_old", (sz.nelem, NDIME, NGAUS)),
        g("kfl_sgs", (sz.nelem,), "i8"),
        g("dtinv_fld", (sz.nelem,)),
        g("chale_fld", (sz.nelem,)),
        g("shapf", (PNODE, NGAUS)),
        g("deriv", (NDIME, PNODE, NGAUS)),
        g("weigp", (NGAUS,)),
        g("rhsid", (sz.npoin, NDOFN)),
        g("elpos", (sz.nelem, PNODE, PNODE), "i8"),
        g("amatr", (sz.nnz,)),
        # -- chunk-local working arrays ------------------------------------
        l("eldens", (V,)),
        l("elvisc", (V,)),
        l("eldtinv", (V,)),
        l("elchale", (V,)),
        l("elsgs", (V, NDIME, NGAUS)),
        l("elsgs_old", (V, NDIME, NGAUS)),
        l("elunk", (V, PNODE, NDOFN)),
        l("elold", (V, PNODE, NDIME)),
        l("elcod", (V, PNODE, NDIME)),
        l("xjacm", (V, NDIME, NDIME)),
        l("xjaci", (V, NDIME, NDIME)),
        l("gpdet", (V, NGAUS)),
        l("gpvol", (V, NGAUS)),
        l("gpcar", (V, NDIME, PNODE, NGAUS)),
        l("gpvel", (V, NDIME, NGAUS)),
        l("gpold", (V, NDIME, NGAUS)),
        l("gpgve", (V, NDIME, NDIME, NGAUS)),
        l("gppre", (V, NGAUS)),
        l("gpadv", (V, NDIME)),
        l("gpaux", (V, PNODE)),
        l("gprhs", (V, NDIME)),
        l("gpnve", (V,)),
        l("tau1", (V,)),
        l("tau2", (V,)),
        l("elauu", (V, PNODE, PNODE)),
        l("elrbu", (V, NDIME, PNODE)),
        l("elrbp", (V, PNODE)),
    ]
    return {a.name: a for a in arrays}


def stabilization_params(chale: float = 0.1, c1: float = 4.0,
                         c2: float = 2.0) -> dict[str, float]:
    """Codina stabilization factors precomputed from the element length.

    tau1 = 1 / (c1 nu / h^2 + c2 rho |u| / h); tau2 = h^2 / (c1 tau1).
    """
    return {
        "tau_fact1": c1 / (chale * chale),
        "tau_fact2": c2 / chale,
        "tau_fact3": (chale * chale) / c1,
    }


#: default physical / numerical parameters of the mini-app.
DEFAULT_PARAMS: dict[str, float] = {
    "dtinv": 10.0,      # inverse time step
    "chale": 0.1,       # characteristic element length
    "tau_c1": 4.0,      # Codina stabilization constants
    "tau_c2": 2.0,
    **stabilization_params(),
}


class MiniAppContext:
    """Shared memory layout + per-chunk instances for one configuration."""

    def __init__(self, mesh: Mesh, vector_size: int, nnz: int,
                 params: dict[str, float] | None = None):
        self.mesh = mesh
        self.vector_size = vector_size
        # Pad the element-indexed global arrays to a whole number of
        # chunks (Alya pads its data structures the same way); padded
        # entries replicate the last element's geometry but carry an
        # invalid ltype so the phase-8 validity check skips them.
        nchunks = -(-mesh.nelem // vector_size)
        self.padded_nelem = nchunks * vector_size
        pad = self.padded_nelem - mesh.nelem
        self.lnods = np.concatenate(
            [mesh.lnods, np.repeat(mesh.lnods[-1:], pad, axis=0)]) if pad else mesh.lnods
        self.ltype = np.concatenate(
            [mesh.ltype, np.zeros(pad, dtype=np.int64)]) if pad else mesh.ltype
        self.lmate = np.concatenate(
            [mesh.lmate, np.repeat(mesh.lmate[-1:], pad)]) if pad else mesh.lmate
        # subscale tracking is active for every element in this setup
        # (the compiler still cannot prove it and keeps the guard).
        self.kfl_sgs = np.ones(self.padded_nelem, dtype=np.int64)
        self.sizes = Sizes(
            vector_size=vector_size,
            npoin=mesh.npoin,
            nelem=self.padded_nelem,
            nmate=max(mesh.nmate, 1),
            nnz=nnz,
        )
        self.arrays = declare_arrays(self.sizes)
        self.layout = MemoryLayout()
        self.params = {**DEFAULT_PARAMS, **(params or {})}
        # Place globals first, then locals, with fixed deterministic order.
        for arr in self.arrays.values():
            if arr.scope == "global":
                self.layout.place(arr)
        for arr in self.arrays.values():
            if arr.scope == "local":
                self.layout.place(arr)

    def chunks(self) -> list[Chunk]:
        """Contiguous VECTOR_SIZE chunks over the padded element range."""
        return chunk_range(self.mesh.nelem, self.vector_size)

    def instance_for_chunk(self, chunk: Chunk, *, with_data: bool = False,
                           globals_data: dict[str, np.ndarray] | None = None
                           ) -> KernelInstance:
        """Build the kernel instance for one chunk.

        The timing path only needs the integer gather tables (``lnods``,
        ``ltype``, ``lmate``, ``elpos``); ``with_data`` additionally binds
        float data so the interpreter / reference semantics can run.
        ``globals_data`` supplies shared global arrays (bound by
        reference, so scatter-accumulates persist across chunks).
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
            elif arr.dtype == "i8" and arr.scope == "global":
                inst.bind(arr, self._global_int_data(arr.name))
            elif with_data:
                inst.ensure_data(arr)
            else:
                inst.bind(arr)
        return inst

    def _global_int_data(self, name: str) -> np.ndarray:
        if name == "lnods":
            return self.lnods
        if name == "ltype":
            return self.ltype
        if name == "lmate":
            return self.lmate
        if name == "kfl_sgs":
            return self.kfl_sgs
        if name == "elpos":
            raise ValueError(
                "elpos must be supplied via globals_data (built by repro.cfd.csr)")
        raise KeyError(name)

    def basis_data(self) -> dict[str, np.ndarray]:
        """Shape-function tables as global data arrays."""
        basis = hex08_basis()
        return {"shapf": basis.shapf, "deriv": basis.deriv, "weigp": basis.weigp}

    def scratch_data(self) -> dict[str, np.ndarray]:
        """Fresh zeroed chunk-local working arrays for the NumPy reference
        (shared across chunks like Fortran's)."""
        return {name: np.zeros(arr.shape) for name, arr in self.arrays.items()
                if arr.scope == "local"}
