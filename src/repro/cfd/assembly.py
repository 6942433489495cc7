"""Mini-app driver: chunked Navier-Stokes assembly, timed or numeric.

``MiniApp`` binds everything together for one configuration
(mesh, VECTOR_SIZE, optimization level):

* builds the canonical baseline IR kernels, runs the transformation
  pass pipeline for the requested optimization level (or an explicit
  pass list), then the auto-vectorizer, and lowers the result to
  machine programs;
* ``run_timed(machine)`` executes the compiled program chunk by chunk on
  a machine model, returning the per-phase hardware counters the paper's
  tables and figures are computed from;
* ``run_numeric()`` executes the NumPy reference semantics, producing
  the assembled global RHS and CSR matrix (the input to the algebraic
  solver substrate);
* ``run_interpreted()`` executes the IR through the ``interpreter``
  backend -- slow, used by the tests to pin IR semantics to the NumPy
  reference on small meshes;
* ``build_solver()`` / ``solve()`` / ``run_timed_solve()`` extend the
  cycle to the algebraic solver: the assembled operator (with the
  semi-implicit diagonal shift) is lowered to the IR solver kernels
  (:mod:`repro.cfd.solver_path`), so the full assemble+solve path runs
  through the same compiler, backends, machine model and tracer.

Optimization levels are cumulative, in paper order:
``scalar`` (vectorization disabled) -> ``vanilla`` (auto-vectorization)
-> ``vec2`` -> ``ivec2`` -> ``vec1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cfd.csr import CSRPattern, build_pattern
from repro.cfd.fields import make_global_fields
from repro.cfd.kernel_context import MiniAppContext, run_chunked
from repro.cfd.mesh import Mesh
from repro.cfd.phases import build_baseline_kernels
from repro.cfd.reference import run_reference_chunk
from repro.compiler.flags import PAPER_FLAGS, SCALAR_FLAGS, CompilerFlags
from repro.compiler.program import CompiledKernel, compile_kernels
from repro.compiler.transforms import (
    PassPipeline,
    TransformRemark,
    opt_for_passes,
    pipeline_for_opt,
    pipeline_from_names,
)
from repro.compiler.vectorizer import VecRemark
from repro.machine.cpu import Machine
from repro.machine.params import MachineParams
from repro.metrics.counters import RunCounters
from repro.scope import shared

#: optimization levels in cumulative paper order.
OPT_LEVELS = ("scalar", "vanilla", "vec2", "ivec2", "vec1")


@dataclass
class AssembledSystem:
    """Output of the numeric assembly."""

    pattern: CSRPattern
    amatr: np.ndarray       # CSR values
    rhsid: np.ndarray       # (npoin, ndofn)


def _build_context(mesh: Mesh, vector_size: int,
                   params: Optional[dict[str, float]]) -> tuple:
    """The CSR pattern, kernel context, padded ``elpos`` and baseline IR
    of (mesh, VECTOR_SIZE, params): what every rung and pass schedule
    of one configuration shares (:func:`repro.scope.shared`)."""
    pattern = build_pattern(mesh)
    context = MiniAppContext(mesh, vector_size, nnz=pattern.nnz,
                             params=params)
    # pad elpos rows for the padded tail (never scattered: the
    # validity check skips padded elements).
    pad = context.padded_nelem - mesh.nelem
    elpos = (np.concatenate([pattern.elpos,
                             np.repeat(pattern.elpos[-1:], pad, axis=0)])
             if pad else pattern.elpos)
    return (pattern, context, elpos,
            tuple(build_baseline_kernels(context.arrays, vector_size)))


class MiniApp:
    """One mini-app configuration, compiled and ready to run."""

    def __init__(self, mesh: Mesh, vector_size: int, opt: str = "vanilla",
                 flags: Optional[CompilerFlags] = None,
                 params: Optional[dict[str, float]] = None,
                 field_seed: int = 0,
                 passes: Optional[tuple[str, ...]] = None):
        self.mesh = mesh
        self.vector_size = vector_size
        self.pipeline: PassPipeline
        if passes is not None:
            # explicit pass schedule: the rung label is derived (for
            # flag selection and display), not prescribed.
            self.pipeline = pipeline_from_names(passes, name="custom")
            opt = opt_for_passes(passes) or opt
        else:
            self.pipeline = pipeline_for_opt(opt)
        self.opt = opt
        if flags is None:
            flags = SCALAR_FLAGS if opt == "scalar" else PAPER_FLAGS
        self.flags = flags
        self.field_seed = field_seed
        # the mesh stays alive in the entry (context.mesh), so its id
        # names no other mesh while the scope holds the entry.
        self.pattern, self.context, self.elpos, baseline = shared(
            "context",
            (id(mesh), vector_size, tuple(sorted((params or {}).items()))),
            lambda: _build_context(mesh, vector_size, params))

        result = compile_kernels(baseline, self.flags, pipeline=self.pipeline)
        self.baseline_kernels = result.baseline
        self.kernels = result.kernels
        self.transform_remarks: list[TransformRemark] = result.transform_remarks
        self.remarks: list[VecRemark] = result.vec_remarks
        self.compiled: list[CompiledKernel] = result.compiled
        self._solver = None  # lazily-built SolverWorkload
        self.chunks = self.context.chunks()
        #: each chunk's first element: the chunk bases a timed run visits.
        self.chunk_bases = np.array([c.elements[0] for c in self.chunks],
                                    dtype=np.int64)

    # ------------------------------------------------------------------

    def global_float_data(self) -> dict[str, np.ndarray]:
        """Fresh float-valued global arrays (+ amatr) for a numeric run."""
        data = make_global_fields(self.mesh, self.context.padded_nelem,
                                  nmate=self.context.sizes.nmate,
                                  dtinv=self.context.params["dtinv"],
                                  seed=self.field_seed)
        data["amatr"] = np.zeros(self.pattern.nnz)
        data.update(self.context.basis_data())
        return data

    def assembly_data(self) -> dict[str, np.ndarray]:
        """Fresh global data for one semantic assembly sweep: the float
        fields of :meth:`global_float_data`, the integer gather tables
        and ``elpos``."""
        ctx = self.context
        return {**self.global_float_data(), "lnods": ctx.lnods,
                "ltype": ctx.ltype, "lmate": ctx.lmate,
                "kfl_sgs": ctx.kfl_sgs, "elpos": self.elpos}

    # ------------------------------------------------------------------

    def run_timed(self, machine_params: MachineParams, *,
                  cache_enabled: bool = True,
                  machine: Optional[Machine] = None) -> RunCounters:
        """Execute the compiled mini-app on a machine model.

        Returns the per-phase counters accumulated over every chunk of
        the mesh (one full assembly sweep).
        """
        from repro.obs.tracer import span as _obs_span

        m = machine or Machine(machine_params, cache_enabled=cache_enabled)
        run = RunCounters()
        inst = self.context.instance_for_chunk(
            self.chunks[0], globals_data={"elpos": self.elpos})
        with _obs_span(f"run_timed {self.opt} vs{self.vector_size}",
                       cat="run", opt=self.opt,
                       vector_size=self.vector_size):
            m.execute_program(self.compiled, inst, run, self.chunk_bases)
        return run

    def run_numeric(self, field_overrides: Optional[dict[str, np.ndarray]] = None
                    ) -> AssembledSystem:
        """Assemble the system with the NumPy reference semantics.

        ``field_overrides`` replaces selected global arrays (e.g. an
        updated ``unkno`` between time steps of a driver loop); shapes
        must match the defaults from :meth:`global_float_data`.
        """
        data = self.assembly_data()
        for name, arr in (field_overrides or {}).items():
            if name not in data or data[name].dtype != np.float64:
                raise KeyError(f"unknown global field {name!r}")
            if data[name].shape != arr.shape:
                raise ValueError(
                    f"{name}: shape {arr.shape} != {data[name].shape}")
            data[name] = np.asarray(arr, dtype=np.float64)
        data.update(self.context.scratch_data())
        for chunk in self.chunks:
            run_reference_chunk(data, self.context.params, chunk.elements)
        return AssembledSystem(pattern=self.pattern, amatr=data["amatr"],
                               rhsid=data["rhsid"])

    def run_interpreted(self) -> AssembledSystem:
        """Assemble the system by running the IR kernels through the
        ``interpreter`` backend (slow)."""
        data = self.assembly_data()
        for _ in run_chunked(self.context, self.kernels, data, "interpreter"):
            pass
        return AssembledSystem(pattern=self.pattern, amatr=data["amatr"],
                               rhsid=data["rhsid"])

    # -- the solver path -----------------------------------------------

    def build_solver(self):
        """Assemble (NumPy reference semantics), shift the diagonal, and
        compile the solver kernels for this configuration.

        Returns ``(workload, b)``: the
        :class:`~repro.cfd.solver_path.SolverWorkload` over the shifted
        operator, and the x-momentum RHS it solves against, both
        read-only.  Cached: the system is a pure function of (context,
        field_seed), shared by the apps of one build scope, and the
        kernels of (vector_size, pipeline, flags).
        """
        from repro.cfd.solver_path import SolverWorkload

        if self._solver is None:
            shifted, b = shared("system", (self.context, self.field_seed),
                                self._system)
            workload = SolverWorkload(
                self.pattern, shifted, self.vector_size, opt=self.opt,
                flags=self.flags, pipeline=self.pipeline)
            self._solver = (workload, b)
        return self._solver

    def _system(self) -> tuple[np.ndarray, np.ndarray]:
        """The assembled operator with its diagonal shifted, and its
        x-momentum RHS, as read-only arrays."""
        from repro.cfd.solver_path import shift_diagonal

        system = self.run_numeric()
        shifted = shift_diagonal(self.pattern, system.amatr)
        b = system.rhsid[:, 0].copy()
        shifted.flags.writeable = b.flags.writeable = False
        return shifted, b

    def solve(self, method: str = "bicgstab", *, backend: str | None = None,
              tol: float | None = None, maxiter: int | None = None):
        """IR-orchestrated Krylov solve of the assembled shifted system
        (every vector op through the solver kernels on *backend*)."""
        from repro.cfd.solver_path import SOLVE_MAXITER, SOLVE_TOL

        workload, b = self.build_solver()
        return workload.ir_solve(b, method=method, backend=backend,
                                 tol=SOLVE_TOL if tol is None else tol,
                                 maxiter=SOLVE_MAXITER if maxiter is None else maxiter)

    def reference_solve(self, method: str = "bicgstab", *,
                        tol: float | None = None,
                        maxiter: int | None = None):
        """NumPy reference Krylov solve of the same shifted system."""
        from repro.cfd.solver_path import SOLVE_MAXITER, SOLVE_TOL

        workload, b = self.build_solver()
        return workload.reference_solve(
            b, method=method,
            tol=SOLVE_TOL if tol is None else tol,
            maxiter=SOLVE_MAXITER if maxiter is None else maxiter)

    def run_timed_solve(self, machine_params: MachineParams, *,
                        cache_enabled: bool = True,
                        machine: Optional[Machine] = None,
                        method: str = "bicgstab"
                        ) -> tuple[RunCounters, dict]:
        """Time the full assemble+solve cycle on one machine model.

        The assembly sweep charges phases 1-8 as in :meth:`run_timed`;
        the solver kernels then charge phases 9-12, one representative
        iteration per iteration of the (backend-independent) NumPy
        reference solve.  Returns the counters plus the convergence
        record ``{"method", "iterations", "residual", "converged"}``.
        """
        m = machine or Machine(machine_params, cache_enabled=cache_enabled)
        run = self.run_timed(machine_params, cache_enabled=cache_enabled,
                             machine=m)
        workload, _ = self.build_solver()
        ref = self.reference_solve(method)
        workload.run_timed(m, run, iterations=max(ref.iterations, 1))
        info = {
            "method": method,
            "iterations": int(ref.iterations),
            "residual": float(ref.residual),
            "converged": bool(ref.converged),
        }
        return run, info
