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
* ``run_interpreted()`` executes the IR through the reference
  interpreter -- slow, used by the tests to pin IR semantics to the
  NumPy reference on small meshes;
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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cfd.csr import CSRPattern, build_pattern
from repro.cfd.fields import make_global_fields
from repro.cfd.kernel_context import MiniAppContext
from repro.cfd.mesh import Mesh
from repro.cfd.phases import build_baseline_kernels
from repro.cfd.reference import run_reference_chunk
from repro.compiler.flags import PAPER_FLAGS, SCALAR_FLAGS, CompilerFlags
from repro.compiler.interpreter import Interpreter
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

#: optimization levels in cumulative paper order.
OPT_LEVELS = ("scalar", "vanilla", "vec2", "ivec2", "vec1")


@dataclass
class AssembledSystem:
    """Output of the numeric assembly."""

    pattern: CSRPattern
    amatr: np.ndarray       # CSR values
    rhsid: np.ndarray       # (npoin, ndofn)


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
        self.pattern = build_pattern(mesh)
        self.context = MiniAppContext(mesh, vector_size, nnz=self.pattern.nnz,
                                      params=params)
        self.field_seed = field_seed
        # pad elpos rows for the padded tail (never scattered: the
        # validity check skips padded elements).
        pad = self.context.padded_nelem - mesh.nelem
        self.elpos = (
            np.concatenate([self.pattern.elpos,
                            np.repeat(self.pattern.elpos[-1:], pad, axis=0)])
            if pad else self.pattern.elpos
        )

        result = compile_kernels(
            build_baseline_kernels(self.context.arrays, vector_size),
            self.flags, pipeline=self.pipeline)
        self.baseline_kernels = result.baseline
        self.kernels = result.kernels
        self.transform_remarks: list[TransformRemark] = result.transform_remarks
        self.remarks: list[VecRemark] = result.vec_remarks
        self.compiled: list[CompiledKernel] = result.compiled
        self._solver = None  # lazily-built SolverWorkload

    # ------------------------------------------------------------------

    @property
    def chunks(self):
        return self.context.chunks()

    def global_float_data(self) -> dict[str, np.ndarray]:
        """Fresh float-valued global arrays (+ amatr) for a numeric run."""
        data = make_global_fields(self.mesh, self.context.padded_nelem,
                                  nmate=self.context.sizes.nmate,
                                  dtinv=self.context.params["dtinv"],
                                  seed=self.field_seed)
        data["amatr"] = np.zeros(self.pattern.nnz)
        data.update(self.context.basis_data())
        return data

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
        globals_data = {"elpos": self.elpos}
        with _obs_span(f"run_timed {self.opt} vs{self.vector_size}",
                       cat="run", opt=self.opt,
                       vector_size=self.vector_size):
            for chunk in self.chunks:
                inst = self.context.instance_for_chunk(
                    chunk, globals_data=globals_data)
                m.execute_program(self.compiled, inst, run)
        return run

    def run_numeric(self, field_overrides: Optional[dict[str, np.ndarray]] = None
                    ) -> AssembledSystem:
        """Assemble the system with the NumPy reference semantics.

        ``field_overrides`` replaces selected global arrays (e.g. an
        updated ``unkno`` between time steps of a driver loop); shapes
        must match the defaults from :meth:`global_float_data`.
        """
        gdata = self.global_float_data()
        if field_overrides:
            for name, arr in field_overrides.items():
                if name not in gdata:
                    raise KeyError(f"unknown global field {name!r}")
                if gdata[name].shape != arr.shape:
                    raise ValueError(
                        f"{name}: shape {arr.shape} != {gdata[name].shape}")
                gdata[name] = np.asarray(arr, dtype=np.float64)
        # chunk-local scratch arrays, shared across chunks like Fortran's.
        local = {
            name: np.zeros(arr.shape)
            for name, arr in self.context.arrays.items()
            if arr.scope == "local"
        }
        data: dict[str, np.ndarray] = {
            **gdata,
            "lnods": self.context.lnods,
            "ltype": self.context.ltype,
            "lmate": self.context.lmate,
            "kfl_sgs": self.context.kfl_sgs,
            "elpos": self.elpos,
            **local,
        }
        for chunk in self.chunks:
            run_reference_chunk(data, self.context.params, chunk.elements)
        return AssembledSystem(pattern=self.pattern, amatr=data["amatr"],
                               rhsid=data["rhsid"])

    def run_interpreted(self) -> AssembledSystem:
        """Assemble the system by interpreting the IR kernels (slow)."""
        gdata = self.global_float_data()
        globals_data = {**gdata, "elpos": self.elpos}
        shared = None
        for chunk in self.chunks:
            inst = self.context.instance_for_chunk(
                chunk, with_data=True, globals_data=globals_data)
            interp = Interpreter(inst, self.context.params)
            for kern in self.kernels:
                interp.run(kern)
            shared = inst
        assert shared is not None
        return AssembledSystem(pattern=self.pattern,
                               amatr=shared.data("amatr"),
                               rhsid=shared.data("rhsid"))

    # -- the solver path -----------------------------------------------

    def build_solver(self):
        """Assemble (NumPy reference semantics), shift the diagonal, and
        compile the solver kernels for this configuration.

        Returns ``(workload, b)``: the
        :class:`~repro.cfd.solver_path.SolverWorkload` over the shifted
        operator, and the x-momentum RHS it solves against.  Cached:
        the system is a pure function of (mesh, field_seed), and the
        kernels of (vector_size, pipeline, flags).
        """
        from repro.cfd.solver_path import SolverWorkload, shift_diagonal

        if self._solver is None:
            system = self.run_numeric()
            shifted = shift_diagonal(self.pattern, system.amatr)
            workload = SolverWorkload(
                self.pattern, shifted, self.vector_size, opt=self.opt,
                flags=self.flags, pipeline=self.pipeline)
            self._solver = (workload, system.rhsid[:, 0].copy())
        return self._solver

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
