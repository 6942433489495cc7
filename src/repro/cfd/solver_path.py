"""The assemble+solve path: compiled solver kernels + Krylov drivers.

:class:`SolverWorkload` is the solver-side twin of
:class:`~repro.cfd.assembly.MiniApp`: it compiles the four solver-phase
kernels (:mod:`repro.cfd.solver_phases`) through the same pass pipeline
/ vectorizer / code generator, and exposes

* :meth:`SolverWorkload.ir_solve` -- a host-orchestrated CG / BiCGSTAB
  in which **every vector operation** (SpMV, dot products, axpys, the
  Jacobi apply, even the residual norms) executes through the IR
  kernels on a pluggable backend; only the scalar recurrences
  (``alpha``, ``beta``, ``omega``, breakdown guards) live on the host,
  mirroring :mod:`repro.cfd.solver` statement for statement;
* :meth:`SolverWorkload.reference_solve` -- the plain NumPy
  :func:`repro.cfd.solver.cg` / :func:`~repro.cfd.solver.bicgstab` on
  the same matrix (the golden-check oracle);
* :meth:`SolverWorkload.run_timed` -- charges the compiled kernels into
  a machine model, one representative preconditioned-CG iteration
  (1 SpMV, 2 dots, 3 axpys, 1 Jacobi apply) per solver iteration, so
  ``solve=True`` runs produce per-solver-kernel cycle counts, VL
  histograms and SIM-domain trace spans exactly like the assembly
  phases.

The solved system is the assembled momentum operator with a unit
diagonal shift (:data:`DIAGONAL_SHIFT`) -- the semi-implicit mass term
that makes the operator safely nonsingular, matching what the solver
test-bench does with assembled matrices.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from repro.cfd.csr import CSRPattern
from repro.cfd.solver import SolveResult, bicgstab, cg, jacobi_preconditioner
from repro.cfd.solver_phases import (
    AXPY_PHASE,
    DOT_PHASE,
    PRECOND_PHASE,
    SPMV_PHASE,
    SolverContext,
    build_solver_kernels,
)
from repro.compiler.flags import PAPER_FLAGS, SCALAR_FLAGS, CompilerFlags
from repro.compiler.program import CompiledKernel, compile_kernels
from repro.compiler.transforms import (
    PassPipeline,
    TransformRemark,
    pipeline_for_opt,
)
from repro.compiler.vectorizer import VecRemark
from repro.machine.cpu import Machine
from repro.metrics.counters import RunCounters

#: diagonal shift applied to the assembled operator before solving --
#: the semi-implicit mass contribution; keeps the Neumann-like operator
#: nonsingular and the Jacobi preconditioner effective.
DIAGONAL_SHIFT = 1.0

#: solver defaults for the timed/validated path.
SOLVE_TOL = 1e-8
SOLVE_MAXITER = 200

#: kernel mix of the representative timed iteration (phase id, repeats):
#: one preconditioned-CG iteration -- 1 SpMV, 2 dots, 3 axpys, 1 apply.
TIMED_ITERATION_MIX: tuple[tuple[int, int], ...] = (
    (SPMV_PHASE, 1),
    (DOT_PHASE, 2),
    (AXPY_PHASE, 3),
    (PRECOND_PHASE, 1),
)


def shift_diagonal(pattern: CSRPattern, amatr: np.ndarray,
                   shift: float = DIAGONAL_SHIFT) -> np.ndarray:
    """CSR values with *shift* added to every diagonal entry."""
    out = np.asarray(amatr, dtype=np.float64).copy()
    rows = pattern.row_of_entry()
    out[pattern.indices == rows] += shift
    return out


class SolverWorkload:
    """One matrix + one configuration of the compiled solver kernels."""

    def __init__(self, pattern: CSRPattern, amatr: np.ndarray,
                 vector_size: int, opt: str = "vanilla",
                 flags: Optional[CompilerFlags] = None,
                 pipeline: Optional[PassPipeline] = None,
                 params: Optional[dict[str, float]] = None):
        self.pattern = pattern
        self.amatr = np.asarray(amatr, dtype=np.float64)
        self.vector_size = vector_size
        self.opt = opt
        # mirror MiniApp's opt -> (flags, pipeline) derivation so a bare
        # SolverWorkload(opt="ivec2") compiles the same program the
        # assemble+solve path would.
        if flags is None:
            flags = SCALAR_FLAGS if opt == "scalar" else PAPER_FLAGS
        self.flags = flags
        self.pipeline = (pipeline if pipeline is not None
                         else pipeline_for_opt(opt))
        self.context = SolverContext(pattern, self.amatr, vector_size,
                                     params=params)
        result = compile_kernels(
            build_solver_kernels(self.context.arrays, vector_size),
            self.flags, pipeline=self.pipeline)
        self.baseline_kernels = result.baseline
        self.kernels = result.kernels
        self.transform_remarks: list[TransformRemark] = result.transform_remarks
        self.remarks: list[VecRemark] = result.vec_remarks
        self.compiled: list[CompiledKernel] = result.compiled
        self.kernels_by_phase = {k.phase: k for k in self.kernels}
        self.compiled_by_phase = {c.phase: c for c in self.compiled}
        self.chunks = self.context.chunks()
        #: each row chunk's first row: the chunk bases an iteration visits.
        self.chunk_bases = np.array([c.elements[0] for c in self.chunks],
                                    dtype=np.int64)

    # -- semantic path --------------------------------------------------

    def reference_solve(self, b: np.ndarray, method: str = "bicgstab",
                        tol: float = SOLVE_TOL,
                        maxiter: int = SOLVE_MAXITER) -> SolveResult:
        """Plain NumPy Krylov solve of the same system (the oracle)."""
        solver = {"cg": cg, "bicgstab": bicgstab}[method]
        precond = jacobi_preconditioner(self.pattern, self.amatr)
        return solver(self.pattern, self.amatr, b, tol=tol,
                      maxiter=maxiter, precond=precond)

    def ir_solve(self, b: np.ndarray, method: str = "bicgstab",
                 tol: float = SOLVE_TOL, maxiter: int = SOLVE_MAXITER,
                 backend: "str | None" = None) -> SolveResult:
        """Krylov solve with every vector operation through the IR
        kernels on *backend* (mirrors :mod:`repro.cfd.solver`)."""
        ops = _KernelOps(self, backend)
        if method == "cg":
            return _ir_cg(ops, b, tol, maxiter)
        if method == "bicgstab":
            return _ir_bicgstab(ops, b, tol, maxiter)
        raise ValueError(f"unknown solver method {method!r}")

    # -- timed path -----------------------------------------------------

    def run_timed(self, machine: Machine, run: RunCounters,
                  iterations: int) -> RunCounters:
        """Charge *iterations* representative Krylov iterations into
        *run* on *machine* (phases 9-12).

        The iteration count comes from the backend-independent NumPy
        reference solve, so modeled solver cycles stay a pure function
        of the configuration -- same contract as the assembly phases.
        """
        from repro.obs.tracer import span as _obs_span

        inst = self.context.instance_for_chunk(self.chunks[0])
        program: list[CompiledKernel] = []
        for phase, repeats in TIMED_ITERATION_MIX:
            program.extend([self.compiled_by_phase[phase]] * repeats)
        with _obs_span(f"solve {self.opt} vs{self.vector_size}",
                       cat="run", opt=self.opt,
                       vector_size=self.vector_size,
                       iterations=iterations):
            machine.execute_program(
                program, inst, run,
                np.tile(self.chunk_bases, max(int(iterations), 0)))
        return run


# ---------------------------------------------------------------------------
# host-orchestrated Krylov drivers over the IR kernels
# ---------------------------------------------------------------------------


class _KernelOps:
    """Vector-primitive API over the compiled solver kernels.

    One shared data dict is bound (by reference) into one instance per
    row chunk; each primitive copies its operands into the canonical
    kernel arrays, runs the kernel over every chunk through the backend,
    and reads the result back.  Padded tail rows hold zeros, so they
    contribute exact zeros to dots and SpMV outputs.
    """

    def __init__(self, workload: SolverWorkload, backend: "str | None"):
        from repro.backends import get_backend

        self.w = workload
        self.backend = get_backend(backend)
        self.n = workload.context.sizes.nrow
        self.data = workload.context.solver_data()
        self.insts = [
            workload.context.instance_for_chunk(c, globals_data=self.data)
            for c in workload.context.chunks()
        ]

    def _run(self, phase: int, params: Optional[Mapping[str, float]] = None
             ) -> None:
        kern = self.w.kernels_by_phase[phase]
        merged = dict(self.w.context.params)
        if params:
            merged.update(params)
        for inst in self.insts:
            self.backend.run_kernel(kern, inst, merged)

    def _set(self, name: str, values: np.ndarray) -> None:
        arr = self.data[name]
        arr[:self.n] = values
        arr[self.n:] = 0.0

    def spmv(self, x: np.ndarray) -> np.ndarray:
        self._set("xvec", x)
        self._run(SPMV_PHASE)
        return self.data["yout"][:self.n].copy()

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        self._set("xvec", a)
        self._set("yvec", b)
        self.data["dotacc"][0] = 0.0
        self._run(DOT_PHASE)
        return float(self.data["dotacc"][0])

    def axpy(self, y: np.ndarray, alpha: float, x: np.ndarray) -> np.ndarray:
        """``y + alpha * x`` through the phase-11 kernel."""
        self._set("xvec", x)
        self._set("yvec", y)
        self._run(AXPY_PHASE, {"alpha": float(alpha)})
        return self.data["wvec"][:self.n].copy()

    def precond(self, r: np.ndarray) -> np.ndarray:
        """Jacobi apply through the phase-12 kernel (``dinv`` is
        populated by the SpMV head, which every solve runs first)."""
        self._set("rvec", r)
        self._run(PRECOND_PHASE)
        return self.data["zvec"][:self.n].copy()

    def norm(self, v: np.ndarray) -> float:
        return math.sqrt(max(self.dot(v, v), 0.0))


def _ir_cg(ops: _KernelOps, b: np.ndarray, tol: float,
           maxiter: int) -> SolveResult:
    x = np.zeros_like(b)
    r = ops.axpy(b, -1.0, ops.spmv(x))
    z = ops.precond(r)
    p = z.copy()
    rz = ops.dot(r, z)
    bnorm = ops.norm(b) or 1.0
    history = [ops.norm(r) / bnorm]
    if history[-1] < tol:
        return SolveResult(x, 0, history[-1], True, history)
    if rz == 0.0:
        return SolveResult(x, 0, history[-1], False, history)
    for it in range(1, maxiter + 1):
        Ap = ops.spmv(p)
        pAp = ops.dot(p, Ap)
        if pAp == 0.0:
            return SolveResult(x, it, history[-1], False, history)
        alpha = rz / pAp
        x = ops.axpy(x, alpha, p)
        r = ops.axpy(r, -alpha, Ap)
        res = ops.norm(r) / bnorm
        history.append(res)
        if res < tol:
            return SolveResult(x, it, res, True, history)
        z = ops.precond(r)
        rz_new = ops.dot(r, z)
        if rz_new == 0.0:
            return SolveResult(x, it, res, False, history)
        p = ops.axpy(z, rz_new / rz, p)
        rz = rz_new
    return SolveResult(x, maxiter, history[-1], False, history)


def _ir_bicgstab(ops: _KernelOps, b: np.ndarray, tol: float,
                 maxiter: int) -> SolveResult:
    x = np.zeros_like(b)
    r = ops.axpy(b, -1.0, ops.spmv(x))
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    bnorm = ops.norm(b) or 1.0
    history = [ops.norm(r) / bnorm]
    if history[-1] < tol:
        return SolveResult(x, 0, history[-1], True, history)
    for it in range(1, maxiter + 1):
        rho_new = ops.dot(r0, r)
        if rho_new == 0.0:
            return SolveResult(x, it, history[-1], False, history)
        if it > 1:
            beta = (rho_new / rho) * (alpha / omega)
            p = ops.axpy(r, beta, ops.axpy(p, -omega, v))
        else:
            p = r.copy()
        phat = ops.precond(p)
        v = ops.spmv(phat)
        denom = ops.dot(r0, v)
        if denom == 0.0:
            return SolveResult(x, it, history[-1], False, history)
        alpha = rho_new / denom
        s = ops.axpy(r, -alpha, v)
        if ops.norm(s) / bnorm < tol:
            x = ops.axpy(x, alpha, phat)
            history.append(ops.norm(s) / bnorm)
            return SolveResult(x, it, history[-1], True, history)
        shat = ops.precond(s)
        t = ops.spmv(shat)
        tt = ops.dot(t, t)
        if tt == 0.0:
            return SolveResult(x, it, history[-1], False, history)
        omega = ops.dot(t, s) / tt
        x = ops.axpy(ops.axpy(x, alpha, phat), omega, shat)
        r = ops.axpy(s, -omega, t)
        rho = rho_new
        res = ops.norm(r) / bnorm
        history.append(res)
        if res < tol:
            return SolveResult(x, it, res, True, history)
        if omega == 0.0:
            return SolveResult(x, it, res, False, history)
    return SolveResult(x, maxiter, history[-1], False, history)
