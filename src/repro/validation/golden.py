"""Golden-reference validation: IR kernels vs NumPy semantics, per phase.

The reproduction's timing results are only meaningful if the compiled
kernels compute the same mathematics as the paper's mini-app.  This
module turns the test-suite argument (``executed kernels == reference``)
into a runtime validator: :func:`golden_check` executes the IR kernels
of one optimization rung chunk by chunk -- through any registered
execution backend (:mod:`repro.backends`) -- and, **after every phase**,
compares that phase's output arrays -- and ultimately the assembled
global RHS and CSR matrix -- against :mod:`repro.cfd.reference` within
tolerance.

Both checks -- assembly (phases 1-8) and solver (phases 9-12) -- run
their kernels through the one semantic chunk loop
(:func:`repro.cfd.kernel_context.run_chunked`) and compare through the
one phase registry (:data:`repro.cfd.reference.REF_PHASES`).

Golden checks run on a small probe mesh described by a shared
:class:`~repro.validation.probe.Probe` spec, passed positionally (the
semantics of a rung do not depend on mesh size or VECTOR_SIZE beyond
tail padding, which the probe exercises).  The default backend is the
vectorized ``"numpy"`` lowering, proven byte-identical to the
``"interpreter"`` oracle by the frozen equivalence fixture; sweeps that
used to take minutes take seconds.  The chaos harness
(:mod:`repro.faults`) additionally injects numeric faults through the
``corrupt`` hook to prove a poisoned lane is *detected* and pinned to
the phase it struck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.backends import DEFAULT_BACKEND
from repro.cfd.kernel_context import run_chunked
from repro.cfd.reference import PHASE_OUTPUTS, REF_PHASES
from repro.compiler.ir import Kernel
from repro.validation.probe import ATOL, RTOL, Probe, resolve_probe

#: corruption hook: (instance, phase_id, chunk_index) -> None, called
#: after the backend ran the phase and before the cross-check.
CorruptHook = Callable[[object, int, int], None]

#: kernel-mutation hook: kernels -> kernels, applied before
#: execution (the chaos harness's entry point for mis-legalized
#: transformation faults: a pass product is tampered with and the
#: golden check must catch the semantic change).
MutateHook = Callable[[list[Kernel]], list[Kernel]]

#: violations recorded per report before further deviations are only
#: reflected in ``max_abs_error``.
MAX_VIOLATIONS = 20


@dataclass
class GoldenReport:
    """Outcome of one golden-reference cross-check."""

    opt: str
    vector_size: int
    mesh_dims: tuple[int, int, int]
    backend: str = DEFAULT_BACKEND
    #: worst absolute deviation seen per phase (diagnostics).
    max_abs_error: dict[int, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: pipeline stages validated (``transformed=True`` mode): each entry
    #: is the pass list of one validated prefix, shortest first.
    stages: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "opt": self.opt,
            "vector_size": self.vector_size,
            "mesh_dims": list(self.mesh_dims),
            "backend": self.backend,
            "ok": self.ok,
            "violations": list(self.violations),
            "max_abs_error": {str(p): e for p, e in
                              sorted(self.max_abs_error.items())},
            "stages": [list(s) for s in self.stages],
        }


def _check(report: GoldenReport, context, kernels: list[Kernel],
           data: dict[str, np.ndarray], ref_data: dict[str, np.ndarray], *,
           where: str = "", corrupt: Optional[CorruptHook] = None) -> None:
    """Run *kernels* chunk by chunk on *data* (via ``report.backend``)
    beside the NumPy reference on its own *ref_data*, comparing every
    phase's outputs; violations are prefixed with *where*."""
    for chunk, inst, phase in run_chunked(context, kernels, data,
                                          report.backend):
        if corrupt is not None:
            corrupt(inst, phase, chunk.index)
        REF_PHASES[phase](ref_data, context.params, chunk.elements)
        for name in PHASE_OUTPUTS[phase]:
            got = np.asarray(inst.data(name), dtype=np.float64)
            want = np.asarray(ref_data[name], dtype=np.float64)
            diff = np.abs(got - want)
            err = float(diff.max()) if diff.size else 0.0
            report.max_abs_error[phase] = max(
                report.max_abs_error.get(phase, 0.0), err)
            bad = ~np.isclose(got, want, rtol=RTOL, atol=ATOL,
                              equal_nan=False)
            if bad.any() and len(report.violations) < MAX_VIOLATIONS:
                report.violations.append(
                    f"{where}chunk {chunk.index} phase {phase} "
                    f"{name!r}: {int(bad.sum())} element(s) deviate, "
                    f"max abs error {err:.3e}")


def _report(spec: Probe) -> GoldenReport:
    return GoldenReport(opt=spec.opt, vector_size=spec.vector_size,
                        mesh_dims=spec.mesh_dims, backend=spec.backend)


def golden_check(probe: "str | Probe" = "vanilla", /, *,
                 corrupt: Optional[CorruptHook] = None,
                 transformed: bool = False,
                 mutate: Optional[MutateHook] = None) -> GoldenReport:
    """Cross-check one optimization rung against the golden reference.

    The probe configuration is a :class:`Probe`, passed positionally
    (``golden_check(Probe(opt="vec1", backend="interpreter"))``); a bare
    rung string selects the default probe for that rung.

    Runs the IR kernels (through the selected backend) and the NumPy
    reference side by side over every chunk of the probe mesh, comparing
    each phase's output arrays (see
    :data:`repro.cfd.reference.PHASE_OUTPUTS`) after the phase executes.
    Both sides start from byte-identical field data, so agreement is
    expected to machine precision.

    With ``transformed=True``, every *prefix* of the rung's pass
    pipeline is validated separately -- the baseline kernels, then the
    kernels after each pass in turn -- so a mis-legalized transformation
    is pinned to the pass that introduced it, not just to the rung.
    ``mutate`` rewrites the (final-stage) kernel list before execution;
    the chaos harness uses it to prove tampered pass output is
    *detected*.
    """
    spec = resolve_probe(probe)
    report = _report(spec)
    app = spec.build_app()

    def check(kernels: list[Kernel], where: str = "") -> None:
        # both sides start from byte-identical fresh data and
        # scatter-accumulate into their own rhsid/amatr.
        ref_data = {**app.assembly_data(), **app.context.scratch_data()}
        _check(report, app.context, kernels, app.assembly_data(), ref_data,
               where=where, corrupt=corrupt)

    if transformed:
        for prefix in app.pipeline.prefixes():
            kernels, _ = prefix.run_all(app.baseline_kernels)
            names = prefix.pass_names
            if mutate is not None and len(names) == len(app.pipeline):
                kernels = mutate(list(kernels))
            report.stages.append(names)
            check(list(kernels),
                  f"stage [{' -> '.join(names) or 'baseline'}] ")
        return report

    kernels = list(app.kernels)
    if mutate is not None:
        kernels = mutate(kernels)
    check(kernels)
    return report


# ---------------------------------------------------------------------------
# the solver path (phases 9-12)
# ---------------------------------------------------------------------------

#: fixed tolerances for the end-to-end IR-vs-NumPy solve comparison.
#: Scalar recurrences (alpha, beta, omega) are fed by kernel-computed
#: dots that differ from NumPy's pairwise sums at machine epsilon, so
#: the *iterates* drift slightly over a solve even though every single
#: kernel agrees to the probe tolerance -- hence looser than RTOL.
SOLVE_X_RTOL = 1e-6
SOLVE_X_ATOL = 1e-9

#: slack on the true-residual check: the IR solution must satisfy the
#: solve within this multiple of the convergence tolerance.
SOLVE_RESIDUAL_SLACK = 10.0


def solver_golden_check(probe: "str | Probe" = "vanilla", /, *,
                        method: str = "bicgstab",
                        workload=None,
                        mutate: Optional[MutateHook] = None) -> GoldenReport:
    """Cross-check the IR solver kernels against the NumPy solver
    reference (`PHASE_OUTPUTS`-style, phases 9-12).

    Two stages, both recorded in the returned :class:`GoldenReport`:

    1. **per-kernel** -- the compiled SpMV / dot / axpy / Jacobi-apply
       kernels run chunk by chunk (through the probe's backend) on
       seeded vectors, against :data:`repro.cfd.reference.REF_PHASES`,
       compared to the probe tolerance after every kernel;
    2. **end-to-end** -- :meth:`SolverWorkload.ir_solve` (every vector
       op through the kernels) against :func:`repro.cfd.solver.cg` /
       ``bicgstab`` on the assembled shifted system: the converged
       flags must agree, the IR solution must match the reference
       within :data:`SOLVE_X_RTOL`/:data:`SOLVE_X_ATOL`, and its true
       residual must actually satisfy the solve.

    ``workload=`` substitutes a pre-built (possibly fault-injected)
    :class:`~repro.cfd.solver_path.SolverWorkload`; ``mutate`` rewrites
    the solver kernel list before execution (the chaos harness's entry
    points for torn-gather / mis-legalization drills).
    """
    from repro.cfd.solver_path import SOLVE_TOL
    from repro.cfd.solver_phases import seeded_solver_inputs

    spec = resolve_probe(probe)
    report = _report(spec)
    app = spec.build_app()
    if workload is None:
        workload, b = app.build_solver()
    else:
        _, b = app.build_solver()
    kernels = sorted(workload.kernels, key=lambda k: k.phase)
    if mutate is not None:
        kernels = mutate(list(kernels))
        workload.kernels = kernels
        workload.kernels_by_phase = {k.phase: k for k in kernels}

    # -- stage 1: per-kernel, chunk by chunk ----------------------------
    report.stages.append(("solver-kernels",))
    ctx = workload.context
    data = seeded_solver_inputs(ctx, spec.field_seed)
    _check(report, ctx, kernels, data,
           {name: arr.copy() for name, arr in data.items()}, where="solver ")

    # -- stage 2: end-to-end IR solve vs NumPy solver reference ---------
    report.stages.append((f"solver-e2e:{method}",))
    ir = workload.ir_solve(b, method=method, backend=report.backend)
    ref = workload.reference_solve(b, method=method)
    if bool(ir.converged) != bool(ref.converged):
        report.violations.append(
            f"solver e2e {method}: converged flag mismatch "
            f"(ir={ir.converged} after {ir.iterations} it, "
            f"ref={ref.converged} after {ref.iterations} it)")
    if not np.allclose(ir.x, ref.x, rtol=SOLVE_X_RTOL, atol=SOLVE_X_ATOL,
                       equal_nan=False):
        err = float(np.abs(ir.x - ref.x).max())
        report.violations.append(
            f"solver e2e {method}: IR solution deviates from the NumPy "
            f"reference, max abs error {err:.3e}")
    if ref.converged:
        from repro.cfd.csr import spmv as _csr_spmv

        true_res = float(np.linalg.norm(
            b - _csr_spmv(workload.pattern, workload.amatr, ir.x)))
        bnorm = float(np.linalg.norm(b)) or 1.0
        if true_res / bnorm > SOLVE_RESIDUAL_SLACK * SOLVE_TOL:
            report.violations.append(
                f"solver e2e {method}: IR solution does not satisfy the "
                f"system (true residual {true_res / bnorm:.3e})")
    return report
