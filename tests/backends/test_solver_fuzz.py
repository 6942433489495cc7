"""Seeded differential fuzzing of the IR-lowered solver kernels.

Random field seeds (which drive both the assembled matrix and the
seeded solver vectors) run the SpMV / dot / axpy / Jacobi-apply kernels
through the interpreter oracle and the NumPy lowering across every rung
and every dependency-legal pass schedule; ``solver_phase_digests`` must
agree bit for bit.  A second layer checks the kernels against the plain
``cfd.csr`` / ``cfd.solver`` NumPy reference (values, not bytes: kernel
dot products accumulate in a different order than ``np.dot``).
"""

import random

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cfd.csr import spmv
from repro.cfd.solver_phases import (
    SOLVER_PHASE_OUTPUTS,
    SOLVER_REF_PHASES,
    seeded_solver_inputs,
)
from repro.compiler.transforms import legal_schedules
from repro.validation.digests import solver_phase_digests
from repro.validation.probe import ATOL, RTOL, Probe

RUNGS = ("scalar", "vanilla", "vec2", "ivec2", "vec1")

_rng = random.Random(0x50F7C0DE)
SEEDS = sorted(_rng.sample(range(1, 10_000), 3))


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_solver_rungs_match_interpreter(seed):
    oracle = solver_phase_digests(
        Probe(opt="vanilla", field_seed=seed, backend="interpreter"))
    for rung in RUNGS:
        got = solver_phase_digests(
            Probe(opt=rung, field_seed=seed, backend="numpy"))
        assert got == oracle, (rung, seed)


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_fuzz_all_legal_schedules_match_interpreter(seed):
    """Every legal schedule, and every const-trip-count one again with
    ``strip-mine:2`` and ``strip-mine:4`` appended (both split the
    probe's VECTOR_SIZE 8 loops)."""
    oracle = solver_phase_digests(
        Probe(opt="vanilla", field_seed=seed, backend="interpreter"))
    schedules = legal_schedules()
    schedules += tuple(s + (f"strip-mine:{n}",) for s in schedules
                       if "const-trip-count" in s for n in (2, 4))
    assert len(schedules) == 9 + 14
    for sched in schedules:
        got = solver_phase_digests(
            Probe(opt="vanilla", passes=sched, field_seed=seed,
                  backend="numpy"))
        assert got == oracle, (sched, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", ["interpreter", "numpy"])
def test_fuzz_kernels_match_numpy_reference(seed, backend):
    """Executed kernel outputs vs the SOLVER_REF_PHASES NumPy semantics
    and, for SpMV, the original ``cfd.csr`` path."""
    probe = Probe(field_seed=seed, backend=backend)
    app = probe.build_app()
    workload, _ = app.build_solver()
    ctx = workload.context
    be = get_backend(backend)
    data = seeded_solver_inputs(ctx, seed)
    ref = {name: arr.copy() for name, arr in data.items()}
    kernels = sorted(workload.kernels, key=lambda k: k.phase)
    for chunk in ctx.chunks():
        inst = ctx.instance_for_chunk(chunk, globals_data=data)
        executor = be.executor(inst, ctx.params)
        rows = chunk.elements
        for kern in kernels:
            executor.run(kern)
            SOLVER_REF_PHASES[kern.phase](ref, ctx.params, rows)
            for name in SOLVER_PHASE_OUTPUTS[kern.phase]:
                np.testing.assert_allclose(
                    np.asarray(inst.data(name)), ref[name],
                    rtol=RTOL, atol=ATOL,
                    err_msg=f"{kern.name}:{name}")
    n = ctx.sizes.nrow
    np.testing.assert_allclose(
        ref["yout"][:n], spmv(workload.pattern, workload.amatr,
                              data["xvec"][:n]),
        rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_fuzz_ir_solve_tracks_reference(seed):
    """End to end: the IR-orchestrated BiCGSTAB on a fuzzed system
    converges exactly like the ``cfd.solver`` NumPy reference."""
    app = Probe(field_seed=seed).build_app()
    ir = app.solve("bicgstab")
    ref = app.reference_solve("bicgstab")
    assert (ir.converged, ir.iterations) == (ref.converged, ref.iterations)
    np.testing.assert_allclose(ir.x, ref.x, rtol=1e-6, atol=1e-9)
