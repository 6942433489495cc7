"""repro -- reproduction of "Exploiting long vectors with a CFD code:
a co-design show case" (Blancafort et al., IPPS 2024).

The package simulates the paper's entire stack in Python:

* :mod:`repro.isa` -- the RVV-like vector instruction model;
* :mod:`repro.machine` -- cycle-accounting machine models (RISC-V VEC
  prototype, NEC SX-Aurora, Intel AVX-512) with line-accurate caches;
* :mod:`repro.compiler` -- a loop-nest IR and an auto-vectorizing
  compiler model with LLVM-like legality/cost behaviour and remarks;
* :mod:`repro.cfd` -- the Alya-like Navier-Stokes assembly mini-app
  (mesh, elements, the eight instrumented phases, CSR + Krylov solver);
* :mod:`repro.metrics` -- the paper's §2.2 metrics and Table-6
  regression;
* :mod:`repro.obs` -- the observability spine: one ambient tracer
  through every layer (machine phase spans on the cycle clock, emulator
  instruction streams, executor progress), with Paraver / Chrome
  ``trace_event`` exporters, terminal renderers, and the exact
  per-phase cycle gate behind ``repro bench --baseline``;
* :mod:`repro.trace` -- Extrae/Vehave/Paraver-style trace files and
  analysis (the exporter side of :mod:`repro.obs`);
* :mod:`repro.experiments` -- the harness regenerating every table and
  figure of the evaluation;
* :mod:`repro.backends` -- pluggable kernel execution: the
  ``"interpreter"`` semantics oracle and the default ``"numpy"``
  whole-array lowering, byte-identical and ~25x faster (``get_backend``,
  ``BACKENDS``, every ``backend=`` keyword and ``--backend`` flag);
* :mod:`repro.validation` -- counter invariants + golden-reference
  cross-checks (``execute_plan(validate=True)``, ``--validate``),
  configured by the shared :class:`~repro.validation.Probe` spec;
* :mod:`repro.faults` -- seeded fault injection and the chaos campaign
  proving the stack detects or recovers from every injected fault
  (``repro chaos``).

Quickstart (the stable public API lives right here)::

    from repro import RunConfig, Session

    session = Session(mesh_dims=(8, 8, 15))
    counters = session.run(RunConfig(opt="vec1", vector_size=240,
                                     mesh_dims=(8, 8, 15)))
    print(counters.total_cycles)

or, one level lower::

    from repro import MiniApp, box_mesh, get_machine

    app = MiniApp(box_mesh(8, 8, 15), vector_size=240, opt="vec1")
    counters = app.run_timed(get_machine("riscv_vec"))
    print(counters.total_cycles)
"""

__version__ = "2.0.0"

from repro import obs
from repro.backends import BACKENDS, ExecutionBackend, get_backend
from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import box_mesh
from repro.experiments.config import RunConfig
from repro.experiments.executor import ExecutionPlan, SweepError, execute_plan
from repro.experiments.runner import Session
from repro.machine.machines import get_machine
from repro.validation.probe import Probe

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ExecutionPlan",
    "MiniApp",
    "Probe",
    "RunConfig",
    "Session",
    "SweepError",
    "__version__",
    "box_mesh",
    "execute_plan",
    "get_machine",
    "get_backend",
    "obs",
]
