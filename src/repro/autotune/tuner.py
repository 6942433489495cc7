"""The pass-schedule autotuner: enumerate, prune, validate, time, pick.

``run_autotune`` turns the paper's three hand-chosen transformations
into a *discovered* result:

1. **enumerate** candidate schedules from the machine model
   (:mod:`repro.autotune.space`);
2. **prune** with the static cost model
   (:mod:`repro.autotune.costmodel`) -- pruned candidates are recorded
   with their reason and are *never* executed;
3. **validate** every survivor against the phase-output digest ladder
   (assembly phases *and* the solver phases 9-12, at the tuned
   VECTOR_SIZE): a candidate whose transformed kernels are not
   bit-identical to the honest baseline is marked ``invalid`` and may
   not win;
4. **time** the valid survivors through the cached parallel executor
   (one :func:`~repro.experiments.executor.execute_plan` call, so disk
   cache, process fan-out, retry and journal semantics are inherited);
5. **select** per-phase and total winners by measured cycles
   (deterministic tie-break: fewer passes, then lexicographic).

Every stage runs under an ``autotune`` observability span, so an
ambient tracer sees tuning like any other workload.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro.autotune.costmodel import ScheduleCostModel
from repro.autotune.report import (
    VEC1_PASSES,
    AutotuneReport,
    CandidateOutcome,
)
from repro.autotune.space import enumerate_candidates, schedule_label
from repro.backends import DEFAULT_BACKEND
from repro.compiler.transforms import pipeline_from_names
from repro.experiments.config import RunConfig
from repro.experiments.executor import (
    MODEL_VERSION,
    ExecutionPlan,
    execute_plan,
    simulate_to_dict,
)
from repro.machine.machines import get_machine
from repro.metrics.counters import RunCounters
from repro.obs.tracer import event as _obs_event
from repro.obs.tracer import span as _obs_span
from repro.scope import build_scope
from repro.validation.digests import (
    phase_output_digests,
    solver_phase_digests,
)
from repro.validation.probe import Probe


class AutotuneError(RuntimeError):
    """A candidate sweep that cannot produce a trustworthy report."""


def candidate_config(schedule: tuple[str, ...], *, machine: str,
                     vector_size: int, mesh_dims: tuple[int, int, int],
                     seed: int, backend: str) -> RunConfig:
    """The run configuration that times one candidate schedule.

    Candidates run on the ``vanilla`` rung with an explicit pass list,
    so the schedule -- not a preset -- decides the generated code; the
    empty schedule maps to ``passes=None`` (the baseline cache key).
    Built through :meth:`RunConfig.from_kwargs`, so a bad VECTOR_SIZE,
    machine or backend raises ``ValueError`` here.
    """
    return RunConfig.from_kwargs(machine=machine, opt="vanilla",
                                 vector_size=vector_size,
                                 mesh_dims=mesh_dims, field_seed=seed,
                                 backend=backend, passes=schedule or None)


def validate_schedule(schedule: tuple[str, ...], *, vector_size: int,
                      backend: str = DEFAULT_BACKEND) -> bool:
    """True when the schedule round-trips the full digest ladder.

    Compares the candidate's per-phase output digests -- assembly
    phases and the solver phases 9-12 -- against the honest baseline at
    the same VECTOR_SIZE (digests are only comparable at equal vector
    sizes).  Bit-identical or it may not win.  The empty schedule is
    the honest probe itself (as in :func:`candidate_config`), so it
    reuses the honest digests.
    """
    honest = Probe(opt="vanilla", vector_size=vector_size, backend=backend)
    probe = Probe(opt="vanilla", vector_size=vector_size, backend=backend,
                  passes=schedule or None)
    # each probe's two ladders back to back: they share its one build.
    return ((phase_output_digests(probe), solver_phase_digests(probe))
            == (phase_output_digests(honest), solver_phase_digests(honest)))


def schedule_remarks(schedule: tuple[str, ...],
                     baseline_kernels: Iterable) -> list:
    """Transform remarks of one schedule over the baseline kernels,
    as JSON-ready dicts (``not-applicable`` remarks are summarized by
    the counts; ``applied`` / ``illegal`` are listed in full)."""
    _, remarks = pipeline_from_names(schedule).run_all(baseline_kernels)
    return [{"phase": r.phase, "kernel": r.kernel, "pass": r.pass_name,
             "status": r.status, "reason": r.reason}
            for r in remarks if r.status != "not-applicable"]


def _pick_winner(timed: list, cycles_of: Callable) -> dict:
    """Winner + runner-up by measured cycles, deterministic tie-break
    (fewer passes first, then lexicographic schedule)."""
    ranked = sorted(timed, key=lambda c: (cycles_of(c), len(c.schedule),
                                          c.schedule))
    best = ranked[0]
    out = {"schedule": list(best.schedule), "label": best.label,
           "cycles": cycles_of(best)}
    if len(ranked) > 1:
        out["runner_up"] = ranked[1].label
    return out


def _vec1_verdict(winners_per_phase: dict) -> dict:
    """Did the per-phase winners rediscover the paper's schedule?

    ``subset_ok``: every winning schedule draws only on the VEC1 pass
    set (no strip variant won anywhere); ``union_equals_vec1``: across
    the phases, all three paper passes are part of some winner -- the
    hand-chosen ladder emerges from the union of per-phase optima.
    """
    union: set[str] = set()
    subset_ok = True
    for w in winners_per_phase.values():
        bases = {s.partition(":")[0] for s in w["schedule"]}
        union |= bases
        if not bases <= VEC1_PASSES:
            subset_ok = False
    union_ok = union == set(VEC1_PASSES)
    return {"subset_ok": subset_ok, "union_equals_vec1": union_ok,
            "rediscovered": subset_ok and union_ok}


def run_autotune(mesh_dims: tuple[int, int, int] = (4, 3, 3), *,
                 machine: str = "riscv_vec",
                 vector_size: int = 240,
                 profile: str = "smoke",
                 seed: int = 0,
                 backend: str = DEFAULT_BACKEND,
                 cache_dir: str | os.PathLike = ".repro_cache",
                 jobs: int = 1,
                 use_disk: bool = True,
                 worker=None) -> AutotuneReport:
    """Discover the best pass schedule per phase on one machine model.

    *worker* overrides the executor's simulation callable (test hook:
    a spy worker proves pruned candidates are never timed); it defaults
    to the local cached executor's.

    The whole call runs in one build scope (:mod:`repro.scope`): its
    candidates share the meshes, kernel contexts, baseline IR, compiled
    kernels and assembled solver systems they have in common, and the
    scope is gone when the call returns or raises.
    """
    # the baseline config first: it checks the inputs before the digest
    # probes, which run on no RunConfig of their own.
    baseline_config = candidate_config(
        (), machine=machine, vector_size=vector_size, mesh_dims=mesh_dims,
        seed=seed, backend=backend)
    params = get_machine(machine)
    model = ScheduleCostModel(params=params, vector_size=vector_size)

    with build_scope(), _obs_span("autotune", cat="autotune",
                                  machine=machine, profile=profile,
                                  vector_size=vector_size):
        with _obs_span("autotune enumerate", cat="autotune"):
            schedules = enumerate_candidates(params, vector_size, profile)

        outcomes: list[CandidateOutcome] = []
        survivors: list[CandidateOutcome] = []
        with _obs_span("autotune prune", cat="autotune",
                       candidates=len(schedules)):
            for sched in schedules:
                outcome = CandidateOutcome(
                    schedule=sched, status="timed",
                    predicted=model.predict(sched))
                reason = model.prune_reason(sched)
                if reason is not None:
                    outcome.status = "pruned"
                    outcome.prune_reason = reason
                else:
                    survivors.append(outcome)
                outcomes.append(outcome)

        with _obs_span("autotune validate", cat="autotune",
                       survivors=len(survivors)):
            for outcome in survivors:
                ok = validate_schedule(outcome.schedule,
                                       vector_size=vector_size,
                                       backend=backend)
                outcome.digest_ok = ok
                if not ok:
                    outcome.status = "invalid"
                    _obs_event("autotune digest mismatch", cat="autotune",
                               schedule=schedule_label(outcome.schedule))
            survivors = [c for c in survivors if c.status == "timed"]

        configs = {
            c.schedule: candidate_config(
                c.schedule, machine=machine, vector_size=vector_size,
                mesh_dims=mesh_dims, seed=seed, backend=backend)
            for c in survivors}
        with _obs_span("autotune time", cat="autotune",
                       candidates=len(configs)):
            result = execute_plan(
                ExecutionPlan.from_configs(configs.values()),
                cache_dir=cache_dir, jobs=jobs, use_disk=use_disk,
                worker=worker or simulate_to_dict)
            if result.failed:
                raise AutotuneError(
                    f"{len(result.failed)} candidate run(s) failed "
                    f"permanently: {sorted(result.failed)}")
            runs = result.runs

        from repro.experiments.executor import build_miniapp
        baseline = build_miniapp(baseline_config)
        for outcome in survivors:
            key = configs[outcome.schedule].key()
            counters: RunCounters = runs[key]
            outcome.cycles_total = counters.total_cycles
            outcome.phase_cycles = {
                str(pid): counters.phases[pid].cycles_total
                for pid in counters.phase_ids()}
            outcome.remarks = schedule_remarks(outcome.schedule,
                                               baseline.baseline_kernels)
            _obs_event("autotune candidate timed", cat="autotune",
                       schedule=schedule_label(outcome.schedule),
                       cycles=outcome.cycles_total)

        with _obs_span("autotune select", cat="autotune"):
            if not survivors:
                raise AutotuneError(
                    "no candidate survived pruning + validation; "
                    "nothing to rank")
            phase_ids = sorted({pid for c in survivors
                                for pid in c.phase_cycles}, key=int)
            winners_per_phase = {
                pid: _pick_winner(
                    [c for c in survivors if pid in c.phase_cycles],
                    lambda c, p=pid: c.phase_cycles[p])
                for pid in phase_ids}
            winner_total = _pick_winner(survivors,
                                        lambda c: c.cycles_total)
            vec1 = _vec1_verdict(winners_per_phase)

    statuses = [c.status for c in outcomes]
    return AutotuneReport(
        machine=machine, mesh_dims=tuple(mesh_dims),
        vector_size=vector_size, profile=profile, seed=seed,
        backend=backend, model_version=MODEL_VERSION,
        candidates=outcomes,
        winners_per_phase=winners_per_phase,
        winner_total=winner_total,
        vec1_family=vec1,
        counts={"enumerated": len(outcomes),
                "pruned": statuses.count("pruned"),
                "invalid": statuses.count("invalid"),
                "timed": statuses.count("timed")})
