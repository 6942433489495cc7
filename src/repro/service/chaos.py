"""Chaos drills for the supervised sweep service.

Extends the seeded campaign (:mod:`repro.faults.chaos`) with the
service-level fault kinds the queue front end must survive:

``hung_worker``
    a seeded worker hang inside a service job; the executor's timeout
    fires, the retry succeeds, the job completes bit-identical —
    *recovered*;
``torn_entry``
    a run-cache entry truncated mid-write between two service
    lifetimes; the digest check discards it, the executor's
    ``cache_corrupt`` event surfaces in the job's stream, and the config
    is recomputed to the same digest — *recovered*;
``submission_flood``
    a burst far past the admission budget; every excess submission gets
    an explicit ``rejected`` response and a journal record, admitted +
    rejected accounts for every request, admitted work completes, *and*
    the telemetry plane notices: the flooding tenant's completion-rate
    SLO breach is detected and journaled as a first-class
    ``slo_breach`` event — *degraded* (visible, accounted degradation;
    shedding without the SLO verdict would be merely *rejected*);
``worker_failure_storm``
    every run crashes until the circuit breaker trips; submissions are
    refused while open, the half-open probe restores service, and the
    storm-hit tenant's SLO breach is journaled while the breaker cycle
    is counted by the metrics plane — *degraded*;
``service_kill``
    a real ``repro serve`` subprocess SIGKILLed mid-sweep; a restarted
    service resumes the job with every journaled completion served from
    the run cache, zero recomputation of finished work, and the telemetry
    counters (per-tenant submits, per-source completions) re-seeded
    from the journal fold — *recovered*.

Any other outcome is *silent* and fails the campaign.  All in-process
stages run on injected :class:`StepClock` time, so their evidence
strings are deterministic; the kill stage talks to a real process and
is therefore excluded from byte-for-byte report comparisons (see
``run_chaos_campaign(service_faults=...)``).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.config import MeshSpec, resolve_mesh
from repro.experiments.executor import (
    ExecutionPlan,
    cache_path,
    execute_plan,
    payload_digest,
    simulate_to_dict,
)
from repro.faults.chaos import (
    CLEAN,
    DEGRADED,
    DETECTED,
    RECOVERED,
    REJECTED,
    SILENT,
    ChaosReport,
    StageReport,
)
from repro.faults.injector import AlwaysCrashWorker, FaultyWorker
from repro.faults.plan import FaultPlan
from repro.metrics.counters import counters_to_dict
from repro.service.admission import AdmissionController
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.core import SweepService
from repro.service.jobs import replay_service_journal

#: the service fault vocabulary; every kind is drilled by
#: :func:`append_service_stages` and must classify as a safe outcome.
SERVICE_FAULT_KINDS = ("hung_worker", "torn_entry", "submission_flood",
                       "worker_failure_storm", "service_kill")


class StepClock:
    """A manually-advanced monotonic clock: drills step time instead of
    sleeping through it, which keeps evidence deterministic."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def advance(self, dt: float) -> None:
        self.now += float(dt)

    def __call__(self) -> float:
        return self.now


def _baseline_digests(plan: ExecutionPlan, scratch: Path) -> dict[str, str]:
    """key -> content digest from one clean serial sweep: the yardstick
    every service stage's cached payloads are compared against."""
    res = execute_plan(plan, cache_dir=scratch / "service-baseline", jobs=1)
    return {key: payload_digest(counters_to_dict(run))
            for key, run in res.runs.items()}


def _digests_match(svc: SweepService, job_id: str,
                   expect: dict[str, str]) -> bool:
    job = svc._jobs.get(job_id)
    return (job is not None
            and set(job.completed) == set(expect)
            and all(job.completed[k] == expect[k] for k in expect))


def append_service_stages(report: ChaosReport, *,
                          seed: int,
                          mesh: MeshSpec = "tiny",
                          scratch: str | os.PathLike,
                          verbose: bool = False,
                          include_kill: bool = True) -> None:
    """Run the service drills and append one stage per fault kind (plus
    the dedup baseline) to *report*.  ``scratch`` holds all state dirs
    and is owned by the caller."""
    scratch = Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    dims = resolve_mesh(mesh)
    plan = ExecutionPlan.ladder(mesh=dims)
    configs = list(plan)
    keys = [cfg.key() for cfg in plan]

    def note(msg: str) -> None:
        if verbose:
            print(f"[chaos] {msg}", file=sys.stderr, flush=True)

    note("service baseline sweep")
    expect = _baseline_digests(plan, scratch)

    # -- baseline + cross-tenant dedup ------------------------------------
    note("stage service-dedup")
    svc = SweepService(str(scratch / "dedup"))
    r1 = svc.submit(configs, tenant="alice")
    svc.process_next()
    r2 = svc.submit(configs, tenant="bob")
    svc.process_next()
    svc.close()
    j1 = svc._jobs.get(r1.get("job_id", ""))
    j2 = svc._jobs.get(r2.get("job_id", ""))
    entries = svc.health()["store"]["entries"]
    ok = (j1 is not None and j2 is not None
          and j1.status == "done" and j2.status == "done"
          and j2.from_store == len(plan) and j2.recomputed == 0
          and _digests_match(svc, j1.job_id, expect)
          and _digests_match(svc, j2.job_id, expect)
          and entries == len(plan))
    report.stages.append(StageReport(
        name="service-dedup", kind="none", target="",
        classification=CLEAN if ok else SILENT,
        evidence=[
            f"alice computed {j1.recomputed if j1 else '?'}/{len(plan)}, "
            f"bob served {j2.from_store if j2 else '?'}/{len(plan)} "
            f"from the run cache",
            f"run cache holds {entries} entr(ies) for "
            f"{len(expect)} config(s) x 2 tenants",
            f"all digests match clean baseline: "
            f"{_digests_match(svc, j2.job_id, expect) if j2 else False}"]))

    # -- hung worker: executor timeout + retry inside a service job -------
    fplan = FaultPlan.generate(seed, keys)
    spec = fplan.spec_for("hang")
    note(f"stage hung-worker: hang on {spec.target_key}")
    state = scratch / "hung"
    worker = FaultyWorker(fplan, scratch / "hung.markers", kinds=("hang",),
                          cache_dir=state / "cache", hang_s=2.0)
    svc = SweepService(str(state), jobs=2, timeout_s=0.5, retries=2,
                       backoff_s=0.01, worker=worker)
    resp = svc.submit(configs, tenant="alice")
    svc.process_next()
    svc.close()
    job = svc._jobs.get(resp.get("job_id", ""))
    noticed = {ev.get("kind") for ev in (job.events if job else [])
               if ev.get("kind") in ("timeout", "retry")
               and ev.get("key") == spec.target_key}
    healed = (job is not None and job.status == "done"
              and _digests_match(svc, job.job_id, expect) and noticed)
    report.stages.append(StageReport(
        name="service-hung-worker", kind="hung_worker",
        target=spec.target_key,
        classification=RECOVERED if healed else
        (DETECTED if job is not None and job.status == "failed" else SILENT),
        evidence=[
            f"timeout/retry events on target: {sorted(noticed)}",
            f"job status: {job.status if job else 'missing'}",
            f"all digests match clean baseline: "
            f"{_digests_match(svc, job.job_id, expect) if job else False}"]))

    # -- torn entry: truncated run-cache entry between two service lives -
    victim = configs[seed % len(configs)]
    victim_key = victim.key()
    note(f"stage torn-entry: tearing {victim_key}")
    state = scratch / "torn"
    svc = SweepService(str(state))
    svc.submit(configs, tenant="alice")
    svc.process_next()
    svc.close()
    entry = cache_path(state / "cache", victim)
    data = entry.read_bytes()
    entry.write_bytes(data[:max(1, len(data) // 3)])  # the torn write
    svc2 = SweepService(str(state))
    r2 = svc2.submit(configs, tenant="bob")
    svc2.process_next()
    svc2.close()
    job = svc2._jobs.get(r2.get("job_id", ""))
    corrupt = [ev.get("key") for ev in (job.events if job else [])
               if ev.get("kind") == "cache_corrupt"]
    healed = (job is not None and job.status == "done"
              and corrupt == [victim_key]
              and job.sources.get(victim_key) == "computed"
              and _digests_match(svc2, job.job_id, expect))
    report.stages.append(StageReport(
        name="service-torn-entry", kind="torn_entry", target=victim_key,
        classification=RECOVERED if healed else SILENT,
        evidence=[
            f"cache_corrupt events: {len(corrupt)}, on the victim: "
            f"{corrupt == [victim_key]}",
            f"victim recomputed: "
            f"{job.sources.get(victim_key) if job else None}, other "
            f"{job.from_store if job else '?'} served from the run cache",
            f"recomputed digest matches baseline: "
            f"{(job.completed.get(victim_key) == expect[victim_key]) if job else False}"]))

    # -- submission flood: explicit shedding, full accounting -------------
    note("stage submission-flood")
    clock = StepClock()
    admission = AdmissionController(tenant_burst=2.0, tenant_per_s=0.0,
                                    global_burst=4.0, global_per_s=0.0,
                                    max_queue_depth=64, clock=clock)
    svc = SweepService(str(scratch / "flood"), admission=admission,
                       clock=clock)
    one = [configs[0]]
    responses = [svc.submit(one, tenant="mallory") for _ in range(6)]
    responses += [svc.submit(one, tenant="alice") for _ in range(3)]
    responses += [svc.submit(one, tenant="carol")]
    admitted = [r for r in responses if r.get("ok")]
    rejected = [r for r in responses if not r.get("ok")]
    reasons = {r.get("rejected", "") for r in rejected}
    while svc.process_next():
        pass
    svc.close()
    done = [svc._jobs[r["job_id"]].status for r in admitted]
    accounted = (len(admitted) + len(rejected) == len(responses)
                 and svc.rejected_total == len(rejected))
    shed = (len(admitted) == 4 and len(rejected) == 6
            and all(reason for reason in reasons)
            and any("tenant rate limit" in r for r in reasons)
            and any("service rate limit" in r for r in reasons)
            and accounted and all(s == "done" for s in done))
    # the telemetry plane must have *seen* the degradation: the flooding
    # tenant's completion rate collapsed, and the breach is both live in
    # the registry and durable in the journal.
    verdicts = svc.telemetry.slo_verdicts()
    mallory = verdicts.get("mallory", {})
    breach_live = (svc.telemetry.breach_count() >= 1
                   and mallory.get("ok") is False)
    jstate = replay_service_journal(scratch / "flood" / "service.journal")
    journaled = [b for b in (jstate.slo_breaches if jstate else [])
                 if b["tenant"] == "mallory"
                 and b["slo"] == "completion_rate"]
    degraded = shed and breach_live and bool(journaled)
    report.stages.append(StageReport(
        name="service-flood", kind="submission_flood", target="",
        classification=(DEGRADED if degraded
                        else REJECTED if shed else SILENT),
        evidence=[
            f"{len(responses)} submissions: {len(admitted)} admitted, "
            f"{len(rejected)} rejected — accounted: {accounted}",
            f"rejection reasons: {sorted(reasons)}",
            f"admitted jobs all completed: "
            f"{all(s == 'done' for s in done)}",
            f"mallory completion-rate SLO breached: {breach_live} "
            f"(rate {mallory.get('completion_rate', {}).get('rate')})",
            f"breach journaled as slo_breach event: {len(journaled)}"]))

    # -- worker failure storm: the breaker trips, probes, recovers --------
    note("stage worker-failure-storm")
    clock = StepClock()
    breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0,
                             clock=clock)
    svc = SweepService(str(scratch / "storm"), worker=AlwaysCrashWorker(),
                       retries=0, backoff_s=0.0, breaker=breaker,
                       clock=clock)
    for _ in range(2):  # two failed jobs trip the breaker
        resp = svc.submit(one, tenant="alice")
        if resp.get("ok"):
            svc.process_next()
    tripped = breaker.state == OPEN and breaker.trips == 1
    refused = svc.submit(one, tenant="alice")
    refused_openly = (not refused.get("ok")
                      and "circuit breaker" in refused.get("rejected", ""))
    clock.advance(breaker.cooldown_s + 1.0)  # cooldown -> half-open
    svc.worker = simulate_to_dict  # the backend recovers; probe honestly
    probe = svc.submit(one, tenant="alice")
    if probe.get("ok"):
        svc.process_next()
    probe_job = svc._jobs.get(probe.get("job_id", ""))
    recovered_resp = svc.submit(one, tenant="bob")
    if recovered_resp.get("ok"):
        svc.process_next()
    svc.close()
    healed = (tripped and refused_openly and probe.get("ok")
              and probe_job is not None and probe_job.status == "done"
              and breaker.state == "closed" and recovered_resp.get("ok"))
    # degradation must be on the record: alice's completion rate
    # collapsed under the storm (journaled slo_breach), and the metrics
    # plane counted the breaker's full closed→open→half-open→closed
    # cycle.
    reg = svc.telemetry.registry
    trip_count = reg.counter_value("breaker_transitions_total",
                                   **{"from": "closed", "to": "open"})
    close_count = reg.counter_value("breaker_transitions_total",
                                    **{"from": "half_open", "to": "closed"})
    cycle_counted = trip_count == 1 and close_count == 1
    jstate = replay_service_journal(scratch / "storm" / "service.journal")
    journaled = [b for b in (jstate.slo_breaches if jstate else [])
                 if b["tenant"] == "alice" and b["slo"] == "completion_rate"]
    degraded = healed and cycle_counted and bool(journaled)
    report.stages.append(StageReport(
        name="service-breaker", kind="worker_failure_storm", target="",
        classification=(DEGRADED if degraded
                        else RECOVERED if healed else SILENT),
        evidence=[
            f"breaker tripped after 2 failed jobs: {tripped}",
            f"open-state submission refused explicitly: "
            f"{refused.get('rejected', '')!r}",
            f"half-open probe restored service: "
            f"probe={probe_job.status if probe_job else 'rejected'}, "
            f"breaker={breaker.state}, "
            f"post-recovery submit admitted: "
            f"{bool(recovered_resp.get('ok'))}",
            f"metrics counted breaker cycle: {cycle_counted} "
            f"(trips {trip_count:g}, closes {close_count:g})",
            f"alice completion-rate breach journaled: {len(journaled)}"]))

    # -- service kill: SIGKILL a real server mid-sweep, then resume -------
    if include_kill:
        note("stage service-kill")
        report.stages.append(
            _kill_stage(plan, expect, scratch / "kill", note))


def _kill_stage(plan: ExecutionPlan, expect: dict[str, str],
                state: Path, note) -> StageReport:
    """SIGKILL a real ``repro serve`` process mid-sweep; a restarted
    service must finish the job serving every journaled completion from
    the run cache."""
    from repro.service.client import ServiceClient
    from repro.service.server import default_socket_path, wait_for_socket

    sock = default_socket_path(state)
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", str(state),
         "--socket", str(sock), "--worker-delay", "0.2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    evidence: list[str] = []
    pre_kill = 0
    job_id = ""
    try:
        if not wait_for_socket(sock, timeout_s=20.0):
            return StageReport(
                name="service-kill", kind="service_kill", target="",
                classification=SILENT,
                evidence=["server socket never came up"])
        client = ServiceClient(sock)
        resp = client.submit(list(plan), tenant="alice")
        if not resp.get("ok"):
            return StageReport(
                name="service-kill", kind="service_kill", target="",
                classification=SILENT,
                evidence=[f"submission refused: {resp}"])
        job_id = resp["job_id"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            view = client.poll(job_id).get("job", {})
            pre_kill = int(view.get("completed", 0))
            if pre_kill >= 3 or view.get("status") in ("done", "failed"):
                break
            time.sleep(0.05)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30.0)
    note(f"killed serve pid after {pre_kill} completion(s)")
    evidence.append(f"SIGKILL with {pre_kill}/{len(plan)} configs "
                    f"journaled complete")
    if pre_kill < 1 or pre_kill >= len(plan):
        evidence.append("kill did not land mid-sweep")
        return StageReport(name="service-kill", kind="service_kill",
                           target=job_id, classification=SILENT,
                           evidence=evidence)

    # the restarted service: same state dir, journal + run cache intact.
    svc = SweepService(str(state))
    # counters survive kill -9: the journal fold must have re-seeded the
    # telemetry registry before any new work runs — the dead process's
    # submit is already counted.
    reg = svc.telemetry.registry

    def _configs_counted() -> float:
        return (reg.counter_value("service_configs_done_total",
                                  source="computed")
                + reg.counter_value("service_configs_done_total",
                                    source="store"))

    seeded_submits = reg.counter_value("service_submits_total",
                                       tenant="alice")
    seeded_configs = _configs_counted()
    resumed = svc.process_next(wait_s=1.0)
    svc.close()
    job = svc._jobs.get(job_id)
    # the journal fold seeds the dead process's completions; the resumed
    # job then counts all of its configs again (cache-served + recomputed),
    # so the lifetime total is seeded + one full pass over the plan.
    configs_counted = _configs_counted()
    counters_survived = (seeded_submits == 1
                         and seeded_configs >= pre_kill
                         and configs_counted == seeded_configs + len(expect)
                         and reg.counter_value("service_jobs_done_total",
                                               tenant="alice") == 1)
    ok = (svc.resumed_jobs >= 1 and resumed == job_id
          and job is not None and job.status == "done"
          and job.from_store >= pre_kill
          and counters_survived
          and _digests_match(svc, job_id, expect))
    evidence += [
        f"restart requeued {svc.resumed_jobs} in-flight job(s)",
        f"resume served {job.from_store if job else '?'} from "
        f"the run cache, recomputed {job.recomputed if job else '?'} "
        f"(>= {pre_kill} journaled completions preserved: "
        f"{job.from_store >= pre_kill if job else False})",
        f"telemetry counters survived the kill via journal replay: "
        f"{counters_survived} (submits {seeded_submits:g}, "
        f"seeded {seeded_configs:g} pre-kill completions, lifetime "
        f"configs done {configs_counted:g}/"
        f"{seeded_configs + len(expect):g})",
        f"all {len(expect)} digests match clean baseline: "
        f"{_digests_match(svc, job_id, expect)}"]
    return StageReport(name="service-kill", kind="service_kill",
                       target=job_id,
                       classification=RECOVERED if ok else SILENT,
                       evidence=evidence)


def run_service_campaign(seed: int = 0,
                         mesh: MeshSpec = "tiny",
                         out_dir: str | os.PathLike | None = None,
                         verbose: bool = False,
                         include_kill: bool = True) -> ChaosReport:
    """The service drills alone, as a standalone report (the CI service
    job's fast path; ``repro chaos --service-faults`` runs them appended
    to the full campaign instead)."""
    dims = resolve_mesh(mesh)
    plan = ExecutionPlan.ladder(mesh=dims)
    report = ChaosReport(seed=seed, mesh_dims=dims, plan_size=len(plan))
    scratch = Path(tempfile.mkdtemp(prefix="repro-service-chaos-"))
    try:
        append_service_stages(report, seed=seed, mesh=mesh, scratch=scratch,
                              verbose=verbose, include_kill=include_kill)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "chaos-report.json").write_text(report.to_json())
        (out / "chaos-summary.md").write_text(report.to_markdown())
    return report
