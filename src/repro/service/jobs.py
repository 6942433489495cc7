"""Job records + the durable service journal.

One :class:`Job` is one submitted sweep: an ordered tuple of
:class:`~repro.experiments.config.RunConfig` plus tenant, priority, and
per-config completion state.  Job lifecycle is journaled to an
append-only fsynced JSONL file (the same :class:`SweepJournal` machinery
the executor uses, including torn-tail repair on open), so a service
killed at any instant resumes with zero completed results lost:

* ``service_start`` / ``service_stop`` — process lifecycle;
* ``submit`` — full job record (configs serialized via
  ``RunConfig.to_dict``);
* ``rejected`` — an admission rejection (accounting: every submission
  leaves a durable trace, admitted or not);
* ``job_start`` — a worker picked the job up;
* ``config_done`` — one config completed, with its result digest and
  provenance (``computed`` / ``store`` / ``cache``); written *after*
  the payload is durably in the result store, so the journal is never
  ahead of the data;
* ``job_done`` / ``job_failed`` — terminal states;
* ``slo_breach`` — a per-tenant SLO verdict flipped to breached (see
  :mod:`repro.service.telemetry`); journaled so degradation episodes
  are durable first-class events, not dashboard ephemera;
* ``drain`` — graceful-shutdown request accepted.

:func:`replay_service_journal` folds the file into the job table; jobs
that were queued or running when the process died come back ``queued``
with their ``completed`` maps intact — the service re-dispatches them
and every already-completed config is served from the store, not
recomputed.  The fold also tallies per-tenant submit / reject /
done / failed counts and per-source config completions, which is how
the telemetry plane's counters survive ``kill -9``
(:meth:`repro.service.telemetry.ServiceTelemetry.seed`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.config import RunConfig
from repro.experiments.journal import SweepJournal, read_records

#: job states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


@dataclass
class Job:
    """One submitted sweep and its completion state."""

    job_id: str
    tenant: str
    priority: float
    configs: tuple[RunConfig, ...]
    status: str = QUEUED
    #: workload kind: ``sweep`` (plain submission) or ``autotune`` (a
    #: candidate-timing plan submitted by ``repro autotune``); journaled
    #: so the label survives restart.
    kind: str = "sweep"
    #: cfg key -> result digest, completed so far.
    completed: dict = field(default_factory=dict)
    #: cfg key -> provenance: ``computed`` (simulated in this job),
    #: ``store`` (cross-tenant/job dedup hit), ``cache`` (executor cache
    #: entry adopted into the store on resume).
    sources: dict = field(default_factory=dict)
    #: cfg key -> error for configs that failed permanently.
    failed: dict = field(default_factory=dict)
    error: str = ""
    #: in-memory RunEvent stream for poll/stream (not journaled; a
    #: restarted service starts this ring empty).
    events: list = field(default_factory=list)
    #: trace context stamped by a traced ``submit`` (journaled, so a
    #: resumed job keeps its correlation id across restarts).
    trace_id: str = ""
    #: service-clock instant the job entered the queue (re-stamped at
    #: requeue on resume); queue-wait = dispatch time minus this.
    submitted_at: float = 0.0
    #: per-job tracer collecting the cross-process timeline of a traced
    #: job (in-memory only; exported to state_dir/traces/ on terminal).
    tracer: Optional[object] = field(default=None, repr=False)

    @property
    def total(self) -> int:
        return len(self.configs)

    @property
    def from_store(self) -> int:
        """Configs served without recomputation (store or cache dedup)."""
        return sum(1 for s in self.sources.values() if s != "computed")

    @property
    def recomputed(self) -> int:
        return sum(1 for s in self.sources.values() if s == "computed")

    def view(self) -> dict:
        """JSON-able summary (the ``poll`` / ``jobs`` wire payload)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "kind": self.kind,
            "status": self.status,
            "total": self.total,
            "completed": len(self.completed),
            "from_store": self.from_store,
            "recomputed": self.recomputed,
            "failed": dict(self.failed),
            "error": self.error,
            "events": len(self.events),
            "trace_id": self.trace_id,
        }


@dataclass
class ServiceState:
    """Folded view of a service journal."""

    jobs: dict = field(default_factory=dict)  # job_id -> Job
    #: submission order, for deterministic re-dispatch of resumed jobs.
    order: list = field(default_factory=list)
    rejected: int = 0
    draining: bool = False
    #: per-tenant tallies, folded from the journal so the telemetry
    #: plane's counters survive restart (see ServiceTelemetry.seed).
    tenant_submits: dict = field(default_factory=dict)
    tenant_rejects: dict = field(default_factory=dict)
    tenant_done: dict = field(default_factory=dict)
    tenant_failed: dict = field(default_factory=dict)
    #: config completions by provenance (computed / store / cache).
    configs_done: dict = field(default_factory=dict)
    #: journaled SLO breach records: {"tenant": ..., "slo": ...}.
    slo_breaches: list = field(default_factory=list)

    def next_seq(self) -> int:
        best = 0
        for job_id in self.jobs:
            try:
                best = max(best, int(job_id.lstrip("j")))
            except ValueError:  # pragma: no cover - foreign id scheme
                continue
        return best + 1

    def unfinished(self) -> list:
        """Jobs to re-dispatch after a restart, submission order."""
        return [self.jobs[j] for j in self.order
                if self.jobs[j].status in (QUEUED, RUNNING)]


def replay_service_journal(path: str | os.PathLike) -> Optional[ServiceState]:
    """Fold a service journal; ``None`` when the file does not exist.

    Reads records through the sweep journal's reader, so torn tails are
    tolerated exactly alike (the writer repairs them on open; the
    reader skips anything unparsable).  Jobs interrupted mid-flight come
    back ``queued`` with completion state intact.
    """
    records = read_records(path)
    if records is None:
        return None
    state = ServiceState()
    for rec in records:
        ev = rec["ev"]
        if ev == "submit":
            try:
                configs = tuple(RunConfig.from_dict(c)
                                for c in rec["configs"])
            except (KeyError, TypeError, ValueError):
                continue  # unreadable job record: skip it whole
            job = Job(job_id=rec.get("job_id", ""),
                      tenant=rec.get("tenant", "default"),
                      priority=float(rec.get("priority", 0)),
                      configs=configs,
                      kind=str(rec.get("kind", "sweep") or "sweep"),
                      trace_id=str(rec.get("trace_id", "") or ""))
            state.jobs[job.job_id] = job
            state.order.append(job.job_id)
            state.tenant_submits[job.tenant] = (
                state.tenant_submits.get(job.tenant, 0) + 1)
        elif ev == "rejected":
            state.rejected += 1
            tenant = rec.get("tenant", "default")
            state.tenant_rejects[tenant] = (
                state.tenant_rejects.get(tenant, 0) + 1)
        elif ev == "job_start":
            job = state.jobs.get(rec.get("job_id", ""))
            if job is not None:
                job.status = RUNNING
        elif ev == "config_done":
            job = state.jobs.get(rec.get("job_id", ""))
            if job is not None and rec.get("key"):
                job.completed[rec["key"]] = rec.get("digest", "")
                source = rec.get("source", "computed")
                job.sources[rec["key"]] = source
                state.configs_done[source] = (
                    state.configs_done.get(source, 0) + 1)
        elif ev == "job_done":
            job = state.jobs.get(rec.get("job_id", ""))
            if job is not None:
                job.status = DONE
                state.tenant_done[job.tenant] = (
                    state.tenant_done.get(job.tenant, 0) + 1)
        elif ev == "job_failed":
            job = state.jobs.get(rec.get("job_id", ""))
            if job is not None:
                job.status = FAILED
                job.error = rec.get("error", "")
                job.failed.update(rec.get("failed", {}))
                state.tenant_failed[job.tenant] = (
                    state.tenant_failed.get(job.tenant, 0) + 1)
        elif ev == "slo_breach":
            state.slo_breaches.append({
                "tenant": rec.get("tenant", "default"),
                "slo": rec.get("slo", "")})
        elif ev == "drain":
            state.draining = True
        elif ev == "service_start":
            # a fresh process: drain state does not survive a restart.
            state.draining = False
    # jobs caught mid-flight resume from the front of the queue.
    for job in state.unfinished():
        job.status = QUEUED
    return state


class ServiceJournal(SweepJournal):
    """The service-level journal writer: same append-only fsynced
    discipline (and torn-tail repair) as the executor's sweep journal,
    different record vocabulary."""
