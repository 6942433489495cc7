"""Service telemetry: the metrics plane + per-tenant SLO verdicts.

:class:`ServiceTelemetry` is the one place the sweep service's moving
parts publish aggregate state: the service core reports submits /
rejects / job terminals / queue waits, the circuit breaker reports state
transitions (via its ``on_transition`` hook), the admission controller
increments its own counters through the shared
:class:`~repro.obs.metrics.MetricsRegistry`, and the executor publishes
ambient run events when a registry is installed.  Everything lands in
one lock-safe registry, exposed through the wire protocol's ``metrics``
verb and the ``repro top`` dashboard.

On top of the raw series sit **per-tenant SLO verdicts**:

* ``queue_wait`` — p50/p95 of the tenant's queue-wait histogram
  (bucket-bound estimates, deterministic given the same bucket counts)
  against ``SLOPolicy.queue_wait_p95_s``;
* ``completion_rate`` — ``done / (done + failed + rejected)`` against
  ``SLOPolicy.completion_rate_min``, evaluated only once the tenant has
  ``min_events`` accountable outcomes (a single rejection is noise, a
  flood is a breach).

A breach is a **first-class journaled event**: the service calls
:meth:`check_slos` after every rejection and job terminal; each *newly*
breached ``(tenant, slo)`` pair is journaled once (``slo_breach``) and
counted, and the breach set itself survives restart because
:func:`~repro.service.jobs.replay_service_journal` folds those records
back — which is also how every per-tenant counter survives ``kill -9``
(:meth:`seed`).

:func:`stable_status` builds the curated byte-deterministic view that
``repro top --once --json`` prints: it keeps the series that are a pure
function of the workload (counts, states, verdicts) and drops the ones
that are functions of the wall clock (histogram sums, wall-time
aggregates, token-bucket fill levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.metrics import (
    JOB_WALL_BUCKETS,
    QUEUE_WAIT_BUCKETS,
    MetricsRegistry,
)

#: SLO identifiers (journal + verdict vocabulary).
SLO_QUEUE_WAIT = "queue_wait"
SLO_COMPLETION = "completion_rate"


@dataclass(frozen=True)
class SLOPolicy:
    """Configurable per-tenant service-level objectives."""

    #: p95 queue wait must stay at or under this many seconds.
    queue_wait_p95_s: float = 5.0
    #: done / (done + failed + rejected) must stay at or above this.
    completion_rate_min: float = 0.9
    #: completion-rate is only judged once a tenant has this many
    #: accountable outcomes — one rejected probe is not an outage.
    min_events: int = 3

    def to_dict(self) -> dict:
        return {"queue_wait_p95_s": self.queue_wait_p95_s,
                "completion_rate_min": self.completion_rate_min,
                "min_events": self.min_events}


class ServiceTelemetry:
    """The sweep service's metrics + SLO plane (one per service)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 slo: Optional[SLOPolicy] = None):
        self.registry = registry or MetricsRegistry()
        self.slo = slo or SLOPolicy()
        self._tenants: set[str] = set()
        #: (tenant, slo) pairs already journaled — each breach is a
        #: first-class event exactly once per breach episode.
        self._breached: set[tuple[str, str]] = set()

    # -- publishing hooks (called by the service core) ---------------------

    def record_submit(self, tenant: str) -> None:
        self._tenants.add(tenant)
        self.registry.counter("service_submits_total", tenant=tenant).inc()

    def record_reject(self, tenant: str, reason: str) -> None:
        self._tenants.add(tenant)
        self.registry.counter("service_rejects_total", tenant=tenant).inc()
        self.registry.counter("service_rejects_by_cause_total",
                              cause=reject_cause(reason)).inc()

    def record_queue_wait(self, tenant: str, wait_s: float) -> None:
        self._tenants.add(tenant)
        self.registry.histogram("service_queue_wait_seconds",
                                bounds=QUEUE_WAIT_BUCKETS,
                                tenant=tenant).observe(wait_s)

    def record_job_done(self, tenant: str, wall_s: float) -> None:
        self._tenants.add(tenant)
        self.registry.counter("service_jobs_done_total", tenant=tenant).inc()
        self.registry.histogram("service_job_wall_seconds",
                                bounds=JOB_WALL_BUCKETS).observe(wall_s)

    def record_job_failed(self, tenant: str, wall_s: float) -> None:
        self._tenants.add(tenant)
        self.registry.counter("service_jobs_failed_total",
                              tenant=tenant).inc()
        self.registry.histogram("service_job_wall_seconds",
                                bounds=JOB_WALL_BUCKETS).observe(wall_s)

    def record_config_done(self, source: str) -> None:
        self.registry.counter("service_configs_done_total",
                              source=source).inc()

    def set_queue_depth(self, depth: int) -> None:
        self.registry.gauge("service_queue_depth").set(depth)

    def record_breaker_transition(self, old: str, new: str) -> None:
        """The breaker's ``on_transition`` hook."""
        self.registry.counter("breaker_transitions_total",
                              **{"from": old, "to": new}).inc()

    # -- restart continuity ------------------------------------------------

    def seed(self, state) -> None:
        """Replay-fold a :class:`~repro.service.jobs.ServiceState` into
        the registry, so counters survive ``kill -9`` + restart.  (The
        histograms restart empty — the journal records outcomes, not
        durations — which the snapshot makes visible rather than
        papering over.)"""
        for tenant, n in sorted(state.tenant_submits.items()):
            self._tenants.add(tenant)
            self.registry.counter("service_submits_total",
                                  tenant=tenant).inc(n)
        for tenant, n in sorted(state.tenant_rejects.items()):
            self._tenants.add(tenant)
            self.registry.counter("service_rejects_total",
                                  tenant=tenant).inc(n)
        for tenant, n in sorted(state.tenant_done.items()):
            self._tenants.add(tenant)
            self.registry.counter("service_jobs_done_total",
                                  tenant=tenant).inc(n)
        for tenant, n in sorted(state.tenant_failed.items()):
            self._tenants.add(tenant)
            self.registry.counter("service_jobs_failed_total",
                                  tenant=tenant).inc(n)
        for source, n in sorted(state.configs_done.items()):
            self.registry.counter("service_configs_done_total",
                                  source=source).inc(n)
        for breach in state.slo_breaches:
            tenant, slo = breach.get("tenant", ""), breach.get("slo", "")
            self._breached.add((tenant, slo))
            self.registry.counter("service_slo_breaches_total",
                                  slo=slo, tenant=tenant).inc()

    # -- SLO evaluation ----------------------------------------------------

    def _tenant_counts(self, tenant: str) -> tuple[float, float, float]:
        reg = self.registry
        return (reg.counter_value("service_jobs_done_total", tenant=tenant),
                reg.counter_value("service_jobs_failed_total", tenant=tenant),
                reg.counter_value("service_rejects_total", tenant=tenant))

    def slo_verdicts(self) -> dict:
        """Per-tenant verdicts, key-sorted and deterministic."""
        out: dict = {}
        for tenant in sorted(self._tenants):
            done, failed, rejected = self._tenant_counts(tenant)
            events = done + failed + rejected
            verdict: dict = {}

            hist = self.registry.histogram("service_queue_wait_seconds",
                                           bounds=QUEUE_WAIT_BUCKETS,
                                           tenant=tenant)
            p50, p95 = hist.quantile(0.5), hist.quantile(0.95)
            wait_ok = p95 is None or p95 <= self.slo.queue_wait_p95_s
            verdict[SLO_QUEUE_WAIT] = {
                "p50_s": _finite(p50), "p95_s": _finite(p95),
                "target_p95_s": self.slo.queue_wait_p95_s,
                "samples": hist.count, "ok": wait_ok,
            }

            if events >= self.slo.min_events:
                rate = done / events
                rate_ok = rate >= self.slo.completion_rate_min
            else:
                rate, rate_ok = None, True  # not enough evidence to judge
            verdict[SLO_COMPLETION] = {
                "rate": round(rate, 4) if rate is not None else None,
                "target_min": self.slo.completion_rate_min,
                "events": int(events), "ok": rate_ok,
            }
            verdict["ok"] = wait_ok and rate_ok
            out[tenant] = verdict
        return out

    def check_slos(self,
                   journal: Optional[Callable[..., None]] = None) -> dict:
        """Evaluate every tenant; journal + count each *new* breach.

        *journal* is called as ``journal("slo_breach", tenant=...,
        slo=..., value=..., target=...)`` — the service passes its
        journal's ``record`` method, making breaches durable first-class
        events that replay folds back into :meth:`seed`.
        """
        verdicts = self.slo_verdicts()
        for tenant, verdict in verdicts.items():
            for slo_name in (SLO_QUEUE_WAIT, SLO_COMPLETION):
                part = verdict[slo_name]
                if part["ok"]:
                    # recovery clears the episode: a later breach of the
                    # same SLO is a new event, journaled again.
                    self._breached.discard((tenant, slo_name))
                    continue
                if (tenant, slo_name) in self._breached:
                    continue
                self._breached.add((tenant, slo_name))
                value = (part["p95_s"] if slo_name == SLO_QUEUE_WAIT
                         else part["rate"])
                target = (part["target_p95_s"]
                          if slo_name == SLO_QUEUE_WAIT
                          else part["target_min"])
                self.registry.counter("service_slo_breaches_total",
                                      slo=slo_name, tenant=tenant).inc()
                if journal is not None:
                    journal("slo_breach", tenant=tenant, slo=slo_name,
                            value=value, target=target)
        return verdicts

    def breach_count(self) -> int:
        return len(self._breached)


def _finite(value: Optional[float]) -> Optional[float]:
    """JSON-safe quantile: ``inf`` (overflow bucket) becomes ``None``-free
    sentinel the dashboards can render."""
    if value is None:
        return None
    return value if value != float("inf") else "inf"


def reject_cause(reason: str) -> str:
    """Classify a rejection reason string into a stable cause label."""
    if reason.startswith("queue full"):
        return "queue_full"
    if reason.startswith("tenant rate limit"):
        return "tenant_rate"
    if reason.startswith("service rate limit"):
        return "global_rate"
    if reason.startswith("circuit breaker"):
        return "breaker"
    if reason.startswith("service draining"):
        return "draining"
    if reason.startswith("empty submission"):
        return "empty"
    return "other"


# ---------------------------------------------------------------------------
# The curated deterministic view (`repro top --once --json`)
# ---------------------------------------------------------------------------

#: registry counter names included in the stable view verbatim — each is
#: a pure function of the submitted workload, never of the wall clock.
_STABLE_COUNTER_PREFIXES = (
    "service_submits_total",
    "service_rejects_total",
    "service_rejects_by_cause_total",
    "service_jobs_done_total",
    "service_jobs_failed_total",
    "service_configs_done_total",
    "service_slo_breaches_total",
    "breaker_transitions_total",
)


def stable_status(health: dict, metrics: dict) -> dict:
    """Project ``health`` + ``metrics`` wire responses onto the
    byte-deterministic subset: two identical seeded serve/submit sessions
    produce identical bytes.  Wall-clock aggregates (histogram sums,
    job wall-time estimates) and time-refilled token levels are excluded
    by construction; queue-wait quantiles survive because an idle
    service dispatches inside the first histogram bucket, so the
    bucket-bound estimate is a constant.
    """
    counters = {
        key: value
        for key, value in metrics.get("metrics", {}).get("counters", {}).items()
        if key.startswith(_STABLE_COUNTER_PREFIXES)
    }
    slo = metrics.get("slo", {})
    breaker = health.get("breaker", {})
    return {
        "status": health.get("status"),
        "queue_depth": health.get("queue_depth"),
        "jobs": dict(sorted(health.get("jobs", {}).items())),
        "rejected_total": health.get("rejected_total"),
        "breaker": {"state": breaker.get("state"),
                    "trips": breaker.get("trips")},
        "store": {"entries": health.get("store", {}).get("entries")},
        "counters": counters,
        "slo": slo,
    }
