"""The supervised sweep service: a multi-tenant job queue in front of
the chaos-hardened executor.

Results live in the executor's digest-checked run cache under
``state_dir/cache`` (:func:`~repro.experiments.executor.store_payload` /
:func:`~repro.experiments.executor.read_cached_payload`), the same store
local sweeps use: a config any tenant already ran is a cache hit.

Layers (each its own module, each independently testable):

* :mod:`.admission` — token-bucket admission control with explicit
  rejections;
* :mod:`.breaker` — the circuit breaker;
* :mod:`.scheduler` — priority scheduling with starvation aging;
* :mod:`.jobs` — job records + the durable service journal;
* :mod:`.telemetry` — the metrics plane: one
  :class:`~repro.obs.metrics.MetricsRegistry` every component publishes
  into, plus per-tenant SLO verdicts with journaled breaches;
* :mod:`.core` — :class:`SweepService`, tying it all together;
* :mod:`.server` / :mod:`.client` — the unix-socket front end
  (``repro serve`` / ``repro submit`` / ``repro jobs``);
* :mod:`.chaos` — the service fault drills
  (``repro chaos --service-faults``).
"""

from repro.service.admission import AdmissionController, Decision, TokenBucket
from repro.service.breaker import CircuitBreaker
from repro.service.client import ServiceClient, ServiceError
from repro.service.core import SweepService
from repro.service.jobs import Job, ServiceJournal, replay_service_journal
from repro.service.scheduler import PriorityScheduler
from repro.service.server import (
    SweepServer,
    default_socket_path,
    wait_for_socket,
)
from repro.service.telemetry import ServiceTelemetry, SLOPolicy, stable_status

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Decision",
    "Job",
    "PriorityScheduler",
    "SLOPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceJournal",
    "ServiceTelemetry",
    "SweepServer",
    "SweepService",
    "TokenBucket",
    "default_socket_path",
    "replay_service_journal",
    "stable_status",
    "wait_for_socket",
]
