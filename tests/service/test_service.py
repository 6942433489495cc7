"""SweepService end-to-end, in-process: lifecycle, dedup, degradation."""

import pytest

from repro.experiments.config import TINY_MESH, RunConfig
from repro.experiments.executor import (
    MODEL_VERSION,
    ExecutionPlan,
    cache_path,
    payload_digest,
)
from repro.faults.injector import AlwaysCrashWorker, InterruptingWorker
from repro.service import SweepService
from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import StepClock

PLAN = ExecutionPlan.ladder(mesh=TINY_MESH, vector_sizes=(16,))
CONFIGS = list(PLAN)


def test_submit_process_poll_lifecycle(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    resp = svc.submit(CONFIGS, tenant="alice")
    assert resp["ok"]
    assert svc.poll(resp["job_id"])["job"]["status"] == "queued"
    assert svc.process_next() == resp["job_id"]
    view = svc.poll(resp["job_id"])["job"]
    assert view["status"] == "done"
    assert view["completed"] == view["total"] == len(CONFIGS)
    assert view["recomputed"] == len(CONFIGS)
    svc.close()


def test_cross_tenant_dedup_through_the_store(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    first = svc.submit(CONFIGS, tenant="alice")
    svc.process_next()
    second = svc.submit(CONFIGS, tenant="bob")
    svc.process_next()
    view = svc.poll(second["job_id"])["job"]
    # bob's identical sweep never re-simulates: all run-cache hits.
    assert view["from_store"] == len(CONFIGS)
    assert view["recomputed"] == 0
    kinds = [ev["kind"] for ev in svc.stream(second["job_id"])["events"]]
    assert kinds == ["store_hit"] * len(CONFIGS)
    assert svc.telemetry.registry.counter_value(
        "service_configs_done_total", source="store") == len(CONFIGS)
    alice = svc.poll(first["job_id"])["job"]
    assert alice["recomputed"] == len(CONFIGS)
    # two tenants, one cache entry per config.
    assert svc.health()["store"] == {"entries": len(CONFIGS)}
    svc.close()


def test_one_job_leaves_one_cache_entry_per_config(tmp_path):
    state = tmp_path / "svc"
    svc = SweepService(str(state))
    svc.submit(CONFIGS, tenant="alice")
    svc.process_next()
    svc.close()
    assert not (state / "store").exists()
    cached = sorted((state / "cache").glob(f"v{MODEL_VERSION}-*.json"))
    assert len(cached) == len(CONFIGS)
    assert sorted((state / "cache").iterdir()) == cached  # nothing else


def test_fetch_returns_the_solve_record(tmp_path):
    # the convergence record is digest-neutral metadata, and it comes
    # back out of the run cache so jobs --results can surface it.
    cfg = RunConfig(opt="vanilla", vector_size=8, mesh_dims=(3, 2, 2),
                    solve=True)
    svc = SweepService(str(tmp_path / "svc"))
    resp = svc.submit([cfg], tenant="alice")
    svc.process_next()
    payload = svc.fetch(resp["job_id"])["results"][cfg.key()]
    svc.close()
    assert payload["__solve__"]["converged"]
    assert payload["__digest__"] == payload_digest(payload)
    assert payload["__digest__"] == svc._jobs[resp["job_id"]].completed[
        cfg.key()]


def test_fetch_serves_digest_verified_payloads(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    resp = svc.submit(CONFIGS[:2], tenant="alice")
    svc.process_next()
    results = svc.fetch(resp["job_id"])["results"]
    assert set(results) == {c.key() for c in CONFIGS[:2]}
    for payload in results.values():
        assert payload_digest(payload) == payload["__digest__"]
    svc.close()


def test_empty_submission_is_rejected_not_dropped(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    resp = svc.submit([], tenant="alice")
    assert not resp["ok"]
    assert "empty submission" in resp["rejected"]
    assert svc.rejected_total == 1
    svc.close()


def test_draining_service_rejects_new_work(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    svc.submit(CONFIGS[:1], tenant="alice")
    svc.drain()
    resp = svc.submit(CONFIGS[:1], tenant="bob")
    assert not resp["ok"]
    assert "draining" in resp["rejected"]
    assert not svc.drained()  # queued work still owed
    svc.process_next()
    assert svc.drained()
    svc.close()


def test_unknown_job_is_an_explicit_error(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    assert not svc.poll("j99999")["ok"]
    assert not svc.fetch("j99999")["ok"]
    assert not svc.stream("j99999")["ok"]
    svc.close()


def test_priority_orders_processing(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    low = svc.submit(CONFIGS[:1], tenant="a", priority=0)
    high = svc.submit(CONFIGS[1:2], tenant="b", priority=5)
    assert svc.process_next() == high["job_id"]
    assert svc.process_next() == low["job_id"]
    svc.close()


def test_admission_rejection_is_explicit_and_journaled(tmp_path):
    clock = StepClock()
    admission = AdmissionController(tenant_burst=1.0, tenant_per_s=0.0,
                                    global_burst=10.0, global_per_s=0.0,
                                    clock=clock)
    svc = SweepService(str(tmp_path / "svc"), admission=admission,
                       clock=clock)
    assert svc.submit(CONFIGS[:1], tenant="alice")["ok"]
    resp = svc.submit(CONFIGS[:1], tenant="alice")
    assert not resp["ok"]
    assert "tenant rate limit" in resp["rejected"]
    svc.close()
    # the rejection is durable: a restarted service still counts it.
    svc2 = SweepService(str(tmp_path / "svc"))
    assert svc2.rejected_total == 1
    svc2.close()


def test_failing_job_trips_the_breaker(tmp_path):
    clock = StepClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0,
                             clock=clock)
    svc = SweepService(str(tmp_path / "svc"), worker=AlwaysCrashWorker(),
                       retries=0, backoff_s=0.0, breaker=breaker,
                       clock=clock)
    resp = svc.submit(CONFIGS[:1], tenant="alice")
    svc.process_next()
    view = svc.poll(resp["job_id"])["job"]
    assert view["status"] == "failed"
    assert view["failed"]
    refused = svc.submit(CONFIGS[:1], tenant="alice")
    assert not refused["ok"]
    assert "circuit breaker" in refused["rejected"]
    assert svc.health()["breaker"]["state"] == "open"
    svc.close()


def test_kill_mid_job_resumes_from_the_store(tmp_path):
    state = tmp_path / "svc"
    stop_after = 2
    svc = SweepService(str(state), worker=InterruptingWorker(stop_after))
    resp = svc.submit(CONFIGS, tenant="alice")
    with pytest.raises(KeyboardInterrupt):  # the "kill" lands mid-sweep
        svc.process_next()
    svc.close()

    svc2 = SweepService(str(state))
    assert svc2.resumed_jobs == 1
    assert svc2.process_next() == resp["job_id"]
    view = svc2.poll(resp["job_id"])["job"]
    assert view["status"] == "done"
    assert view["completed"] == len(CONFIGS)
    # everything journaled before the kill is served, not recomputed.
    assert view["from_store"] >= stop_after
    assert view["recomputed"] <= len(CONFIGS) - stop_after
    svc2.close()


def test_torn_entry_of_a_resumed_job_is_not_counted_done(tmp_path):
    state = tmp_path / "svc"
    svc = SweepService(str(state), worker=InterruptingWorker(2))
    resp = svc.submit(CONFIGS, tenant="alice")
    with pytest.raises(KeyboardInterrupt):
        svc.process_next()
    svc.close()
    # tear one journaled result, then resume on a backend that cannot
    # recompute it: the torn config fails instead of counting as done.
    victim = CONFIGS[0]
    cache_path(state / "cache", victim).write_text("{torn")
    svc2 = SweepService(str(state), worker=AlwaysCrashWorker(), retries=0,
                        backoff_s=0.0)
    svc2.process_next()
    svc2.close()
    job = svc2._jobs[resp["job_id"]]
    assert "cache_corrupt" in {ev["kind"] for ev in job.events
                               if ev.get("key") == victim.key()}
    assert job.status == "failed"
    assert victim.key() in job.failed
    assert set(job.completed) == {CONFIGS[1].key()}


def test_result_not_read_back_fails_the_job(tmp_path, monkeypatch):
    import repro.service.core as core

    monkeypatch.setattr(core, "read_cached_payload",
                        lambda cache_dir, cfg: (None, ""))
    svc = SweepService(str(tmp_path / "svc"))
    resp = svc.submit(CONFIGS[:1], tenant="alice")
    svc.process_next()
    svc.close()
    view = svc.poll(resp["job_id"])["job"]
    assert view["status"] == "failed"
    assert view["failed"] == {
        CONFIGS[0].key(): "no verified result in the run cache"}


def test_health_document_shape(tmp_path):
    svc = SweepService(str(tmp_path / "svc"))
    svc.submit(CONFIGS[:1], tenant="alice")
    svc.process_next()
    health = svc.health()
    assert health["status"] == "serving"
    assert health["jobs"] == {"done": 1}
    assert health["queue_depth"] == 0
    assert set(health["breaker"]) == {"state", "trips",
                                      "consecutive_failures"}
    assert health["store"] == {"entries": 1}
    svc.close()
