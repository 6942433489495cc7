"""The unix-socket front end: wire protocol, streaming, rejections."""

import json
import socket

import pytest

from repro.experiments.config import TINY_MESH
from repro.experiments.executor import ExecutionPlan
from repro.service import (
    ServiceClient,
    ServiceError,
    SweepServer,
    SweepService,
    wait_for_socket,
)
from repro.service.admission import AdmissionController
from repro.service.chaos import StepClock

PLAN = ExecutionPlan.ladder(mesh=TINY_MESH, vector_sizes=(16,))
CONFIGS = list(PLAN)


@pytest.fixture()
def server(tmp_path):
    service = SweepService(str(tmp_path / "svc"))
    srv = SweepServer(service, tmp_path / "svc.sock")
    srv.start()
    assert wait_for_socket(srv.socket_path, timeout_s=10.0)
    yield srv
    srv.close()


def client_for(server) -> ServiceClient:
    return ServiceClient(server.socket_path, timeout_s=60.0)


def test_submit_wait_fetch_roundtrip(server):
    client = client_for(server)
    resp = client.submit(CONFIGS[:3], tenant="alice")
    assert resp["ok"]
    view = client.wait(resp["job_id"], timeout_s=60.0)
    assert view["status"] == "done"
    assert view["completed"] == 3
    results = client.fetch(resp["job_id"])["results"]
    assert len(results) == 3
    table = client.jobs()["jobs"]
    assert [v["job_id"] for v in table] == [resp["job_id"]]


def test_stream_yields_events_then_terminal_record(server):
    client = client_for(server)
    resp = client.submit(CONFIGS[:2], tenant="alice")
    records = list(client.stream(resp["job_id"]))
    assert records[-1]["done"] is True
    assert records[-1]["job"]["status"] == "done"
    kinds = [r["event"]["kind"] for r in records if "event" in r]
    assert kinds.count("done") + kinds.count("store_hit") == 2


def test_health_over_the_wire(server):
    health = client_for(server).health()
    assert health["ok"]
    assert health["status"] == "serving"
    assert "breaker" in health and "admission" in health


def test_metrics_verb_over_the_wire(server):
    client = client_for(server)
    resp = client.submit(CONFIGS[:1], tenant="alice", trace=True)
    assert resp["ok"] and len(resp["trace_id"]) == 16
    client.wait(resp["job_id"], timeout_s=60.0)
    out = client.metrics()
    assert out["ok"]
    assert out["metrics"]["counters"][
        "service_submits_total{tenant=alice}"] == 1.0
    assert out["slo"]["alice"]["ok"] is True
    assert out["slo_policy"]["queue_wait_p95_s"] == 5.0
    # the curated view is serializable and self-consistent.
    from repro.service import stable_status

    status = stable_status(client.health(), out)
    assert status["jobs"] == {"done": 1}
    assert json.loads(json.dumps(status)) == status


def test_unknown_op_is_an_error_response(server):
    client = client_for(server)
    resp = client._request("frobnicate")
    assert not resp["ok"]
    assert "unknown op" in resp["error"]


def test_malformed_json_gets_an_error_not_a_crash(server):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10.0)
    s.connect(str(server.socket_path))
    s.sendall(b"{torn garbage\n")
    resp = json.loads(s.makefile().readline())
    s.close()
    assert not resp["ok"]
    assert "bad request" in resp["error"]
    # the server survived: a healthy request still works.
    assert client_for(server).health()["ok"]


def test_bad_configs_are_rejected_per_request(server):
    client = client_for(server)
    resp = client._request("submit", configs=[], tenant="alice")
    assert not resp["ok"]
    resp = client._request("submit", configs=[{"opt": "no-such-rung"}],
                           tenant="alice")
    assert not resp["ok"]
    for vs in (0, -8):
        wire = {**CONFIGS[0].to_dict(), "vector_size": vs}
        resp = client._request("submit", configs=[wire], tenant="alice")
        assert not resp["ok"]
        assert "vector_size" in resp["error"]
    assert client.jobs()["jobs"] == []


def test_flood_rejections_cross_the_wire(tmp_path):
    clock = StepClock()
    service = SweepService(
        str(tmp_path / "svc"), clock=clock,
        admission=AdmissionController(tenant_burst=1.0, tenant_per_s=0.0,
                                      global_burst=10.0, global_per_s=0.0,
                                      clock=clock))
    srv = SweepServer(service, tmp_path / "svc.sock")
    srv.start()
    try:
        assert wait_for_socket(srv.socket_path, timeout_s=10.0)
        client = ServiceClient(srv.socket_path, timeout_s=60.0)
        assert client.submit(CONFIGS[:1], tenant="mallory")["ok"]
        resp = client.submit(CONFIGS[:1], tenant="mallory")
        assert not resp["ok"]
        assert "tenant rate limit" in resp["rejected"]
    finally:
        srv.close()


def test_client_reports_unreachable_service(tmp_path):
    client = ServiceClient(tmp_path / "nope.sock")
    with pytest.raises(ServiceError, match="cannot reach"):
        client.health()


def test_drain_finishes_queued_work_then_stops(server):
    client = client_for(server)
    resp = client.submit(CONFIGS[:1], tenant="alice")
    drain = client.drain()
    assert drain["ok"]
    # the loop finishes the queued job, notices the drained queue, and
    # stops the server -- the socket goes away, so verify in-process.
    assert server._stop.wait(30.0)
    server._loop_thread.join(timeout=30.0)
    view = server.service.poll(resp["job_id"])["job"]
    assert view["status"] == "done"
    assert view["completed"] == 1
