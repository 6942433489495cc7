"""Tests for cross-process trace capture: TracedWorker + merge."""

import json
import os

from repro import obs
from repro.obs import chrome
from repro.obs.tracer import Tracer
from repro.obs.workers import (
    TRACE_DIR_ENV,
    WORKER_PID_BASE,
    TracedWorker,
    merge_worker_traces,
    trace_path,
)
from repro.experiments.config import RunConfig
from repro.experiments.executor import ExecutionPlan, execute_plan, simulate_to_dict

from . import phase_span_names

TINY = (4, 4, 4)


def _cfg(vs=16):
    return RunConfig(opt="vanilla", vector_size=vs, mesh_dims=TINY)


def test_traced_worker_transparent_without_env(monkeypatch):
    monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
    cfg = _cfg()
    assert TracedWorker(simulate_to_dict)(cfg) == simulate_to_dict(cfg)


def test_traced_worker_writes_trace_file(tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
    cfg = _cfg()
    TracedWorker(simulate_to_dict)(cfg)
    path = trace_path(tmp_path, cfg.key())
    assert path.exists()
    events = chrome.load(path)
    # the worker wraps the run in a wall span and captures SIM phase spans.
    assert any(e.get("name", "").startswith("run ") for e in events)
    assert phase_span_names(events)


def test_merge_remaps_worker_pids(tmp_path):
    for i, key in enumerate(["a", "b"]):
        t = Tracer()
        t.span_at(f"phase{i}", cat="phase", t0=0, t1=10, phase=i + 1)
        chrome.dump(t, trace_path(tmp_path, key))
    tracer = Tracer()
    merged = merge_worker_traces(tracer, tmp_path)
    assert merged == 2
    pids = {e["pid"] for e in tracer.raw_events}
    assert pids == {WORKER_PID_BASE, WORKER_PID_BASE + 1}


def test_merge_skips_unreadable_files(tmp_path):
    (tmp_path / "worker-0-bad.json").write_text("{truncated")
    tracer = Tracer()
    assert merge_worker_traces(tracer, tmp_path) == 0
    assert tracer.raw_events == []


def test_execute_plan_merges_worker_traces(tmp_path):
    plan = ExecutionPlan.from_configs([_cfg(16), _cfg(64), _cfg(128)])
    tracer = Tracer()
    with obs.use(tracer):
        res = execute_plan(plan, cache_dir=tmp_path / "c", jobs=2)
    assert not res.failed
    assert tracer.raw_events, "worker traces were not merged"
    assert all(e["pid"] >= WORKER_PID_BASE for e in tracer.raw_events)
    # executor progress landed as points/counters on the coordinator.
    kinds = {dict(p.args).get("kind") for p in tracer.points} | \
        {p.name for p in tracer.points}
    assert "sweep start" in kinds and "sweep end" in kinds
    assert any(c.name == "queue depth" for c in tracer.counters)
    # the trace dir is temporary: nothing leaks into the cache dir or env.
    assert TRACE_DIR_ENV not in os.environ
    assert all("worker-" not in p.name
               for p in (tmp_path / "c").rglob("*.json"))


def test_merged_export_deterministic_across_pid_assignments(tmp_path):
    """Satellite: the Chrome export of a merged multi-process trace is
    identical across two runs that got *different* OS pids — the pid
    remap keys on config-key order, not pool scheduling luck."""
    def run(name, pids):
        d = tmp_path / name
        d.mkdir()
        for pid, key in zip(pids, ["keyA", "keyB", "keyC"]):
            t = Tracer()
            t.span_at(f"phase {key}", cat="phase", t0=0, t1=10, phase=1)
            chrome.dump(t, d / f"worker-{pid}-{key}.json")
        merged = Tracer()
        assert merge_worker_traces(merged, d) == 3
        return chrome.dumps(merged)

    # same three runs, wildly different pid draws (and different
    # pid-sort vs key-sort orders, which raw-filename sorting would mix).
    one = run("one", [3101, 22, 407])
    two = run("two", [9, 8881, 53])
    assert one == two
    pids = sorted({e["pid"] for e in json.loads(one)["traceEvents"]
                   if isinstance(e.get("pid"), int)
                   and e["pid"] >= WORKER_PID_BASE})
    assert pids == [WORKER_PID_BASE, WORKER_PID_BASE + 1,
                    WORKER_PID_BASE + 2]


def test_service_worker_span_merge_is_deterministic(tmp_path):
    """Two identical traced sweeps through the pool path produce the
    same merged coordinator+worker span ordering (pid-remapped,
    key-sorted)."""
    plan = ExecutionPlan.from_configs([_cfg(16), _cfg(64), _cfg(128)])

    def run(name):
        tracer = Tracer()
        with obs.use(tracer):
            res = execute_plan(plan, cache_dir=tmp_path / name, jobs=2)
        assert not res.failed
        # project onto the schedule-independent shape: which span ran in
        # which remapped process (wall timestamps/durations jitter).
        return [(e["pid"], e["name"]) for e in tracer.raw_events
                if e.get("ph") == "X" and e.get("name", "").startswith("run ")]

    assert run("a") == run("b")


def test_untraced_parallel_payloads_unchanged(tmp_path):
    """With no ambient tracer the pool path is byte-for-byte the seed's."""
    plan = ExecutionPlan.from_configs([_cfg(16), _cfg(64)])
    bare = execute_plan(plan, cache_dir=tmp_path / "bare", jobs=2)
    with obs.use(Tracer()):
        traced = execute_plan(plan, cache_dir=tmp_path / "traced", jobs=2)
    assert not bare.failed and not traced.failed
    bare_files = {p.name: p.read_bytes()
                  for p in (tmp_path / "bare").rglob("*.json")}
    traced_files = {p.name: p.read_bytes()
                    for p in (tmp_path / "traced").rglob("*.json")}
    assert bare_files == traced_files
