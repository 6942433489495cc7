"""Tests for the Chrome trace_event exporter."""

import json

import pytest

from repro import obs
from repro.obs import chrome
from repro.obs.tracer import Tracer

from . import phase_span_names


@pytest.fixture(scope="module")
def traced():
    from repro.cfd.assembly import MiniApp
    from repro.cfd.mesh import box_mesh
    from repro.machine.machines import RISCV_VEC

    app = MiniApp(box_mesh(4, 4, 4), vector_size=64, opt="vec1")
    tracer = Tracer()
    with obs.use(tracer):
        app.run_timed(RISCV_VEC)
    return tracer


def test_export_covers_all_eight_phases(traced):
    events = chrome.to_events(traced)
    names = set(phase_span_names(events))
    assert len(names) == 8
    assert {e["args"]["phase"] for e in events
            if e.get("ph") == "X" and e.get("tid") == 1
            and e.get("pid") == chrome.PID_SIM} == set(range(1, 9))


def test_block_spans_on_tid2(traced):
    events = chrome.to_events(traced)
    blocks = [e for e in events if e.get("ph") == "X"
              and e.get("pid") == chrome.PID_SIM and e.get("tid") == 2]
    assert len(blocks) == len(traced.blocks)


def test_granted_vl_counter_track(traced):
    events = chrome.to_events(traced)
    vl = [e for e in events if e.get("ph") == "C"
          and e.get("name") == "granted vl"]
    assert vl and all(e["args"]["vl"] > 0 for e in vl)


def test_dumps_is_deterministic(traced):
    assert chrome.dumps(traced) == chrome.dumps(traced)


def test_wall_clock_excluded_by_default(traced):
    events = chrome.to_events(traced)
    assert all(e.get("pid") != chrome.PID_WALL for e in events)
    # ... so the default export is reproducible across hosts; opting in
    # adds the harness timeline.
    with_wall = chrome.to_events(traced, include_wall=True)
    assert any(e.get("pid") == chrome.PID_WALL for e in with_wall)


def test_file_roundtrip(tmp_path, traced):
    path = chrome.dump(traced, tmp_path / "t.json",
                       meta={"mesh": "tiny"})
    events = chrome.load(path)
    assert events == chrome.to_events(traced)
    doc = json.loads(path.read_text())
    assert doc["otherData"]["mesh"] == "tiny"
    assert doc["otherData"]["exporter"] == "repro.obs.chrome"


def test_loads_rejects_non_trace():
    with pytest.raises(ValueError, match="trace_event"):
        chrome.loads("[1, 2, 3]")
    with pytest.raises(ValueError, match="list"):
        chrome.loads('{"traceEvents": 7}')


def test_raw_worker_events_pass_through():
    t = Tracer()
    raw = {"ph": "X", "name": "run x", "pid": 100, "tid": 1,
           "ts": 0, "dur": 5, "args": {}}
    t.raw_events.append(raw)
    assert raw in chrome.to_events(t)
