"""Chrome ``trace_event`` export: flamegraphs in ``chrome://tracing``.

Converts a :class:`~repro.obs.tracer.Tracer` into the Trace Event
Format consumed by ``chrome://tracing`` / Perfetto: one JSON object with
a ``traceEvents`` list of complete (``"X"``), instant (``"i"``) and
counter (``"C"``) events plus ``"M"`` metadata naming the rows.

Clock-domain mapping (one pid per domain, so the two timelines never
interleave):

* pid 1 -- the **simulated machine**: SIM-domain records, timestamped in
  cycles (1 "us" == 1 cycle).  Phase spans on tid 1, per-block spans on
  tid 2, a granted-``vl`` counter track from the Vehave batches.  These
  are fully deterministic: two runs of the same config export
  byte-identical files, which CI exploits.
* pid 2 -- the **harness** (wall clock, microseconds since the tracer's
  epoch): executor/interpreter spans and progress events.  Only written
  with ``include_wall=True``, because wall timestamps differ run to run.

Raw events merged from per-worker trace files (``tracer.raw_events``)
pass through unchanged; they already carry worker pids.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.obs.tracer import SIM, WALL, Tracer

PID_SIM = 1
PID_WALL = 2
#: the transformation pass pipeline: deterministic ordinal timestamps
#: (pass application order), so the compile stage shows up in the trace
#: without breaking byte-identical re-runs the way wall clocks would.
PID_COMPILE = 3


def _args(pairs: tuple) -> dict:
    return {k: v for k, v in pairs}


def _meta(pid: int, tid: Optional[int], key: str, name: str) -> dict:
    ev = {"ph": "M", "pid": pid, "name": key, "args": {"name": name}}
    if tid is not None:
        ev["tid"] = tid
    return ev


def to_events(tracer: Tracer, include_wall: bool = False) -> list[dict]:
    """The ``traceEvents`` list for *tracer*."""
    events: list[dict] = [
        _meta(PID_SIM, None, "process_name", "simulated machine (cycles)"),
        _meta(PID_SIM, 1, "thread_name", "phases"),
        _meta(PID_SIM, 2, "thread_name", "blocks"),
    ]
    if include_wall:
        events += [
            _meta(PID_WALL, None, "process_name", "harness (wall clock)"),
            _meta(PID_WALL, 1, "thread_name", "spans"),
        ]

    # the compile stage: pass spans + transform-remark events on their
    # own ordinal-time track (one tick per pass application).
    comp_spans = [s for s in tracer.spans if s.cat == "pass"]
    comp_points = [p for p in tracer.points if p.cat == "pass"]
    if comp_spans or comp_points:
        events += [
            _meta(PID_COMPILE, None, "process_name",
                  "compile pipeline (ordinal)"),
            _meta(PID_COMPILE, 1, "thread_name", "passes"),
        ]
        for i, s in enumerate(comp_spans):
            ev = {"ph": "X", "name": s.name, "cat": s.cat,
                  "pid": PID_COMPILE, "tid": 1, "ts": i, "dur": 1,
                  "args": _args(s.args)}
            if s.phase is not None:
                ev["args"]["phase"] = s.phase
            events.append(ev)
        for i, p in enumerate(comp_points):
            events.append({"ph": "i", "name": p.name, "cat": p.cat,
                           "pid": PID_COMPILE, "tid": 1, "ts": i, "s": "t",
                           "args": _args(p.args)})

    for s in tracer.spans:
        if s.cat == "pass":
            continue  # exported above, on the ordinal compile track
        if s.domain == SIM:
            pid, tid, ts, dur = PID_SIM, 1, s.t0, s.dur
        elif include_wall:
            pid, tid = PID_WALL, 1
            ts, dur = s.t0 * 1e6, s.dur * 1e6
        else:
            continue
        ev = {"ph": "X", "name": s.name, "cat": s.cat, "pid": pid,
              "tid": tid, "ts": ts, "dur": dur, "args": _args(s.args)}
        if s.phase is not None:
            ev["args"]["phase"] = s.phase
        events.append(ev)

    # per-block spans on the machine's block row (SIM domain).
    for b in tracer.blocks:
        events.append({"ph": "X", "name": b.label, "cat": b.kind,
                       "pid": PID_SIM, "tid": 2, "ts": b.t_start,
                       "dur": b.cycles, "args": {"phase": b.phase}})

    # granted-vl counter track from the Vehave batches.
    for e in tracer.vector_instrs:
        if e.opcode == "vsetvl":
            events.append({"ph": "C", "name": "granted vl", "pid": PID_SIM,
                           "ts": e.t, "args": {"vl": e.vl}})

    if include_wall:
        for p in tracer.points:
            if p.domain != WALL or p.cat == "pass":
                continue
            events.append({"ph": "i", "name": p.name, "cat": p.cat,
                           "pid": PID_WALL, "tid": 1, "ts": p.t * 1e6,
                           "s": "t", "args": _args(p.args)})
        for c in tracer.counters:
            events.append({"ph": "C", "name": c.name, "pid": PID_WALL,
                           "ts": c.t * 1e6, "args": {"value": c.value}})

    events.extend(tracer.raw_events)
    return events


def dumps(tracer: Tracer, include_wall: bool = False,
          meta: Optional[dict] = None) -> str:
    """Serialize *tracer* as a Chrome trace JSON document.

    Key-sorted and without wall-clock data by default, so the same
    simulation always produces the same bytes.
    """
    doc = {
        "traceEvents": to_events(tracer, include_wall=include_wall),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.chrome",
                      **(meta or {})},
    }
    return json.dumps(doc, sort_keys=True, indent=None,
                      separators=(",", ":")) + "\n"


def dump(tracer: Tracer, path: str | Path, include_wall: bool = False,
         meta: Optional[dict] = None) -> Path:
    path = Path(path)
    path.write_text(dumps(tracer, include_wall=include_wall, meta=meta))
    return path


def loads(text: str) -> list[dict]:
    """Parse a Chrome trace document back to its ``traceEvents`` list."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace_event document")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    return events


def load(path: str | Path) -> list[dict]:
    return loads(Path(path).read_text())
