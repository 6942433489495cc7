"""Unified observability layer: the tracing spine of the reproduction.

The paper's co-design loop runs on instrumentation -- Extrae phase
events, PAPI counters, Vehave per-instruction traces, Paraver timelines.
This package is that toolchain for the simulated stack, one tracer
threaded through every layer:

* :mod:`repro.obs.tracer` -- the contextvar-scoped span/event/counter
  :class:`Tracer` (wall + sim clocks, zero-cost when disabled) that
  absorbed the seed ``repro.trace`` tracer;
* :mod:`repro.obs.chrome` -- Chrome ``trace_event`` export for
  ``chrome://tracing`` flamegraphs;
* :mod:`repro.obs.render` -- terminal timeline and vl-histogram views;
* :mod:`repro.obs.workers` -- per-worker trace files merged across the
  executor's process pool;
* :mod:`repro.obs.gate` -- the ``repro bench --baseline`` exact
  per-phase cycle gate.

The Paraver exporter and trace analysis stay in :mod:`repro.trace`
(they operate on the same tracer).

Typical use::

    from repro import obs

    tracer = obs.Tracer()
    with obs.use(tracer):                   # ambient for this context
        counters = app.run_timed(params)    # machine records phase spans
    obs.chrome.dump(tracer, "t.json")       # open in chrome://tracing
"""

from repro.obs import chrome, gate, render, workers
from repro.obs.tracer import (
    NULL_TRACER,
    CounterSample,
    InstrEvent,
    PointEvent,
    SpanRecord,
    Tracer,
    active,
    counter,
    current,
    event,
    span,
    use,
)

__all__ = [
    "CounterSample",
    "InstrEvent",
    "NULL_TRACER",
    "PointEvent",
    "SpanRecord",
    "Tracer",
    "active",
    "chrome",
    "counter",
    "current",
    "event",
    "gate",
    "render",
    "span",
    "use",
    "workers",
]
