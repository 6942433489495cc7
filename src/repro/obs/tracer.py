"""The tracing spine: an Extrae-style span/event tracer.

One :class:`Tracer` threads through every layer of the stack:

* **spans** -- timed regions (``with tracer.span("phase6"): ...`` or the
  ambient module-level :func:`repro.obs.span`), in one of two clock
  domains: ``wall`` (seconds since the tracer's epoch, measured with
  ``time.perf_counter``) and ``sim`` (simulated machine cycles, stamped
  explicitly via :meth:`Tracer.span_at` by the cycle-accounting
  :class:`~repro.machine.cpu.Machine`);
* **point events** and **counter samples** -- instantaneous markers
  (executor progress, cache hits, retries);
* **instruction events** -- the Vehave-grade per-instruction stream from
  :class:`~repro.isa.emulator.VectorEmulator`: opcode, granted vector
  length, and lane occupancy;
* the **legacy hook interface** of the seed ``repro.trace`` module
  (``on_block`` / ``on_vector_instrs``), so the tracer plugs unchanged
  into :class:`~repro.machine.cpu.Machine` and feeds the Paraver
  exporter and the trace-analysis cross-checks.

Scoping is contextvar-based: :func:`use` installs a tracer for the
current context (and its threads' children via copy_context), and every
instrumented layer picks it up ambiently through :func:`current` /
:func:`active`.  When no tracer is installed -- the default -- the
ambient API degrades to a shared no-op whose cost is one contextvar read
and one attribute check, so instrumentation can stay in hot paths
permanently ("zero-cost when disabled").
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.events import BlockEvent, VectorInstrEvent

#: clock domains a record can live in.
WALL = "wall"
SIM = "sim"


@dataclass(frozen=True)
class SpanRecord:
    """One closed span (timed region)."""

    name: str
    cat: str                 #: category: "phase", "ir", "run", "executor", ...
    domain: str              #: WALL (seconds) or SIM (cycles)
    t0: float
    t1: float
    phase: Optional[int] = None
    args: tuple = ()         #: sorted (key, value) pairs, hashable/JSON-safe

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class PointEvent:
    """One instantaneous event."""

    name: str
    cat: str
    domain: str
    t: float
    args: tuple = ()


@dataclass(frozen=True)
class CounterSample:
    """One sample of a named counter series."""

    name: str
    domain: str
    t: float
    value: float


@dataclass(frozen=True)
class InstrEvent:
    """One executed vector instruction (the Vehave stream)."""

    opcode: str
    vl: int
    vl_max: int

    @property
    def occupancy(self) -> float:
        """Fraction of the machine's lanes this instruction filled."""
        return self.vl / self.vl_max if self.vl_max else 0.0


def _freeze_args(kwargs: dict[str, Any]) -> tuple:
    return tuple(sorted(kwargs.items()))


class _OpenSpan:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "cat", "phase", "args", "t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 phase: Optional[int], args: tuple):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.phase = phase
        self.args = args

    def __enter__(self) -> "_OpenSpan":
        self.t0 = time.perf_counter() - self.tracer.epoch
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans.append(SpanRecord(
            name=self.name, cat=self.cat, domain=WALL, t0=self.t0,
            t1=time.perf_counter() - self.tracer.epoch,
            phase=self.phase, args=self.args))


class _NoopSpan:
    """Shared, allocation-free stand-in when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NOOP_SPAN = _NoopSpan()


@dataclass
class Tracer:
    """Collects spans, events, counters and instruction streams.

    Also implements the seed ``repro.trace.Tracer`` interface (``blocks``
    / ``vector_instrs`` lists and the ``on_block`` / ``on_vector_instrs``
    machine hooks), which it absorbed in the observability refactor; the
    Paraver exporter and trace analysis consume those fields unchanged.
    """

    blocks: list["BlockEvent"] = field(default_factory=list)
    vector_instrs: list["VectorInstrEvent"] = field(default_factory=list)
    enabled: bool = True
    spans: list[SpanRecord] = field(default_factory=list)
    points: list[PointEvent] = field(default_factory=list)
    counters: list[CounterSample] = field(default_factory=list)
    instrs: list[InstrEvent] = field(default_factory=list)
    #: raw Chrome trace_event dicts merged from per-worker trace files.
    raw_events: list[dict] = field(default_factory=list)
    #: wall-clock epoch; WALL-domain timestamps are relative to this.
    epoch: float = field(default_factory=time.perf_counter)

    # -- span / event / counter API ------------------------------------------

    def span(self, name: str, cat: str = "span",
             phase: Optional[int] = None, **args):
        """A wall-clock span as a context manager."""
        if not self.enabled:
            return NOOP_SPAN
        return _OpenSpan(self, name, cat, phase, _freeze_args(args))

    def span_at(self, name: str, cat: str, t0: float, t1: float,
                phase: Optional[int] = None, domain: str = SIM,
                **args) -> None:
        """Record an already-closed span with explicit timestamps.

        This is how the simulated machine stamps phase spans on the
        cycle clock (``domain=SIM``) -- deterministic across hosts,
        unlike wall time.
        """
        if not self.enabled:
            return
        self.spans.append(SpanRecord(name=name, cat=cat, domain=domain,
                                     t0=t0, t1=t1, phase=phase,
                                     args=_freeze_args(args)))

    def event(self, name: str, cat: str = "event", t: Optional[float] = None,
              domain: str = WALL, **args) -> None:
        """Record an instantaneous event (wall clock unless stamped)."""
        if not self.enabled:
            return
        if t is None:
            t = time.perf_counter() - self.epoch
        self.points.append(PointEvent(name=name, cat=cat, domain=domain,
                                      t=t, args=_freeze_args(args)))

    def counter(self, name: str, value: float, t: Optional[float] = None,
                domain: str = WALL) -> None:
        """Sample a named counter series."""
        if not self.enabled:
            return
        if t is None:
            t = time.perf_counter() - self.epoch
        self.counters.append(CounterSample(name=name, domain=domain,
                                           t=t, value=float(value)))

    def instr(self, opcode: str, vl: int, vl_max: int) -> None:
        """Record one executed vector instruction (the Vehave stream)."""
        if not self.enabled:
            return
        self.instrs.append(InstrEvent(opcode=opcode, vl=vl, vl_max=vl_max))

    # -- machine hook interface (seed trace.Tracer API) ----------------------

    def on_block(self, phase: int, label: str, kind: str,
                 t_start: float, cycles: float) -> None:
        if self.enabled:
            # deferred import: repro.trace re-exports this class, so a
            # top-level import would be circular.
            from repro.trace.events import BlockEvent

            self.blocks.append(BlockEvent(phase, label, kind, t_start, cycles))

    def on_vector_instrs(self, phase: int, t: float,
                         records: list[tuple[str, int, int]]) -> None:
        """records: (opcode, vl, dynamic count) batches."""
        if not self.enabled:
            return
        from repro.trace.events import VectorInstrEvent

        for opcode, vl, count in records:
            self.vector_instrs.append(VectorInstrEvent(phase, opcode, vl, count, t))

    # -- views ---------------------------------------------------------------

    def total_cycles(self) -> float:
        return sum(b.cycles for b in self.blocks)

    def vl_histogram(self, phase: Optional[int] = None) -> dict[int, int]:
        """AVL distribution {granted vl: dynamic vector instructions},
        aggregated from the Vehave-grade streams (machine batches and
        per-instruction emulator events)."""
        hist: dict[int, int] = {}
        for e in self.vector_instrs:
            if phase is not None and e.phase != phase:
                continue
            if e.opcode != "vsetvl":
                hist[e.vl] = hist.get(e.vl, 0) + e.count
        if phase is None:
            for i in self.instrs:
                if i.opcode != "vsetvl":
                    hist[i.vl] = hist.get(i.vl, 0) + 1
        return hist


#: the ambient tracer slot; the default is a shared *disabled* tracer so
#: every layer can call ``active()`` / ``span()`` unconditionally.
NULL_TRACER = Tracer(enabled=False)
_CURRENT: ContextVar[Tracer] = ContextVar("repro_obs_tracer",
                                          default=NULL_TRACER)


def current() -> Tracer:
    """The tracer installed in this context (possibly disabled)."""
    return _CURRENT.get()


def active() -> Optional[Tracer]:
    """The installed tracer if tracing is on, else ``None`` -- the
    one-branch check hot paths use to stay zero-cost when disabled."""
    t = _CURRENT.get()
    return t if t.enabled else None


@contextmanager
def use(tracer: Tracer) -> Iterator[Tracer]:
    """Install *tracer* as the ambient tracer for this context."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


def span(name: str, cat: str = "span", phase: Optional[int] = None, **args):
    """Ambient span: records into the installed tracer, no-op otherwise."""
    t = _CURRENT.get()
    if not t.enabled:
        return NOOP_SPAN
    return t.span(name, cat=cat, phase=phase, **args)


def event(name: str, cat: str = "event", **args) -> None:
    """Ambient instantaneous event."""
    t = _CURRENT.get()
    if t.enabled:
        t.event(name, cat=cat, **args)


def counter(name: str, value: float) -> None:
    """Ambient counter sample."""
    t = _CURRENT.get()
    if t.enabled:
        t.counter(name, value)
