"""Lock-safe in-process metrics registry: the aggregate view of the
event stream.

The tracing spine (:mod:`repro.obs.tracer`) answers *when* — a timeline
of spans.  This module answers *how much* — monotonic counters, gauges,
and fixed-bucket histograms that the sweep service, admission
controller, circuit breaker, and executor all publish into.  Production HPC tooling treats these as two views of one event
stream (Paraver's trace-then-aggregate model); here the same
instrumentation points feed both.

Design rules, all load-bearing:

* **determinism** — bucket bounds are fixed at histogram creation and
  :meth:`MetricsRegistry.snapshot` emits key-sorted series, so two
  identical sessions produce identical snapshots (modulo wall-clock
  sums, which callers wanting byte-stability must exclude — see
  ``sum`` handling in :meth:`Histogram.to_dict`);
* **lock safety** — one registry lock guards every mutation and the
  snapshot, so a snapshot taken mid-flood is a consistent cut, never a
  torn read;
* **zero-cost when disabled** — like the tracer, the ambient slot
  (:func:`use` / :func:`active`) defaults to ``None``; hot paths pay one
  contextvar read and one ``is None`` branch, allocate nothing, and the
  PR 3 byte-identity tests extend to cover this registry.

Quantiles are *bucket-bound estimates*: :meth:`Histogram.quantile`
returns the upper bound of the first bucket whose cumulative count
covers the requested fraction.  That is deterministic given the bucket
counts — exactly what the per-tenant SLO verdicts need — and honest
about its resolution (it never invents sub-bucket precision).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Sequence

#: default histogram bucket upper bounds (seconds): coarse on purpose,
#: so identical sessions land in identical buckets despite wall jitter.
DEFAULT_BUCKETS: tuple[float, ...] = (0.5, 2.0, 10.0, 60.0, 600.0)

#: queue-wait bounds: an idle service dispatches well inside the first
#: bucket, so p50/p95 estimates are stable run to run.
QUEUE_WAIT_BUCKETS: tuple[float, ...] = (0.5, 2.0, 10.0, 60.0)

#: job wall-time bounds (whole sweeps, not single runs).
JOB_WALL_BUCKETS: tuple[float, ...] = (1.0, 10.0, 60.0, 600.0)


def series_key(name: str, labels: dict) -> str:
    """Canonical series identity: ``name{k=v,...}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter; negative increments are a programming error."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, token level)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram with exact, deterministic bucket bounds.

    ``bounds`` are upper bounds of the finite buckets; one implicit
    ``+inf`` bucket catches the rest.  Counts, total count and sum are
    tracked; quantiles are bucket-bound estimates (see module docstring).
    """

    __slots__ = ("_lock", "bounds", "counts", "count", "sum")

    def __init__(self, lock: threading.Lock,
                 bounds: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be strictly increasing "
                             f"and non-empty, got {bounds}")
        self._lock = lock
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        with self._lock:
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.counts[i] += 1
                    break
            else:
                self.counts[-1] += 1
            self.count += 1
            self.sum += value

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket covering quantile *q* (``None`` when
        empty; ``inf`` when it lands in the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return None
            need = q * self.count
            cum = 0
            for i, bound in enumerate(self.bounds):
                cum += self.counts[i]
                if cum >= need:
                    return bound
            return math.inf

    def to_dict(self) -> dict:
        """JSON form.  ``sum`` is rounded to microseconds — it is a
        wall-clock aggregate and inherently non-deterministic; callers
        needing byte-stable documents drop it (see
        :func:`repro.service.telemetry.stable_status`)."""
        with self._lock:
            return {
                "buckets": [[b, n] for b, n in zip(self.bounds, self.counts)]
                           + [["+inf", self.counts[-1]]],
                "count": self.count,
                "sum": round(self.sum, 6),
            }


class MetricsRegistry:
    """Registry of named, labelled instruments behind one lock.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: the first call
    fixes the instrument's identity (and, for histograms, its bucket
    bounds — a re-registration with different bounds raises, because two
    writers silently disagreeing on buckets is how dashboards lie).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments -------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = series_key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(self._lock)
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = series_key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(self._lock)
        return inst

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        key = series_key(name, labels)
        bounds = tuple(float(b) for b in bounds)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(
                    threading.Lock(), bounds)
            elif inst.bounds != bounds:
                raise ValueError(
                    f"histogram {key!r} already registered with bounds "
                    f"{inst.bounds}, got {bounds}")
        return inst

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Key-sorted consistent cut of every series (JSON-able)."""
        with self._lock:
            counters = {k: self._counters[k].value
                        for k in sorted(self._counters)}
            gauges = {k: self._gauges[k].value for k in sorted(self._gauges)}
            hist_items = sorted(self._histograms.items())
        # histogram serialization takes each histogram's own lock.
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {k: h.to_dict() for k, h in hist_items},
        }

    def counter_value(self, name: str, **labels) -> float:
        with self._lock:
            inst = self._counters.get(series_key(name, labels))
            return inst.value if inst is not None else 0.0


#: the ambient registry slot; ``None`` (the default) means "metrics
#: disabled" and costs hot paths one contextvar read to find out.
_CURRENT: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_metrics", default=None)


def active() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when metrics are disabled."""
    return _CURRENT.get()


@contextmanager
def use(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install *registry* as the ambient metrics sink for this context."""
    token = _CURRENT.set(registry)
    try:
        yield registry
    finally:
        _CURRENT.reset(token)
