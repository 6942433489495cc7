"""Parallel, fault-tolerant, chaos-hardened sweep executor.

Every paper artifact is a projection of the same ~50 simulated runs, so
the sweep engine is the hot path of the whole reproduction.  This module
industrializes it:

* :class:`ExecutionPlan` — an explicit, deduplicated list of
  :class:`~repro.experiments.config.RunConfig`, with factories for the
  paper's standard sweep;
* :func:`execute_plan` — partitions out already-cached runs, fans the
  remainder across a ``ProcessPoolExecutor`` (workers rebuild mesh +
  mini-app from the pickled config), applies a per-run timeout with
  bounded retry and exponential backoff (deterministic jitter), survives
  a broken pool by falling back to in-process execution **without**
  resetting retry budgets, and streams structured :class:`RunEvent`
  progress;
* a versioned disk cache with **atomic, durable** writes (tmp file +
  fsync + ``os.replace`` + directory fsync), a content digest, and
  corruption recovery: a truncated, bit-flipped or malformed
  ``.repro_cache/*.json`` entry is discarded and re-simulated instead of
  crashing the command;
* optional **validation** (``validate=True``): every payload — freshly
  simulated or recalled from cache — is checked against the counter
  invariants of :mod:`repro.validation.invariants`; configs that
  repeatedly fail validation are quarantined rather than retried
  forever, and FLOP conservation is checked across the optimization
  ladder once the sweep completes.  Verdicts are recorded in the cached
  payload (``__validation__``) and surfaced on :class:`ExecutionResult`;
* an optional **journal** (``journal=<path>``): an append-only, fsynced
  checkpoint (:mod:`repro.experiments.journal`) that lets an interrupted
  sweep resume without re-running completed work and without granting
  crashed configs a fresh retry budget.

:class:`~repro.experiments.runner.Session` is a thin façade over this
module; nothing here depends on ``Session``, so workers import cheaply.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.experiments.config import (
    FULL_MESH,
    PLATFORMS,
    VECTOR_SIZES,
    MeshSpec,
    RunConfig,
    resolve_mesh,
)
from repro.experiments.journal import SweepJournal, replay_journal
from repro.metrics.counters import (
    RunCounters,
    counters_from_dict,
    counters_to_dict,
)
from repro.obs.metrics import active as _metrics_active
from repro.obs.tracer import active as _obs_active

#: bump when the timing model OR the cache payload schema changes so
#: stale disk caches are ignored (see EXPERIMENTS.md, "cache versioning").
MODEL_VERSION = "6"

#: optimization ladder rungs exercised by the standard sweep (paper order).
_SWEEP_OPTS: tuple[str, ...] = ("vanilla", "vec2", "ivec2", "vec1")


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered, duplicate-free list of run configurations."""

    configs: tuple[RunConfig, ...] = ()

    @classmethod
    def from_configs(cls, configs: Iterable[RunConfig]) -> "ExecutionPlan":
        """Build a plan, dropping duplicate configs but keeping order."""
        seen: set[str] = set()
        out: list[RunConfig] = []
        for cfg in configs:
            if cfg.key() not in seen:
                seen.add(cfg.key())
                out.append(cfg)
        return cls(configs=tuple(out))

    @classmethod
    def standard(cls, mesh: MeshSpec | None = None) -> "ExecutionPlan":
        """The paper's full evaluation sweep (~50 runs): the scalar
        baseline plus every optimization rung over every VECTOR_SIZE on
        the RISC-V prototype, and the vanilla/vec1 pair on the other two
        platforms (Figures 12/13)."""
        dims = resolve_mesh(mesh)
        configs: list[RunConfig] = [
            RunConfig(opt="scalar", vector_size=16, mesh_dims=dims)]
        for opt in _SWEEP_OPTS:
            for vs in VECTOR_SIZES:
                configs.append(RunConfig(opt=opt, vector_size=vs, mesh_dims=dims))
        for machine in PLATFORMS:
            if machine == "riscv_vec":
                continue  # already covered by the ladder above
            for opt in ("vanilla", "vec1"):
                for vs in VECTOR_SIZES:
                    configs.append(RunConfig(machine=machine, opt=opt,
                                             vector_size=vs, mesh_dims=dims))
        # one end-to-end assemble+solve run (phases 1-12) per sweep.
        configs.append(RunConfig(opt="vanilla", vector_size=240,
                                 mesh_dims=dims, solve=True))
        return cls.from_configs(configs)

    @classmethod
    def smoke(cls, mesh: MeshSpec | None = None) -> "ExecutionPlan":
        """A four-run plan for quick benchmarking / CI smoke tests:
        the historic three assembly runs plus one assemble+solve run
        (phases 1-12, its own ``-solve`` key)."""
        dims = resolve_mesh(mesh)
        return cls.from_configs([
            RunConfig(opt="scalar", vector_size=16, mesh_dims=dims),
            RunConfig(opt="vanilla", vector_size=16, mesh_dims=dims),
            RunConfig(opt="vanilla", vector_size=64, mesh_dims=dims),
            RunConfig(opt="vanilla", vector_size=16, mesh_dims=dims,
                      solve=True),
        ])

    @classmethod
    def ladder(cls, mesh: MeshSpec | None = None,
               vector_sizes: Sequence[int] = (16, 64)) -> "ExecutionPlan":
        """The scalar baseline plus the full optimization ladder at a
        couple of VECTOR_SIZEs — the chaos campaign's workload: small
        enough to re-run many times, rich enough to exercise the
        cross-rung FLOP-conservation check."""
        dims = resolve_mesh(mesh)
        configs: list[RunConfig] = [
            RunConfig(opt="scalar", vector_size=min(vector_sizes),
                      mesh_dims=dims)]
        for opt in _SWEEP_OPTS:
            for vs in vector_sizes:
                configs.append(RunConfig(opt=opt, vector_size=vs,
                                         mesh_dims=dims))
        return cls.from_configs(configs)

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)


# ---------------------------------------------------------------------------
# Progress events and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunEvent:
    """One structured progress event streamed by :func:`execute_plan`.

    ``kind`` is one of ``cache_hit``, ``cache_corrupt`` (a damaged disk
    entry was discarded before re-simulation — degradation made
    observable), ``start``, ``done``, ``retry``, ``timeout``, ``failed``,
    ``invalid`` (validation verdict rejected a payload), ``quarantined``
    (repeated validation failure).

    Every event also carries a live utilization snapshot -- ``queued``
    (configs still waiting for a worker) and the running cache
    hit/miss tallies -- so a ``--jobs`` sweep's progress stream shows
    throughput and cache effectiveness, not just completions.
    """

    kind: str
    key: str
    attempt: int = 1
    wall_s: float = 0.0
    error: str = ""
    #: configs still queued (excludes in-flight pool work).
    queued: int = 0
    #: runs recalled from the disk cache so far.
    cache_hits: int = 0
    #: runs simulated from scratch so far (cache misses that completed).
    cache_misses: int = 0


#: progress callback signature.
EventCallback = Callable[[RunEvent], None]


@dataclass
class ExecutionStats:
    """Aggregate accounting for one :func:`execute_plan` call."""

    cache_hits: int = 0
    simulated: int = 0
    retries: int = 0
    failures: int = 0
    validation_failures: int = 0
    quarantined: int = 0
    #: corrupt disk-cache entries discarded (and re-simulated) this call;
    #: each one also emitted a ``cache_corrupt`` event.
    cache_corrupt: int = 0
    wall_s: float = 0.0


@dataclass
class ExecutionResult:
    """Counters by cache key, plus execution statistics and failures."""

    runs: dict[str, RunCounters] = field(default_factory=dict)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: cache key -> last error message, for configs that exhausted retries.
    failed: dict[str, str] = field(default_factory=dict)
    #: cache key -> reason, for configs quarantined after repeated
    #: validation failures (subset of ``failed``).
    quarantined: dict[str, str] = field(default_factory=dict)
    #: cache key -> validation verdict (``{"ok": bool, "violations":
    #: [...]}``), populated when ``validate=True``.
    validation: dict[str, dict] = field(default_factory=dict)

    def counters_for(self, cfg: RunConfig) -> RunCounters:
        return self.runs[cfg.key()]

    def invalid_keys(self) -> list[str]:
        """Keys whose validation verdict is not ok."""
        return sorted(k for k, v in self.validation.items() if not v["ok"])


class SweepError(RuntimeError):
    """Raised when a plan finishes with permanently-failed runs."""

    def __init__(self, failed: dict[str, str]):
        self.failed = dict(failed)
        detail = "; ".join(f"{k}: {v}" for k, v in self.failed.items())
        super().__init__(f"{len(self.failed)} run(s) failed permanently: {detail}")


# ---------------------------------------------------------------------------
# Versioned disk cache: atomic durable writes, digests, corruption recovery
# ---------------------------------------------------------------------------


def cache_path(cache_dir: str | os.PathLike, cfg: RunConfig) -> Path:
    """Location of one config's cached counters."""
    return Path(cache_dir) / f"v{MODEL_VERSION}-{cfg.key()}.json"


def payload_digest(payload: dict) -> str:
    """Content digest over the counter data (reserved ``__*`` metadata
    keys excluded, so verdict annotations don't perturb it)."""
    body = {k: v for k, v in payload.items() if not k.startswith("__")}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


def load_cached_entry(cache_dir: str | os.PathLike,
                      cfg: RunConfig) -> tuple[Optional[RunCounters], str]:
    """Read one cached run, reporting *why* a miss is a miss.

    Returns ``(counters, "")`` on a hit, ``(None, "")`` for a simply
    missing entry, and ``(None, reason)`` when a corrupt entry —
    truncated write, bad JSON, wrong schema, missing or mismatching
    content digest, non-finite counter values, a ``solve=True`` entry
    without its ``__solve__`` record — was discarded.  The corrupt entry
    is deleted so the caller re-simulates; the non-empty reason lets the
    executor surface the repair as a ``cache_corrupt`` event instead of
    healing silently.

    :func:`simulate_to_dict` always writes the ``__solve__`` record
    together with phases 9-12, so a solve entry without it holds the
    assembly phases only and cannot stand for the config.
    """
    path = cache_path(cache_dir, cfg)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None, ""
    except OSError:
        return None, ""
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("counter payload must be a JSON object")
        if data.get("__digest__") != payload_digest(data):
            raise ValueError("content digest mismatch")
        if cfg.solve and "__solve__" not in data:
            raise ValueError("solve entry without its __solve__ record")
        return counters_from_dict(data), ""
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        return None, f"discarded corrupt cache entry: {exc!r}"


def load_cached(cache_dir: str | os.PathLike, cfg: RunConfig) -> Optional[RunCounters]:
    """Read one cached run; a missing *or corrupt* entry returns ``None``
    (the corrupt entry is deleted).  See :func:`load_cached_entry` for
    the corruption-reporting variant the executor uses — a damaged cache
    must never crash a command *or* leak silently into artifacts.
    """
    return load_cached_entry(cache_dir, cfg)[0]


def _dump_payload(payload: dict) -> str:
    """Canonical cache text: key-sorted so identical counters serialize
    to identical bytes regardless of which process produced them."""
    return json.dumps(payload, sort_keys=True)


def write_atomic(target: Path, text: str) -> None:
    """Atomically and durably replace *target* with *text*.

    The tmp file is fsynced before ``os.replace`` and the directory is
    fsynced after, so a crash at any instant leaves either the old file
    or the complete new one -- never an empty or torn file under the
    final name.  The one durable writer of the run cache and the
    service's :class:`~repro.service.store.ResultStore`.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        try:
            dir_fd = os.open(target.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform without dir fsync
            pass
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def store_payload(cache_dir: str | os.PathLike, cfg: RunConfig, payload: dict) -> Path:
    """Atomically and durably persist one run's counter dict
    (:func:`write_atomic`).  A content digest is stamped into the
    payload so silent on-disk corruption (bit rot, partial overwrite)
    is detectable at load time.
    """
    target = cache_path(cache_dir, cfg)
    payload = dict(payload)
    payload["__digest__"] = payload_digest(payload)
    write_atomic(target, _dump_payload(payload))
    return target


# ---------------------------------------------------------------------------
# Simulation workers
# ---------------------------------------------------------------------------


def build_miniapp(cfg: RunConfig):
    """Construct the compiled mini-app a config describes."""
    from repro.cfd.assembly import MiniApp
    from repro.cfd.mesh import box_mesh

    return MiniApp(box_mesh(*cfg.mesh_dims), cfg.vector_size, cfg.opt,
                   field_seed=cfg.field_seed, passes=cfg.passes)


def simulate_run_with_solve(cfg: RunConfig) -> "tuple[RunCounters, dict | None]":
    """Simulate one configuration from scratch (no caches involved).

    Returns ``(counters, solve_info)``: with ``cfg.solve`` the machine
    also times the Krylov solver kernels (phases 9-12) after the
    assembly sweep and ``solve_info`` carries the convergence record;
    otherwise ``solve_info`` is ``None``.
    """
    from repro.machine.cpu import Machine
    from repro.machine.machines import get_machine

    app = build_miniapp(cfg)
    params = get_machine(cfg.machine)
    machine = Machine(params, cache_enabled=cfg.cache_enabled)
    if cfg.solve:
        return app.run_timed_solve(params, machine=machine)
    return app.run_timed(params, machine=machine), None


def simulate_run(cfg: RunConfig) -> RunCounters:
    """Simulate one configuration from scratch (no caches involved)."""
    run, _ = simulate_run_with_solve(cfg)
    return run


def simulate_to_dict(cfg: RunConfig) -> dict:
    """Pool worker: simulate and return plain data (cheap to pickle).

    ``solve=True`` payloads carry the convergence record under the
    reserved ``"__solve__"`` key -- skipped by ``counters_from_dict``
    and excluded from ``payload_digest``, so counter parsing and cache
    digests are unchanged, while ``repro jobs --results`` / ``repro
    report`` can surface iterations, residual and the converged flag.
    """
    run, info = simulate_run_with_solve(cfg)
    payload = counters_to_dict(run)
    if info is not None:
        payload["__solve__"] = info
    return payload


#: worker callable signature: RunConfig -> counter dict.
Worker = Callable[[RunConfig], dict]


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` / unspecified parallelism."""
    return max(1, os.cpu_count() or 1)


def backoff_delay(base_s: float, key: str, attempt: int) -> float:
    """Exponential backoff with *deterministic* jitter.

    The jitter fraction is derived from a hash of (key, attempt), so a
    re-run of the same sweep produces the same schedule — chaos
    campaigns stay reproducible — while distinct configs still spread
    out instead of thundering in lockstep.
    """
    if base_s <= 0:
        return 0.0
    digest = hashlib.sha256(f"{key}#{attempt}".encode()).digest()
    frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return base_s * (2.0 ** (attempt - 1)) * (0.5 + frac)


def execute_plan(plan: ExecutionPlan | Sequence[RunConfig], *,
                 cache_dir: str | os.PathLike = ".repro_cache",
                 jobs: int = 1,
                 use_disk: bool = True,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 backoff_s: float = 0.0,
                 on_event: Optional[EventCallback] = None,
                 worker: Worker = simulate_to_dict,
                 validate: bool = False,
                 quarantine_after: int = 2,
                 journal: Optional[str | os.PathLike] = None) -> ExecutionResult:
    """Execute every config in *plan*, returning counters keyed by
    :meth:`RunConfig.key`.

    Already-cached runs are partitioned out first (``cache_hit`` events);
    the remainder runs on a process pool of *jobs* workers (``jobs <= 1``
    runs in-process).  Each run gets ``1 + retries`` attempts — with
    ``backoff_s``-scaled exponential backoff between them — and, when
    *timeout_s* is set, a per-attempt wall-clock budget.  Runs that
    exhaust their attempts are reported in ``result.failed`` rather than
    raising, so one bad configuration cannot sink a 50-run sweep.

    With ``validate=True`` every payload is checked against the counter
    invariants; a failing payload consumes an attempt, and after
    ``quarantine_after`` validation failures the config is quarantined
    (no further retries).  FLOP conservation across the optimization
    ladder is checked once all runs are in; verdicts land in
    ``result.validation``.

    With ``journal=<path>`` the sweep checkpoints its progress to an
    append-only fsynced file; a subsequent call with the same journal
    resumes — completed runs are recalled from the cache, permanently
    failed and quarantined configs are carried over without re-running,
    and interrupted configs keep their consumed retry budget.
    """
    if isinstance(plan, ExecutionPlan):
        configs = list(plan.configs)
    else:
        configs = list(ExecutionPlan.from_configs(plan).configs)

    result = ExecutionResult()
    t_start = time.monotonic()
    tracer = _obs_active()
    registry = _metrics_active()

    jstate = replay_journal(journal) if journal is not None else None
    jwriter = SweepJournal(journal) if journal is not None else None
    if jwriter is not None:
        jwriter.record("sweep_start", plan=len(configs),
                       model=MODEL_VERSION)

    def jrecord(ev: str, **fields) -> None:
        if jwriter is not None:
            jwriter.record(ev, **fields)

    #: work queue, entries: (cfg, attempt, ready_at) -- declared before
    #: ``emit`` so every event can snapshot the live queue depth.
    todo: deque = deque()

    def emit(kind: str, key: str, attempt: int = 1, wall_s: float = 0.0,
             error: str = "") -> None:
        """Deliver one progress event; a crashing callback is an
        observability problem, never a reason to abort the sweep."""
        if tracer is not None:
            tracer.event(kind, cat="executor", key=key, attempt=attempt,
                         error=error)
            tracer.counter("queue depth", len(todo))
        if registry is not None:
            registry.counter("executor_events_total", kind=kind).inc()
            registry.gauge("executor_queue_depth").set(len(todo))
        if on_event is None:
            return
        try:
            on_event(RunEvent(kind=kind, key=key, attempt=attempt,
                              wall_s=wall_s, error=error,
                              queued=len(todo),
                              cache_hits=result.stats.cache_hits,
                              cache_misses=result.stats.simulated))
        except Exception as exc:
            print(f"[repro] progress callback failed on {kind} {key}: "
                  f"{exc!r}", file=sys.stderr, flush=True)

    if validate:
        from repro.validation.invariants import check_flop_ladder, validate_run
    cfg_by_key = {cfg.key(): cfg for cfg in configs}

    def check_payload(cfg: RunConfig, counters: RunCounters) -> list[str]:
        return validate_run(cfg, counters) if validate else []

    if tracer is not None:
        tracer.event("sweep start", cat="executor", configs=len(configs),
                     jobs=jobs)

    # -- partition: cache hits, journalled failures, remaining work --------
    for cfg in configs:
        key = cfg.key()
        cached, corrupt = (load_cached_entry(cache_dir, cfg) if use_disk
                           else (None, ""))
        if corrupt:
            # the entry was already unlinked; surface the repair so
            # degradation is observable, then fall through to re-simulate.
            result.stats.cache_corrupt += 1
            emit("cache_corrupt", key, error=corrupt)
        if cached is not None and validate:
            violations = check_payload(cfg, cached)
            if violations:
                # corrupted-but-parseable entry: discard and re-simulate.
                try:
                    cache_path(cache_dir, cfg).unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                emit("invalid", key, error="; ".join(violations))
                result.stats.validation_failures += 1
                cached = None
        if cached is not None:
            result.runs[key] = cached
            result.stats.cache_hits += 1
            if validate:
                result.validation[key] = {"ok": True, "violations": []}
            emit("cache_hit", key)
            continue
        if jstate is not None and key in jstate.quarantined:
            error = f"quarantined in journalled sweep: {jstate.quarantined[key]}"
            result.failed[key] = error
            result.quarantined[key] = error
            result.stats.failures += 1
            result.stats.quarantined += 1
            emit("quarantined", key, error=error)
            continue
        if jstate is not None and key in jstate.failed:
            error = f"failed in journalled sweep: {jstate.failed[key]}"
            result.failed[key] = error
            result.stats.failures += 1
            emit("failed", key, error=error)
            continue
        attempt = 1 + (jstate.fail_attempts.get(key, 0)
                       if jstate is not None else 0)
        if attempt > retries + 1:
            error = "retry budget exhausted in interrupted sweep"
            result.failed[key] = error
            result.stats.failures += 1
            jrecord("failed", key=key, error=error)
            emit("failed", key, attempt=attempt - 1, error=error)
            continue
        todo.append((cfg, attempt, 0.0))

    validation_fails: dict[str, int] = {}

    def quarantine(cfg: RunConfig, attempt: int, error: str) -> None:
        key = cfg.key()
        result.failed[key] = error
        result.quarantined[key] = error
        result.stats.failures += 1
        result.stats.quarantined += 1
        jrecord("quarantined", key=key, error=error)
        emit("quarantined", key, attempt=attempt, error=error)

    def handle_failure(cfg: RunConfig, attempt: int, error: str,
                       queue: deque, from_validation: bool = False) -> None:
        key = cfg.key()
        if from_validation:
            validation_fails[key] = validation_fails.get(key, 0) + 1
            if validation_fails[key] >= quarantine_after:
                quarantine(cfg, attempt,
                           f"quarantined after {validation_fails[key]} "
                           f"validation failure(s): {error}")
                return
        if attempt <= retries:
            result.stats.retries += 1
            jrecord("fail_attempt", key=key, attempt=attempt, error=error)
            emit("retry", key, attempt=attempt, error=error)
            ready_at = time.monotonic() + backoff_delay(backoff_s, key, attempt)
            queue.append((cfg, attempt + 1, ready_at))
        else:
            result.stats.failures += 1
            result.failed[key] = error
            jrecord("failed", key=key, error=error)
            emit("failed", key, attempt=attempt, error=error)

    def record(cfg: RunConfig, payload: dict, attempt: int, wall_s: float,
               queue: deque) -> None:
        key = cfg.key()
        try:
            counters = counters_from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            # unusable payload (e.g. NaN-poisoned counters): a detected
            # fault, charged like a validation failure.
            result.stats.validation_failures += 1
            emit("invalid", key, attempt=attempt, error=repr(exc))
            handle_failure(cfg, attempt, f"unusable payload: {exc!r}",
                           queue, from_validation=True)
            return
        violations = check_payload(cfg, counters)
        if violations:
            error = "validation failed: " + "; ".join(violations)
            result.stats.validation_failures += 1
            result.validation[key] = {"ok": False, "violations": violations}
            emit("invalid", key, attempt=attempt, error=error)
            handle_failure(cfg, attempt, error, queue, from_validation=True)
            return
        result.runs[key] = counters
        result.stats.simulated += 1
        if validate:
            result.validation[key] = {"ok": True, "violations": []}
        if use_disk:
            if validate:
                payload = {**payload, "__validation__": {"ok": True}}
            store_payload(cache_dir, cfg, payload)
        jrecord("done", key=key)
        emit("done", key, attempt=attempt, wall_s=wall_s)

    try:
        if todo:
            if jobs <= 1:
                # in-process: the ambient tracer (if any) observes the
                # simulated machines directly through contextvar pickup.
                _run_serial(todo, worker, emit, record, handle_failure, result)
            elif tracer is not None:
                _run_pool_traced(tracer, todo, worker, jobs, timeout_s,
                                 emit, record, handle_failure, result)
            else:
                _run_pool(todo, worker, jobs, timeout_s,
                          emit, record, handle_failure, result)

        # -- cross-run validation: FLOP conservation over the ladder -------
        if validate:
            ladder_runs = {cfg_by_key[k]: run for k, run in result.runs.items()
                           if k in cfg_by_key}
            for key, violations in check_flop_ladder(ladder_runs).items():
                verdict = result.validation.setdefault(
                    key, {"ok": True, "violations": []})
                verdict["ok"] = False
                verdict["violations"] = list(verdict["violations"]) + violations
                result.stats.validation_failures += 1
                emit("invalid", key, error="; ".join(violations))
                if use_disk and key in result.runs:
                    payload = counters_to_dict(result.runs[key])
                    payload["__validation__"] = {
                        "ok": False, "violations": violations}
                    store_payload(cache_dir, cfg_by_key[key], payload)

        jrecord("sweep_end")
        if tracer is not None:
            tracer.event("sweep end", cat="executor",
                         simulated=result.stats.simulated,
                         cache_hits=result.stats.cache_hits,
                         failures=result.stats.failures)
    finally:
        if jwriter is not None:
            jwriter.close()

    result.stats.wall_s = time.monotonic() - t_start
    return result


def _run_serial(queue: deque, worker: Worker,
                emit, record, handle_failure, result: ExecutionResult) -> None:
    """In-process execution path (``jobs <= 1`` and broken-pool fallback).

    Queue entries are ``(cfg, attempt, ready_at)`` so retries keep their
    consumed budget — including when this path takes over from a broken
    process pool mid-sweep — and backoff schedules are honoured.
    """
    while queue:
        cfg, attempt, ready_at = queue.popleft()
        if cfg.key() in result.runs:  # a retry may race a later success
            continue
        delay = ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        emit("start", cfg.key(), attempt=attempt)
        t0 = time.monotonic()
        try:
            payload = worker(cfg)
        except Exception as exc:
            handle_failure(cfg, attempt, repr(exc), queue)
        else:
            record(cfg, payload, attempt, time.monotonic() - t0, queue)


def _run_pool_traced(tracer, queue: deque, worker: Worker, jobs: int,
                     timeout_s: Optional[float],
                     emit, record, handle_failure,
                     result: ExecutionResult) -> None:
    """Pool execution with cross-process trace capture.

    The pool's workers cannot see the coordinator's contextvar-scoped
    tracer, so each worker writes a per-run Chrome trace file into a
    temporary directory (announced via ``REPRO_TRACE_DIR``, picked up by
    :class:`repro.obs.workers.TracedWorker`); the files are merged back
    into *tracer* once the pool drains.  Trace capture must never change
    sweep outcomes: payloads pass through the wrapper untouched and a
    lost trace file is silently skipped at merge time.
    """
    import shutil

    from repro.obs.workers import (
        TRACE_DIR_ENV,
        TracedWorker,
        merge_worker_traces,
    )

    trace_dir = tempfile.mkdtemp(prefix="repro-obs-")
    previous = os.environ.get(TRACE_DIR_ENV)
    os.environ[TRACE_DIR_ENV] = trace_dir
    try:
        _run_pool(queue, TracedWorker(worker), jobs, timeout_s,
                  emit, record, handle_failure, result)
    finally:
        if previous is None:
            os.environ.pop(TRACE_DIR_ENV, None)
        else:  # pragma: no cover - nested tracing sessions
            os.environ[TRACE_DIR_ENV] = previous
        merged = merge_worker_traces(tracer, trace_dir)
        tracer.event("worker traces merged", cat="executor", files=merged)
        shutil.rmtree(trace_dir, ignore_errors=True)


def _run_pool(queue: deque, worker: Worker, jobs: int,
              timeout_s: Optional[float],
              emit, record, handle_failure, result: ExecutionResult) -> None:
    """Process-pool execution with per-run timeout and bounded retry.

    A run whose attempt exceeds *timeout_s* is abandoned (the busy worker
    cannot be killed portably, but its result is discarded) and retried.
    If the pool itself breaks — a worker segfaults or is OOM-killed — the
    pool is rebuilt once; a second break degrades to in-process execution
    (attempt counts intact) so the sweep still completes.
    """
    pool_rebuilds = 1

    while queue:
        pool = ProcessPoolExecutor(max_workers=jobs)
        pending: dict[Future, tuple[RunConfig, int, float]] = {}
        try:
            while queue or pending:
                now = time.monotonic()
                for _ in range(len(queue)):
                    if len(pending) >= jobs:
                        break
                    cfg, attempt, ready_at = queue[0]
                    if cfg.key() in result.runs:
                        queue.popleft()
                        continue
                    if ready_at > now:  # backing off: try the next entry
                        queue.rotate(-1)
                        continue
                    queue.popleft()
                    fut = pool.submit(worker, cfg)
                    pending[fut] = (cfg, attempt, now)
                    emit("start", cfg.key(), attempt=attempt)
                if not pending:
                    if not queue:
                        break
                    # everything queued is backing off: wait a beat.
                    wake = min(entry[2] for entry in queue)
                    time.sleep(min(0.05, max(0.0, wake - now)))
                    continue
                done, _ = wait(pending, timeout=0.1,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for fut in done:
                    cfg, attempt, t0 = pending.pop(fut)
                    try:
                        payload = fut.result()
                    except BrokenProcessPool:
                        handle_failure(cfg, attempt, "process pool broke", queue)
                        raise
                    except Exception as exc:
                        handle_failure(cfg, attempt, repr(exc), queue)
                    else:
                        record(cfg, payload, attempt, now - t0, queue)
                if timeout_s is not None:
                    for fut in list(pending):
                        cfg, attempt, t0 = pending[fut]
                        if now - t0 > timeout_s:
                            del pending[fut]
                            fut.cancel()
                            emit("timeout", cfg.key(), attempt=attempt,
                                 wall_s=now - t0)
                            handle_failure(cfg, attempt,
                                           f"timed out after {timeout_s:g}s",
                                           queue)
        except BrokenProcessPool:
            # Re-queue everything in flight for another attempt.
            for cfg, attempt, _t0 in pending.values():
                handle_failure(cfg, attempt, "process pool broke", queue)
            if pool_rebuilds > 0:
                pool_rebuilds -= 1
                continue
            pool.shutdown(wait=False, cancel_futures=True)
            _run_serial(queue, worker, emit, record, handle_failure, result)
            return
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        break
