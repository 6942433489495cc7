"""Config-first experiment façade over the sweep executor.

Every table and figure of the paper is a projection of the same ~50
simulated runs (machine x optimization x VECTOR_SIZE).  The heavy
lifting — building, simulating, parallel fan-out, per-run
timeout/retry, the versioned atomic disk cache under ``.repro_cache/``,
validation — lives in :mod:`repro.experiments.executor`.
:class:`Session` is an in-memory memo in front of
:func:`~repro.experiments.executor.execute_plan`, so every run takes
the same path whether it is asked for alone or in a batch:

* ``Session.run(cfg)`` runs (or recalls) one
  :class:`~repro.experiments.config.RunConfig`; the keyword form
  ``run(machine=..., opt=..., vector_size=...)`` builds the config with
  :meth:`Session.config`;
* ``Session.run_many(configs)`` is the batch entry point the
  table/figure generators use to pre-warm the memo across the session's
  process pool (``jobs``) before rendering.

Results memoize in memory and persist as JSON on disk, so the full
benchmark suite re-renders in seconds after the first pass.  Set the
environment variable ``REPRO_CACHE=0`` to disable the disk cache (the
in-memory memo always applies); :data:`~repro.experiments.executor.MODEL_VERSION`
is bumped when the timing model changes so stale caches are ignored.  A
corrupt cache entry is discarded and re-simulated, never fatal.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Iterable, Optional

from repro.experiments.config import FULL_MESH, RunConfig
from repro.experiments.executor import (
    MODEL_VERSION,
    ExecutionPlan,
    RunEvent,
    SweepError,
    execute_plan,
)
from repro.metrics.counters import (
    RunCounters,
    counters_from_dict,
    counters_to_dict,
)

__all__ = [
    "MODEL_VERSION",
    "Session",
    "counters_from_dict",
    "counters_to_dict",
]


class Session:
    """In-memory run memo for one mesh configuration, in front of
    :func:`~repro.experiments.executor.execute_plan`."""

    def __init__(self, mesh_dims: tuple[int, int, int] = FULL_MESH,
                 cache_dir: str | os.PathLike = ".repro_cache",
                 use_disk: Optional[bool] = None,
                 verbose: bool = False,
                 jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 validate: bool = False,
                 journal: Optional[str | os.PathLike] = None,
                 backend: str = "numpy"):
        self.mesh_dims = tuple(mesh_dims)
        #: execution backend stamped on configs built by this session
        #: (see ``RunConfig.backend``); timing results are identical
        #: across backends, only semantic validation work is affected.
        #: Resolved eagerly so a typo fails here with the registry keys
        #: listed, not as a KeyError deep inside a sweep.
        from repro.backends import get_backend

        self.backend = get_backend(backend).name
        self.cache_dir = Path(cache_dir)
        if use_disk is None:
            use_disk = os.environ.get("REPRO_CACHE", "1") != "0"
        self.use_disk = use_disk
        self.verbose = verbose
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.retries = retries
        self.validate = validate
        self.journal = journal
        self._memo: dict[str, RunCounters] = {}

    def config(self, **kwargs) -> RunConfig:
        """A :class:`RunConfig` bound to this session's mesh (and
        execution backend, unless overridden)."""
        kwargs.setdefault("backend", self.backend)
        return RunConfig.from_kwargs(mesh=self.mesh_dims, **kwargs)

    def _log_event(self, ev: RunEvent) -> None:  # pragma: no cover - console
        detail = f" attempt {ev.attempt}" if ev.attempt > 1 else ""
        suffix = f" ({ev.error})" if ev.error else ""
        util = (f" [queued {ev.queued}, hits {ev.cache_hits}, "
                f"misses {ev.cache_misses}]")
        print(f"[repro] {ev.kind} {ev.key}{detail}{suffix}{util}",
              file=sys.stderr, flush=True)

    def run(self, cfg: Optional[RunConfig] = None, **kw) -> RunCounters:
        """Run (or recall) one configuration; returns per-phase counters.

        Config-first: ``session.run(cfg)``.  The keyword form
        (``session.run(opt="vec1", vector_size=240)``) builds the config
        with :meth:`config` against this session's mesh.
        """
        if cfg is None:
            cfg = self.config(**kw)
        elif kw:
            raise TypeError("pass a RunConfig or keywords, not both")
        return self.run_many([cfg])[0]

    def run_many(self, configs: Iterable[RunConfig] | ExecutionPlan
                 ) -> list[RunCounters]:
        """Run a batch of configurations, fanning cache misses across the
        session's process pool; returns counters in input order.

        This is the pre-warm entry point used by the table and figure
        generators: artifacts first ``run_many`` every config they
        project, then read individual runs from the warm memo.
        """
        configs = list(configs)
        todo = ExecutionPlan.from_configs(
            cfg for cfg in configs if cfg.key() not in self._memo)
        if todo:
            result = execute_plan(
                todo,
                cache_dir=self.cache_dir,
                jobs=min(self.jobs, len(todo)),
                use_disk=self.use_disk,
                timeout_s=self.timeout_s,
                retries=self.retries,
                on_event=self._log_event if self.verbose else None,
                validate=self.validate,
                journal=self.journal,
            )
            if result.failed:
                raise SweepError(result.failed)
            invalid = result.invalid_keys()
            if invalid:
                raise SweepError({
                    k: "validation failed: "
                       + "; ".join(result.validation[k]["violations"])
                    for k in invalid})
            self._memo.update(result.runs)
        return [self._memo[cfg.key()] for cfg in configs]

    # -- convenience projections ------------------------------------------

    def scalar_baseline(self, machine: str = "riscv_vec",
                        vector_size: int = 16) -> RunCounters:
        """The paper's baseline: scalar build at VECTOR_SIZE = 16."""
        return self.run(machine=machine, opt="scalar", vector_size=vector_size)

    def total_cycles(self, **kw) -> float:
        return self.run(**kw).total_cycles

    def phase_cycles(self, phase: int, **kw) -> float:
        return self.run(**kw).phases[phase].cycles_total
