"""The benchmark's workloads: one pass each, outputs checked.

A pass runs one workload once from a cold state through the public API
(``box_mesh``, ``MiniApp``, ``MiniApp.run_timed``, ``execute_plan`` over
``ExecutionPlan.standard``, ``run_autotune``) and checks what it
produced: every config's modeled counters against ``reference.json``,
the solve config's convergence, and the autotune winners against the
committed ``tests/fixtures/autotune_winners.json``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import repro
import repro.autotune
from repro import ExecutionPlan, RunConfig
from repro.autotune import candidate_config
from repro.experiments.config import QUICK_MESH, TINY_MESH
from repro.experiments.executor import cache_path, load_cached, simulate_to_dict
from repro.metrics.counters import counters_to_json
from repro.validation import digests

# Layer functions are called through their package (``repro.box_mesh``),
# never through a name imported here, so the traced run's wrappers see
# every call.

#: an operation that runs longer than this counts as failed (timed out).
OP_TIMEOUT_S = 150.0

#: the committed autotune ledger, read-only.
AUTOTUNE_FIXTURE = Path("tests/fixtures/autotune_winners.json")

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def reference_key(cfg: RunConfig) -> str:
    """Reference lookup key: modeled counters do not depend on the field
    seed (``--record`` checks that), so the seed is normalized out."""
    return replace(cfg, field_seed=0).key()


class Reference:
    """Recorded per-config modeled counters, or a recording of them.

    ``check`` compares a config's counters against the recording; in
    recording mode a config seen for the first time is stored instead,
    so recording two seeds proves the counters do not depend on it.
    """

    def __init__(self, configs: Optional[dict] = None):
        self.recording = configs is None
        self.configs: dict = {} if configs is None else configs

    @classmethod
    def load(cls) -> "Reference":
        return cls(json.loads(REFERENCE_PATH.read_text())["configs"])

    def check(self, cfg: RunConfig, counters) -> list[str]:
        key = reference_key(cfg)
        text = counters_to_json(counters)
        got = {"phase_cycles": {str(pid): counters.phases[pid].cycles_total
                                for pid in counters.phase_ids()},
               "counters_sha256": hashlib.sha256(text.encode()).hexdigest()}
        ref = self.configs.get(key)
        if ref is None:
            if self.recording:
                self.configs[key] = got
                return []
            return [f"{key}: no reference recorded"]
        problems = [
            f"{key}: phase {pid} cycles {got['phase_cycles'].get(pid)!r} "
            f"!= reference {cycles!r}"
            for pid, cycles in ref["phase_cycles"].items()
            if got["phase_cycles"].get(pid) != cycles]
        extra = set(got["phase_cycles"]) - set(ref["phase_cycles"])
        if extra:
            problems.append(f"{key}: phases {sorted(extra)} not in reference")
        if not problems and got["counters_sha256"] != ref["counters_sha256"]:
            problems.append(f"{key}: counters differ from reference")
        return problems


@dataclass
class PassResult:
    """What one pass of a workload measured and found."""

    wall_s: float = 0.0
    #: ``time.perf_counter()`` when the timed section began.
    started: float = 0.0
    #: ``(perf_counter start, host seconds)`` of each operation: a run,
    #: or one config's simulation.
    ops: list[tuple[float, float]] = field(default_factory=list)
    #: simulated dynamic instructions (scalar + vector).
    instructions: float = 0.0
    attempted: int = 0
    #: operation -> what went wrong with it.
    failures: dict[str, list[str]] = field(default_factory=dict)
    #: workload-specific counts (executor and autotune statistics).
    stats: dict[str, float] = field(default_factory=dict)

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.setdefault(name, []).extend(problems)


@dataclass
class Context:
    """Inputs of one pass."""

    seed: int
    reference: Reference
    work_dir: Path
    #: process-pool size for the sweep; 1 runs every call in-process.
    jobs: int = 1
    #: shrink the quick mesh to the tiny one (dry run).
    tiny: bool = False
    #: opened around the timed section (the traced run's root span).
    root: Callable = nullcontext

    @property
    def mesh(self) -> tuple[int, int, int]:
        return TINY_MESH if self.tiny else QUICK_MESH

    def fresh_dir(self, name: str) -> Path:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.work_dir))

    @contextmanager
    def timed(self, result: PassResult):
        result.started = time.perf_counter()
        with self.root():
            yield
        result.wall_s = time.perf_counter() - result.started


# ---------------------------------------------------------------------------
# single runs of one config
# ---------------------------------------------------------------------------


def _single_run(ctx: Context, cfg: RunConfig) -> PassResult:
    res = PassResult()
    with ctx.timed(res):
        app = repro.MiniApp(repro.box_mesh(*cfg.mesh_dims), cfg.vector_size,
                            cfg.opt, field_seed=cfg.field_seed)
        run = app.run_timed(repro.get_machine(cfg.machine),
                            cache_enabled=cfg.cache_enabled)
    res.ops = [(res.started, res.wall_s)]
    res.instructions = run.total_instructions
    problems = ctx.reference.check(cfg, run)
    if res.wall_s > OP_TIMEOUT_S:
        problems.append(f"timed out: {res.wall_s:.1f}s > {OP_TIMEOUT_S}s")
    res.op(cfg.key(), problems)
    return res


def quick_vec1_config(ctx: Context) -> RunConfig:
    return RunConfig(machine="riscv_vec", opt="vec1", vector_size=240,
                     mesh_dims=ctx.mesh, field_seed=ctx.seed)


def quick_scalar_nocache_config(ctx: Context) -> RunConfig:
    return RunConfig(machine="riscv_vec", opt="scalar", vector_size=16,
                     mesh_dims=ctx.mesh, cache_enabled=False,
                     field_seed=ctx.seed)


# ---------------------------------------------------------------------------
# the standard sweep on the quick mesh, cold then warm
# ---------------------------------------------------------------------------


def sweep_plan(ctx: Context) -> ExecutionPlan:
    return ExecutionPlan.from_configs(
        replace(cfg, field_seed=ctx.seed)
        for cfg in ExecutionPlan.standard(ctx.mesh))


def sweep_quick(ctx: Context) -> PassResult:
    plan = sweep_plan(ctx)
    store = ctx.fresh_dir("sweep-store")
    started: dict[str, float] = {}
    res = PassResult()

    def on_event(ev) -> None:
        if ev.kind == "start":
            started[ev.key] = time.perf_counter()
        elif ev.kind == "done":
            res.ops.append((started[ev.key], ev.wall_s))

    with ctx.timed(res):
        t0 = time.perf_counter()
        cold = repro.execute_plan(plan, cache_dir=store, jobs=ctx.jobs,
                                  timeout_s=OP_TIMEOUT_S, on_event=on_event)
        t1 = time.perf_counter()
        warm = repro.execute_plan(plan, cache_dir=store, jobs=ctx.jobs)
        t2 = time.perf_counter()

    iterations = 0
    for cfg in plan:
        key = cfg.key()
        problems = []
        run = cold.runs.get(key)
        if run is None:
            problems.append(f"{key}: failed: {cold.failed.get(key, '?')}")
        else:
            problems += ctx.reference.check(cfg, run)
            res.instructions += run.total_instructions
        if cfg.solve and run is not None:
            info = json.loads(cache_path(store, cfg).read_text())["__solve__"]
            iterations += info["iterations"]
            if not info["converged"]:
                problems.append(f"{key}: solve did not converge: {info}")
        res.op(key, problems)
        recalled = warm.runs.get(key)
        res.op(f"{key} (warm)",
               [f"{key}: warm recall failed"] if recalled is None
               else ctx.reference.check(cfg, recalled))
    res.op("warm re-run", [f"re-simulated {warm.stats.simulated} config(s)"]
           if warm.stats.simulated else [])
    res.stats = {
        "pool_util": sum(s for _, s in res.ops) / (ctx.jobs * (t1 - t0)),
        "queue_wait_s": sum(t - t0 for t in started.values()),
        "store_bytes": sum(p.stat().st_size for p in store.iterdir()),
        "recall_s": t2 - t1,
        "retries": cold.stats.retries,
        "failures": cold.stats.failures,
        "iterations": iterations,
    }
    return res


# ---------------------------------------------------------------------------
# the autotuner's CI configuration
# ---------------------------------------------------------------------------


def autotune_tiny(ctx: Context) -> PassResult:
    fixture = json.loads(AUTOTUNE_FIXTURE.read_text())
    store = ctx.fresh_dir("autotune-store")
    # cold: forget the digests an earlier pass in this process memoized.
    digests._honest_digests.cache_clear()
    digests._honest_solver_digests.cache_clear()
    res = PassResult()

    def timed_worker(cfg: RunConfig) -> dict:
        t0 = time.perf_counter()
        payload = simulate_to_dict(cfg)
        res.ops.append((t0, time.perf_counter() - t0))
        return payload

    settings = dict(machine=fixture["machine"],
                    vector_size=fixture["vector_size"],
                    profile=fixture["profile"], seed=ctx.seed)
    with ctx.timed(res):
        report = repro.autotune.run_autotune(
            tuple(fixture["mesh"]), cache_dir=store, jobs=1,
            worker=timed_worker, **settings)
    for cand in report.timed():
        cfg = candidate_config(cand.schedule, machine=report.machine,
                               vector_size=report.vector_size,
                               mesh_dims=report.mesh_dims, seed=ctx.seed,
                               backend=report.backend)
        run = load_cached(store, cfg)
        if run is None:
            res.op(cfg.key(), [f"{cfg.key()}: no stored counters"])
            continue
        res.instructions += run.total_instructions
        res.op(cfg.key(), ctx.reference.check(cfg, run))
    got = report.to_dict()
    problems = [f"autotune {part} differ from {AUTOTUNE_FIXTURE}"
                for part in ("winners", "vec1_family")
                if got[part] != fixture[part]]
    if res.wall_s > OP_TIMEOUT_S:
        problems.append(f"timed out: {res.wall_s:.1f}s > {OP_TIMEOUT_S}s")
    res.op("autotune winners", problems)
    counts = report.counts
    res.stats = {
        "candidates": counts["enumerated"],
        "pruned": counts["pruned"],
        "timed": counts["timed"],
        "timed_frac": counts["timed"] / counts["enumerated"],
        "store_bytes": sum(p.stat().st_size for p in store.iterdir()),
    }
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Context], PassResult]
    #: the first config the workload compiles: what ``setup_s`` builds.
    first_config: Callable[[Context], RunConfig]


def _autotune_first_config(ctx: Context) -> RunConfig:
    fixture = json.loads(AUTOTUNE_FIXTURE.read_text())
    return candidate_config((), machine=fixture["machine"],
                            vector_size=fixture["vector_size"],
                            mesh_dims=tuple(fixture["mesh"]), seed=ctx.seed,
                            backend="numpy")


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("quick-vec1",
             lambda ctx: _single_run(ctx, quick_vec1_config(ctx)),
             quick_vec1_config),
    Workload("quick-scalar-nocache",
             lambda ctx: _single_run(ctx, quick_scalar_nocache_config(ctx)),
             quick_scalar_nocache_config),
    Workload("sweep-quick", sweep_quick,
             lambda ctx: next(iter(sweep_plan(ctx)))),
    Workload("autotune-tiny", autotune_tiny, _autotune_first_config),
)}
