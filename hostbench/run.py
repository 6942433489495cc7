"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload quick-vec1 --seed 0 \\
        --seconds 12 --trace 0

``--trace 0`` times the workload untraced: passes repeat until
``--seconds`` have gone by (at least one pass), and the cold set-up is
measured in fresh interpreters.  Every timing is scaled to a reference
host by the host speed sampled while it ran (:class:`HostSpeed`); the
unscaled figures are printed too.  ``--trace 1`` runs one serial pass
with timing wrappers around each layer's public functions
(:mod:`hostbench.spans`), checks that the layers' self times account
for its wall time, and reports per-layer metrics.  Both modes check the
modeled counters against the same untraced recording, so a traced run
that passes produced counters byte-identical to an untraced one.

Every output is checked (:mod:`hostbench.workloads`).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any check failed,
and 2 when the directory holds no ``src/repro`` to benchmark.

``--tiny`` shrinks the quick mesh to 4x4x4 (a dry run for the benchmark's
own tests); ``--record`` rewrites ``hostbench/reference.json`` from two
seeds, failing if the modeled counters depend on the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

WORKLOAD_NAMES = ("quick-vec1", "quick-scalar-nocache", "sweep-quick",
                  "autotune-tiny")

#: cold set-ups per run; their median is ``setup_s``.  The first one of a
#: fresh checkout also writes the byte-code caches; the median drops it.
SETUP_REPEATS = 3

#: the share of the traced wall time the layers may leave unattributed.
UNATTRIBUTED_LIMIT = 0.05

#: CPU seconds one speed probe takes on the reference host (2 vCPUs at
#: 2.1 GHz) when nothing else slows it down; timings are scaled to it.
PROBE_REF_S = 0.004

#: seconds between two speed probes.
PROBE_PERIOD_S = 0.25

#: timed in a fresh interpreter: cold import of ``repro`` to a compiled,
#: ready-to-run mini-app.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import repro
nx, ny, nz, vs, seed = map(int, sys.argv[1:6])
repro.MiniApp(repro.box_mesh(nx, ny, nz), vs, sys.argv[6], field_seed=seed)
print(time.perf_counter() - t0)
"""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def probe_slowdown() -> float:
    """How much slower than the reference host this thread runs now.

    The probe is a fixed pure-Python LRU walk, like the cache
    simulator's inner loop, timed in thread CPU seconds so that waiting
    for the interpreter lock or for a core does not count.
    """
    stream = [(i * 2654435761) % 4096 for i in range(20_000)]
    sets: list[list[int]] = [[] for _ in range(64)]
    t0 = time.thread_time()
    for line in stream:
        ways = sets[line % 64]
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
        else:
            ways.append(line)
            if len(ways) > 8:
                del ways[0]
    return (time.thread_time() - t0) / PROBE_REF_S


class HostSpeed:
    """Samples the host's slowdown in a background thread.

    A shared 2-vCPU host (2.1 GHz) was seen to switch between a fast
    state and a ~1.6x slower one every few seconds, so unscaled timings
    moved by up to a third from run to run.  Each timing is divided by
    the mean slowdown sampled while it ran, which brought the run-to-run
    spread to a few percent.  A probe costs ~2% of one core.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def _sample(self) -> None:
        while not self._stop.is_set():
            self._samples.append((time.perf_counter(), probe_slowdown()))
            self._stop.wait(PROBE_PERIOD_S)

    def scale(self, seconds: float, t0: float) -> float:
        """*seconds* that started at *t0*, scaled to the reference host."""
        samples = list(self._samples)
        inside = [s for t, s in samples if t0 <= t <= t0 + seconds]
        if not inside:  # shorter than the sampling period
            mid = t0 + seconds / 2
            inside = [min(samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return seconds / statistics.mean(inside)


def measure_setup(root: Path, cfg, speed: HostSpeed) -> list[float]:
    """Cold set-up seconds, one fresh interpreter each, scaled to the
    reference host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, cfg.mesh_dims),
            str(cfg.vector_size), str(cfg.field_seed), cfg.opt]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(speed.scale(float(out.stdout.split()[-1]), t0))
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pool_jobs() -> int:
    """Process-pool size of an untraced sweep: min(2, nproc)."""
    return min(2, len(os.sched_getaffinity(0)))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(args, root: Path, workload, ctx_for, tally) -> dict:
    passes, walls = [], []
    with HostSpeed() as speed:
        setup = measure_setup(root, workload.first_config(ctx_for(1)),
                              speed)
        t_end = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < t_end:
            res = tally.run_pass(workload, ctx_for(pool_jobs()))
            if res is None:
                break
            passes.append(res)
            walls.append(speed.scale(res.wall_s, res.started))
        ops = [speed.scale(s, t0) for p in passes for t0, s in p.ops]
    if not passes:
        return {}
    print(f"{len(passes)} pass(es), {len(ops)} operation(s), "
          f"{len(ops) - math.ceil(0.8 * len(ops))} beyond run_s_p80; "
          f"unscaled median wall "
          f"{statistics.median(p.wall_s for p in passes):.4f} s")
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "run_s_p50": _metric(percentile(ops, 50), "s"),
        "run_s_p80": _metric(percentile(ops, 80), "s"),
        "sim_minstr_per_s": _metric(statistics.median(
            p.instructions / w / 1e6 for p, w in zip(passes, walls)),
            "Minstr/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


# ---------------------------------------------------------------------------
# traced: per-layer metrics
# ---------------------------------------------------------------------------


def per_layer(args, root: Path, workload, ctx_for, tally) -> dict:
    from hostbench.spans import ROOT, Recorder

    # Serial, so every call lands in this process.  The pass checks its
    # counters' digests against reference.json, recorded untraced.
    recorder = Recorder()
    with recorder:
        traced = tally.run_pass(workload, ctx_for(1, root=recorder.root))
    if traced is None:
        return {}
    table = recorder.table()
    trace_dir = root / ".hostbench" / "traces"
    recorder.save(trace_dir / f"{args.workload}-seed{args.seed}.npz")

    wall = traced.wall_s
    unattributed = table[ROOT]["self_s"]
    print(f"layer self times, traced serial pass ({wall:.3f} s):")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"  {name:34s} {row['self_s']:10.4f} s "
                  f"{row['self_s'] / wall:7.1%} {row['calls']:9d} calls")
    tally.check("layer accounting", [
        f"layers leave {unattributed:.3f} s of {wall:.3f} s unattributed"]
        if unattributed > UNATTRIBUTED_LIMIT * wall else [])

    def self_s(layer):
        return table[layer]["self_s"]

    def total_s(layer):
        return table[layer]["total_s"]

    cache = recorder.cache_counts
    lines, elems = cache["l1_lines"], cache["elem_accesses"]
    stats = traced.stats
    overhead = recorder.overhead_s(table)
    values = {
        "machine.cache.access_s": (self_s("machine.cache"), "s"),
        **{f"machine.cache.{k}": (v, "count") for k, v in cache.items()},
        "machine.cache.l1_line_ns": (
            self_s("machine.cache") * 1e9 / lines if lines else 0.0, "ns"),
        "machine.cache.dedup_ratio": (lines / elems if elems else 0.0,
                                      "ratio"),
        "compiler.program.address_s": (self_s("compiler.program.address"),
                                       "s"),
        "compiler.program.address_calls": (
            table["compiler.program.address"]["calls"], "count"),
        "machine.cpu.self_s": (self_s("machine.cpu"), "s"),
        "machine.cpu.kernels": (table["machine.cpu"]["calls"], "count"),
        "validation.digests_s": (self_s("validation.digests"), "s"),
        "validation.calls": (table["validation.digests"]["calls"], "count"),
        "autotune.self_s": (self_s("autotune"), "s"),
        "autotune.validate_s": (total_s("autotune.validate"), "s"),
        **{f"autotune.{k}": (stats.get(k, 0), unit) for k, unit in (
            ("candidates", "count"), ("pruned", "count"),
            ("timed", "count"), ("timed_frac", "ratio"))},
        "cfd.mesh.box_mesh_s": (self_s("cfd.mesh.box_mesh"), "s"),
        "cfd.csr.build_pattern_s": (self_s("cfd.csr.build_pattern"), "s"),
        "cfd.assembly.miniapp_s": (self_s("cfd.assembly.miniapp"), "s"),
        "cfd.kernel_context.instance_s": (
            self_s("cfd.kernel_context.instance"), "s"),
        "compiler.transforms.run_all_s": (
            self_s("compiler.transforms.run_all"), "s"),
        "compiler.vectorizer.vectorize_s": (
            self_s("compiler.vectorizer.vectorize"), "s"),
        "compiler.codegen.lower_s": (self_s("compiler.codegen.lower"), "s"),
        "cfd.solver_path.run_timed_s": (total_s("cfd.solver_path.run_timed"),
                                        "s"),
        "cfd.solver_path.reference_solve_s": (
            total_s("cfd.solver_path.reference_solve"), "s"),
        "cfd.solver_path.iterations": (stats.get("iterations", 0), "count"),
        "experiments.executor.self_s": (self_s("experiments.executor"), "s"),
        "experiments.executor.worker_s_sum": (
            total_s("experiments.executor.worker"), "s"),
        "experiments.executor.store_write_s": (
            total_s("experiments.executor.store_write"), "s"),
        **{f"experiments.executor.{k}": (stats.get(k, 0), unit)
           for k, unit in (("pool_util", "ratio"), ("queue_wait_s", "s"),
                           ("store_bytes", "B"), ("recall_s", "s"),
                           ("retries", "count"), ("failures", "count"))},
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_frac": (overhead / (wall - overhead), "ratio"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


# ---------------------------------------------------------------------------
# reference recording
# ---------------------------------------------------------------------------


def record(work: Path) -> int:
    from hostbench.workloads import (
        REFERENCE_PATH,
        WORKLOADS,
        Context,
        Reference,
    )

    reference = Reference()
    seeds = (0, 1)
    problems = []
    for tiny in (False, True):
        for workload in WORKLOADS.values():
            for seed in seeds:
                print(f"recording {workload.name} seed={seed} tiny={tiny}",
                      flush=True)
                ctx = Context(seed=seed, reference=reference, tiny=tiny,
                              work_dir=work / f"record-{workload.name}",
                              jobs=pool_jobs())
                res = workload.run(ctx)
                problems += [p for ps in res.failures.values() for p in ps]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    REFERENCE_PATH.write_text(json.dumps({
        "_comment": "Modeled counters per config, recorded with "
                    "'python3 hostbench/run.py --record' and identical "
                    "for every listed seed.",
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": list(seeds),
        "configs": dict(sorted(reference.configs.items())),
    }, indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"hostbench: no src/repro under {root}; run from the root of "
              "a repro checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"hostbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work = root / ".hostbench" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    try:
        if args.record:
            return record(work)
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Tally:
    """Operations attempted and failed across the passes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def check(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.setdefault(op, []).extend(problems)

    def run_pass(self, workload, ctx):
        """One pass of *workload*, tallied; ``None`` when it raised."""
        try:
            res = workload.run(ctx)
        except Exception:
            traceback.print_exc()
            self.check(f"{workload.name} pass", ["raised"])
            return None
        self.attempted += res.attempted
        for op, problems in res.failures.items():
            self.failures.setdefault(op, []).extend(problems)
        return res


def run(args, root: Path, work: Path) -> int:
    from hostbench.workloads import WORKLOADS, Context, Reference

    workload = WORKLOADS[args.workload]
    reference = Reference.load()
    tally = Tally()

    def ctx_for(jobs, **kw):
        return Context(seed=args.seed, reference=reference, work_dir=work,
                       jobs=jobs, tiny=args.tiny, **kw)

    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, root, workload, ctx_for, tally)

    for op, problems in tally.failures.items():
        for p in problems:
            print(f"FAILED {op}: {p}", file=sys.stderr)
    attempted, failed = max(tally.attempted, 1), len(tally.failures)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operation(s), {failed} failed, "
          f"fail_frac={failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    correct = not tally.failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
