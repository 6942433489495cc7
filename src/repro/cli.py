"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction the ergonomics of the original toolchain -- one
command per artifact or workflow:

* ``info``                      -- the Table-2 platform summary;
* ``table N`` / ``figure N``    -- regenerate one paper artifact;
* ``sweep``                     -- the Figure-11 speed-up ladder;
* ``bench``                     -- time the sweep executor, write BENCH_current.json;
  with ``--baseline PATH`` it also checks every per-phase cycle count
  against a committed report, exactly: exit 1 on any difference, exit
  2 before simulating when the baseline does not fit the plan or
  ``-o`` names it;
* ``autotune``                  -- discover the best pass schedule per
  phase: enumerate legal schedules (interchange x fission x
  const-trip-count x strip-mine), prune with the machine-model cost
  model, digest-validate survivors, time them through the cached
  executor, and write a byte-deterministic AUTOTUNE_report.json;
* ``remarks``                   -- the compiler's vectorization remarks;
* ``passes``                    -- run the transformation pass pipeline
  and show each kernel before/after every applied pass, with the
  transform remarks (the ``-fopt-info`` of the modelled compiler);
* ``advise``                    -- the co-design advisor's findings;
* ``codesign``                  -- run the full iterative loop;
* ``trace``                     -- run under the observability tracer;
  exports Paraver text (``.prv`` + ``.pcf``/``.row``) and, with
  ``--out``, a Chrome ``trace_event`` JSON for ``chrome://tracing``;
* ``chaos``                     -- seeded fault-injection campaign + report.

Sweep-shaped commands (``table`` / ``figure`` / ``sweep`` / ``report`` /
``bench``) accept ``--jobs/-j N`` to fan uncached simulations across a
process pool (``-j 0`` means one worker per CPU), ``--validate`` to
cross-check every run against the counter invariants (a violation
aborts the command instead of rendering a poisoned artifact), and
``--journal PATH`` to checkpoint the sweep so an interrupted command
resumes without re-running completed work.  Results print as ASCII
tables (see ``repro.experiments.report``); progress and validation
diagnostics go to stderr, so artifact output is byte-identical at any
job count and with or without ``--validate`` (when no fault fires).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.experiments import figures as F
from repro.experiments import report, tables as T
from repro.experiments.config import RunConfig, resolve_mesh
from repro.experiments.runner import Session

_TABLES = {1: T.table1, 2: T.table2, 3: T.table3, 4: T.table4,
           5: T.table5, 6: T.table6}
_FIGURES = {2: F.figure2, 3: F.figure3, 4: F.figure4, 5: F.figure5,
            6: F.figure6, 7: F.figure7, 8: F.figure8, 9: F.figure9,
            10: F.figure10, 11: F.figure11, 12: F.figure12, 13: F.figure13}


def _mesh_dims(name: str) -> tuple[int, int, int]:
    return resolve_mesh(name)


def _job_count(text: str) -> int:
    """``-j/--jobs``: an integer ``>= 0`` (0 = one worker per CPU),
    checked before anything is simulated."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return n


def _add_mesh(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", choices=("tiny", "quick", "full"),
                   default="quick",
                   help="mesh preset: tiny=64 elements, quick=960, full=7680")


def _add_backend(p: argparse.ArgumentParser) -> None:
    # choices come from the live registry, so a backend registered via
    # repro.backends.register_backend is selectable here too — and an
    # unknown name gets argparse's friendly error listing the registry
    # keys instead of a bare KeyError deep in the stack.
    from repro.backends import BACKENDS, DEFAULT_BACKEND

    p.add_argument("--backend", choices=sorted(BACKENDS),
                   default=DEFAULT_BACKEND,
                   help="kernel execution backend for semantic paths "
                        "(golden checks, digest ladders); results are "
                        "byte-identical, numpy is ~25x faster")


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("-j", "--jobs", type=_job_count, default=1, metavar="N",
                   help="parallel simulation workers (0 = one per CPU)")


def _add_validate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--validate", action="store_true",
                   help="cross-check every run against the counter "
                        "invariants; abort on any violation")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="checkpoint sweep progress to PATH; re-running "
                        "with the same journal resumes an interrupted "
                        "sweep")
    _add_backend(p)


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_mesh(p)
    p.add_argument("--machine", default="riscv_vec",
                   choices=("riscv_vec", "riscv_vec_next", "sx_aurora",
                            "mn4_avx512", "a64fx"))
    p.add_argument("--opt", default="vec1",
                   choices=("scalar", "vanilla", "vec2", "ivec2", "vec1"))
    p.add_argument("--vs", type=int, default=240, help="VECTOR_SIZE")
    _add_backend(p)


class _BadConfig(ValueError):
    """A single-run command's flags describe no valid RunConfig."""


def _run_config(args) -> RunConfig:
    """The one RunConfig a single-run command describes.  A value
    ``RunConfig`` rejects raises :class:`_BadConfig`, which :func:`main`
    reports as the command's error."""
    try:
        return RunConfig.from_kwargs(mesh=args.mesh, machine=args.machine,
                                     opt=args.opt, vs=args.vs,
                                     field_seed=getattr(args, "seed", 0),
                                     backend=getattr(args, "backend", "numpy"),
                                     solve=getattr(args, "solve", False))
    except ValueError as exc:
        raise _BadConfig(str(exc)) from None


def _jobs(args) -> int:
    from repro.experiments.executor import default_jobs

    n = getattr(args, "jobs", 1)
    return default_jobs() if n == 0 else n


def _session(args) -> Session:
    return Session(mesh_dims=_mesh_dims(args.mesh), verbose=True,
                   jobs=_jobs(args),
                   validate=getattr(args, "validate", False),
                   journal=getattr(args, "journal", None),
                   backend=getattr(args, "backend", "numpy"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploiting long vectors with a CFD "
                    "code' (IPPS 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="platform summary (Table 2)")

    p = sub.add_parser("table", help="regenerate a paper table (1-6)")
    p.add_argument("number", type=int, choices=sorted(_TABLES))
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)

    p = sub.add_parser("figure", help="regenerate a paper figure (2-13)")
    p.add_argument("number", type=int, choices=sorted(_FIGURES))
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)

    p = sub.add_parser("sweep", help="speed-up ladder (Figure 11)")
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)

    p = sub.add_parser("report", help="the full evaluation report "
                                      "(every table and figure)")
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)
    p.add_argument("-o", "--output", default=None,
                   help="write to a file instead of stdout")

    p = sub.add_parser("chaos", help="seeded fault-injection campaign: "
                                     "prove every fault is detected or "
                                     "recovered")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (same seed = same faults, same "
                        "report)")
    p.add_argument("--mesh", choices=("tiny", "quick", "full"),
                   default="tiny",
                   help="mesh preset for the chaos sweeps (default tiny)")
    _add_jobs(p)
    p.add_argument("-o", "--output", default="chaos",
                   help="directory for chaos-report.json + "
                        "fault-plan.json")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log each stage to stderr")
    p.add_argument("--pass-faults", action="store_true",
                   help="also arm the compiler-model faults: one sweep "
                        "per mis-legalized pass kind, classified like "
                        "worker faults (detection via the per-phase "
                        "output digest ladder)")
    p.add_argument("--validate", action="store_true",
                   help="additionally golden-check every pipeline stage "
                        "of every rung (transformed mode) and prove "
                        "every implemented pass-fault kind is detected")
    _add_backend(p)

    p = sub.add_parser("bench", help="time the sweep executor (serial vs "
                                     "parallel) and write a JSON report")
    _add_mesh(p)
    _add_jobs(p)
    p.add_argument("--profile", choices=("smoke", "standard"),
                   default="standard",
                   help="smoke = 4 runs (three assembly runs and one "
                        "assemble+solve run), standard = the full ~50-run "
                        "sweep")
    p.add_argument("-o", "--output", default="BENCH_current.json",
                   help="benchmark report path (JSON)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="check the fresh per-phase cycle counts against "
                        "this committed bench report; exit 1 on any "
                        "difference")

    p = sub.add_parser("autotune", help="discover the best pass schedule "
                                        "per phase; write a deterministic "
                                        "winner report")
    p.add_argument("--preset", choices=("tiny", "quick", "full"),
                   default=None,
                   help="mesh preset shorthand; overrides --mesh")
    _add_mesh(p)
    p.add_argument("--machine", default="riscv_vec",
                   choices=("riscv_vec", "riscv_vec_next", "sx_aurora",
                            "mn4_avx512", "a64fx"))
    p.add_argument("--vs", type=int, default=240, help="VECTOR_SIZE")
    p.add_argument("--profile", choices=("smoke", "standard"),
                   default="standard",
                   help="smoke = one strip size per family (CI), "
                        "standard = every legal strip size")
    p.add_argument("--seed", type=int, default=0,
                   help="field seed for the timed candidates (default 0); "
                        "the report is byte-deterministic per seed")
    _add_jobs(p)
    _add_backend(p)
    p.add_argument("-o", "--output", default="AUTOTUNE_report.json",
                   help="winner report path (JSON)")
    p.add_argument("--summary", default=None, metavar="PATH",
                   help="also write the winner table as GitHub-flavoured "
                        "markdown (CI publishes it to the step summary)")

    p = sub.add_parser("remarks", help="compiler vectorization remarks")
    _add_common(p)

    p = sub.add_parser("passes", help="show the transformation pass "
                                      "pipeline: before/after IR + "
                                      "transform remarks")
    _add_common(p)
    p.add_argument("--preset", choices=("tiny", "quick", "full"),
                   default=None,
                   help="mesh preset shorthand; overrides --mesh")
    p.add_argument("--full", action="store_true",
                   help="print full right-hand sides instead of eliding "
                        "them to '...'")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print not-applicable remarks")

    p = sub.add_parser("advise", help="co-design advisor findings")
    _add_common(p)

    p = sub.add_parser("codesign", help="run the iterative co-design loop")
    _add_common(p)

    p = sub.add_parser("trace", help="run under the observability tracer; "
                                     "export Paraver text and Chrome JSON")
    _add_common(p)
    p.add_argument("--preset", choices=("tiny", "quick", "full"),
                   default=None,
                   help="mesh preset shorthand; overrides --mesh")
    p.add_argument("--seed", type=int, default=0,
                   help="field seed for the traced run (default 0)")
    p.add_argument("--solve", action="store_true",
                   help="trace the full assemble+solve cycle: the "
                        "Krylov solver kernels (phases 9-12) run as "
                        "timed SIM spans after assembly")
    p.add_argument("-o", "--output", default="miniapp.prv",
                   help="Paraver trace path (.pcf/.row written alongside)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also export a Chrome trace_event JSON "
                        "(open in chrome://tracing or Perfetto)")

    p = sub.add_parser("roofline", help="per-phase roofline analysis")
    _add_common(p)

    return parser


def _cmd_info() -> int:
    print(report.render(T.table2()))
    return 0


def _cmd_table(args) -> int:
    fn = _TABLES[args.number]
    if args.number in (1, 2):
        obj = fn()
    else:
        obj = fn(_session(args))
    print(report.render(obj))
    return 0


def _cmd_figure(args) -> int:
    obj = _FIGURES[args.number](_session(args))
    print(obj.title)
    print(report.format_table(obj.rows()))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.summary import evaluation_report

    text = evaluation_report(_session(args))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    fig = F.figure11(_session(args))
    print(report.format_series_barchart(fig))
    return 0


def _cmd_bench(args) -> int:
    """Cold serial vs cold parallel vs warm recall over one plan; with
    ``--baseline``, the serial leg's per-phase cycles must equal the
    baseline's."""
    import tempfile
    from pathlib import Path

    from repro.experiments.executor import ExecutionPlan, execute_plan
    from repro.obs import gate

    jobs = _jobs(args)
    dims = _mesh_dims(args.mesh)
    plan = (ExecutionPlan.smoke(dims) if args.profile == "smoke"
            else ExecutionPlan.standard(dims))

    baseline = None
    if args.baseline:
        try:
            if Path(args.output).resolve() == Path(args.baseline).resolve():
                raise ValueError(f"-o {args.output} would overwrite it")
            baseline = gate.load_baseline(args.baseline, dims,
                                          [cfg.key() for cfg in plan])
        except ValueError as exc:
            print(f"[bench] unusable baseline: {exc}",
                  file=sys.stderr, flush=True)
            return 2

    def timed(cache_dir, n):
        t0 = time.perf_counter()
        res = execute_plan(plan, cache_dir=cache_dir, jobs=n)
        return time.perf_counter() - t0, res

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as td:
        print(f"[bench] {len(plan)} configs, mesh {dims}, jobs={jobs}",
              file=sys.stderr, flush=True)
        serial_s, serial_res = timed(Path(td) / "serial", 1)
        parallel_s, parallel_res = timed(Path(td) / "parallel", jobs)
        warm_s, warm_res = timed(Path(td) / "parallel", jobs)

    payload = {
        "paper": "Exploiting long vectors with a CFD code (IPPS 2024)",
        "mesh": list(dims),
        "profile": args.profile,
        "configs": len(plan),
        "jobs": jobs,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "cold_cache_hits": serial_res.stats.cache_hits,
        "cold_simulated": serial_res.stats.simulated,
        "warm_cache_hits": warm_res.stats.cache_hits,
        "warm_simulated": warm_res.stats.simulated,
        "retries": parallel_res.stats.retries,
        "failures": parallel_res.stats.failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # per-phase cycle counts: what --baseline gates a future PR on.
        "phase_cycles": gate.phase_cycles_payload(serial_res.runs),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    rows = [["", "wall-clock [s]", "simulated", "cache hits"],
            ["serial (j=1)", f"{serial_s:.2f}",
             str(serial_res.stats.simulated), str(serial_res.stats.cache_hits)],
            [f"parallel (j={jobs})", f"{parallel_s:.2f}",
             str(parallel_res.stats.simulated),
             str(parallel_res.stats.cache_hits)],
            ["warm recall", f"{warm_s:.2f}", str(warm_res.stats.simulated),
             str(warm_res.stats.cache_hits)]]
    print(report.format_table(rows))
    print(f"\nspeedup (serial/parallel): {payload['speedup']}x"
          f" -- report written to {args.output}")

    if baseline is not None:
        current = payload["phase_cycles"]
        compared = len(set(current) & set(baseline))
        breaches = gate.compare_phase_cycles(current, baseline)
        if breaches:
            print(f"\nFAIL: {len(breaches)} phase cycle count(s) over "
                  f"{compared} run(s) differ from {args.baseline}:")
            for b in breaches:
                print(f"  {b.describe()}")
            return 1
        print(f"\ngate: {compared} run(s) identical to {args.baseline}")
    return 0


def _cmd_autotune(args) -> int:
    from pathlib import Path

    from repro.autotune import AutotuneError, run_autotune

    if args.preset:
        args.mesh = args.preset
    dims = _mesh_dims(args.mesh)
    print(f"[autotune] machine {args.machine}, mesh {dims}, "
          f"VECTOR_SIZE {args.vs}, {args.profile} profile, "
          f"seed {args.seed}", file=sys.stderr, flush=True)
    try:
        rep = run_autotune(dims, machine=args.machine, vector_size=args.vs,
                           profile=args.profile, seed=args.seed,
                           backend=args.backend, jobs=_jobs(args))
    except (AutotuneError, RuntimeError, ValueError) as exc:
        print(f"[autotune] {exc}", file=sys.stderr, flush=True)
        return 1
    Path(args.output).write_text(rep.to_json())
    if args.summary:
        Path(args.summary).write_text(rep.winner_table_markdown())

    counts = rep.counts
    print(f"candidates: {counts['enumerated']} enumerated, "
          f"{counts['pruned']} pruned, {counts['invalid']} invalid, "
          f"{counts['timed']} timed")
    print()
    print(report.format_table(rep.winner_rows()))
    fam = rep.vec1_family
    print(f"\nVEC1 family verdict: subset_ok={fam['subset_ok']} "
          f"union_equals_vec1={fam['union_equals_vec1']} "
          f"rediscovered={fam['rediscovered']}")
    print(f"report written to {args.output}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import run_chaos_campaign

    jobs = max(2, _jobs(args))  # kill/hang stages need a real pool
    rep = run_chaos_campaign(seed=args.seed, mesh=args.mesh,
                             out_dir=args.output, jobs=jobs,
                             verbose=args.verbose,
                             pass_faults=args.pass_faults,
                             backend=args.backend)
    rows = [["stage", "fault", "target", "outcome"]]
    for st in rep.stages:
        rows.append([st.name, st.kind, st.target or "-", st.classification])
    print(report.format_table(rows))
    counts = rep.counts
    print(f"\nseed {rep.seed}: {counts['recovered']} recovered, "
          f"{counts['detected']} detected, "
          f"{counts['clean']} clean, {counts['silent']} silent "
          f"-- report written to {args.output}/chaos-report.json")
    if not rep.ok:
        print("FAIL: injected fault(s) were silently absorbed",
              file=sys.stderr, flush=True)
        return 1
    if args.validate:
        from repro.faults.injector import pass_fault_mutator
        from repro.faults.plan import PASS_FAULT_KINDS, PASS_FAULT_RUNGS
        from repro.validation.golden import golden_check
        from repro.validation.probe import Probe

        vrows = [["rung", "pipeline stages", "outcome"]]
        stages_ok = True
        for rung in ("vanilla", "vec2", "ivec2", "vec1"):
            g = golden_check(Probe(opt=rung, backend=args.backend),
                             transformed=True)
            stages_ok &= g.ok
            vrows.append([rung, str(len(g.stages)),
                          "ok" if g.ok else "FAIL"])
        # every kind in the vocabulary is drilled; a listed-but-stubbed
        # kind raises in pass_fault_mutator instead of being skipped.
        drills_ok = True
        for kind in PASS_FAULT_KINDS:
            rung = PASS_FAULT_RUNGS[kind]
            bad = golden_check(Probe(opt=rung, backend=args.backend),
                               mutate=pass_fault_mutator(kind))
            drills_ok &= not bad.ok
            vrows.append([f"{rung} + {kind}", "fault drill",
                          "detected" if not bad.ok else "SILENT"])
        print()
        print(report.format_table(vrows))
        if not stages_ok or not drills_ok:
            print("FAIL: pass-pipeline golden validation",
                  file=sys.stderr, flush=True)
            return 1
    return 0


def _make_app(args):
    from repro.experiments.executor import build_miniapp

    return build_miniapp(_run_config(args))


def _cmd_remarks(args) -> int:
    app = _make_app(args)
    for r in app.remarks:
        print(r)
    return 0


def _cmd_passes(args) -> int:
    from repro.compiler.irprint import format_kernel

    if args.preset:
        args.mesh = args.preset
    app = _make_app(args)
    names = list(app.pipeline.pass_names)
    print(f"pass pipeline for opt={app.opt!r}: {names or '(empty)'}")
    if not names:
        print("no transformation passes scheduled at this rung; the "
              "canonical baseline kernels go straight to the vectorizer.")
        return 0
    kernels = list(app.baseline_kernels)
    for p in app.pipeline:
        for i, kern in enumerate(kernels):
            new, remark = p.run(kern)
            kernels[i] = new
            if remark.status == "applied":
                print(f"\n== {remark}")
                print("-- before:")
                print(format_kernel(kern, elide_exprs=not args.full))
                print("-- after:")
                print(format_kernel(new, elide_exprs=not args.full))
            elif remark.status == "illegal" or args.verbose:
                print(f"\n== {remark}")
    return 0


def _cmd_advise(args) -> int:
    from repro.codesign import Advisor, render_findings
    from repro.machine.machines import get_machine

    app = _make_app(args)
    advisor = Advisor(get_machine(args.machine))
    print(render_findings(advisor.analyze_miniapp(app)))
    return 0


def _cmd_codesign(args) -> int:
    from repro.cfd.mesh import box_mesh
    from repro.codesign import run_codesign_loop
    from repro.machine.machines import get_machine

    cfg = _run_config(args)
    # the loop starts from the auto-vectorized baseline unless the user
    # explicitly asks to start mid-ladder (vec2 / ivec2).
    start = cfg.opt if cfg.opt in ("vec2", "ivec2") else "vanilla"
    result = run_codesign_loop(box_mesh(*cfg.mesh_dims),
                               get_machine(cfg.machine),
                               vector_size=cfg.vector_size, start_opt=start)
    rows = [["step", "cycles", "speed-up vs start", "next"]]
    for s in result.steps:
        rows.append([s.opt, f"{s.total_cycles:,.0f}",
                     f"{s.speedup_vs_start:.2f}x", s.next_opt or "-"])
    print(report.format_table(rows))
    print(f"\nfinal: {result.final_speedup:.2f}x over {result.sequence[0]}")
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.machine.machines import get_machine
    from repro.obs import chrome, render
    from repro.trace import paraver, phase_stats

    if args.preset:
        args.mesh = args.preset
    tracer = obs.Tracer()
    solve_info = None
    # build the app *inside* the tracer context so the transformation
    # pass spans/remarks land in the trace alongside the run.
    with obs.use(tracer):
        app = _make_app(args)
        if getattr(args, "solve", False):
            _, solve_info = app.run_timed_solve(get_machine(args.machine))
        else:
            app.run_timed(get_machine(args.machine))
    paraver.dump(tracer, args.output, with_config=True)
    written = [str(args.output)]
    if args.out:
        chrome.dump(tracer, args.out,
                    meta={"mesh": args.mesh, "machine": args.machine,
                          "opt": args.opt, "vector_size": args.vs,
                          "field_seed": args.seed})
        written.append(str(args.out))

    remarks = [p for p in tracer.points if p.cat == "pass"]
    if remarks:
        print(f"transform pipeline ({len(remarks)} remark(s)):")
        for p in remarks:
            a = dict(p.args)
            print(f"  phase {a.get('phase')} [{a.get('pass_name')}] "
                  f"{a.get('status')}: {a.get('reason')}")
        print()

    stats = phase_stats(tracer)
    rows = [["phase", "cycles", "vector instrs", "AVL"]]
    for p in sorted(stats):
        s = stats[p]
        rows.append([str(p), f"{s.cycles:,.0f}", f"{s.vector_instrs:,.0f}",
                     f"{s.avl:.0f}"])
    print(report.format_table(rows))
    if solve_info:
        print(f"\nsolver: {solve_info['method']} "
              f"converged={solve_info['converged']} "
              f"iterations={solve_info['iterations']} "
              f"final relative residual={solve_info['residual']:.3e}")
    print()
    print(render.render_timeline(tracer))
    hist = tracer.vl_histogram()
    if hist:
        print()
        print(render.render_vl_hist(
            hist, f"granted-vl histogram ({args.opt} vs{args.vs})", top=8))
    print(f"\ntrace written to {', '.join(written)}")
    return 0


def _cmd_roofline(args) -> int:
    from repro.machine.machines import get_machine
    from repro.metrics.roofline import render_roofline, run_roofline

    app = _make_app(args)
    machine = get_machine(args.machine)
    run = app.run_timed(machine)
    print(render_roofline(run_roofline(run, machine), machine))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": lambda: _cmd_info(),
        "table": lambda: _cmd_table(args),
        "figure": lambda: _cmd_figure(args),
        "sweep": lambda: _cmd_sweep(args),
        "report": lambda: _cmd_report(args),
        "bench": lambda: _cmd_bench(args),
        "autotune": lambda: _cmd_autotune(args),
        "chaos": lambda: _cmd_chaos(args),
        "remarks": lambda: _cmd_remarks(args),
        "passes": lambda: _cmd_passes(args),
        "advise": lambda: _cmd_advise(args),
        "codesign": lambda: _cmd_codesign(args),
        "trace": lambda: _cmd_trace(args),
        "roofline": lambda: _cmd_roofline(args),
    }
    try:
        return handlers[args.command]()
    except _BadConfig as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr, flush=True)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
