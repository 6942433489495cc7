"""Full evaluation report: every table and figure in one document.

``evaluation_report`` regenerates the paper's complete evaluation
section as a single text document -- the machine-readable counterpart of
EXPERIMENTS.md.  Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations


from repro.experiments import figures as F
from repro.experiments import report as R
from repro.experiments import tables as T
from repro.experiments.executor import ExecutionPlan
from repro.experiments.runner import Session

#: (artifact id, paper caption) in paper order.
ARTIFACTS: tuple[tuple[str, str], ...] = (
    ("table1", "Compiler options used for enabling auto-vectorization"),
    ("table2", "HPC platforms: hardware and software configuration"),
    ("table3", "Percentage total cycles spent per phase (scalar)"),
    ("figure2", "Total cycles, vanilla mini-app with auto-vectorization"),
    ("table4", "Vanilla vector instruction mix M_v"),
    ("figure3", "Absolute number and type of vector instructions"),
    ("table5", "vCPI, AVL and number of vector instructions in phase 6"),
    ("figure4", "Percentage cycles spent per phase (vanilla)"),
    ("figure5", "Absolute cycles phase 2 (original vs VEC2)"),
    ("figure6", "Resulting cycles phase 2 (+ IVEC2)"),
    ("figure7", "Resulting cycles phase 1 (original vs VEC1)"),
    ("figure8", "Percentage total cycles per phase after optimizations"),
    ("figure9", "Percentage of cycles w.r.t. VECTOR_SIZE = 16"),
    ("figure10", "Vector occupancy"),
    ("table6", "Coefficient of determination, phases 1 and 8"),
    ("figure11", "Speed-up with respect to scalar VECTOR_SIZE = 16"),
    ("figure12", "Speed-up of optimizations on different HPC platforms"),
    ("figure13", "Speed-up of optimizations on MareNostrum 4"),
)


def render_artifact(name: str, session: Session) -> str:
    """Render one table/figure by id ('table3', 'figure11', ...)."""
    if name.startswith("table"):
        n = int(name.removeprefix("table"))
        fn = {1: T.table1, 2: T.table2, 3: T.table3, 4: T.table4,
              5: T.table5, 6: T.table6}[n]
        obj = fn() if n in (1, 2) else fn(session)
        return R.format_table(obj.rows())
    if name.startswith("figure"):
        n = int(name.removeprefix("figure"))
        fn = {2: F.figure2, 3: F.figure3, 4: F.figure4, 5: F.figure5,
              6: F.figure6, 7: F.figure7, 8: F.figure8, 9: F.figure9,
              10: F.figure10, 11: F.figure11, 12: F.figure12,
              13: F.figure13}[n]
        return R.format_table(fn(session).rows())
    raise KeyError(f"unknown artifact {name!r}")


def vl_histogram_section(session: Session, machine: str = "riscv_vec",
                         opt: str = "vec1", vector_size: int = 240) -> str:
    """Per-phase granted-vl (AVL) distributions for one configuration.

    Rendered from the per-phase ``vl_hist`` counters every run already
    records, so a warm cache answers instantly.  With ``vector_size``
    a multiple of 40 every bar lands on a Vitruvius fast length; re-run
    with e.g. ``--vs 250`` to watch the mod-40 fraction collapse.
    """
    from repro.obs.render import mod40_fraction, render_phase_vl_hists

    run = session.run(machine=machine, opt=opt, vector_size=vector_size)
    per_phase = {pid: dict(run.phases[pid].vl_hist)
                 for pid in run.phase_ids()}
    lines = [f"granted-vl histograms: {machine}, {opt}, "
             f"VECTOR_SIZE = {vector_size}",
             render_phase_vl_hists(per_phase)]
    whole: dict[int, float] = {}
    for hist in per_phase.values():
        for vl, count in hist.items():
            whole[vl] = whole.get(vl, 0) + count
    if whole:
        lines.append(
            f"whole run: {100 * mod40_fraction(whole):.0f}% of dynamic "
            f"vector instructions at vl % 40 == 0 (Vitruvius fast lengths)")
    return "\n".join(lines)


def solver_convergence_section(session: Session, machine: str = "riscv_vec",
                               opt: str = "vanilla",
                               vector_size: int = 240) -> str:
    """The timed Krylov path: per-solver-kernel cycles + convergence.

    The cycle rows come from the ``solve=True`` run the standard plan
    already pre-warmed (phases 9-12 of the assemble+solve cycle); the
    convergence lines re-run the cheap NumPy reference solve, which is
    the same backend-independent solve whose iteration count priced the
    timed path.
    """
    from repro.cfd.solver_phases import SOLVER_PHASE_NAMES
    from repro.experiments.config import RunConfig
    from repro.experiments.executor import build_miniapp

    cfg = RunConfig(machine=machine, opt=opt, vector_size=vector_size,
                    mesh_dims=session.mesh_dims, solve=True,
                    backend=session.backend)
    run = session.run(cfg)
    total = sum(run.phases[p].cycles_total for p in run.phase_ids())
    rows = [["phase", "solver kernel", "cycles", "% of assemble+solve"]]
    for pid in sorted(SOLVER_PHASE_NAMES):
        if pid not in run.phases:
            continue
        pc = run.phases[pid]
        rows.append([str(pid), SOLVER_PHASE_NAMES[pid],
                     f"{pc.cycles_total:,.0f}",
                     f"{100 * pc.cycles_total / total:.1f}%"])
    lines = [R.format_table(rows), ""]
    app = build_miniapp(cfg)
    for method in ("cg", "bicgstab"):
        res = app.reference_solve(method)
        lines.append(f"{method:9s} converged={res.converged} "
                     f"iterations={res.iterations} "
                     f"final relative residual={res.residual:.3e}")
    return "\n".join(lines)


def evaluation_report(session: Session) -> str:
    """The complete evaluation section as one text document.

    Pre-warms the cache with the full standard sweep through
    ``Session.run_many`` (parallel when the session has ``jobs > 1``)
    before any artifact renders, so rendering itself is pure recall.
    """
    session.run_many(ExecutionPlan.standard(session.mesh_dims))
    nx, ny, nz = session.mesh_dims
    lines = [
        "REPRODUCTION EVALUATION REPORT",
        "paper: Exploiting long vectors with a CFD code (IPPS 2024)",
        f"mesh: {nx}x{ny}x{nz} = {nx * ny * nz} HEX08 elements",
        "",
    ]
    for name, caption in ARTIFACTS:
        kind, num = ("Table", name.removeprefix("table")) \
            if name.startswith("table") else ("Figure", name.removeprefix("figure"))
        lines.append("=" * 72)
        lines.append(f"{kind} {num}: {caption}")
        lines.append("=" * 72)
        lines.append(render_artifact(name, session))
        lines.append("")
    lines.append("=" * 72)
    lines.append("Observability: AVL distribution per phase (vec1, vs 240)")
    lines.append("=" * 72)
    lines.append(vl_histogram_section(session))
    lines.append("")
    lines.append("=" * 72)
    lines.append("Solver: the timed Krylov path (phases 9-12, vanilla, vs 240)")
    lines.append("=" * 72)
    lines.append(solver_convergence_section(session))
    lines.append("")
    # headline summary
    f11 = F.figure11(session)
    best = max(f11.series["vec1"])
    best_vs = f11.xs[f11.series["vec1"].index(best)]
    lines.append("=" * 72)
    lines.append(f"HEADLINE: {best:.2f}x over scalar at VECTOR_SIZE = {best_vs} "
                 f"(paper: 7.6x at 240)")
    lines.append("=" * 72)
    return "\n".join(lines)
