#!/usr/bin/env python3
"""Trace-driven analysis: the Extrae/Vehave/Paraver workflow in miniature.

Runs the mini-app on the RISC-V VEC model with the tracer attached,
exports the trace to the Paraver-like text format, reads it back, and
derives the per-phase metrics *from the trace alone* -- the workflow the
paper's performance analysts use to find vectorization bottlenecks.

Run:  python examples/trace_analysis.py
"""

import tempfile
from pathlib import Path

from repro import MiniApp, box_mesh, obs
from repro.experiments import report
from repro.machine import Machine, RISCV_VEC
from repro.trace import Tracer, paraver, phase_stats, timeline


def main() -> None:
    app = MiniApp(box_mesh(6, 6, 6), vector_size=216, opt="vec1")
    tracer = Tracer()
    with obs.use(tracer):  # the machine picks up the ambient tracer
        machine = Machine(RISCV_VEC)
    run = app.run_timed(RISCV_VEC, machine=machine)

    print(f"collected {len(tracer.blocks)} block events and "
          f"{len(tracer.vector_instrs)} vector-instruction batches")

    path = Path(tempfile.gettempdir()) / "miniapp.prv"
    paraver.dump(tracer, path)
    print(f"exported Paraver-like trace to {path} "
          f"({path.stat().st_size/1024:.0f} KiB)")

    reloaded = paraver.load(path)
    stats = phase_stats(reloaded)

    rows = [["phase", "cycles", "vector instrs", "AVL",
             "arith", "mem", "ctrl-lane", "vsetvl"]]
    for p in sorted(stats):
        s = stats[p]
        h = s.hierarchy
        rows.append([
            str(p), f"{s.cycles:,.0f}", f"{s.vector_instrs:,.0f}",
            f"{s.avl:.0f}", f"{h.arithmetic:,.0f}", f"{h.memory:,.0f}",
            f"{h.control_lane:,.0f}", f"{h.vector_config:,.0f}",
        ])
    print()
    print(report.format_table(rows))

    print("\nphase timeline (dominant phase per time bucket):")
    tl = timeline(reloaded, buckets=64)
    print("  " + "".join(str(p) for _, p in tl))

    # cross-check the trace analysis against the hardware counters
    # (the text format rounds timestamps to whole cycles, hence the
    # per-mille tolerance; the in-memory trace matches exactly)
    exact = phase_stats(tracer)
    for p, pc in run.phases.items():
        assert abs(exact[p].cycles - pc.cycles_total) < 1e-6 * max(1.0, pc.cycles_total)
        assert abs(stats[p].cycles - pc.cycles_total) < 2e-3 * max(1.0, pc.cycles_total)
    print("\ntrace-derived cycles match the hardware counters: OK")


if __name__ == "__main__":
    main()
