"""The closed co-design loop: iterate advisor-driven optimization.

``run_codesign_loop`` automates the paper's Section-3 cycle end to end:
start from the vanilla auto-vectorized build, measure, analyze, and
**apply** the transformation pass the advisor recommends -- the
recommended :class:`~repro.compiler.transforms.Pass` is appended to the
pipeline and the mini-app recompiled, with no hand refactor in between.
On the mini-app this reproduces the exact VEC2 -> IVEC2 -> VEC1 sequence
the authors applied by hand -- including the VEC2 intermediate step
being a (deliberate) performance regression on the way to IVEC2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import Mesh
from repro.codesign.advisor import Advisor, Finding, recommend_next_pass
from repro.compiler.transforms import OPT_PASSES, opt_for_passes
from repro.machine.params import MachineParams


@dataclass
class CodesignStep:
    """One iteration of the loop."""

    opt: str
    #: the pass schedule this step was compiled with.
    passes: tuple[str, ...]
    total_cycles: float
    speedup_vs_start: float
    findings: list[Finding]
    #: the pass the advisor recommends applying next (``None`` at the
    #: end state), and the rung label the extended schedule maps to.
    next_pass: str | None
    next_opt: str | None


@dataclass
class CodesignResult:
    steps: list[CodesignStep] = field(default_factory=list)

    @property
    def sequence(self) -> list[str]:
        return [s.opt for s in self.steps]

    @property
    def final_speedup(self) -> float:
        return self.steps[-1].speedup_vs_start if self.steps else 1.0


def run_codesign_loop(mesh: Mesh, machine: MachineParams,
                      vector_size: int = 240, start_opt: str = "vanilla",
                      max_steps: int = 6, cache_enabled: bool = True
                      ) -> CodesignResult:
    """Iterate measure -> analyze -> apply-pass until convergence."""
    advisor = Advisor(machine)
    result = CodesignResult()
    if start_opt not in OPT_PASSES:
        raise ValueError(
            f"unknown optimization level {start_opt!r}; known: "
            f"{tuple(OPT_PASSES)}")
    passes = tuple(OPT_PASSES[start_opt])
    opt = start_opt
    baseline: float | None = None
    for _ in range(max_steps):
        app = MiniApp(mesh, vector_size=vector_size, opt=opt, passes=passes)
        run = app.run_timed(machine, cache_enabled=cache_enabled)
        cycles = run.total_cycles
        if baseline is None:
            baseline = cycles
        findings = advisor.analyze(app.remarks, run, vector_size)
        next_cls = recommend_next_pass(findings, passes)
        next_passes = passes + (next_cls.name,) if next_cls else None
        next_opt = opt_for_passes(next_passes) if next_passes else None
        result.steps.append(CodesignStep(
            opt=app.opt, passes=passes, total_cycles=cycles,
            speedup_vs_start=baseline / cycles,
            findings=findings,
            next_pass=next_cls.name if next_cls else None,
            next_opt=next_opt,
        ))
        if next_passes is None:
            break
        passes = next_passes
        opt = next_opt or app.opt
    return result
