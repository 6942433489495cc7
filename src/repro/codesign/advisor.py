"""The co-design advisor: the paper's methodology as executable rules.

Section 3 of the paper describes an iterative loop: profile, find the
phase that limits performance, diagnose *why* the compiler's
vectorization is absent or suboptimal there, refactor, repeat.  Section 7
distills the outcome into "lessons learned" for application developers:

1. *provide loop limits at compile time instead of non-constant
   variables* (the VEC2 fix);
2. *use the longer dimension in the most inner loop* (the IVEC2 fix);
3. *splitting loops into smaller units of work may aid the compiler*
   (the VEC1 fix) -- with the caveat that it is not always beneficial;
plus the hardware-facing insight that vector lengths should match the
FSM granularity (VECTOR_SIZE = 240 on Vitruvius).

This module encodes those rules over the artifacts the methodology
consumes -- vectorization remarks and per-phase hardware counters -- and
emits ranked findings with concrete recommendations.  On the mini-app it
re-derives the paper's exact optimization sequence (see
``tests/codesign``), and it works on any kernel built from the IR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cfd.assembly import MiniApp
from repro.compiler.transforms import (
    ConstantTripCount,
    LoopFission,
    LoopInterchange,
    Pass,
)
from repro.compiler.vectorizer import VecRemark
from repro.machine.params import MachineParams
from repro.metrics import metrics as M
from repro.metrics.counters import RunCounters


class Severity(enum.IntEnum):
    INFO = 0
    MINOR = 1
    MAJOR = 2
    CRITICAL = 3


@dataclass(frozen=True)
class Finding:
    """One diagnosis + recommendation for a phase."""

    phase: int
    category: str
    severity: Severity
    message: str
    recommendation: str
    #: estimated fraction of total cycles at stake.
    cycles_share: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[{self.severity.name}] phase {self.phase} "
                f"({self.category}, {100 * self.cycles_share:.1f}% of cycles): "
                f"{self.message}\n    -> {self.recommendation}")


#: cycle share above which a phase counts as a hotspot worth attacking.
HOTSPOT_SHARE = 0.10
#: occupancy below which a vectorized phase is flagged as underfilled.
LOW_OCCUPANCY = 0.25


class Advisor:
    """Analyze one compiled+measured mini-app configuration."""

    def __init__(self, machine: MachineParams):
        self.machine = machine

    # ------------------------------------------------------------------

    def analyze(self, remarks: Iterable[VecRemark], run: RunCounters,
                vector_size: int) -> list[Finding]:
        """Produce ranked findings from remarks + counters."""
        findings: list[Finding] = []
        shares = run.cycle_fractions()
        by_phase: dict[int, list[VecRemark]] = {}
        for r in remarks:
            by_phase.setdefault(r.phase, []).append(r)

        for phase in sorted(run.phases):
            pc = run.phases[phase]
            share = shares.get(phase, 0.0)
            phase_remarks = by_phase.get(phase, [])
            hot = share >= HOTSPOT_SHARE
            sev_hot = Severity.CRITICAL if share >= 0.2 else Severity.MAJOR

            # lesson 1: compile-time loop limits (R1 blockers).
            r1 = [r for r in phase_remarks
                  if any(b.code == "R1-runtime-trip-count" for b in r.blockers)]
            if r1:
                findings.append(Finding(
                    phase=phase, category="runtime-trip-count",
                    severity=sev_hot if hot else Severity.MINOR,
                    message=(f"loop '{r1[0].loop_var}' cannot be vectorized: "
                             f"its trip count is a dummy argument re-loaded "
                             f"every iteration"),
                    recommendation=("provide the loop limit at compile time "
                                    "(declare it as a constant/parameter "
                                    "instead of a dummy argument)"),
                    cycles_share=share,
                ))

            # lesson 3: mixed bodies (multi-versioned loops).
            mixed = [r for r in phase_remarks if r.status == "multi_versioned"]
            if mixed:
                findings.append(Finding(
                    phase=phase, category="mixed-loop-body",
                    severity=sev_hot if hot else Severity.MINOR,
                    message=(f"loop '{mixed[0].loop_var}' mixes vectorizable "
                             f"data movement with non-vectorizable work; the "
                             f"runtime always takes the scalar version"),
                    recommendation=("split the loop into smaller units of work "
                                    "(loop fission) so the straight-line part "
                                    "vectorizes; keep loops sharing data "
                                    "together"),
                    cycles_share=share,
                ))

            # lesson 2: vectorized but with a tiny vector length.
            if pc.i_v > 0:
                occ = M.occupancy(pc, self.machine.vl_max)
                avl = M.avl(pc)
                usable = min(vector_size, self.machine.vl_max)
                if occ < LOW_OCCUPANCY and avl < 0.5 * usable:
                    findings.append(Finding(
                        phase=phase, category="low-avl",
                        severity=sev_hot if hot else Severity.MINOR,
                        message=(f"vector instructions run with AVL = "
                                 f"{avl:.1f} of {self.machine.vl_max} "
                                 f"available elements"),
                        recommendation=("use the longer dimension "
                                        "(VECTOR_SIZE) as the innermost loop "
                                        "so the vectorizer can request long "
                                        "vector lengths (loop interchange)"),
                        cycles_share=share,
                    ))

            # inherent limits: may-alias scatters.
            r3 = [r for r in phase_remarks
                  if any(b.code == "R3-may-alias-scatter" for b in r.blockers)]
            if r3 and hot:
                findings.append(Finding(
                    phase=phase, category="scatter",
                    severity=Severity.INFO,
                    message=(f"loop '{r3[0].loop_var}' scatters through a "
                             f"runtime index array; elements of a chunk may "
                             f"conflict, so vectorization is illegal"),
                    recommendation=("consider a conflict-free assembly "
                                    "(colouring) or hardware scatter-conflict "
                                    "detection; otherwise this phase stays "
                                    "scalar"),
                    cycles_share=share,
                ))

            # memory-bound vectorized hotspots.
            if pc.i_v > 0 and hot:
                mem_ratio = pc.instr_vector_mem / pc.i_v
                if mem_ratio > 0.7:
                    findings.append(Finding(
                        phase=phase, category="memory-bound",
                        severity=Severity.INFO,
                        message=(f"{100 * mem_ratio:.0f}% of the phase's "
                                 f"vector instructions access memory"),
                        recommendation=("the phase is bandwidth-limited; "
                                        "expect vCPI to track memory, not "
                                        "FMA, latency"),
                        cycles_share=share,
                    ))

        # hardware-facing lesson: match the FSM granularity.
        vpu = self.machine.vpu
        if vpu is not None and vpu.fsm_group_elems:
            group = vpu.fsm_group_elems
            usable = min(vector_size, vpu.vl_max)
            if usable % group != 0:
                best = (usable // group) * group
                findings.append(Finding(
                    phase=0, category="fsm-granularity",
                    severity=Severity.MINOR,
                    message=(f"VECTOR_SIZE = {vector_size} yields vector "
                             f"lengths that are not a multiple of the VPU's "
                             f"{group}-element FSM group"),
                    recommendation=(f"prefer VECTOR_SIZE = {best or group} "
                                    f"(multiples of {group} maximize "
                                    f"elements/cycle on {self.machine.name})"),
                    cycles_share=0.0,
                ))

        findings.sort(key=lambda f: (f.severity, f.cycles_share), reverse=True)
        return findings

    # ------------------------------------------------------------------

    def analyze_miniapp(self, app: MiniApp, *, cache_enabled: bool = True
                        ) -> list[Finding]:
        """Convenience: run the mini-app on this machine and analyze it."""
        run = app.run_timed(self.machine, cache_enabled=cache_enabled)
        return self.analyze(app.remarks, run, app.vector_size)


#: finding category -> the transformation pass that fixes it (the
#: executable form of the paper's three lessons learned).
CATEGORY_PASS: dict[str, type[Pass]] = {
    "runtime-trip-count": ConstantTripCount,
    "low-avl": LoopInterchange,
    "mixed-loop-body": LoopFission,
}


def _with_prereqs(cls: type[Pass],
                  applied: frozenset[str]) -> type[Pass]:
    """The first unapplied prerequisite of *cls*, or *cls* itself --
    recommending ``loop-interchange`` before ``const-trip-count`` ran
    would only produce an illegal remark."""
    for req in cls.requires:
        if req.name not in applied:
            return _with_prereqs(req, applied)
    return cls


def recommend_next_pass(findings: list[Finding],
                        current_passes: Iterable[str]) -> Optional[type[Pass]]:
    """The transformation pass the top actionable finding calls for.

    This is what lets the co-design loop *apply* its own advice: the
    returned pass class is appended to the pipeline and the mini-app is
    recompiled, no hand refactor in between.  Returns ``None`` when no
    finding maps to an unapplied pass (the vec1 end state).
    """
    applied = frozenset(current_passes)
    actionable = [f for f in findings if f.category in CATEGORY_PASS]
    for f in sorted(actionable, key=lambda f: (f.severity, f.cycles_share),
                    reverse=True):
        cls = _with_prereqs(CATEGORY_PASS[f.category], applied)
        if cls.name not in applied:
            return cls
    return None


def render_findings(findings: list[Finding]) -> str:
    """Human-readable report."""
    if not findings:
        return "no findings: the configuration looks well vectorized."
    return "\n".join(str(f) for f in findings)
