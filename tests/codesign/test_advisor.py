"""Tests for the co-design advisor: it must re-derive the paper's
optimization sequence from remarks + counters alone."""

import pytest

from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import box_mesh
from repro.codesign import (
    Advisor,
    Severity,
    render_findings,
    run_codesign_loop,
)
from repro.machine.machines import MN4_AVX512, RISCV_VEC


@pytest.fixture(scope="module")
def mesh():
    return box_mesh(8, 8, 15)  # 960 elements


@pytest.fixture(scope="module")
def advisor():
    return Advisor(RISCV_VEC)


def analyze(mesh, advisor, opt, vs=240):
    app = MiniApp(mesh, vector_size=vs, opt=opt)
    return advisor.analyze_miniapp(app)


def test_vanilla_flags_phase2_dummy_bound(mesh, advisor):
    findings = analyze(mesh, advisor, "vanilla")
    cats = {(f.phase, f.category) for f in findings}
    assert (2, "runtime-trip-count") in cats
    f2 = next(f for f in findings if f.category == "runtime-trip-count")
    assert "compile time" in f2.recommendation
    # phase 2 is a hotspot after vanilla vectorization -> high severity
    assert f2.severity >= Severity.MAJOR


def test_vanilla_flags_phase1_mixed_body(mesh, advisor):
    findings = analyze(mesh, advisor, "vanilla")
    f1 = [f for f in findings if f.phase == 1 and f.category == "mixed-loop-body"]
    assert f1
    assert "fission" in f1[0].recommendation


def test_vec2_flags_low_avl(mesh, advisor):
    findings = analyze(mesh, advisor, "vec2")
    low = [f for f in findings if f.phase == 2 and f.category == "low-avl"]
    assert low
    assert "innermost" in low[0].recommendation
    # the dummy-bound finding is gone
    assert not any(f.phase == 2 and f.category == "runtime-trip-count"
                   for f in findings)


def test_ivec2_clears_phase2_findings(mesh, advisor):
    findings = analyze(mesh, advisor, "ivec2")
    assert not any(f.phase == 2 and f.category in
                   ("runtime-trip-count", "low-avl") for f in findings)
    # phase 1 still mixed
    assert any(f.phase == 1 and f.category == "mixed-loop-body"
               for f in findings)


def test_vec1_leaves_no_major_actionable_findings(mesh, advisor):
    """After VEC1 nothing big remains: phase 2 is clean and the only
    leftover is phase-1's WORK A (minor) -- the paper itself notes that
    'a possible approach to increase the speed-up could be to further
    investigate how to vectorize the whole phase'."""
    findings = analyze(mesh, advisor, "vec1")
    actionable = [f for f in findings if f.category in
                  ("runtime-trip-count", "low-avl", "mixed-loop-body")]
    assert all(f.severity <= Severity.MINOR for f in actionable)
    assert all(f.phase == 1 for f in actionable)
    assert not any(f.phase == 2 for f in actionable)


def test_scatter_finding_is_informational(mesh, advisor):
    findings = analyze(mesh, advisor, "vec1")
    scatter = [f for f in findings if f.category == "scatter"]
    assert scatter and all(f.severity == Severity.INFO for f in scatter)
    assert scatter[0].phase == 8


def test_fsm_granularity_hint(mesh, advisor):
    findings = analyze(mesh, advisor, "vec1", vs=256)
    fsm = [f for f in findings if f.category == "fsm-granularity"]
    assert fsm
    assert "240" in fsm[0].recommendation
    # and VECTOR_SIZE = 240 does not trigger it
    findings240 = analyze(mesh, advisor, "vec1", vs=240)
    assert not any(f.category == "fsm-granularity" for f in findings240)


def test_no_fsm_hint_on_machines_without_quirk(mesh):
    adv = Advisor(MN4_AVX512)
    app = MiniApp(mesh, vector_size=256, opt="vec1")
    findings = adv.analyze_miniapp(app)
    assert not any(f.category == "fsm-granularity" for f in findings)


def test_codesign_loop_reproduces_paper_sequence(mesh):
    result = run_codesign_loop(mesh, RISCV_VEC, vector_size=240)
    assert result.sequence == ["vanilla", "vec2", "ivec2", "vec1"]
    # the loop ends better than it started, despite the VEC2 dip
    assert result.final_speedup > 1.05
    speedups = [s.speedup_vs_start for s in result.steps]
    assert speedups[1] < 1.0          # VEC2 is the deliberate regression
    assert speedups[3] > speedups[2] > speedups[1]


def test_findings_sorted_by_severity_then_share(mesh, advisor):
    findings = analyze(mesh, advisor, "vanilla")
    keys = [(f.severity, f.cycles_share) for f in findings]
    assert keys == sorted(keys, reverse=True)


def test_render_findings(mesh, advisor):
    text = render_findings(analyze(mesh, advisor, "vanilla"))
    assert "phase 2" in text and "->" in text
    assert render_findings([]).startswith("no findings")
