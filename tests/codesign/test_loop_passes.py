"""The closed loop applies the passes it recommends."""

import pytest

from repro.cfd.mesh import box_mesh
from repro.codesign.advisor import CATEGORY_PASS, recommend_next_pass
from repro.codesign.loop import run_codesign_loop
from repro.compiler.transforms import (
    ConstantTripCount,
    LoopFission,
    LoopInterchange,
)
from repro.machine.machines import RISCV_VEC


@pytest.fixture(scope="module")
def result():
    return run_codesign_loop(box_mesh(6, 6, 6), RISCV_VEC, vector_size=240)


def test_loop_applies_the_papers_pass_sequence(result):
    assert result.sequence == ["vanilla", "vec2", "ivec2", "vec1"]
    assert [s.next_pass for s in result.steps if s.next_pass] == [
        "const-trip-count", "loop-interchange", "loop-fission"]


def test_steps_carry_their_pass_schedules(result):
    assert [s.passes for s in result.steps] == [
        (),
        ("const-trip-count",),
        ("const-trip-count", "loop-interchange"),
        ("const-trip-count", "loop-interchange", "loop-fission")]
    assert result.steps[-1].next_pass is None
    assert result.steps[-1].next_opt is None


def test_final_state_outperforms_start(result):
    assert result.final_speedup > 1.0


def test_category_pass_mapping_covers_the_three_lessons():
    assert CATEGORY_PASS == {
        "runtime-trip-count": ConstantTripCount,
        "low-avl": LoopInterchange,
        "mixed-loop-body": LoopFission,
    }


def test_recommendation_inserts_missing_prerequisite():
    from repro.codesign.advisor import Finding, Severity

    # a low-avl finding with const-trip-count not yet applied must
    # recommend the prerequisite, not an illegal interchange.
    finding = Finding(phase=2, category="low-avl", severity=Severity.MAJOR,
                      message="", recommendation="", cycles_share=0.5)
    assert recommend_next_pass([finding], ()) is ConstantTripCount
    assert recommend_next_pass(
        [finding], ("const-trip-count",)) is LoopInterchange
    assert recommend_next_pass(
        [finding], ("const-trip-count", "loop-interchange")) is None
