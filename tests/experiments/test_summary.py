"""Tests for the full evaluation report generator."""

import pytest

from repro.cfd.solver_phases import SOLVER_PHASE_NAMES
from repro.experiments.runner import Session
from repro.experiments.summary import (
    ARTIFACTS,
    evaluation_report,
    render_artifact,
    vl_histogram_section,
)


@pytest.fixture(scope="module")
def session():
    return Session(mesh_dims=(4, 4, 4), use_disk=False)


def test_artifact_list_covers_all_paper_items():
    names = [n for n, _ in ARTIFACTS]
    assert {f"table{i}" for i in range(1, 7)} <= set(names)
    assert {f"figure{i}" for i in range(2, 14)} <= set(names)
    assert len(names) == 18


def test_render_each_artifact(session):
    for name, _ in ARTIFACTS:
        text = render_artifact(name, session)
        assert text.strip(), name


def test_render_unknown_artifact(session):
    with pytest.raises(KeyError):
        render_artifact("figure99", session)
    with pytest.raises(KeyError):
        render_artifact("poster", session)


def test_full_report_structure(session):
    text = evaluation_report(session)
    assert "REPRODUCTION EVALUATION REPORT" in text
    assert "Table 5" in text and "Figure 13" in text
    assert "HEADLINE" in text
    assert "64 HEX08 elements" in text
    # the solver table lists cycles for every solver phase (9-12).
    solver = text.split("Solver: the timed Krylov path")[1]
    solver = solver.split("HEADLINE")[0]
    for pid, name in SOLVER_PHASE_NAMES.items():
        assert f"{pid}" in solver and name in solver, (pid, name)


# -- the report's granted-vl section, byte for byte on the tiny mesh --------

_FSM_NOTE = "  (* = multiple of 40: fastest through the Vitruvius FSM)"


def _phase_block(pid, count):
    return (f"phase {pid} ({count} vector instructions, 100% at "
            f"vl % 40 == 0)\n  vl  240 | {'#' * 30} {count} *\n{_FSM_NOTE}")


def test_vl_histogram_section_vec1_at_240(session):
    # phase 8 issues no vector instruction at vec1, so it has no block.
    blocks = [_phase_block(pid, count) for pid, count in (
        (1, "52"), (2, "320"), (3, "5,200"), (4, "5,824"), (5, "129"),
        (6, "19,496"), (7, "10,624"))]
    assert vl_histogram_section(session) == "\n".join(
        ["granted-vl histograms: riscv_vec, vec1, VECTOR_SIZE = 240",
         *blocks,
         "whole run: 100% of dynamic vector instructions at vl % 40 == 0 "
         "(Vitruvius fast lengths)"])


def test_vl_histogram_section_without_vector_instructions(session):
    assert vl_histogram_section(session, opt="scalar", vector_size=16) == (
        "granted-vl histograms: riscv_vec, scalar, VECTOR_SIZE = 16\n"
        "(no vector instructions)")
