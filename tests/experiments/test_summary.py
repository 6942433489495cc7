"""Tests for the full evaluation report generator."""

import pytest

from repro.cfd.solver_phases import SOLVER_PHASE_NAMES
from repro.experiments.runner import Session
from repro.experiments.summary import ARTIFACTS, evaluation_report, render_artifact


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
