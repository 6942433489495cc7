"""Frozen-fixture equivalence gate: numpy backend == interpreter oracle.

``tests/fixtures/backend_equivalence.json`` holds the honest per-phase
digests computed once by the interpreter on the pinned probe.  Every
rung and every dependency-legal pass schedule, executed by *either*
backend, must reproduce those digests byte for byte -- this is the gate
that lets ``"numpy"`` be the default backend (same pattern as the
pipeline-equivalence fixture that retired the hand-written kernel
variants).

The wall-clock tests at the bottom are the CI ``backends`` job's speed
assertions; they only run with ``REPRO_PERF_GATE=1`` so tier-1 stays
timing-free.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.compiler.transforms import legal_schedules
from repro.validation.digests import (
    phase_output_digests,
    solver_phase_digests,
)
from repro.validation.probe import Probe

FIXTURE = Path(__file__).parent.parent / "fixtures" / "backend_equivalence.json"

RUNGS = ("scalar", "vanilla", "vec2", "ivec2", "vec1")


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


def _digests(frozen):
    return {int(p): h for p, h in frozen["digests"].items()}


def test_fixture_covers_the_full_matrix(frozen):
    assert frozen["generator_backend"] == "interpreter"
    assert tuple(frozen["rungs"]) == RUNGS
    assert ([tuple(s) for s in frozen["schedules"]]
            == list(legal_schedules()))
    assert len(frozen["schedules"]) == 9
    assert sorted(_digests(frozen)) == list(range(1, 9))
    probe = frozen["probe"]
    assert (tuple(probe["mesh_dims"]), probe["vector_size"],
            probe["field_seed"]) == (Probe().mesh_dims,
                                     Probe().vector_size,
                                     Probe().field_seed)


@pytest.mark.parametrize("backend", ["interpreter", "numpy"])
@pytest.mark.parametrize("opt", RUNGS)
def test_rung_digests_match_frozen(frozen, opt, backend):
    got = phase_output_digests(Probe(opt=opt, backend=backend))
    assert got == _digests(frozen)


@pytest.mark.parametrize("sched", legal_schedules(),
                         ids=lambda s: "+".join(s) or "baseline")
def test_schedule_digests_match_frozen(frozen, sched):
    got = phase_output_digests(Probe(opt="vanilla", passes=sched,
                                     backend="numpy"))
    assert got == _digests(frozen)


perf_gate = pytest.mark.skipif(
    os.environ.get("REPRO_PERF_GATE") != "1",
    reason="wall-clock assertion; set REPRO_PERF_GATE=1 "
           "(the CI backends job does)")


@perf_gate
def test_numpy_beats_interpreter_by_5x():
    """The acceptance bar: the golden-check sweep at least 5x faster on
    numpy.  Measured on uncached digest runs of the standard probe
    (mutate= bypasses the lru_cache), vec1 = the deepest pipeline."""
    def clock(backend):
        t0 = time.perf_counter()
        phase_output_digests(Probe(opt="vec1", backend=backend),
                             mutate=lambda ks: list(ks))
        return time.perf_counter() - t0

    clock("numpy")  # warm compile/plan caches for both paths
    clock("interpreter")
    interp = min(clock("interpreter") for _ in range(2))
    vec = min(clock("numpy") for _ in range(2))
    assert interp >= 5.0 * vec, (
        f"numpy {vec:.4f}s vs interpreter {interp:.4f}s "
        f"= {interp / vec:.1f}x (< 5x)")


@perf_gate
def test_strip_mined_candidates_validate_within_2x():
    """The autotuner's validation bar: uncached assembly and solver
    digests of ``const-trip-count,strip-mine:40`` at VECTOR_SIZE 240
    (the riscv_vec strip family) cost at most 2x those of
    ``const-trip-count``, because strip-mined nests join the grid."""
    def clock(passes):
        probe = Probe(opt="vanilla", vector_size=240, passes=passes)
        t0 = time.perf_counter()
        phase_output_digests(probe, mutate=lambda ks: list(ks))
        solver_phase_digests(probe, mutate=lambda ks: list(ks))
        return time.perf_counter() - t0

    base = ("const-trip-count",)
    strip = base + ("strip-mine:40",)
    clock(base)  # warm imports and the pass pipeline
    clock(strip)
    t_base = min(clock(base) for _ in range(2))
    t_strip = min(clock(strip) for _ in range(2))
    assert t_strip <= 2.0 * t_base, (
        f"strip-mine:40 {t_strip:.4f}s vs base {t_base:.4f}s "
        f"= {t_strip / t_base:.2f}x (> 2x)")
