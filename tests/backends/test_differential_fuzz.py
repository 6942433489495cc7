"""Seeded differential fuzzing: interpreter vs numpy digest equality.

Random field seeds drive randomly-initialized fields through both
backends across every rung and every dependency-legal pass schedule;
``phase_output_digests`` must agree bit for bit.  The honest digest is
also rung-invariant, so one interpreter run per seed anchors the whole
matrix.
"""

import random

import pytest

from repro.compiler.transforms import legal_schedules
from repro.validation.digests import phase_output_digests
from repro.validation.probe import Probe

RUNGS = ("scalar", "vanilla", "vec2", "ivec2", "vec1")

_rng = random.Random(0xC0DE5EED)
SEEDS = sorted(_rng.sample(range(1, 10_000), 3))


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_rungs_match_interpreter(seed):
    oracle = phase_output_digests(
        Probe(opt="vanilla", field_seed=seed, backend="interpreter"))
    for rung in RUNGS:
        got = phase_output_digests(
            Probe(opt=rung, field_seed=seed, backend="numpy"))
        assert got == oracle, (rung, seed)


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_fuzz_all_legal_schedules_match_interpreter(seed):
    """Every legal schedule, and every const-trip-count one again with
    ``strip-mine:2`` and ``strip-mine:4`` appended (both split the
    probe's VECTOR_SIZE 8 loops)."""
    oracle = phase_output_digests(
        Probe(opt="vanilla", field_seed=seed, backend="interpreter"))
    schedules = legal_schedules()
    assert len(schedules) == 9  # every legal ordering over 3 passes
    schedules += tuple(s + (f"strip-mine:{n}",) for s in schedules
                       if "const-trip-count" in s for n in (2, 4))
    assert len(schedules) == 9 + 14
    for sched in schedules:
        got = phase_output_digests(
            Probe(opt="vanilla", passes=sched, field_seed=seed,
                  backend="numpy"))
        assert got == oracle, (sched, seed)
