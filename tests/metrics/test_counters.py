"""Tests for the hardware-counter records."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.metrics.counters import PhaseCounters, RunCounters


def sample_phase(phase=1, scale=1.0) -> PhaseCounters:
    pc = PhaseCounters(phase=phase)
    pc.cycles_total = 100.0 * scale
    pc.cycles_vector = 60.0 * scale
    pc.instr_scalar = 50.0 * scale
    pc.instr_vconfig = 5.0 * scale
    pc.instr_vector_arith = 10.0 * scale
    pc.instr_vector_mem = 20.0 * scale
    pc.instr_vector_ctrl = 1.0 * scale
    pc.instr_scalar_mem = 25.0 * scale
    pc.vl_sum = 31.0 * 64 * scale
    pc.vl_hist = Counter({64: int(31 * scale)})
    pc.flops = 640.0 * scale
    pc.l1_misses = int(7 * scale)
    return pc


def test_derived_quantities():
    pc = sample_phase()
    assert pc.i_v == 31
    assert pc.i_t == 86
    assert pc.c_v == 60.0
    assert pc.instr_mem == 45.0


def test_merge_accumulates():
    a, b = sample_phase(), sample_phase(scale=2.0)
    a.merge(b)
    assert a.cycles_total == 300.0
    assert a.i_v == 93
    assert a.vl_hist[64] == 93
    assert a.l1_misses == 21


def test_merge_rejects_phase_mismatch():
    with pytest.raises(ValueError):
        sample_phase(1).merge(sample_phase(2))


def test_run_counters_lazy_phase_creation():
    run = RunCounters()
    pc = run.phase(3)
    assert pc.phase == 3
    assert run.phase(3) is pc
    assert run.phase_ids() == [3]


def test_totals_and_fractions():
    run = RunCounters()
    run.phases[1] = sample_phase(1)
    run.phases[2] = sample_phase(2, scale=3.0)
    assert run.total_cycles == 400.0
    fr = run.cycle_fractions()
    assert fr[1] == pytest.approx(0.25)
    assert fr[2] == pytest.approx(0.75)
    assert sum(fr.values()) == pytest.approx(1.0)


def test_fractions_of_empty_run():
    run = RunCounters()
    run.phase(1)
    assert run.cycle_fractions() == {1: 0.0}


def test_aggregate_equals_sum():
    run = RunCounters()
    run.phases[1] = sample_phase(1)
    run.phases[2] = sample_phase(2, scale=2.0)
    agg = run.aggregate()
    assert agg.cycles_total == run.total_cycles
    assert agg.i_t == run.total_instructions
    assert agg.vl_hist[64] == 93
    # aggregation must not mutate the source phases
    assert run.phases[1].vl_hist[64] == 31


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=8))
def test_total_cycles_is_sum_of_phases(cycles):
    run = RunCounters()
    for i, c in enumerate(cycles, start=1):
        run.phase(i).cycles_total = c
    assert run.total_cycles == pytest.approx(sum(cycles))
