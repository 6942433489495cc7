"""Tests for the table/figure generators (structure; shape assertions on
the full mesh live in benchmarks/)."""

import pytest

from repro.experiments import figures, tables
from repro.experiments.config import VECTOR_SIZES
from repro.experiments.runner import Session


@pytest.fixture(scope="module")
def session():
    return Session(mesh_dims=(4, 4, 4), use_disk=False)


def test_table1_static():
    t = tables.table1()
    rows = t.rows()
    assert rows[0] == ["Flag", "Description"]
    flags = [r[0] for r in rows[1:]]
    assert "-O3" in flags and "-mepi" in flags
    assert len(flags) == 8  # the paper lists eight


def test_table2_platforms():
    t = tables.table2()
    rows = t.rows()
    assert rows[0][1:] == ["RISC-V VEC", "MareNostrum 4", "SX-Aurora"]
    data = {r[0]: r[1:] for r in rows[1:]}
    assert data["Frequency [MHz]"] == ["50", "2100", "1600"]
    assert data["Throughput [FLOP/cycle]"] == ["16", "32", "192"]


def test_table3_fractions_sum_to_one(session):
    t = tables.table3(session)
    assert sum(t.fractions.values()) == pytest.approx(1.0)
    assert len(t.rows()[0]) == 9


def test_table4_structure(session):
    t = tables.table4(session)
    assert set(t.mix) == set(VECTOR_SIZES)
    for vs, phases in t.mix.items():
        assert set(phases) == set(range(1, 9))
        assert all(0.0 <= v <= 1.0 for v in phases.values())


def test_table5_columns(session):
    t = tables.table5(session)
    assert set(t.per_vs) == set(VECTOR_SIZES)
    vcpi, avl, n = t.per_vs[64]
    assert vcpi > 0 and avl == pytest.approx(64, rel=0.05) and n > 0


def test_table6_r_squared_in_range(session):
    t = tables.table6(session)
    assert set(t.results) == {1, 8}
    for res in t.results.values():
        assert res.r_squared <= 1.0


def test_figure2_series(session):
    f = figures.figure2(session)
    assert f.xs == list(VECTOR_SIZES)
    assert all(v > 0 for v in f.series["total cycles"])


def test_figure3_buckets(session):
    f = figures.figure3(session)
    assert set(f.series) == {"arithmetic", "memory", "control_lane"}


def test_figure4_percentages(session):
    f = figures.figure4(session)
    for i in range(len(f.xs)):
        total = sum(f.series[k][i] for k in f.series)
        assert total == pytest.approx(100.0, abs=0.1)


def test_figure5_6_7_optimization_columns(session):
    assert set(figures.figure5(session).series) == {"vanilla", "vec2"}
    assert set(figures.figure6(session).series) == {"vanilla", "vec2", "ivec2"}
    assert set(figures.figure7(session).series) == {"vanilla", "vec1"}


def test_figure9_normalized_to_vs16(session):
    f = figures.figure9(session)
    i16 = f.xs.index(16)
    for label, vals in f.series.items():
        assert vals[i16] == pytest.approx(100.0)


def test_figure10_omits_phase8(session):
    f = figures.figure10(session)
    assert "phase 8" not in f.series
    assert all(0.0 <= v <= 100.0 + 1e-9 for vals in f.series.values() for v in vals)


def test_figure11_baseline_normalization(session):
    f = figures.figure11(session)
    assert set(f.series) == {"vanilla", "vec2", "ivec2", "vec1"}
    assert all(v > 0 for vals in f.series.values() for v in vals)


def test_figure12_platforms(session):
    f = figures.figure12(session)
    assert set(f.series) == {"riscv_vec", "sx_aurora", "mn4_avx512"}


def test_figure13_mn4(session):
    f = figures.figure13(session)
    assert set(f.series) == {"mini-app", "phase 2"}


def test_series_at_accessor(session):
    f = figures.figure2(session)
    assert f.at(64, "total cycles") == f.series["total cycles"][f.xs.index(64)]
    with pytest.raises(ValueError):
        f.at(99, "total cycles")
