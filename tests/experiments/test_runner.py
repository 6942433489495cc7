"""Tests for the experiment runner and its caches."""

import json

import pytest

from repro.experiments.config import RunConfig
from repro.experiments.executor import cache_path, simulate_run
from repro.experiments.runner import (
    Session,
    counters_from_dict,
    counters_to_dict,
)

TINY = (4, 4, 4)


def test_run_config_key_stable_and_distinct():
    a = RunConfig(machine="riscv_vec", opt="vanilla", vector_size=64)
    b = RunConfig(machine="riscv_vec", opt="vanilla", vector_size=64)
    c = RunConfig(machine="riscv_vec", opt="vec1", vector_size=64)
    assert a.key() == b.key()
    assert a.key() != c.key()
    assert "vs64" in a.key()


def test_session_rejects_unknown_backend_eagerly():
    # the friendly registry error must fire at construction, not deep
    # inside the first sweep.
    with pytest.raises(ValueError, match="interpreter"):
        Session(mesh_dims=TINY, backend="fortran")


def test_counters_roundtrip(tmp_path):
    s = Session(mesh_dims=TINY, use_disk=False)
    run = s.run(opt="vanilla", vector_size=16)
    back = counters_from_dict(json.loads(json.dumps(counters_to_dict(run))))
    assert back.phase_ids() == run.phase_ids()
    for p in run.phase_ids():
        assert back.phases[p].cycles_total == pytest.approx(
            run.phases[p].cycles_total)
        assert back.phases[p].vl_hist == run.phases[p].vl_hist


def test_memoization_returns_same_object():
    s = Session(mesh_dims=TINY, use_disk=False)
    r1 = s.run(opt="vanilla", vector_size=16)
    r2 = s.run(opt="vanilla", vector_size=16)
    assert r1 is r2


def test_disk_cache_roundtrip(tmp_path):
    s1 = Session(mesh_dims=TINY, cache_dir=tmp_path, use_disk=True)
    r1 = s1.run(opt="vanilla", vector_size=16)
    assert list(tmp_path.glob("*.json"))
    s2 = Session(mesh_dims=TINY, cache_dir=tmp_path, use_disk=True)
    r2 = s2.run(opt="vanilla", vector_size=16)
    assert r2.total_cycles == pytest.approx(r1.total_cycles)
    for p in r1.phase_ids():
        assert r2.phases[p].i_t == pytest.approx(r1.phases[p].i_t)


def test_distinct_configs_not_conflated(tmp_path):
    s = Session(mesh_dims=TINY, cache_dir=tmp_path)
    a = s.run(opt="scalar", vector_size=16)
    b = s.run(opt="vec1", vector_size=16)
    assert a.total_cycles != b.total_cycles


def test_scalar_baseline_is_scalar_vs16():
    s = Session(mesh_dims=TINY, use_disk=False)
    base = s.scalar_baseline()
    assert base is s.run(opt="scalar", vector_size=16)
    assert all(pc.i_v == 0 for pc in base.phases.values())


def test_phase_cycles_helper():
    s = Session(mesh_dims=TINY, use_disk=False)
    run = s.run(opt="vanilla", vector_size=16)
    assert s.phase_cycles(6, opt="vanilla", vector_size=16) == pytest.approx(
        run.phases[6].cycles_total)


# -- one run path: Session.run goes through execute_plan ---------------------


def test_session_run_times_the_solver_and_caches_its_record(tmp_path):
    s = Session(mesh_dims=TINY, cache_dir=tmp_path)
    cfg = s.config(opt="vanilla", vector_size=16, solve=True)
    run = s.run(cfg)
    assert run.phase_ids() == list(range(1, 13))
    payload = json.loads(cache_path(tmp_path, cfg).read_text())
    assert payload["__solve__"]["converged"]


def test_session_run_honours_explicit_passes():
    s = Session(mesh_dims=TINY, use_disk=False)
    passes = ("const-trip-count", "loop-interchange", "loop-fission")
    cfg = s.config(opt="vanilla", vector_size=16, passes=passes)
    run = s.run(cfg)
    want = simulate_run(cfg)
    assert run.total_cycles == want.total_cycles
    assert counters_to_dict(run) == counters_to_dict(want)


def test_session_run_rejects_config_plus_keywords():
    s = Session(mesh_dims=TINY, use_disk=False)
    with pytest.raises(TypeError, match="not both"):
        s.run(s.config(opt="vanilla"), vector_size=16)
