"""Fault injectors: corruption primitives and faulty sweep workers."""

import math

import numpy as np
import pytest

from repro.experiments.config import TINY_MESH, RunConfig
from repro.faults.injector import (
    FaultyWorker,
    InterruptingWorker,
    flip_float64_bit,
    inject_cache_miss_drift,
    inject_vreg_nan,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.isa.emulator import VectorEmulator
from repro.machine.cache import Cache
from repro.machine.params import CacheParams

CFG_A = RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY_MESH)
CFG_B = RunConfig(opt="vec1", vector_size=16, mesh_dims=TINY_MESH)


def _plan(kind: str, target: RunConfig, victim: str = "") -> FaultPlan:
    return FaultPlan(seed=0, specs=(
        FaultSpec(kind=kind, target_key=target.key(), victim_key=victim),))


# -- primitives -------------------------------------------------------------


def test_flip_float64_bit_is_an_involution():
    arr = np.linspace(0.5, 2.5, 8)
    before = arr.copy()
    flip_float64_bit(arr, index=3, bit=40)
    assert arr[3] != before[3]
    assert np.all(arr[np.arange(8) != 3] == before[np.arange(8) != 3])
    flip_float64_bit(arr, index=3, bit=40)
    assert np.array_equal(arr, before)


def test_flip_float64_bit_rejects_bad_bit():
    with pytest.raises(ValueError):
        flip_float64_bit(np.zeros(4), index=0, bit=64)


def test_vreg_nan_is_detected_by_validate_state():
    emu = VectorEmulator(vl_max=8)
    assert emu.validate_state() == []
    inject_vreg_nan(emu, reg=5, lane=2)
    violations = emu.validate_state()
    assert any("non-finite vector register" in v for v in violations)


def test_cache_miss_drift_is_detected_by_invariants():
    cache = Cache(CacheParams(name="L1", size_bytes=1024, line_bytes=64,
                              assoc=4))
    cache.access_lines(np.arange(8, dtype=np.int64))
    assert cache.check_invariants() == []
    inject_cache_miss_drift(cache, delta=cache.accesses + 1)
    assert any("exceed accesses" in v for v in cache.check_invariants())
    inject_cache_miss_drift(cache, delta=-10 * cache.misses)
    assert any("negative miss count" in v for v in cache.check_invariants())


# -- FaultyWorker -----------------------------------------------------------


def test_crash_strikes_exactly_once(tmp_path):
    worker = FaultyWorker(_plan("crash", CFG_A), tmp_path / "markers")
    with pytest.raises(RuntimeError, match="injected fault"):
        worker(CFG_A)
    # the marker claims the strike: every retry computes honestly.
    payload = worker(CFG_A)
    assert set(payload) == {str(p) for p in range(1, 9)}


def test_non_target_config_passes_through(tmp_path):
    worker = FaultyWorker(_plan("crash", CFG_A), tmp_path / "markers")
    payload = worker(CFG_B)  # not the target: no strike consumed
    assert set(payload) == {str(p) for p in range(1, 9)}
    with pytest.raises(RuntimeError):
        worker(CFG_A)


def test_nan_counter_poisons_payload(tmp_path):
    worker = FaultyWorker(_plan("nan_counter", CFG_A), tmp_path / "m")
    payload = worker(CFG_A)
    assert math.isnan(payload["1"]["cycles_total"])
    clean = worker(CFG_A)
    assert math.isfinite(clean["1"]["cycles_total"])


def test_negative_counter_flips_sign(tmp_path):
    worker = FaultyWorker(_plan("negative_counter", CFG_A), tmp_path / "m")
    assert worker(CFG_A)["1"]["cycles_total"] < 0
    assert worker(CFG_A)["1"]["cycles_total"] >= 0


def test_flop_drift_scales_every_phase(tmp_path):
    drifted = FaultyWorker(_plan("flop_drift", CFG_A), tmp_path / "m")(CFG_A)
    clean = FaultyWorker(FaultPlan(seed=0), tmp_path / "m2")(CFG_A)
    total_d = sum(p["flops"] for p in drifted.values())
    total_c = sum(p["flops"] for p in clean.values())
    assert total_c > 0
    assert total_d == pytest.approx(total_c * 1.01)


def test_kill_degrades_to_crash_in_parent_process(tmp_path):
    # a serial sweep must never be taken down by os._exit.
    worker = FaultyWorker(_plan("kill", CFG_A), tmp_path / "m")
    with pytest.raises(RuntimeError, match="in-process"):
        worker(CFG_A)


def test_torn_cache_truncates_victim_entry(tmp_path):
    from repro.experiments.executor import cache_path, load_cached, \
        simulate_to_dict, store_payload

    cache_dir = tmp_path / "cache"
    store_payload(cache_dir, CFG_B, simulate_to_dict(CFG_B))
    intact = cache_path(cache_dir, CFG_B).read_bytes()
    worker = FaultyWorker(_plan("torn_cache", CFG_A, victim=CFG_B.key()),
                          tmp_path / "m", cache_dir=cache_dir)
    worker(CFG_A)
    torn = cache_path(cache_dir, CFG_B).read_bytes()
    assert len(torn) < len(intact)
    # the durable-cache contract turns the torn entry into a re-simulation.
    assert load_cached(cache_dir, CFG_B) is None
    assert not cache_path(cache_dir, CFG_B).exists()


# -- InterruptingWorker -----------------------------------------------------


def test_interrupting_worker_stops_after_n_runs():
    worker = InterruptingWorker(stop_after=2)
    worker(CFG_A)
    worker(CFG_B)
    with pytest.raises(KeyboardInterrupt):
        worker(CFG_A)


# -- solver-path injectors ---------------------------------------------------


@pytest.fixture(scope="module")
def solver_system():
    from repro.cfd.csr import build_pattern
    from repro.cfd.mesh import box_mesh
    from repro.cfd.solver_path import shift_diagonal

    pattern = build_pattern(box_mesh(3, 2, 2))
    rng = np.random.default_rng(2)
    return pattern, shift_diagonal(pattern,
                                   rng.standard_normal(pattern.nnz) * 0.1)


def test_nonconverging_krylov_zeroes_one_seeded_row(solver_system):
    from repro.faults.injector import inject_nonconverging_krylov

    pattern, amatr = solver_system
    before = amatr.copy()
    bad, row = inject_nonconverging_krylov(pattern, amatr, seed=0)
    bad2, row2 = inject_nonconverging_krylov(pattern, amatr, seed=0)
    assert (row, bad.tobytes()) == (row2, bad2.tobytes())  # deterministic
    assert np.array_equal(amatr, before)  # original untouched
    rows = pattern.row_of_entry()
    assert not bad[rows == row].any()
    assert np.array_equal(bad[rows != row], amatr[rows != row])
    assert row != inject_nonconverging_krylov(pattern, amatr, seed=3)[1]


def test_torn_spmv_gather_strikes_a_populated_slot(solver_system):
    from repro.cfd.solver_phases import build_ell
    from repro.faults.injector import inject_torn_spmv_gather

    pattern, amatr = solver_system
    ellval, ellcol, _ = build_ell(pattern, amatr, 8)
    honest = ellcol.copy()
    slot, row, old, new = inject_torn_spmv_gather(
        ellval, ellcol, pattern.n, seed=0)
    assert ellval[slot, row] != 0.0  # populated: the tear is observable
    assert old != new and 0 <= new < pattern.n
    assert ellcol[slot, row] == new and honest[slot, row] == old
    diff = np.argwhere(ellcol != honest)
    assert diff.tolist() == [[slot, row]]  # exactly one torn entry
    # deterministic strike point
    ellcol2 = honest.copy()
    assert inject_torn_spmv_gather(ellval, ellcol2, pattern.n,
                                   seed=0) == (slot, row, old, new)
