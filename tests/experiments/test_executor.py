"""Tests for the parallel sweep executor and the config-first Session API."""

import json
import os

import pytest

from repro.experiments.config import FULL_MESH, QUICK_MESH, RunConfig
from repro.experiments.executor import (
    ExecutionPlan,
    SweepError,
    cache_path,
    execute_plan,
    load_cached,
    simulate_to_dict,
    store_payload,
)
from repro.experiments.runner import Session
from repro.metrics.counters import counters_to_dict

TINY = (4, 4, 4)


def tiny_configs(n=3):
    return [RunConfig(opt="vanilla", vector_size=vs, mesh_dims=TINY)
            for vs in (16, 64, 128)[:n]]


def _flaky_worker(cfg):
    """Fails on the first call (cross-process flag file), then succeeds."""
    flag = os.environ["REPRO_TEST_FAIL_FLAG"]
    if not os.path.exists(flag):
        open(flag, "w").close()
        raise RuntimeError("injected worker failure")
    return simulate_to_dict(cfg)


# -- plans -------------------------------------------------------------------


def test_plan_dedup_keeps_order():
    cfgs = tiny_configs(2)
    plan = ExecutionPlan.from_configs(cfgs + cfgs)
    assert len(plan) == 2
    assert list(plan) == cfgs


def test_standard_plan_covers_the_paper_sweep():
    plan = ExecutionPlan.standard("full")
    # 1 scalar + 4 opts x 6 VS + 2 platforms x 2 x 6 + 1 assemble+solve
    assert len(plan) == 50
    keys = {c.key() for c in plan}
    assert all(c.mesh_dims == FULL_MESH for c in plan)
    assert any("scalar" in k for k in keys)
    assert any(k.startswith("sx_aurora-vec1") for k in keys)
    # the timed Krylov path rides the standard sweep end to end
    solve = [c for c in plan if c.solve]
    assert [c.key().endswith("-solve") for c in solve] == [True]


def test_smoke_plan_resolves_mesh_preset():
    plan = ExecutionPlan.smoke("quick")
    assert len(plan) == 4
    assert all(c.mesh_dims == QUICK_MESH for c in plan)
    assert sum(1 for c in plan if c.solve) == 1


# -- serial vs parallel ------------------------------------------------------


def test_parallel_results_byte_identical_to_serial(tmp_path):
    plan = ExecutionPlan.from_configs(tiny_configs(3))
    serial = execute_plan(plan, cache_dir=tmp_path / "serial", jobs=1)
    parallel = execute_plan(plan, cache_dir=tmp_path / "parallel", jobs=2)
    assert not serial.failed and not parallel.failed
    assert serial.stats.simulated == parallel.stats.simulated == 3

    serial_files = sorted(p.name for p in (tmp_path / "serial").iterdir())
    parallel_files = sorted(p.name for p in (tmp_path / "parallel").iterdir())
    assert serial_files == parallel_files
    for name in serial_files:
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "parallel" / name).read_bytes()

    for cfg in plan:
        assert parallel.runs[cfg.key()].total_cycles == pytest.approx(
            serial.runs[cfg.key()].total_cycles)


# -- caching -----------------------------------------------------------------


def test_cache_hit_short_circuits_simulation(tmp_path):
    plan = ExecutionPlan.from_configs(tiny_configs(2))
    first = execute_plan(plan, cache_dir=tmp_path, jobs=1)
    assert first.stats.simulated == 2 and first.stats.cache_hits == 0

    events = []
    second = execute_plan(plan, cache_dir=tmp_path, jobs=1,
                          on_event=events.append)
    assert second.stats.simulated == 0 and second.stats.cache_hits == 2
    assert {e.kind for e in events} == {"cache_hit"}
    for cfg in plan:
        assert second.runs[cfg.key()].total_cycles == pytest.approx(
            first.runs[cfg.key()].total_cycles)


def test_events_carry_queue_depth_and_cache_tallies(tmp_path):
    """Every RunEvent snapshots live executor utilization."""
    plan = ExecutionPlan.from_configs(tiny_configs(3))
    events = []
    execute_plan(plan, cache_dir=tmp_path, jobs=1, on_event=events.append)
    done = [e for e in events if e.kind == "done"]
    assert len(done) == 3
    # queue drains monotonically; the last completion leaves it empty.
    depths = [e.queued for e in done]
    assert depths == sorted(depths, reverse=True) and depths[-1] == 0
    assert done[-1].cache_misses == 3 and done[-1].cache_hits == 0

    events2 = []
    execute_plan(plan, cache_dir=tmp_path, jobs=1, on_event=events2.append)
    hits = [e for e in events2 if e.kind == "cache_hit"]
    assert hits[-1].cache_hits == 3 and hits[-1].cache_misses == 0


def test_corrupted_cache_entry_discarded_and_resimulated(tmp_path):
    [cfg] = tiny_configs(1)
    execute_plan([cfg], cache_dir=tmp_path, jobs=1)
    path = cache_path(tmp_path, cfg)
    path.write_text('{"1": {"cycles_tot')  # truncated write

    result = execute_plan([cfg], cache_dir=tmp_path, jobs=1)
    assert result.stats.cache_hits == 0 and result.stats.simulated == 1
    assert json.loads(path.read_text())  # rewritten, valid again


def test_load_cached_rejects_wrong_schema(tmp_path):
    [cfg] = tiny_configs(1)
    path = cache_path(tmp_path, cfg)
    path.parent.mkdir(parents=True, exist_ok=True)

    path.write_text('["not", "an", "object"]')
    assert load_cached(tmp_path, cfg) is None
    assert not path.exists()  # bad entry deleted

    path.write_text('{"1": {"cycles_total": 1.0}}')  # missing fields
    assert load_cached(tmp_path, cfg) is None
    assert not path.exists()


def test_store_cached_roundtrip_and_no_tmp_litter(tmp_path):
    [cfg] = tiny_configs(1)
    run = execute_plan([cfg], cache_dir=tmp_path / "a", jobs=1).runs[cfg.key()]
    store_payload(tmp_path / "b", cfg, counters_to_dict(run))
    back = load_cached(tmp_path / "b", cfg)
    assert back.total_cycles == pytest.approx(run.total_cycles)
    assert [p.name for p in (tmp_path / "b").iterdir()] == \
        [cache_path(tmp_path / "b", cfg).name]  # no .tmp files left behind


# -- fault tolerance ---------------------------------------------------------


def test_worker_failure_retried_serial(tmp_path):
    [cfg] = tiny_configs(1)
    calls = {"n": 0}

    def worker(c):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return simulate_to_dict(c)

    events = []
    result = execute_plan([cfg], cache_dir=tmp_path, jobs=1, retries=1,
                          worker=worker, on_event=events.append)
    assert not result.failed
    assert result.stats.retries == 1 and result.stats.simulated == 1
    assert [e.kind for e in events] == ["start", "retry", "start", "done"]
    assert calls["n"] == 2


def test_worker_failure_retried_parallel(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FAIL_FLAG", str(tmp_path / "flag"))
    [cfg] = tiny_configs(1)
    result = execute_plan([cfg], cache_dir=tmp_path, jobs=2, retries=1,
                          worker=_flaky_worker)
    assert not result.failed
    assert result.stats.retries == 1 and result.stats.simulated == 1


def test_retry_exhaustion_reported_not_raised(tmp_path):
    def worker(c):
        raise RuntimeError("always broken")

    plan = ExecutionPlan.from_configs(tiny_configs(2))
    result = execute_plan(plan, cache_dir=tmp_path, jobs=1, retries=1,
                          worker=worker)
    assert len(result.failed) == 2
    assert result.stats.failures == 2 and result.stats.retries == 2
    assert "always broken" in next(iter(result.failed.values()))


def test_per_run_timeout_abandons_hung_worker(tmp_path):
    import tests.experiments.test_executor as mod

    result = execute_plan(tiny_configs(1), cache_dir=tmp_path, jobs=2,
                          retries=0, timeout_s=0.2, worker=mod._sleepy_worker)
    assert len(result.failed) == 1
    assert "timed out" in next(iter(result.failed.values()))


def _sleepy_worker(cfg):
    import time

    time.sleep(1.5)
    return simulate_to_dict(cfg)


# -- Session façade ----------------------------------------------------------


def test_session_run_accepts_config_first():
    s = Session(mesh_dims=TINY, use_disk=False)
    cfg = s.config(opt="vanilla", vector_size=16)
    assert s.run(cfg) is s.run(opt="vanilla", vector_size=16)


def test_session_run_many_returns_input_order(tmp_path):
    s = Session(mesh_dims=TINY, cache_dir=tmp_path, jobs=2)
    cfgs = tiny_configs(3)
    runs = s.run_many(list(reversed(cfgs)))
    assert [r.total_cycles for r in runs] == \
        [s.run(c).total_cycles for c in reversed(cfgs)]
    # memoized: run_many again returns identical objects, no re-simulation
    assert s.run_many(cfgs)[0] is s.run(cfgs[0])


def test_session_run_many_raises_on_permanent_failure(tmp_path, monkeypatch):
    import repro.experiments.runner as runner_mod

    s = Session(mesh_dims=TINY, cache_dir=tmp_path, retries=0)
    orig = runner_mod.execute_plan

    def broken_worker(cfg):
        raise RuntimeError("dead")

    def failing_plan(plan, **kw):
        # force the in-process path so the closure worker needs no pickling
        kw.update(worker=broken_worker, jobs=1)
        return orig(plan, **kw)

    monkeypatch.setattr(runner_mod, "execute_plan", failing_plan)
    with pytest.raises(SweepError, match="failed permanently"):
        s.run_many(tiny_configs(1))


def test_session_recovers_from_corrupt_cache(tmp_path):
    s1 = Session(mesh_dims=TINY, cache_dir=tmp_path)
    r1 = s1.run(opt="vanilla", vector_size=16)
    cache_file = next(tmp_path.glob("*.json"))
    cache_file.write_text("not json at all")

    s2 = Session(mesh_dims=TINY, cache_dir=tmp_path)
    r2 = s2.run(opt="vanilla", vector_size=16)
    assert r2.total_cycles == pytest.approx(r1.total_cycles)
    assert json.loads(next(tmp_path.glob("*.json")).read_text())


# -- config-first API --------------------------------------------------------


def test_run_config_from_kwargs():
    cfg = RunConfig.from_kwargs(mesh="quick", opt="vec1", vs=64)
    assert cfg.mesh_dims == QUICK_MESH
    assert cfg.vector_size == 64 and cfg.opt == "vec1"
    assert RunConfig.from_kwargs().mesh_dims == FULL_MESH
    assert RunConfig.from_kwargs(mesh=(2, 2, 2)).mesh_dims == (2, 2, 2)


def test_run_config_from_kwargs_rejects_junk():
    with pytest.raises(TypeError, match="unknown RunConfig"):
        RunConfig.from_kwargs(optimization="vec1")
    with pytest.raises(ValueError, match="unknown mesh preset"):
        RunConfig.from_kwargs(mesh="huge")


@pytest.mark.parametrize("vs", [0, -8])
def test_run_config_rejects_vector_size_below_one(vs):
    # the CLI builds configs through this constructor.
    with pytest.raises(ValueError, match="vector_size"):
        RunConfig.from_kwargs(mesh="tiny", vs=vs)


def test_run_config_solve_round_trips():
    cfg = RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY, solve=True)
    assert cfg.key().endswith("-solve")
    # off by default: no key suffix -- existing caches and bench
    # baselines keep their spelling.
    plain = RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY)
    assert not plain.key().endswith("-solve")


def test_simulate_to_dict_solve_payload():
    from repro.metrics.counters import counters_from_dict

    cfg = RunConfig(opt="vanilla", vector_size=8, mesh_dims=(3, 2, 2),
                    solve=True)
    payload = simulate_to_dict(cfg)
    # the solver phases ride next to the assembly phases...
    assert {"9", "10", "11", "12"} <= set(payload)
    assert all(payload[p]["cycles_total"] > 0 for p in ("9", "10", "11", "12"))
    # ...and the convergence record lives under the reserved key,
    # invisible to both the counter parser and the content digest.
    info = payload["__solve__"]
    assert info["converged"] and info["iterations"] >= 1
    assert info["method"] == "bicgstab" and info["residual"] < 1e-6
    run = counters_from_dict(payload)
    assert set(run.phases) >= {9, 10, 11, 12}
    from repro.experiments.executor import payload_digest
    stripped = {k: v for k, v in payload.items() if k != "__solve__"}
    assert payload_digest(payload) == payload_digest(stripped)


def test_public_api_surface():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert {"Session", "RunConfig", "ExecutionPlan", "MiniApp", "box_mesh",
            "get_machine", "__version__"} <= set(repro.__all__)
