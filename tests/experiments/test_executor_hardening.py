"""Executor hardening: guarded callbacks, durable cache writes, content
digests, deterministic backoff, and attempt-preserving pool fallback."""

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import repro.experiments.executor as ex
from repro.experiments.config import TINY_MESH, RunConfig
from repro.experiments.executor import (
    ExecutionPlan,
    backoff_delay,
    cache_path,
    execute_plan,
    load_cached,
    payload_digest,
    simulate_run,
    simulate_to_dict,
    store_payload,
)

CFG = RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY_MESH)


# -- guarded progress callbacks --------------------------------------------


def test_crashing_callback_does_not_sink_the_sweep(tmp_path, capsys):
    seen = []

    def bad_callback(ev):
        seen.append(ev.kind)
        raise ValueError("observer bug")

    res = execute_plan(ExecutionPlan.smoke(TINY_MESH), cache_dir=tmp_path,
                       on_event=bad_callback)
    assert not res.failed
    assert len(res.runs) == 4
    assert seen  # the callback did run (and crash) for every event
    err = capsys.readouterr().err
    assert "progress callback failed" in err
    assert "observer bug" in err


# -- durable cache writes and content digests ------------------------------


def test_store_leaves_no_tmp_residue(tmp_path):
    store_payload(tmp_path, CFG, simulate_to_dict(CFG))
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]


def test_truncated_entry_is_discarded(tmp_path):
    store_payload(tmp_path, CFG, simulate_to_dict(CFG))
    path = cache_path(tmp_path, CFG)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # the torn write
    assert load_cached(tmp_path, CFG) is None
    assert not path.exists()  # quarantined, will be re-simulated


def test_corrupt_entry_emits_cache_corrupt_event_and_is_counted(tmp_path):
    res = execute_plan([CFG], cache_dir=tmp_path)
    assert res.stats.cache_corrupt == 0
    path = cache_path(tmp_path, CFG)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # the torn write
    events = []
    res = execute_plan([CFG], cache_dir=tmp_path, on_event=events.append)
    corrupt = [ev for ev in events if ev.kind == "cache_corrupt"]
    assert len(corrupt) == 1
    assert corrupt[0].key == CFG.key()
    assert "discarded corrupt cache entry" in corrupt[0].error
    assert res.stats.cache_corrupt == 1
    assert res.stats.cache_hits == 0
    assert res.stats.simulated == 1  # transparently re-simulated
    assert not res.failed
    # the repaired entry is durable: the next sweep is a clean hit.
    third = execute_plan([CFG], cache_dir=tmp_path)
    assert third.stats.cache_hits == 1
    assert third.stats.cache_corrupt == 0


def test_bitrot_with_valid_json_is_caught_by_digest(tmp_path):
    store_payload(tmp_path, CFG, simulate_to_dict(CFG))
    path = cache_path(tmp_path, CFG)
    payload = json.loads(path.read_text())
    payload["1"]["cycles_total"] += 1.0  # parseable, plausible, wrong
    path.write_text(json.dumps(payload, sort_keys=True))
    assert load_cached(tmp_path, CFG) is None


def test_entry_without_digest_is_rejected(tmp_path):
    path = cache_path(tmp_path, CFG)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(simulate_to_dict(CFG), sort_keys=True))
    assert load_cached(tmp_path, CFG) is None


def test_solve_entry_without_solve_record_is_resimulated(tmp_path):
    # the shape an assembly-only run stored under a solve key has:
    # phases 1-8 with a valid digest, but no phases 9-12 and no
    # ``__solve__`` convergence record.
    solve_cfg = RunConfig(opt="vanilla", vector_size=8, mesh_dims=(3, 2, 2),
                          solve=True)
    store_payload(tmp_path, solve_cfg,
                  simulate_to_dict(replace(solve_cfg, solve=False)))
    events = []
    res = execute_plan([solve_cfg], cache_dir=tmp_path,
                       on_event=events.append)
    corrupt = [ev for ev in events if ev.kind == "cache_corrupt"]
    assert len(corrupt) == 1 and "__solve__" in corrupt[0].error
    assert res.stats.cache_corrupt == 1 and res.stats.simulated == 1
    assert res.runs[solve_cfg.key()].phase_ids() == list(range(1, 13))
    healed = json.loads(cache_path(tmp_path, solve_cfg).read_text())
    assert healed["__solve__"]["converged"]
    assert load_cached(tmp_path, solve_cfg) is not None


def test_flop_ladder_restore_keeps_the_solve_record(tmp_path, monkeypatch):
    # a cross-rung verdict re-stores the entry with its new
    # __validation__; the rewrite must keep the other __* metadata, or a
    # solve entry loses __solve__ and is re-simulated on its next load.
    import repro.validation.invariants as invariants

    solve_cfg = replace(CFG, solve=True)
    flagged = {solve_cfg.key(): ["flagged for the test"]}
    monkeypatch.setattr(invariants, "check_flop_ladder",
                        lambda runs, rtol=1e-6: flagged)
    res = execute_plan([solve_cfg], cache_dir=tmp_path, validate=True)
    assert res.invalid_keys() == [solve_cfg.key()]
    entry = json.loads(cache_path(tmp_path, solve_cfg).read_text())
    assert entry["__validation__"] == {
        "ok": False, "violations": ["flagged for the test"]}
    assert entry["__solve__"] == simulate_to_dict(solve_cfg)["__solve__"]
    again = execute_plan([solve_cfg], cache_dir=tmp_path)
    assert again.stats.cache_hits == 1
    assert again.stats.cache_corrupt == again.stats.simulated == 0


def test_edited_preset_is_resimulated(tmp_path, monkeypatch):
    # RunConfig.key() names the preset but none of its parameters: an
    # entry stored before a preset edit must not be served after it.
    from repro.machine import machines
    from repro.metrics.counters import counters_to_dict

    old = execute_plan([CFG], cache_dir=tmp_path).runs[CFG.key()]
    preset = machines.MACHINES["riscv_vec"]
    monkeypatch.setitem(machines.MACHINES, "riscv_vec", replace(
        preset, vpu=replace(preset.vpu, strip_stall_cycles=23.0)))
    events = []
    res = execute_plan([CFG], cache_dir=tmp_path, on_event=events.append)
    assert res.stats.cache_hits == 0 and res.stats.simulated == 1
    [stale] = [ev for ev in events if ev.kind == "cache_corrupt"]
    assert "discarded stale cache entry" in stale.error
    new = res.runs[CFG.key()]
    assert new.total_cycles != old.total_cycles
    assert counters_to_dict(new) == counters_to_dict(simulate_run(CFG))
    # the re-simulated entry is stamped for the edited preset.
    assert execute_plan([CFG], cache_dir=tmp_path).stats.cache_hits == 1


def test_digest_ignores_reserved_metadata_keys():
    payload = {"1": {"cycles_total": 1.0}}
    annotated = {**payload, "__validation__": {"ok": True}}
    assert payload_digest(payload) == payload_digest(annotated)


def test_store_load_roundtrip(tmp_path):
    run = simulate_run(CFG)
    from repro.metrics.counters import counters_to_dict

    store_payload(tmp_path, CFG, counters_to_dict(run))
    assert counters_to_dict(load_cached(tmp_path, CFG)) == counters_to_dict(run)


# -- deterministic backoff --------------------------------------------------


def test_backoff_is_deterministic_and_exponential():
    d1 = backoff_delay(1.0, "some-key", 1)
    assert d1 == backoff_delay(1.0, "some-key", 1)
    assert 0.5 <= d1 <= 1.5
    d3 = backoff_delay(1.0, "some-key", 3)
    assert 2.0 <= d3 <= 6.0
    assert backoff_delay(1.0, "other-key", 1) != d1  # jitter spreads keys


def test_zero_base_means_no_backoff():
    assert backoff_delay(0.0, "k", 5) == 0.0


def test_retry_backoff_is_honoured_serially(tmp_path):
    import time

    attempts = []

    def flaky_worker(cfg):
        attempts.append(time.monotonic())
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return simulate_to_dict(cfg)

    res = execute_plan([CFG], cache_dir=tmp_path, retries=1,
                       backoff_s=0.2, worker=flaky_worker)
    assert not res.failed
    gap = attempts[1] - attempts[0]
    assert gap >= backoff_delay(0.2, CFG.key(), 1) * 0.9


# -- broken-pool fallback keeps attempt counts (the old bug reset them) ----


class _DoomedPool:
    """A pool whose every submission dies like a SIGKILLed worker."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, cfg):
        fut = Future()
        fut.set_exception(BrokenProcessPool("worker died"))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _BreakingPool:
    """A pool that finds itself broken at its second submission, as a
    pool whose worker was SIGKILLed between two submissions does, and
    otherwise runs each submission at once."""

    submissions = 0

    def __init__(self, max_workers):
        pass

    def submit(self, fn, cfg):
        _BreakingPool.submissions += 1
        if _BreakingPool.submissions == 2:
            raise BrokenProcessPool("a worker died")
        fut = Future()
        fut.set_result(fn(cfg))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_run_refused_by_a_broken_pool_is_not_lost(tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "ProcessPoolExecutor", _BreakingPool)
    monkeypatch.setattr(_BreakingPool, "submissions", 0)
    plan = ExecutionPlan.smoke(TINY_MESH)
    res = execute_plan(plan, cache_dir=tmp_path, jobs=2)
    assert not res.failed
    assert sorted(res.runs) == sorted(cfg.key() for cfg in plan)


def test_serial_fallback_preserves_attempts(tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "ProcessPoolExecutor", _DoomedPool)
    events = []
    res = execute_plan(ExecutionPlan.smoke(TINY_MESH), cache_dir=tmp_path,
                       jobs=2, retries=2, on_event=events.append)
    # the pool breaks; the serial fallback finishes the job.
    assert not res.failed
    assert len(res.runs) == 4
    done = [ev for ev in events if ev.kind == "done"]
    # every config burned one attempt in the broken pool, so the
    # fallback continues mid-budget -- the old bug restarted everything
    # at attempt 1 with a fresh retry allowance.
    assert sorted(ev.attempt for ev in done) == [2, 2, 2, 2]
    assert all(ev.attempt <= 3 for ev in events)


def test_exhausted_budget_fails_even_through_pool_breakage(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(ex, "ProcessPoolExecutor", _DoomedPool)
    res = execute_plan([CFG], cache_dir=tmp_path, jobs=2, retries=1)
    # attempts 1 and 2 died with the pools; the budget is spent, so the
    # serial fallback must NOT grant a third try.
    assert CFG.key() in res.failed
    assert res.stats.simulated == 0


def test_fallback_interleaves_validation_failures_and_quarantine(
        tmp_path, monkeypatch):
    """Pool crashes and validation failures interleave: the serial
    fallback must keep both the consumed attempt counts AND the
    validation-failure tally that drives quarantine."""
    monkeypatch.setattr(ex, "ProcessPoolExecutor", _DoomedPool)
    plan = ExecutionPlan.smoke(TINY_MESH)
    liar = plan.configs[0].key()

    def lying_worker(cfg):
        payload = simulate_to_dict(cfg)
        if cfg.key() == liar:
            # parseable, plausible, wrong: only validation catches it.
            payload["1"]["cycles_total"] = -1.0
        return payload

    events = []
    res = execute_plan(plan, cache_dir=tmp_path, jobs=2, retries=4,
                       validate=True, worker=lying_worker,
                       on_event=events.append)
    # the liar was quarantined after 2 validation failures, well before
    # its 5-attempt retry budget ran out.
    assert liar in res.quarantined
    assert "2 validation failure(s)" in res.quarantined[liar]
    assert res.stats.quarantined == 1
    assert res.stats.validation_failures >= 2
    # honest configs completed -- mid-budget, not reset to attempt 1,
    # because the broken pools burned real attempts first.
    done = [ev for ev in events if ev.kind == "done"]
    assert {ev.key for ev in done} == {c.key() for c in plan.configs[1:]}
    assert all(ev.attempt >= 2 for ev in done)
    # the liar's invalid attempts also continued mid-budget.
    invalid = [ev for ev in events
               if ev.kind == "invalid" and ev.key == liar]
    assert len(invalid) == 2
    assert all(ev.attempt >= 2 for ev in invalid)
    assert invalid[0].attempt < invalid[1].attempt  # budget kept ticking
    quarantined = [ev for ev in events if ev.kind == "quarantined"]
    assert [ev.key for ev in quarantined] == [liar]
