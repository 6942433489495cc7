"""The validation layer: counter invariants, FLOP ladder, golden checks,
and their integration with ``execute_plan(validate=True)``."""

from collections import Counter

import numpy as np

from repro.experiments.config import TINY_MESH, RunConfig
from repro.experiments.executor import (
    ExecutionPlan,
    execute_plan,
    simulate_run,
    simulate_to_dict,
    store_payload,
)
from repro.metrics.counters import PhaseCounters, RunCounters
from repro.validation import (
    Probe,
    check_flop_ladder,
    check_phase_counters,
    check_phase_digest_ladder,
    check_run_counters,
    golden_check,
    phase_output_digests,
    solver_phase_digests,
    validate_run,
    vl_max_for,
)

CFG = RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY_MESH)


def _phase(**over) -> PhaseCounters:
    pc = PhaseCounters(phase=1, cycles_total=100.0, cycles_vector=40.0,
                       instr_scalar=10.0, instr_scalar_mem=4.0,
                       instr_vector_arith=2.0, vl_sum=16.0, flops=8.0,
                       vl_hist=Counter({8: 2}))
    for k, v in over.items():
        setattr(pc, k, v)
    return pc


# -- structural invariants --------------------------------------------------


def test_healthy_phase_passes():
    assert check_phase_counters(_phase(), vl_max=256) == []


def test_real_run_passes():
    run = simulate_run(CFG)
    assert validate_run(CFG, run) == []


def test_nan_counter_detected():
    out = check_phase_counters(_phase(cycles_total=float("nan")))
    assert any("non-finite" in v for v in out)


def test_negative_counter_detected():
    out = check_phase_counters(_phase(flops=-1.0))
    assert any("negative" in v for v in out)


def test_vector_cycles_capped_by_total():
    out = check_phase_counters(_phase(cycles_vector=200.0))
    assert any("exceed total" in v for v in out)


def test_scalar_mem_capped_by_scalar():
    out = check_phase_counters(_phase(instr_scalar_mem=11.0))
    assert any("scalar memory" in v for v in out)


def test_vl_hist_must_agree_with_iv_and_vlsum():
    out = check_phase_counters(_phase(vl_sum=999.0))
    assert any("vl_sum" in v for v in out)
    out = check_phase_counters(_phase(instr_vector_arith=50.0))
    assert any("i_v" in v for v in out)


def test_avl_above_vl_max_detected():
    # an 8-lane histogram on a machine whose vl_max is 4 is impossible.
    out = check_phase_counters(_phase(), vl_max=4)
    assert any("outside [0, 4]" in v for v in out)


def test_vl_max_for_resolves_machines():
    assert vl_max_for("riscv_vec") == 256
    assert vl_max_for("mn4_avx512") == 8


def test_run_counters_aggregate_all_phases():
    run = RunCounters(phases={1: _phase(), 2: _phase(cycles_total=float("inf"))})
    run.phases[2].phase = 2
    out = check_run_counters(run, vl_max=256)
    assert any(v.startswith("phase 2") for v in out)
    assert not any(v.startswith("phase 1") for v in out)


# -- FLOP conservation across the optimization ladder -----------------------


def _run_with_flops(flops: float) -> RunCounters:
    return RunCounters(phases={1: _phase(flops=flops)})


def test_ladder_conserved_is_clean():
    runs = {
        RunConfig(opt=o, vector_size=16, mesh_dims=TINY_MESH):
            _run_with_flops(8.0)
        for o in ("vanilla", "vec2", "vec1")}
    assert check_flop_ladder(runs) == {}


def test_ladder_drift_flags_whole_group():
    runs = {
        RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY_MESH):
            _run_with_flops(8.0),
        RunConfig(opt="vec1", vector_size=16, mesh_dims=TINY_MESH):
            _run_with_flops(8.5),
        # different vector_size => different group, not flagged.
        RunConfig(opt="vec1", vector_size=64, mesh_dims=TINY_MESH):
            _run_with_flops(7.0)}
    out = check_flop_ladder(runs)
    assert len(out) == 2
    assert all("FLOP drift" in v for msgs in out.values() for v in msgs)


def test_real_ladder_conserves_flops():
    plan = ExecutionPlan.ladder(mesh=TINY_MESH, vector_sizes=(16,))
    runs = {cfg: simulate_run(cfg) for cfg in plan}
    assert check_flop_ladder(runs) == {}


# -- executor integration ---------------------------------------------------


def test_validated_sweep_records_verdicts(tmp_path):
    plan = ExecutionPlan.smoke(TINY_MESH)
    res = execute_plan(plan, cache_dir=tmp_path, validate=True)
    assert not res.failed
    assert res.invalid_keys() == []
    assert set(res.validation) == {cfg.key() for cfg in plan}
    assert all(v["ok"] for v in res.validation.values())


def test_lying_worker_is_quarantined(tmp_path):
    target = ExecutionPlan.smoke(TINY_MESH).configs[0].key()
    events = []

    def lying_worker(cfg):
        payload = simulate_to_dict(cfg)
        if cfg.key() == target:  # lies on EVERY attempt: unrecoverable
            payload["1"]["cycles_total"] = float("nan")
        return payload

    res = execute_plan(ExecutionPlan.smoke(TINY_MESH), cache_dir=tmp_path,
                       retries=5, validate=True,
                       worker=lying_worker, on_event=events.append)
    assert target in res.quarantined
    assert target in res.failed
    assert target not in res.runs
    # quarantine bounds the damage: 2 validation failures, not 6 attempts.
    assert sum(1 for ev in events if ev.kind == "invalid") == 2
    assert sum(1 for ev in events if ev.kind == "quarantined") == 1
    # the healthy configs are untouched.
    assert len(res.runs) == 3


def test_invalid_cache_entry_is_discarded_and_resimulated(tmp_path):
    # parseable, digest-intact, but violating the invariants: the
    # validated sweep must reject it instead of trusting the disk.
    payload = simulate_to_dict(CFG)
    payload["1"]["cycles_total"] = -payload["1"]["cycles_total"] - 1
    store_payload(tmp_path, CFG, payload)
    events = []
    res = execute_plan([CFG], cache_dir=tmp_path, validate=True,
                       on_event=events.append)
    kinds = [ev.kind for ev in events]
    assert kinds == ["invalid", "start", "done"]
    assert res.stats.cache_hits == 0
    assert res.stats.simulated == 1
    assert validate_run(CFG, res.runs[CFG.key()]) == []


def test_unvalidated_sweep_trusts_the_cache(tmp_path):
    payload = simulate_to_dict(CFG)
    payload["1"]["cycles_total"] = -payload["1"]["cycles_total"] - 1
    store_payload(tmp_path, CFG, payload)
    res = execute_plan([CFG], cache_dir=tmp_path, validate=False)
    assert res.stats.cache_hits == 1  # backwards-compatible fast path


# -- phase-output digest ladder ---------------------------------------------


def test_honest_digests_identical_across_all_rungs():
    # every optimization rung is a pure performance transformation, so
    # on the fixed probe all rungs fingerprint bit-identically -- this
    # is the precondition for the majority vote below.
    ladder = {opt: phase_output_digests(opt)
              for opt in ("vanilla", "vec2", "ivec2", "vec1", "scalar")}
    reference = ladder["vanilla"]
    assert reference  # non-empty, one digest per golden phase output
    assert all(fp == reference for fp in ladder.values())
    assert check_phase_digest_ladder(ladder) == {}


def test_digest_ladder_majority_flags_the_deviant():
    honest = {1: "aaaa", 2: "bbbb"}
    digests = {"run-a": honest, "run-b": honest, "run-c": dict(honest),
               "run-d": {1: "aaaa", 2: "eeee"}}
    out = check_phase_digest_ladder(digests)
    assert set(out) == {"run-d"}
    assert any("phase 2" in v and "3/4 runs agree" in v
               for v in out["run-d"])


def test_digest_ladder_needs_a_majority():
    # two runs disagreeing is a tie, not a verdict.
    assert check_phase_digest_ladder(
        {"a": {"1": "x"}, "b": {"1": "y"}}) == {}


def test_supplied_solver_workload_is_digested_without_building_an_app(
        monkeypatch):
    probe = Probe()
    workload, _ = probe.build_app().build_solver()
    honest = solver_phase_digests(probe)

    def no_app(self):
        raise AssertionError("Probe.build_app called beside a workload")

    monkeypatch.setattr(Probe, "build_app", no_app)
    assert solver_phase_digests(probe, workload=workload) == honest


# -- golden reference -------------------------------------------------------


def test_golden_check_clean():
    report = golden_check("vec1")
    assert report.ok
    assert report.violations == []
    assert max(report.max_abs_error.values()) < 1e-12


def test_golden_check_pins_corruption_to_the_struck_phase():
    from repro.faults.injector import flip_float64_bit

    def poison(inst, phase, chunk_index):
        if phase == 3 and chunk_index == 0:
            flip_float64_bit(np.asarray(inst.data("gpvol")), 0, 40)

    report = golden_check("vanilla", corrupt=poison)
    assert not report.ok
    assert any("phase 3" in v and "gpvol" in v for v in report.violations)
