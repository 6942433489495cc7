"""Seeded fault plans: determinism and strike-point selection."""

import pytest

from repro.experiments.config import TINY_MESH, RunConfig
from repro.faults.plan import (
    PASS_FAULT_KINDS,
    PASS_FAULT_RUNGS,
    WORKER_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)

KEYS = [f"cfg-{i}" for i in range(9)]

CONFIGS = [RunConfig(opt=o, vector_size=vs, mesh_dims=TINY_MESH)
           for o in ("vanilla", "vec2", "ivec2", "vec1")
           for vs in (16, 64)]


def test_same_seed_same_plan():
    assert FaultPlan.generate(0, KEYS) == FaultPlan.generate(0, KEYS)
    assert FaultPlan.generate(42, KEYS) == FaultPlan.generate(42, KEYS)


def test_different_seeds_differ():
    plans = {FaultPlan.generate(s, KEYS).specs for s in range(8)}
    assert len(plans) > 1


def test_one_spec_per_kind():
    plan = FaultPlan.generate(0, KEYS)
    assert sorted(s.kind for s in plan.specs) == sorted(WORKER_FAULT_KINDS)
    for kind in WORKER_FAULT_KINDS:
        assert plan.spec_for(kind).kind == kind


def test_targets_drawn_from_keys():
    plan = FaultPlan.generate(3, KEYS)
    for spec in plan.specs:
        assert spec.target_key in KEYS


def test_torn_cache_tears_an_earlier_entry():
    plan = FaultPlan.generate(0, KEYS)
    spec = plan.spec_for("torn_cache")
    # strikes on the last run so earlier entries exist on disk to tear.
    assert spec.target_key == KEYS[-1]
    assert spec.victim_key in KEYS[:-1]
    assert spec.victim_key != spec.target_key


def test_empty_sweep_rejected():
    with pytest.raises(ValueError):
        FaultPlan.generate(0, [])


def test_spec_for_unknown_kind():
    with pytest.raises(KeyError):
        FaultPlan.generate(0, KEYS).spec_for("gamma_ray")


def test_to_dict_roundtrip_shape():
    plan = FaultPlan.generate(5, KEYS)
    d = plan.to_dict()
    assert d["seed"] == 5
    assert len(d["specs"]) == len(WORKER_FAULT_KINDS)
    assert all({"kind", "target_key", "victim_key"} <= set(s) for s in d["specs"])


def test_pass_fault_plan_same_seed_same_plan():
    a = FaultPlan.generate_pass_faults(0, CONFIGS)
    b = FaultPlan.generate_pass_faults(0, CONFIGS)
    assert a == b


def test_pass_fault_plan_one_spec_per_kind_on_its_rung():
    plan = FaultPlan.generate_pass_faults(0, CONFIGS)
    assert sorted(s.kind for s in plan.specs) == sorted(PASS_FAULT_KINDS)
    by_key = {cfg.key(): cfg for cfg in CONFIGS}
    for spec in plan.specs:
        # each kind strikes a config of the rung whose pipeline it
        # tampers with, so the fault actually runs the bad pass.
        assert by_key[spec.target_key].opt == PASS_FAULT_RUNGS[spec.kind]


def test_pass_fault_plan_varies_with_seed():
    plans = {FaultPlan.generate_pass_faults(s, CONFIGS).specs
             for s in range(8)}
    assert len(plans) > 1


def test_pass_fault_plan_rejects_empty_sweep():
    with pytest.raises(ValueError):
        FaultPlan.generate_pass_faults(0, [])


def test_pass_fault_plan_rejects_sweep_missing_a_rung():
    scalar_only = [cfg for cfg in CONFIGS if cfg.opt == "vanilla"]
    with pytest.raises(ValueError):
        FaultPlan.generate_pass_faults(0, scalar_only)


def test_spec_is_frozen():
    spec = FaultSpec(kind="crash", target_key="k")
    with pytest.raises(AttributeError):
        spec.kind = "hang"


# -- solver fault kinds ------------------------------------------------------

#: the kinds of the chaos campaign's two solver drills.
SOLVER_KINDS = ("nonconverging_krylov", "torn_spmv_gather")


def test_solver_fault_kinds_generate_deterministically():
    # the generic generator covers the solver drills' kinds too: same
    # (seed, keys, kinds) -> same plan, different seeds spread out.
    a = FaultPlan.generate(0, KEYS, kinds=SOLVER_KINDS)
    b = FaultPlan.generate(0, KEYS, kinds=SOLVER_KINDS)
    assert a == b
    assert sorted(s.kind for s in a.specs) == sorted(SOLVER_KINDS)
    assert all(s.target_key in KEYS for s in a.specs)
    plans = {FaultPlan.generate(s, KEYS, kinds=SOLVER_KINDS).specs
             for s in range(8)}
    assert len(plans) > 1
