"""Tests for the MiniApp driver: compilation wiring + paper's
vectorization-decision story (Table 4 structure)."""

import numpy as np
import pytest

from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import box_mesh
from repro.machine.machines import RISCV_VEC


@pytest.fixture(scope="module")
def mesh():
    return box_mesh(4, 4, 4)


def remarks_by_phase(app: MiniApp) -> dict[int, list]:
    out: dict[int, list] = {}
    for r in app.remarks:
        out.setdefault(r.phase, []).append(r)
    return out


def test_vanilla_gather_and_scatter_phases_never_vectorize(mesh):
    """Table 4: phases 1, 2 and 8 have M_v = 0 at every VECTOR_SIZE."""
    for vs in (16, 64, 256):
        app = MiniApp(mesh, vector_size=vs, opt="vanilla")
        rb = remarks_by_phase(app)
        for phase in (1, 2, 8):
            assert all(r.status != "vectorized" for r in rb[phase]), (vs, phase)


def test_vanilla_phase2_blocked_by_runtime_dummy(mesh):
    app = MiniApp(mesh, vector_size=64, opt="vanilla")
    rb = remarks_by_phase(app)
    assert all(r.status == "blocked" for r in rb[2])
    assert any("dummy argument" in r.reason for r in rb[2])


def test_phase1_multiversioned_in_vanilla(mesh):
    """The Vehave observation: vector code emitted, scalar path taken."""
    app = MiniApp(mesh, vector_size=64, opt="vanilla")
    rb = remarks_by_phase(app)
    assert any(r.status == "multi_versioned" for r in rb[1])


def test_vs16_only_phase7_effectively_vectorizes(mesh):
    """Table 4 at VECTOR_SIZE = 16: phase 7 vectorized, phases 4/5/6
    essentially not."""
    app = MiniApp(mesh, vector_size=16, opt="vanilla")
    rb = remarks_by_phase(app)
    assert any(r.status == "vectorized" for r in rb[7])
    for phase in (4, 5):
        assert all(r.status != "vectorized" for r in rb[phase])


def test_vs64_heavy_phases_vectorize(mesh):
    app = MiniApp(mesh, vector_size=64, opt="vanilla")
    rb = remarks_by_phase(app)
    for phase in (3, 4, 5, 6, 7):
        assert any(r.status == "vectorized" for r in rb[phase]), phase


def test_vec2_vectorizes_phase2_with_tiny_avl(mesh):
    app = MiniApp(mesh, vector_size=64, opt="vec2")
    rb = remarks_by_phase(app)
    vec = [r for r in rb[2] if r.status == "vectorized"]
    assert vec
    assert {r.loop_var for r in vec} <= {"idofn", "idime"}
    run = app.run_timed(RISCV_VEC, cache_enabled=False)
    p2 = run.phases[2]
    avl = p2.vl_sum / p2.i_v
    assert 3.0 <= avl <= 4.0  # the paper's measured AVL = 4


def test_ivec2_vectorizes_phase2_over_ivect(mesh):
    app = MiniApp(mesh, vector_size=64, opt="ivec2")
    rb = remarks_by_phase(app)
    vec = [r for r in rb[2] if r.status == "vectorized"]
    assert vec and all(r.loop_var == "ivect" for r in vec)
    run = app.run_timed(RISCV_VEC, cache_enabled=False)
    p2 = run.phases[2]
    assert p2.vl_sum / p2.i_v == pytest.approx(64, rel=0.05)


def test_vec1_splits_phase1(mesh):
    app = MiniApp(mesh, vector_size=64, opt="vec1")
    rb = remarks_by_phase(app)
    statuses = [r.status for r in rb[1]]
    assert statuses.count("vectorized") == 1       # WORK B
    assert "multi_versioned" in statuses           # WORK A stays scalar
    run = app.run_timed(RISCV_VEC, cache_enabled=False)
    assert run.phases[1].i_v > 0


def test_scalar_build_emits_no_vector_instructions(mesh):
    app = MiniApp(mesh, vector_size=64, opt="scalar")
    run = app.run_timed(RISCV_VEC, cache_enabled=False)
    for pc in run.phases.values():
        assert pc.i_v == 0
        assert pc.instr_vconfig == 0


def test_run_counters_cover_all_phases(mesh):
    run = MiniApp(mesh, vector_size=16, opt="vec1").run_timed(
        RISCV_VEC, cache_enabled=False)
    assert run.phase_ids() == list(range(1, 9))
    assert all(pc.cycles_total > 0 for pc in run.phases.values())


def test_flops_independent_of_vectorization(mesh):
    """Same arithmetic, scalar or vector: FLOP counts must agree."""
    scalar = MiniApp(mesh, vector_size=64, opt="scalar").run_timed(
        RISCV_VEC, cache_enabled=False)
    vector = MiniApp(mesh, vector_size=64, opt="vec1").run_timed(
        RISCV_VEC, cache_enabled=False)
    assert vector.total_flops == pytest.approx(scalar.total_flops, rel=0.02)


def test_chunk_count(mesh):
    app = MiniApp(mesh, vector_size=16, opt="vanilla")
    assert len(app.chunks) == 4  # 64 elements / 16


def test_run_numeric_field_overrides(mesh):
    app = MiniApp(mesh, vector_size=16, opt="vec1")
    base = app.run_numeric()
    fields = app.global_float_data()
    bumped = fields["unkno"].copy()
    bumped[:, 0] += 0.5
    other = app.run_numeric(field_overrides={"unkno": bumped})
    assert not np.allclose(base.rhsid, other.rhsid)
    with pytest.raises(KeyError):
        app.run_numeric(field_overrides={"nonexistent": bumped})
    with pytest.raises(ValueError):
        app.run_numeric(field_overrides={"unkno": bumped[:-1]})
