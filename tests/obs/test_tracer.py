"""Tests for the observability spine: contextvar scoping, span/event
recording, the zero-cost disabled path, and the legacy hook interface."""

import pytest

from repro import obs
from repro.obs.tracer import NOOP_SPAN, NULL_TRACER, SIM, WALL, Tracer
from repro.trace.analysis import phase_stats


# -- scoping -----------------------------------------------------------------


def test_default_ambient_tracer_is_disabled():
    assert obs.active() is None
    assert obs.current() is NULL_TRACER
    assert not obs.current().enabled


def test_use_installs_and_restores():
    t = Tracer()
    assert obs.active() is None
    with obs.use(t):
        assert obs.active() is t
        assert obs.current() is t
    assert obs.active() is None


def test_use_nests():
    outer, inner = Tracer(), Tracer()
    with obs.use(outer):
        with obs.use(inner):
            assert obs.active() is inner
        assert obs.active() is outer


def test_use_restores_on_exception():
    t = Tracer()
    with pytest.raises(RuntimeError):
        with obs.use(t):
            raise RuntimeError("boom")
    assert obs.active() is None


# -- the disabled path -------------------------------------------------------


def test_disabled_tracer_records_nothing():
    t = Tracer(enabled=False)
    with t.span("s"):
        pass
    t.span_at("p", cat="phase", t0=0.0, t1=10.0, phase=1)
    t.event("e")
    t.counter("c", 1.0)
    t.instr("vle", 64, 64)
    t.on_block(1, "b", "scalar", 0.0, 10.0)
    t.on_vector_instrs(1, 0.0, [("vle", 64, 2)])
    assert not t.spans and not t.points and not t.counters
    assert not t.instrs
    assert not t.blocks and not t.vector_instrs


def test_ambient_span_is_shared_noop_when_disabled():
    # zero-cost check: no per-call allocation on the disabled path.
    assert obs.span("x") is NOOP_SPAN
    assert obs.span("y") is NOOP_SPAN
    with obs.span("z"):
        pass  # usable as a context manager


def test_ambient_event_and_counter_noop_when_disabled():
    obs.event("nothing")
    obs.counter("nothing", 1.0)
    assert not NULL_TRACER.points and not NULL_TRACER.counters


# -- recording ---------------------------------------------------------------


def test_span_records_wall_domain():
    t = Tracer()
    with obs.use(t):
        with obs.span("work", cat="run", answer=42):
            pass
    (s,) = t.spans
    assert s.name == "work" and s.cat == "run" and s.domain == WALL
    assert s.t1 >= s.t0 and s.dur >= 0
    assert dict(s.args) == {"answer": 42}


def test_span_at_records_sim_domain():
    t = Tracer()
    t.span_at("phase6", cat="phase", t0=100.0, t1=250.0, phase=6)
    (s,) = t.spans
    assert s.domain == SIM and s.phase == 6 and s.dur == 150.0


def test_event_and_counter():
    t = Tracer()
    t.event("done", cat="executor", key="k")
    t.counter("queue depth", 3)
    (p,) = t.points
    assert p.name == "done" and dict(p.args) == {"key": "k"}
    (c,) = t.counters
    assert c.name == "queue depth" and c.value == 3.0


def test_instr_stream_and_occupancy():
    t = Tracer()
    t.instr("vfadd", 40, 64)
    (i,) = t.instrs
    assert i.occupancy == pytest.approx(40 / 64)


def test_vl_histogram_merges_batches_and_instrs():
    t = Tracer()
    t.on_vector_instrs(6, 0.0, [("vle", 240, 10), ("vsetvl", 240, 10)])
    t.instr("vfadd", 240, 256)
    t.instr("vsetvl", 240, 256)  # vsetvl excluded from the histogram
    assert t.vl_histogram() == {240: 11}
    assert t.vl_histogram(phase=6) == {240: 10}


def test_legacy_hooks_feed_block_views():
    t = Tracer()
    t.on_block(1, "b1", "scalar", 0.0, 10.0)
    t.on_block(2, "b2", "vector", 10.0, 30.0)
    stats = phase_stats(t)
    assert sorted(stats) == [1, 2]
    assert stats[2].cycles == 30.0
    assert t.total_cycles() == 40.0


# -- integration: instrumented layers pick the tracer up ambiently -----------


def test_machine_stamps_phase_spans_ambiently():
    from repro.cfd.assembly import MiniApp
    from repro.cfd.mesh import box_mesh
    from repro.machine.machines import RISCV_VEC

    app = MiniApp(box_mesh(4, 4, 4), vector_size=64, opt="vec1")
    t = Tracer()
    with obs.use(t):
        run = app.run_timed(RISCV_VEC)
    spans = [s for s in t.spans if s.domain == SIM and s.phase is not None]
    assert sorted({s.phase for s in spans}) == list(range(1, 9))
    # SIM spans agree with the hardware counters, phase by phase.
    by_phase = {}
    for s in spans:
        by_phase[s.phase] = by_phase.get(s.phase, 0.0) + s.dur
    for pid, pc in run.phases.items():
        assert by_phase[pid] == pytest.approx(pc.cycles_total, rel=1e-9)
    # the run_timed wall span from the mini-app driver is present too.
    assert any(s.cat == "run" for s in t.spans)


def test_emulator_emits_instr_events():
    from repro.isa.emulator import VectorEmulator, vle, vop, vsetvl

    t = Tracer()
    with obs.use(t):
        emu = VectorEmulator(vl_max=8, mem_size=64)
        emu.step(vsetvl("vl", 20))
        emu.step(vle(1, 0))
        emu.step(vop("vfadd", 2, 1, 1))
    assert [i.opcode for i in t.instrs] == ["vsetvl", "vle", "vfadd"]
    assert all(i.vl == 8 for i in t.instrs)  # granted vl capped at vl_max


def test_interpreter_records_ir_spans():
    from repro.cfd.assembly import MiniApp
    from repro.cfd.mesh import box_mesh

    app = MiniApp(box_mesh(2, 2, 2), vector_size=8, opt="vanilla")
    t = Tracer()
    with obs.use(t):
        app.run_interpreted()
    ir = [s for s in t.spans if s.cat == "ir"]
    assert sorted({s.phase for s in ir}) == list(range(1, 9))


def test_tracing_off_leaves_cycle_counts_identical():
    """Satellite: instrumentation must not perturb the timing model."""
    from repro.cfd.assembly import MiniApp
    from repro.cfd.mesh import box_mesh
    from repro.machine.machines import RISCV_VEC
    from repro.metrics.counters import counters_to_dict

    app = MiniApp(box_mesh(4, 4, 4), vector_size=64, opt="vec1")
    bare = counters_to_dict(app.run_timed(RISCV_VEC))
    with obs.use(Tracer()):
        traced = counters_to_dict(app.run_timed(RISCV_VEC))
    assert bare == traced
