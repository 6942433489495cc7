"""Tests for the tracing toolchain: tracer, Paraver export, analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import box_mesh
from repro.machine.cpu import Machine
from repro.machine.machines import RISCV_VEC
from repro.trace import Tracer, paraver, phase_stats, timeline
from repro.trace.events import BlockEvent, VectorInstrEvent


@pytest.fixture(scope="module")
def traced_run():
    app = MiniApp(box_mesh(4, 4, 4), vector_size=32, opt="vec1")
    tracer = Tracer()
    with obs.use(tracer):
        machine = Machine(RISCV_VEC)
    run = app.run_timed(RISCV_VEC, machine=machine)
    return tracer, run


def test_tracer_collects_events(traced_run):
    tracer, _ = traced_run
    assert tracer.blocks
    assert tracer.vector_instrs
    assert sorted(phase_stats(tracer)) == list(range(1, 9))


def test_trace_cycles_match_counters(traced_run):
    """Trace-derived cycles agree with the hardware counters -- the
    Extrae/Vehave cross-validation."""
    tracer, run = traced_run
    stats = phase_stats(tracer)
    for p, pc in run.phases.items():
        assert stats[p].cycles == pytest.approx(pc.cycles_total, rel=1e-9)


def test_trace_vector_instrs_match_counters(traced_run):
    tracer, run = traced_run
    stats = phase_stats(tracer)
    for p, pc in run.phases.items():
        assert stats[p].vector_instrs == pytest.approx(pc.i_v)
        if pc.i_v:
            assert stats[p].avl == pytest.approx(pc.vl_sum / pc.i_v)


def test_trace_hierarchy_counts(traced_run):
    tracer, run = traced_run
    stats = phase_stats(tracer)
    for p, pc in run.phases.items():
        h = stats[p].hierarchy
        assert h.arithmetic == pytest.approx(pc.instr_vector_arith)
        assert h.memory == pytest.approx(pc.instr_vector_mem)
        assert h.vector_config == pytest.approx(pc.instr_vconfig)


def test_block_timestamps_monotone(traced_run):
    tracer, _ = traced_run
    starts = [b.t_start for b in tracer.blocks]
    assert starts == sorted(starts)
    assert all(b.cycles >= 0 for b in tracer.blocks)


def test_paraver_roundtrip(traced_run):
    tracer, _ = traced_run
    text = paraver.dumps(tracer)
    back = paraver.loads(text)
    assert len(back.blocks) == len(tracer.blocks)
    assert len(back.vector_instrs) == len(tracer.vector_instrs)
    # phase cycle totals survive the (integer-timestamp) roundtrip
    back_stats = phase_stats(back)
    for p, stats in phase_stats(tracer).items():
        assert back_stats[p].cycles == pytest.approx(stats.cycles, rel=1e-3)


def test_paraver_file_io(tmp_path, traced_run):
    tracer, _ = traced_run
    path = tmp_path / "run.prv"
    paraver.dump(tracer, path)
    back = paraver.load(path)
    assert len(back.blocks) == len(tracer.blocks)


def test_paraver_rejects_garbage():
    with pytest.raises(ValueError, match="header"):
        paraver.loads("not a trace\n1:2:3")


def test_timeline_covers_run(traced_run):
    tracer, _ = traced_run
    tl = timeline(tracer, buckets=20)
    assert len(tl) == 20
    phases = {p for _, p in tl}
    assert phases <= set(range(1, 9))
    # the dominant heavy phase must appear somewhere
    assert 6 in phases or 7 in phases or 3 in phases


def test_timeline_empty_trace():
    assert timeline(Tracer()) == []


def test_tracer_disabled_records_nothing():
    t = Tracer(enabled=False)
    t.on_block(1, "x", "scalar", 0.0, 10.0)
    t.on_vector_instrs(1, 0.0, [("vle", 64, 2)])
    assert not t.blocks and not t.vector_instrs


@settings(deadline=None, max_examples=25)
@given(st.lists(
    st.tuples(
        st.integers(1, 8),
        st.sampled_from(["vle", "vse", "vfmadd", "vsetvl", "vlxe",
                         "op:with:colons", "50%:load", "a\nb"]),
        st.integers(1, 256),
        st.integers(1, 1000),
    ),
    max_size=30,
))
def test_paraver_event_roundtrip_property(records):
    t = Tracer()
    for phase, opcode, vl, count in records:
        t.vector_instrs.append(VectorInstrEvent(phase, opcode, vl, count, t=0.0))
    t.blocks.append(BlockEvent(1, "b", "scalar", 0.0, 100.0))
    back = paraver.loads(paraver.dumps(t))
    assert [(e.phase, e.opcode, e.vl, e.count) for e in back.vector_instrs] == \
        [(e.phase, e.opcode, e.vl, e.count) for e in t.vector_instrs]


@settings(deadline=None, max_examples=50)
@given(st.text(min_size=0, max_size=40))
def test_paraver_escape_roundtrip_property(text):
    escaped = paraver.escape_field(text)
    assert ":" not in escaped and "\n" not in escaped and "\r" not in escaped
    assert paraver.unescape_field(escaped) == text


def test_paraver_roundtrips_separator_in_labels():
    """The seed writer corrupted records whose labels contained ':'."""
    t = Tracer()
    t.blocks.append(BlockEvent(3, "loop: j=1:ndime", "vector: 25%", 0.0, 50.0))
    t.vector_instrs.append(VectorInstrEvent(3, "vle64.v:unit", 64, 4, t=0.0))
    back = paraver.loads(paraver.dumps(t))
    (b,) = back.blocks
    assert b.label == "loop: j=1:ndime" and b.kind == "vector: 25%"
    (e,) = back.vector_instrs
    assert e.opcode == "vle64.v:unit"


def test_paraver_rejects_malformed_records():
    header = f"{paraver.HEADER_PREFIX}:100:1:1:1\n"
    with pytest.raises(ValueError, match="malformed state"):
        paraver.loads(header + "1:1:1:1:0:10:1:scalar\n")
    with pytest.raises(ValueError, match="malformed event"):
        paraver.loads(header + "2:1:1:1:0:vle:64:4:1:extra\n")


def test_paraver_writes_pcf_and_row_companions(tmp_path, traced_run):
    tracer, _ = traced_run
    path = tmp_path / "run.prv"
    paraver.dump(tracer, path, with_config=True)
    pcf = (tmp_path / "run.pcf").read_text()
    assert "STATES" in pcf and "EVENT_TYPE" in pcf
    assert "convective" in pcf          # phase 6 named after the paper
    assert str(paraver.VECTOR_EVENT_TYPE) in pcf
    row = (tmp_path / "run.row").read_text()
    assert "LEVEL THREAD SIZE 1" in row
