"""Paraver trace export / import (``.prv`` + ``.pcf`` + ``.row``).

The BSC workflow visualizes both Extrae traces and re-arranged Vehave
traces in Paraver.  This module writes the simulator's trace in a
Paraver-flavoured text format and parses it back, so traces can be
stored, diffed and post-processed outside the simulator; it also writes
the ``.pcf`` (semantic config: state and event names) and ``.row``
(row labels) companions a real Paraver load expects.

Format (one record per line, ``:``-separated like ``.prv``):

* header: ``#Paraver (repro):<total_cycles>:1:1:1``
* state record (block): ``1:1:1:1:<t_start>:<t_end>:<phase>:<kind>:<label>``
* event record (vector instr batch):
  ``2:1:1:1:<t>:<opcode>:<vl>:<count>:<phase>``

String fields (kind, label, opcode) are percent-escaped at write time
-- ``%`` -> ``%25``, ``:`` -> ``%3A``, newline -> ``%0A`` -- so a label
containing the field separator round-trips instead of corrupting the
record (the seed writer dropped such payloads on ``loads``).

Compatibility caveats: timestamps are simulated cycles (not ns), there
is a single application/task/thread, and the state/event encodings are
repro-specific -- Paraver itself opens the files, but BSC cfgs written
for Extrae traces won't apply directly.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.tracer import Tracer
from repro.trace.events import BlockEvent, VectorInstrEvent

HEADER_PREFIX = "#Paraver (repro)"
STATE_RECORD = "1"
EVENT_RECORD = "2"

#: paraver event-type id we emit vector-instruction events under (.pcf).
VECTOR_EVENT_TYPE = 77000001


def escape_field(text: str) -> str:
    """Percent-escape a string field so it survives ``:`` splitting."""
    return (text.replace("%", "%25").replace(":", "%3A")
            .replace("\n", "%0A").replace("\r", "%0D"))


def unescape_field(text: str) -> str:
    """Inverse of :func:`escape_field`."""
    return (text.replace("%0D", "\r").replace("%0A", "\n")
            .replace("%3A", ":").replace("%25", "%"))


def dumps(tracer: Tracer) -> str:
    """Serialize a trace to the Paraver-like text format."""
    total = tracer.total_cycles()
    lines = [f"{HEADER_PREFIX}:{total:.0f}:1:1:1"]
    for b in tracer.blocks:
        lines.append(
            f"{STATE_RECORD}:1:1:1:{b.t_start:.0f}:{b.t_end:.0f}:{b.phase}"
            f":{escape_field(b.kind)}:{escape_field(b.label)}")
    for e in tracer.vector_instrs:
        lines.append(
            f"{EVENT_RECORD}:1:1:1:{e.t:.0f}:{escape_field(e.opcode)}"
            f":{e.vl}:{e.count}:{e.phase}")
    return "\n".join(lines) + "\n"


def dump(tracer: Tracer, path: str | Path, with_config: bool = False) -> None:
    """Write the ``.prv`` file; with ``with_config=True`` also write the
    ``.pcf`` / ``.row`` companions next to it."""
    path = Path(path)
    path.write_text(dumps(tracer))
    if with_config:
        path.with_suffix(".pcf").write_text(dumps_pcf(tracer))
        path.with_suffix(".row").write_text(dumps_row())


def loads(text: str) -> Tracer:
    """Parse a trace back into a :class:`Tracer`."""
    tracer = Tracer()
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith(HEADER_PREFIX):
        raise ValueError("not a repro Paraver trace (bad header)")
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(":")
        if parts[0] == STATE_RECORD:
            if len(parts) != 9:
                raise ValueError(f"malformed state record: {line!r}")
            _, _, _, _, t0, t1, phase, kind, label = parts
            tracer.blocks.append(BlockEvent(
                phase=int(phase), label=unescape_field(label),
                kind=unescape_field(kind),
                t_start=float(t0), cycles=float(t1) - float(t0)))
        elif parts[0] == EVENT_RECORD:
            if len(parts) != 9:
                raise ValueError(f"malformed event record: {line!r}")
            _, _, _, _, t, opcode, vl, count, phase = parts
            tracer.vector_instrs.append(VectorInstrEvent(
                phase=int(phase), opcode=unescape_field(opcode), vl=int(vl),
                count=int(count), t=float(t)))
        else:
            raise ValueError(f"unknown record type {parts[0]!r}")
    return tracer


def load(path: str | Path) -> Tracer:
    return loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# .pcf / .row companions
# ---------------------------------------------------------------------------


def dumps_pcf(tracer: Tracer) -> str:
    """The semantic config: phase state names + vector-event values."""
    from repro.cfd.phases import PHASE_NAMES
    from repro.cfd.solver_phases import SOLVER_PHASE_NAMES

    names = {**PHASE_NAMES, **SOLVER_PHASE_NAMES}
    lines = [
        "DEFAULT_OPTIONS", "", "LEVEL               THREAD",
        "UNITS               CYCLES", "", "STATES",
        "0    Idle",
    ]
    for pid in sorted({b.phase for b in tracer.blocks} | set(names)):
        name = names.get(pid, f"phase {pid}")
        lines.append(f"{pid}    phase {pid}: {name}")
    opcodes = sorted({e.opcode for e in tracer.vector_instrs})
    lines += ["", "EVENT_TYPE",
              f"0    {VECTOR_EVENT_TYPE}    Vector instruction (opcode)"]
    if opcodes:
        lines.append("VALUES")
        for i, opcode in enumerate(opcodes, start=1):
            lines.append(f"{i}      {opcode}")
    return "\n".join(lines) + "\n"


def dumps_row() -> str:
    """Row labels for the single simulated application/task/thread."""
    return ("LEVEL CPU SIZE 1\n"
            "CPU 1\n\n"
            "LEVEL NODE SIZE 1\n"
            "simulated-machine\n\n"
            "LEVEL THREAD SIZE 1\n"
            "THREAD 1.1.1\n")
