"""Hardware-counter records.

These mirror what the paper collects through PAPI/Extrae on the real
prototype and through the Vehave emulator: total and vector cycles
(``c_t``, ``c_v``), total and vector instruction counts (``i_t``,
``i_v``), L1/L2 data-cache misses, and the vector-length histogram from
which the average vector length (AVL) is computed.

One :class:`PhaseCounters` exists per mini-app phase (the paper's 8
phases); :class:`RunCounters` is the per-execution collection.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class PhaseCounters:
    """Counters for one instrumented phase of one run."""

    phase: int
    cycles_total: float = 0.0
    #: cycles spent executing vector instructions (including their memory
    #: stalls), the paper's ``c_v``.
    cycles_vector: float = 0.0
    instr_scalar: float = 0.0
    instr_vconfig: float = 0.0
    instr_vector_arith: float = 0.0
    instr_vector_mem: float = 0.0
    instr_vector_ctrl: float = 0.0
    #: scalar memory instructions (subset of ``instr_scalar``).
    instr_scalar_mem: float = 0.0
    #: sum of vl over all vector instructions (AVL numerator).
    vl_sum: float = 0.0
    #: histogram {vl: dynamic instruction count}.
    vl_hist: Counter = field(default_factory=Counter)
    flops: float = 0.0
    l1_misses: int = 0
    l2_misses: int = 0
    #: element-level data accesses (scalar accesses + vector elements).
    mem_element_accesses: float = 0.0

    # ------------------------------------------------------------------
    # Derived quantities (the §2.2 notation).
    # ------------------------------------------------------------------

    @property
    def i_v(self) -> float:
        """Vector instructions (arith + memory + control lane)."""
        return self.instr_vector_arith + self.instr_vector_mem + self.instr_vector_ctrl

    @property
    def i_t(self) -> float:
        """Total instructions."""
        return self.instr_scalar + self.instr_vconfig + self.i_v

    @property
    def c_t(self) -> float:
        return self.cycles_total

    @property
    def c_v(self) -> float:
        return self.cycles_vector

    @property
    def instr_mem(self) -> float:
        """All memory instructions, scalar or vector."""
        return self.instr_scalar_mem + self.instr_vector_mem

    def merge(self, other: "PhaseCounters") -> None:
        """Accumulate *other* into this record (phases must match)."""
        if other.phase != self.phase:
            raise ValueError(f"phase mismatch: {self.phase} vs {other.phase}")
        self.cycles_total += other.cycles_total
        self.cycles_vector += other.cycles_vector
        self.instr_scalar += other.instr_scalar
        self.instr_vconfig += other.instr_vconfig
        self.instr_vector_arith += other.instr_vector_arith
        self.instr_vector_mem += other.instr_vector_mem
        self.instr_vector_ctrl += other.instr_vector_ctrl
        self.instr_scalar_mem += other.instr_scalar_mem
        self.vl_sum += other.vl_sum
        self.vl_hist.update(other.vl_hist)
        self.flops += other.flops
        self.l1_misses += other.l1_misses
        self.l2_misses += other.l2_misses
        self.mem_element_accesses += other.mem_element_accesses


@dataclass
class RunCounters:
    """All phase counters of one mini-app execution."""

    phases: dict[int, PhaseCounters] = field(default_factory=dict)

    def phase(self, phase_id: int) -> PhaseCounters:
        if phase_id not in self.phases:
            self.phases[phase_id] = PhaseCounters(phase=phase_id)
        return self.phases[phase_id]

    def phase_ids(self) -> list[int]:
        return sorted(self.phases)

    @property
    def total_cycles(self) -> float:
        return sum(p.cycles_total for p in self.phases.values())

    @property
    def total_instructions(self) -> float:
        return sum(p.i_t for p in self.phases.values())

    @property
    def total_flops(self) -> float:
        return sum(p.flops for p in self.phases.values())

    def aggregate(self) -> PhaseCounters:
        """Merge every phase into one whole-run record (phase id 0)."""
        agg = PhaseCounters(phase=0)
        for p in self.phases.values():
            clone = PhaseCounters(**{**p.__dict__, "phase": 0, "vl_hist": Counter(p.vl_hist)})
            agg.merge(clone)
        return agg

    def cycle_fractions(self) -> dict[int, float]:
        """Fraction of total cycles spent in each phase (Table 3 shape)."""
        total = self.total_cycles
        if total == 0:
            return {pid: 0.0 for pid in self.phase_ids()}
        return {pid: self.phases[pid].cycles_total / total for pid in self.phase_ids()}


# ---------------------------------------------------------------------------
# JSON serialization (the executor's disk-cache and worker wire format).
# ---------------------------------------------------------------------------

#: the scalar fields persisted per phase, in canonical order.
COUNTER_FIELDS: tuple[str, ...] = (
    "cycles_total", "cycles_vector", "instr_scalar", "instr_vconfig",
    "instr_vector_arith", "instr_vector_mem", "instr_vector_ctrl",
    "instr_scalar_mem", "vl_sum", "flops", "l1_misses", "l2_misses",
    "mem_element_accesses",
)


def counters_to_dict(run: RunCounters) -> dict:
    """Plain-data (JSON/pickle-safe) form of a :class:`RunCounters`."""
    out = {}
    for pid, pc in run.phases.items():
        rec = {f: getattr(pc, f) for f in COUNTER_FIELDS}
        rec["vl_hist"] = {str(k): v for k, v in pc.vl_hist.items()}
        out[str(pid)] = rec
    return out


def _finite_number(field_name: str, value) -> float | int:
    """Accept only finite real numbers: a corrupted-but-parseable payload
    (NaN/Inf smuggled through JSON via ``Infinity`` literals, or a bit
    flip that decoded to ``inf``) must never round-trip into artifacts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{field_name}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{field_name}: non-finite value {value!r}")
    return value


def counters_from_dict(data: dict) -> RunCounters:
    """Inverse of :func:`counters_to_dict`.

    Keys starting with ``__`` are reserved for payload metadata (cache
    digest, validation verdict) and skipped.  Non-finite counter values
    raise ``ValueError`` so damaged payloads are rejected at the parse
    boundary instead of flowing into tables and figures.
    """
    run = RunCounters()
    for pid_s, rec in data.items():
        if pid_s.startswith("__"):
            continue
        pc = PhaseCounters(phase=int(pid_s))
        for f in COUNTER_FIELDS:
            setattr(pc, f, _finite_number(f, rec[f]))
        pc.vl_hist = Counter(
            {int(k): _finite_number(f"vl_hist[{k}]", v)
             for k, v in rec["vl_hist"].items()})
        run.phases[int(pid_s)] = pc
    return run


def counters_to_json(run: RunCounters) -> str:
    """Canonical JSON text: key-sorted so identical counters always
    serialize to identical bytes, whichever process produced them."""
    return json.dumps(counters_to_dict(run), sort_keys=True)
