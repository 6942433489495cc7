"""Functional vector-ISA emulator (the Vehave analogue).

The paper's software development vehicle includes Vehave, an emulator
that executes RVV vector instructions on machines without a vector unit
and records what ran (§2.1.2).  This module is that tool for the
simulated ISA: a register-level machine that *functionally executes*
vector programs -- vector register file, scalar registers, flat memory,
and the RVV 0.7.1-style ``vsetvl`` contract:

    granted_vl = min(requested_avl, vl_max)

which is the vector-length-agnostic (VLA) property the paper leans on
for portability: the same binary runs on any vector length.  The test
suite proves it the strong way -- a strip-mined program produces
bit-identical memory on a 256-element machine and an 8-element machine.

Instructions are simple tuples assembled with the helpers below; every
executed vector instruction is recorded with its granted vector length,
exactly the (opcode, vl) stream Vehave traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from repro.isa.instructions import OPCODES

#: number of architectural vector registers (RVV: v0..v31).
NUM_VREGS = 32

Operand = Union[int, float, str]


@dataclass(frozen=True)
class Instr:
    """One assembled instruction.

    Fields are opcode-dependent; see the assembler helpers.  Scalar
    register operands are named strings (``"a0"``), vector registers are
    integers 0..31.
    """

    opcode: str
    dst: Optional[Operand] = None
    srcs: tuple[Operand, ...] = ()

    def __post_init__(self) -> None:
        if self.opcode not in OPCODES and self.opcode not in ("li",):
            raise ValueError(f"unknown opcode {self.opcode!r}")


# -- assembler helpers --------------------------------------------------------


def li(reg: str, value: float) -> Instr:
    """Load immediate into a scalar register."""
    return Instr("li", dst=reg, srcs=(value,))


def vsetvl(rd: str, avl: Operand) -> Instr:
    """rd = granted vl for requested application vector length *avl*."""
    return Instr("vsetvl", dst=rd, srcs=(avl,))


def vle(vd: int, base: Operand) -> Instr:
    return Instr("vle", dst=vd, srcs=(base,))


def vse(vs: int, base: Operand) -> Instr:
    return Instr("vse", dst=None, srcs=(vs, base))


def vlse(vd: int, base: Operand, stride: Operand) -> Instr:
    return Instr("vlse", dst=vd, srcs=(base, stride))


def vsse(vs: int, base: Operand, stride: Operand) -> Instr:
    return Instr("vsse", dst=None, srcs=(vs, base, stride))


def vlxe(vd: int, base: Operand, vidx: int) -> Instr:
    return Instr("vlxe", dst=vd, srcs=(base, vidx))


def vsxe(vs: int, base: Operand, vidx: int) -> Instr:
    return Instr("vsxe", dst=None, srcs=(vs, base, vidx))


def vop(opcode: str, vd: int, *srcs: Operand) -> Instr:
    """Arithmetic / control-lane instruction ('.vv' or '.vf' forms:
    integer operands are vector registers, strings are scalar regs)."""
    return Instr(opcode, dst=vd, srcs=tuple(srcs))


# -- the machine ---------------------------------------------------------------


@dataclass
class ExecutedRecord:
    """What Vehave logs: one executed vector instruction + granted vl."""

    opcode: str
    vl: int


class VectorEmulator:
    """Functional execution of vector programs (element indices address
    the flat double-precision memory)."""

    def __init__(self, vl_max: int, mem_size: int = 4096):
        from repro.obs.tracer import active as _obs_active

        if vl_max <= 0:
            raise ValueError("vl_max must be positive")
        self.vl_max = vl_max
        self.mem = np.zeros(mem_size)
        self.vregs = np.zeros((NUM_VREGS, vl_max))
        self.sregs: dict[str, float] = {}
        self.vl = 0
        self.trace: list[ExecutedRecord] = []
        #: observability hook: every executed instruction is streamed to
        #: the ambient tracer with its opcode, granted vl and lane
        #: occupancy -- the Vehave-grade per-instruction view.  ``None``
        #: (no ambient tracer) keeps the step loop entirely free.
        self.tracer = _obs_active()

    # -- register access ---------------------------------------------------

    def sreg(self, name: str) -> float:
        try:
            return self.sregs[name]
        except KeyError:
            raise KeyError(f"scalar register {name!r} not initialized") from None

    def _value(self, op: Operand) -> float:
        return self.sreg(op) if isinstance(op, str) else float(op)

    def _vec(self, op: Operand) -> np.ndarray:
        if not isinstance(op, (int, np.integer)):
            raise TypeError(f"expected a vector register, got {op!r}")
        if not 0 <= op < NUM_VREGS:
            raise ValueError(f"vector register v{op} out of range")
        return self.vregs[op]

    def _operand(self, op: Operand) -> np.ndarray:
        """A source operand: vector register slice or scalar broadcast."""
        if isinstance(op, str) or isinstance(op, float):
            return np.full(self.vl, self._value(op))
        return self._vec(op)[: self.vl]

    def _addr(self, base: Operand, offsets: np.ndarray) -> np.ndarray:
        addrs = (int(self._value(base)) + offsets).astype(np.int64)
        if addrs.size and (addrs.min() < 0 or addrs.max() >= self.mem.size):
            raise IndexError("vector memory access out of bounds")
        return addrs

    # -- execution ------------------------------------------------------------

    def execute(self, program: Iterable[Instr]) -> None:
        for instr in program:
            self.step(instr)

    def step(self, instr: Instr) -> None:
        op = instr.opcode
        if op == "li":
            self.sregs[instr.dst] = float(instr.srcs[0])
            return
        if op == "vsetvl":
            requested = int(self._value(instr.srcs[0]))
            self.vl = max(0, min(requested, self.vl_max))  # the VLA contract
            if instr.dst is not None:
                self.sregs[instr.dst] = float(self.vl)
            self.trace.append(ExecutedRecord(op, self.vl))
            if self.tracer is not None:
                self.tracer.instr(op, self.vl, self.vl_max)
            return

        vl = self.vl
        if op == "vle":
            addrs = self._addr(instr.srcs[0], np.arange(vl))
            self._vec(instr.dst)[:vl] = self.mem[addrs]
        elif op == "vlse":
            stride = int(self._value(instr.srcs[1]))
            addrs = self._addr(instr.srcs[0], stride * np.arange(vl))
            self._vec(instr.dst)[:vl] = self.mem[addrs]
        elif op == "vlxe":
            idx = self._vec(instr.srcs[1])[:vl].astype(np.int64)
            addrs = self._addr(instr.srcs[0], idx)
            self._vec(instr.dst)[:vl] = self.mem[addrs]
        elif op == "vse":
            addrs = self._addr(instr.srcs[1], np.arange(vl))
            self.mem[addrs] = self._vec(instr.srcs[0])[:vl]
        elif op == "vsse":
            stride = int(self._value(instr.srcs[2]))
            addrs = self._addr(instr.srcs[1], stride * np.arange(vl))
            self.mem[addrs] = self._vec(instr.srcs[0])[:vl]
        elif op == "vsxe":
            idx = self._vec(instr.srcs[2])[:vl].astype(np.int64)
            addrs = self._addr(instr.srcs[1], idx)
            # RVV scatters with repeated indices write in element order.
            np.put(self.mem, addrs, self._vec(instr.srcs[0])[:vl])
        elif op in ("vfadd", "vfsub", "vfmul", "vfdiv", "vfmin", "vfmax"):
            a = self._operand(instr.srcs[0])
            b = self._operand(instr.srcs[1])
            fn = {"vfadd": np.add, "vfsub": np.subtract, "vfmul": np.multiply,
                  "vfdiv": np.divide, "vfmin": np.minimum,
                  "vfmax": np.maximum}[op]
            self._vec(instr.dst)[:vl] = fn(a, b)
        elif op == "vfmadd":
            # vd[i] = a[i]*b[i] + c[i]
            a, b, c = (self._operand(s) for s in instr.srcs)
            self._vec(instr.dst)[:vl] = a * b + c
        elif op == "vfsqrt":
            self._vec(instr.dst)[:vl] = np.sqrt(self._operand(instr.srcs[0]))
        elif op == "vfneg":
            self._vec(instr.dst)[:vl] = -self._operand(instr.srcs[0])
        elif op == "vfabs":
            self._vec(instr.dst)[:vl] = np.abs(self._operand(instr.srcs[0]))
        elif op == "vmv":
            self._vec(instr.dst)[:vl] = self._vec(instr.srcs[0])[:vl]
        elif op == "vfmv_v_f":
            self._vec(instr.dst)[:vl] = self._value(instr.srcs[0])
        elif op == "vslidedown":
            offset = int(self._value(instr.srcs[1]))
            src = self._vec(instr.srcs[0])
            shifted = np.zeros(vl)
            take = max(0, vl - offset)
            if take:
                shifted[:take] = src[offset:offset + take]
            self._vec(instr.dst)[:vl] = shifted
        elif op == "vext":
            # element extract/shift used for index scaling; modelled as
            # copy (byte/element scaling is implicit in this emulator).
            self._vec(instr.dst)[:vl] = self._vec(instr.srcs[0])[:vl]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled opcode {op!r}")
        # tail elements (>= vl) stay undisturbed, per RVV semantics.
        self.trace.append(ExecutedRecord(op, vl))
        if self.tracer is not None:
            self.tracer.instr(op, vl, self.vl_max)

    # -- validation ------------------------------------------------------------

    def validate_state(self) -> list[str]:
        """Architectural-state sanity check, returned as a list of
        violations (empty when healthy).

        This is the detection side of the fault-injection harness
        (:mod:`repro.faults`): a soft error that flips a mantissa bit to
        produce Inf, poisons a lane with NaN, or corrupts the granted
        vector length must be *reported* here rather than laundered into
        downstream counters.
        """
        out: list[str] = []
        if not 0 <= self.vl <= self.vl_max:
            out.append(f"vl={self.vl} outside [0, vl_max={self.vl_max}]")
        bad_lanes = int(np.count_nonzero(~np.isfinite(self.vregs)))
        if bad_lanes:
            out.append(f"{bad_lanes} non-finite vector register lane(s)")
        bad_mem = int(np.count_nonzero(~np.isfinite(self.mem)))
        if bad_mem:
            out.append(f"{bad_mem} non-finite memory word(s)")
        over = sum(1 for r in self.trace if not 0 <= r.vl <= self.vl_max)
        if over:
            out.append(
                f"{over} trace record(s) with vl outside [0, {self.vl_max}]")
        return out
