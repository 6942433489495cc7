"""Simulated vector ISA: instruction descriptors and the Figure-1 hierarchy."""

from repro.isa.instructions import (
    ARITH_OPCODES,
    LOAD_OPCODES,
    OPCODES,
    STORE_OPCODES,
    InstrClass,
    InstrSpec,
    MemPattern,
    ScalarOp,
    VectorKind,
    VSETVL,
)
from repro.isa.hierarchy import HierarchyCounts, classify
from repro.isa.emulator import Instr, VectorEmulator

__all__ = [
    "ARITH_OPCODES",
    "LOAD_OPCODES",
    "OPCODES",
    "STORE_OPCODES",
    "InstrClass",
    "InstrSpec",
    "MemPattern",
    "ScalarOp",
    "VectorKind",
    "VSETVL",
    "HierarchyCounts",
    "classify",
    "Instr",
    "VectorEmulator",
]
