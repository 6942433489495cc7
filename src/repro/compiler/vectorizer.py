"""The auto-vectorizer: legality + cost model + remarks.

Mirrors the workflow the paper follows with the EPI LLVM compiler: each
innermost loop is checked for legality (:mod:`repro.compiler.analysis`),
then a profitability estimate decides whether vector code is emitted.
Every decision is recorded as a *vectorization remark*, the same artifact
("LLVM vectorization remarks") the authors inspect to understand why
phase 2 was left scalar.

Cost-model behaviour reproduced from the paper:

* arithmetic loops must clear a profitability threshold, so at
  VECTOR_SIZE = 16 only the FP-dense phase-7 loops (and a couple of
  phase-3/6 loops) vectorize, while from VECTOR_SIZE = 64 on everything
  legal does (Table 4);
* pure data-movement loops bypass the threshold entirely (see
  ``CompilerFlags.copy_loops_bypass_cost_model``) -- this is what makes
  the compiler happily vectorize the 4-element phase-2 copy loops after
  VEC2, producing the AVL = 4 slowdown;
* loops whose only blocker is control flow but which contain vectorizable
  copies are *multi-versioned*: vector code exists in the binary but the
  runtime guard always picks the scalar version -- the phase-1 behaviour
  the authors diagnosed with the Vehave emulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compiler.analysis import Blocker, body_is_pure_copy, check_loop, refs_in_expr
from repro.compiler.flags import CompilerFlags
from repro.compiler.ir import (
    Assign,
    BinOp,
    Expr,
    If,
    Kernel,
    Load,
    Loop,
    Stmt,
    Unary,
)


@dataclass(frozen=True)
class BodyCost:
    """Per-iteration operation counts of a loop body."""

    unit_loads: int = 0
    strided_loads: int = 0
    indexed_loads: int = 0
    unit_stores: int = 0
    strided_stores: int = 0
    indexed_stores: int = 0
    fp_ops: int = 0        # after FMA contraction
    long_ops: int = 0      # div / sqrt


@dataclass(frozen=True)
class VecRemark:
    """One vectorization remark (what ``-Rpass=loop-vectorize`` prints)."""

    kernel: str
    phase: int
    loop_var: str
    status: str  # vectorized | blocked | unprofitable | multi_versioned | disabled
    reason: str = ""
    est_speedup: float = 0.0
    blockers: tuple[Blocker, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        head = f"{self.kernel}/phase{self.phase} loop '{self.loop_var}': {self.status}"
        if self.reason:
            head += f" ({self.reason})"
        return head


@dataclass(frozen=True)
class OpMix:
    """FP-operation mix of an expression after FMA contraction."""

    fma: int = 0     # contracted multiply-adds (2 FLOPs each)
    plain: int = 0   # standalone add/sub/mul/min/max/neg/abs (1 FLOP)
    long: int = 0    # div / sqrt

    @property
    def fp_ops(self) -> int:
        return self.fma + self.plain

    @property
    def flops(self) -> int:
        return 2 * self.fma + self.plain + self.long


def expr_op_mix(expr: Expr, flags: CompilerFlags) -> OpMix:
    """Count the FP operations of *expr*, contracting mul+add into FMA
    when ``-ffp-contract=fast`` is in effect."""
    fma = plain = long_ops = 0

    def walk(e: Expr) -> None:
        nonlocal fma, plain, long_ops
        if isinstance(e, BinOp):
            if e.op == "div":
                long_ops += 1
                walk(e.lhs)
                walk(e.rhs)
                return
            if (
                flags.ffp_contract_fast
                and e.op in ("add", "sub")
                and isinstance(e.lhs, BinOp)
                and e.lhs.op == "mul"
            ):
                # a*b + c contracts to one FMA.
                fma += 1
                walk(e.lhs.lhs)
                walk(e.lhs.rhs)
                walk(e.rhs)
                return
            if (
                flags.ffp_contract_fast
                and e.op == "add"
                and isinstance(e.rhs, BinOp)
                and e.rhs.op == "mul"
            ):
                fma += 1
                walk(e.lhs)
                walk(e.rhs.lhs)
                walk(e.rhs.rhs)
                return
            plain += 1
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, Unary):
            if e.op == "sqrt":
                long_ops += 1
            elif e.op in ("neg", "abs"):
                plain += 1
            walk(e.x)

    walk(expr)
    return OpMix(fma=fma, plain=plain, long=long_ops)


def count_expr_ops(expr: Expr, flags: CompilerFlags) -> tuple[int, int]:
    """Return (fp_ops, long_ops) of *expr* after FMA contraction."""
    mix = expr_op_mix(expr, flags)
    return mix.fp_ops, mix.long


def body_cost(loop: Loop, flags: CompilerFlags) -> BodyCost:
    """Operation counts per iteration of *loop* along its own variable."""
    unit_l = strided_l = indexed_l = 0
    unit_s = strided_s = indexed_s = 0
    fp = long_ops = 0
    for stmt in loop.body:
        if not isinstance(stmt, Assign):
            continue
        f, lo = count_expr_ops(stmt.expr, flags)
        fp += f
        long_ops += lo
        if stmt.accumulate:
            fp += 1  # the read-modify-write add
        for lref in refs_in_expr(stmt.expr):
            s = lref.stride_along(loop.var)
            if s is None:
                indexed_l += 1
            elif s in (0, 1):
                unit_l += 1
            else:
                strided_l += 1
        if stmt.accumulate:
            # the target is also read.
            s = stmt.ref.stride_along(loop.var)
            if s is None:
                indexed_l += 1
            elif s in (0, 1):
                unit_l += 1
            else:
                strided_l += 1
        s = stmt.ref.stride_along(loop.var)
        if s is None:
            indexed_s += 1
        elif s in (0, 1):
            unit_s += 1
        else:
            strided_s += 1
    return BodyCost(
        unit_loads=unit_l, strided_loads=strided_l, indexed_loads=indexed_l,
        unit_stores=unit_s, strided_stores=strided_s, indexed_stores=indexed_s,
        fp_ops=fp, long_ops=long_ops,
    )


def estimate_speedup(loop: Loop, flags: CompilerFlags) -> float:
    """Cost-model estimate of vector/scalar speed-up for *loop*."""
    cost = body_cost(loop, flags)
    trip = loop.extent.value

    # Scalar estimate: address generation + access per memory op, FP ops
    # expose in-order FPU latency (3 cycles), long ops are expensive,
    # ~2 cycles loop control.  The relatively high scalar FP weight is
    # what makes FP-dense loops (phase 7) profitable even at trip 16.
    scalar_per_iter = (
        1.5 * (cost.unit_loads + cost.unit_stores)
        + 2.0 * (cost.strided_loads + cost.strided_stores)
        + 4.0 * (cost.indexed_loads + cost.indexed_stores)
        + 3.0 * cost.fp_ops
        + 3.0 * cost.long_ops
        + 2.0
    )
    scalar_total = scalar_per_iter * trip

    # Vector estimate, strip-mined by the assumed vector length.
    import math

    strips = max(1, math.ceil(trip / flags.assumed_vl))
    vl = trip / strips
    ovh = flags.assumed_issue_overhead
    per_strip = (
        (cost.unit_loads + cost.unit_stores) * (ovh + vl / flags.assumed_mem_rate)
        + (cost.strided_loads + cost.strided_stores) * (ovh + vl / 2.0)
        + (cost.indexed_loads + cost.indexed_stores)
        * (ovh + vl / flags.assumed_indexed_rate)
        + cost.fp_ops * (ovh + vl / flags.assumed_arith_rate)
        + cost.long_ops * (ovh + 4.0 * vl / flags.assumed_arith_rate)
        + 4.0  # vsetvl + strip control
    )
    vector_total = per_strip * strips + flags.assumed_loop_overhead
    if vector_total <= 0:
        return 0.0
    return scalar_total / vector_total


@dataclass
class VectorizationResult:
    kernel: Kernel
    remarks: list[VecRemark]


def vectorize_kernel(kernel: Kernel, flags: CompilerFlags) -> VectorizationResult:
    """Run the auto-vectorizer over *kernel*, returning the annotated
    kernel and the remark list."""
    remarks: list[VecRemark] = []

    def decide(loop: Loop, enclosing: tuple[Loop, ...]) -> Loop:
        if not flags.vectorize_enabled:
            remarks.append(VecRemark(
                kernel.name, kernel.phase, loop.var, "disabled",
                "auto-vectorization not enabled (-mepi/-O3 missing)",
            ))
            return loop
        blockers = tuple(check_loop(loop, enclosing, flags))
        if blockers:
            only_cf = all(b.code == "R2-control-flow" for b in blockers)
            has_copies = any(
                isinstance(s, Assign) and isinstance(s.expr, Load) and not s.accumulate
                for s in loop.body
            )
            if only_cf and has_copies:
                remarks.append(VecRemark(
                    kernel.name, kernel.phase, loop.var, "multi_versioned",
                    "vector code emitted for the straight-line part, but the "
                    "runtime guard always selects the scalar version because "
                    "the loop mixes non-vectorizable work",
                    blockers=blockers,
                ))
            else:
                remarks.append(VecRemark(
                    kernel.name, kernel.phase, loop.var, "blocked",
                    "; ".join(b.reason for b in blockers),
                    blockers=blockers,
                ))
            return loop
        if body_is_pure_copy(loop) and flags.copy_loops_bypass_cost_model:
            remarks.append(VecRemark(
                kernel.name, kernel.phase, loop.var, "vectorized",
                "data-movement loop (cost model bypassed)",
                est_speedup=estimate_speedup(loop, flags),
            ))
            return replace(loop, vectorized=True)
        speedup = estimate_speedup(loop, flags)
        threshold = (flags.small_trip_profit
                     if loop.extent.value < flags.small_trip_threshold
                     else flags.profit_threshold)
        if speedup >= threshold:
            remarks.append(VecRemark(
                kernel.name, kernel.phase, loop.var, "vectorized",
                f"estimated speed-up {speedup:.2f}x",
                est_speedup=speedup,
            ))
            return replace(loop, vectorized=True)
        remarks.append(VecRemark(
            kernel.name, kernel.phase, loop.var, "unprofitable",
            f"estimated speed-up {speedup:.2f}x below threshold "
            f"{threshold:.2f}",
            est_speedup=speedup,
        ))
        return loop

    def rewrite(stmts: tuple[Stmt, ...], enclosing: tuple[Loop, ...]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for s in stmts:
            if isinstance(s, Loop):
                has_inner = any(_contains_loop(b) for b in s.body)
                if has_inner:
                    new_body = rewrite(s.body, enclosing + (s,))
                    out.append(s.with_body(new_body))
                else:
                    out.append(decide(s, enclosing))
            elif isinstance(s, If):
                new_body = rewrite(s.body, enclosing)
                out.append(replace(s, body=new_body))
            else:
                out.append(s)
        return tuple(out)

    def _contains_loop(s: Stmt) -> bool:
        if isinstance(s, Loop):
            return True
        if isinstance(s, If):
            return any(_contains_loop(b) for b in s.body)
        return False

    new_body = rewrite(kernel.body, ())
    return VectorizationResult(replace(kernel, body=new_body), remarks)
