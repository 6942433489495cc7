"""Loop-nest intermediate representation.

The mini-app's eight phases are expressed in this IR twice over: once to
*execute* (the reference interpreter, used as a semantics oracle in the
tests) and once to *compile* (the auto-vectorizer + code generator that
produce timed machine programs).  The IR deliberately models the aspects
of the Fortran source that drive the paper's story:

* loop extents carry a *kind*: a compile-time constant, a compile-time-
  known parameter, or a **runtime dummy argument** re-loaded from memory
  at every iteration -- the phase-2 blocker that the VEC2 transformation
  removes by turning ``VECTOR_DIM`` into a constant;
* array references use Fortran (column-major) layout with affine index
  expressions plus *indirect* (gather/scatter) indices through integer
  arrays, so the vectorizer can distinguish unit-stride, strided and
  indexed accesses;
* ``If`` nodes model data-dependent control flow (the phase-1 "WORK A"
  and the phase-8 valid-element check), which this compiler -- like the
  paper's -- cannot vectorize.

Everything is a plain frozen dataclass; kernels are built per
VECTOR_SIZE, mirroring Alya where VECTOR_SIZE is a compile-time
configurable parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Array:
    """A named array with a concrete shape.

    ``scope`` distinguishes persistent mesh-level data ("global") from the
    chunk-local working arrays of the mini-app ("local"); the memory
    layout engine uses it to place globals once and reuse local buffers
    across chunks, as the Fortran code does.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str = "f8"  # 'f8' or 'i8'
    scope: str = "local"  # 'local' | 'global'

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"array {self.name!r} has non-positive dims {self.shape}")
        if self.dtype not in ("f8", "i8"):
            raise ValueError(f"array {self.name!r}: unsupported dtype {self.dtype}")
        if self.scope not in ("local", "global"):
            raise ValueError(f"array {self.name!r}: unsupported scope {self.scope}")

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def itemsize(self) -> int:
        return 8

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    @property
    def strides_elems(self) -> tuple[int, ...]:
        """Column-major (Fortran) strides in elements."""
        strides = []
        acc = 1
        for d in self.shape:
            strides.append(acc)
            acc *= d
        return tuple(strides)


# ---------------------------------------------------------------------------
# Index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """``const + sum(coef * loop_var)`` over zero-based loop variables."""

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    def __post_init__(self) -> None:
        names = [v for v, _ in self.terms]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate loop var in affine terms {self.terms}")

    def coef(self, var: str) -> int:
        for v, c in self.terms:
            if v == var:
                return c
        return 0

    def vars(self) -> set[str]:
        return {v for v, _ in self.terms}


@dataclass(frozen=True)
class Indirect:
    """An index read from an integer array: ``scale * arr[idx...] + offset``.

    The canonical use is the mesh connectivity gather:
    ``coord(lnods(ivect, inode), idime)`` -- dimension 0 of ``coord`` is
    indexed by ``Indirect(lnods, (ivect, inode))``.
    """

    array: Array
    idx: tuple["IndexExpr", ...]
    scale: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.array.dtype != "i8":
            raise ValueError(f"indirect index array {self.array.name!r} must be integer")
        if len(self.idx) != len(self.array.shape):
            raise ValueError(
                f"indirect through {self.array.name!r}: {len(self.idx)} indices "
                f"for rank {len(self.array.shape)}"
            )

    def vars(self) -> set[str]:
        out: set[str] = set()
        for e in self.idx:
            out |= e.vars()
        return out


IndexExpr = Union[Affine, Indirect]


def var(name: str, coef: int = 1) -> Affine:
    """Shorthand: an affine index that is just ``coef * name``."""
    return Affine(((name, coef),))


def const_idx(value: int) -> Affine:
    """Shorthand: a constant index."""
    return Affine((), value)


@dataclass(frozen=True)
class Ref:
    """A (possibly indirect) reference into an array, one index per dim."""

    array: Array
    idx: tuple[IndexExpr, ...]

    def __post_init__(self) -> None:
        if len(self.idx) != len(self.array.shape):
            raise ValueError(
                f"ref to {self.array.name!r}: {len(self.idx)} indices for rank "
                f"{len(self.array.shape)}"
            )

    def vars(self) -> set[str]:
        out: set[str] = set()
        for e in self.idx:
            out |= e.vars()
        return out

    def has_indirect(self) -> bool:
        return any(isinstance(e, Indirect) for e in self.idx)

    def stride_along(self, var_name: str) -> Optional[int]:
        """Element stride of this ref along *var_name*.

        Returns ``None`` when the dependence is indirect (gather/scatter)
        or otherwise non-affine in *var_name*; returns 0 when the ref does
        not depend on it.
        """
        stride = 0
        for dim_stride, e in zip(self.array.strides_elems, self.idx):
            if isinstance(e, Indirect):
                if var_name in e.vars():
                    return None
                continue
            c = e.coef(var_name)
            stride += dim_stride * c
        return stride


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for value expressions (all subclasses are frozen)."""

    def vars(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def vars(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class Param(Expr):
    """A loop-invariant scalar runtime parameter (viscosity, dt, ...)."""

    name: str

    def vars(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class Load(Expr):
    ref: Ref

    def vars(self) -> set[str]:
        return self.ref.vars()


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # add | sub | mul | div | min | max
    lhs: Expr
    rhs: Expr

    _OPS = frozenset({"add", "sub", "mul", "div", "min", "max"})

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown binop {self.op!r}")

    def vars(self) -> set[str]:
        return self.lhs.vars() | self.rhs.vars()


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg | abs | sqrt
    x: Expr

    _OPS = frozenset({"neg", "abs", "sqrt"})

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def vars(self) -> set[str]:
        return self.x.vars()


def add(a: Expr, b: Expr) -> BinOp:
    return BinOp("add", a, b)


def sub(a: Expr, b: Expr) -> BinOp:
    return BinOp("sub", a, b)


def mul(a: Expr, b: Expr) -> BinOp:
    return BinOp("mul", a, b)


def div(a: Expr, b: Expr) -> BinOp:
    return BinOp("div", a, b)


def sqrt(a: Expr) -> Unary:
    return Unary("sqrt", a)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extent:
    """A loop trip count and how the compiler sees it.

    kind:
      * ``const``          -- literal constant (e.g. ``pnode = 8``)
      * ``param``          -- compile-time-known named parameter
                              (VECTOR_SIZE after the VEC2 refactor)
      * ``runtime_dummy``  -- a dummy argument whose value is re-fetched
                              from memory every iteration; the vectorizer
                              must refuse (the original phase-2 situation)
    """

    value: int
    kind: str = "const"
    name: Optional[str] = None

    _KINDS = frozenset({"const", "param", "runtime_dummy"})

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown extent kind {self.kind!r}")
        if self.value <= 0:
            raise ValueError("extent must be positive")

    @property
    def compile_time_known(self) -> bool:
        return self.kind in ("const", "param")


class Stmt:
    """Base class for statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    """``ref = expr`` or, with ``accumulate``, ``ref = ref + expr``."""

    ref: Ref
    expr: Expr
    accumulate: bool = False


@dataclass(frozen=True)
class Cond:
    op: str  # lt | le | gt | ge | eq | ne
    lhs: Expr
    rhs: Expr

    _OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown comparison {self.op!r}")

    def vars(self) -> set[str]:
        return self.lhs.vars() | self.rhs.vars()


@dataclass(frozen=True)
class If(Stmt):
    """Data-dependent guard.  ``est_taken`` is the static cost-model
    estimate of how often the branch is taken (the timing path multiplies
    the body cost by it; the interpreter evaluates the condition for
    real)."""

    cond: Cond
    body: tuple[Stmt, ...]
    est_taken: float = 1.0


@dataclass(frozen=True)
class Loop(Stmt):
    var: str
    extent: Extent
    body: tuple[Stmt, ...]
    #: set by the vectorizer.
    vectorized: bool = False

    def with_body(self, body: tuple[Stmt, ...]) -> "Loop":
        return replace(self, body=body)


@dataclass(frozen=True)
class Kernel:
    """One mini-app phase: a named list of top-level statements."""

    name: str
    phase: int
    body: tuple[Stmt, ...]
    #: default values for Param expressions.
    params: tuple[tuple[str, float], ...] = ()

    def param_dict(self) -> dict[str, float]:
        return dict(self.params)

    def arrays(self) -> dict[str, Array]:
        """All arrays referenced anywhere in the kernel, by name."""
        found: dict[str, Array] = {}

        def visit_ref(ref: Ref) -> None:
            register(ref.array)
            for e in ref.idx:
                visit_index(e)

        def visit_index(e: IndexExpr) -> None:
            if isinstance(e, Indirect):
                register(e.array)
                for sub_e in e.idx:
                    visit_index(sub_e)

        def register(arr: Array) -> None:
            prev = found.get(arr.name)
            if prev is not None and prev != arr:
                raise ValueError(f"conflicting definitions of array {arr.name!r}")
            found[arr.name] = arr

        def visit_expr(e: Expr) -> None:
            if isinstance(e, Load):
                visit_ref(e.ref)
            elif isinstance(e, BinOp):
                visit_expr(e.lhs)
                visit_expr(e.rhs)
            elif isinstance(e, Unary):
                visit_expr(e.x)

        def visit_stmt(s: Stmt) -> None:
            if isinstance(s, Assign):
                visit_ref(s.ref)
                visit_expr(s.expr)
            elif isinstance(s, Loop):
                for b in s.body:
                    visit_stmt(b)
            elif isinstance(s, If):
                visit_expr(s.cond.lhs)
                visit_expr(s.cond.rhs)
                for b in s.body:
                    visit_stmt(b)

        for s in self.body:
            visit_stmt(s)
        return found


def walk_loops(stmts: tuple[Stmt, ...]) -> Iterator[Loop]:
    """Yield every Loop in *stmts*, depth-first, outermost first."""
    for s in stmts:
        if isinstance(s, Loop):
            yield s
            yield from walk_loops(s.body)
        elif isinstance(s, If):
            yield from walk_loops(s.body)
