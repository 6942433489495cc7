"""Whole-array NumPy execution of loop-nest kernels, byte-identical to
the interpreter.

The lowering turns each :class:`~repro.compiler.ir.Kernel` into a cached
*execution plan* and then evaluates statements over a broadcast **grid**
instead of one element at a time:

* every loop the legality analysis clears is joined to the grid as one
  trailing axis (``ivect`` chunk loops, strip-mined ``ivect_strip`` /
  ``ivect`` pairs, unrolled ``inode``/``idime`` nests, gauss loops
  without scratch reuse);
* a gather-free reference is a strided **view** of its array: each
  grid axis gets the byte stride of its var's affine coefficients (0 on
  an axis the reference does not read), laid out once per plan
  (:class:`View`), so a run binds only the sequential loop vars and the
  chunk base;
* ``Indirect`` gathers, and the references no view serves (masked
  stores, the fully sequential path, an index outside the array),
  evaluate integer index arrays over the grid
  (:func:`repro.compiler.program.eval_index`, shared with the machine
  model's address streams) and use fancy indexing;
* ``If`` guards become boolean masks ANDed down the statement tree;
* loops the analysis refuses (e.g. the gauss loops of phases 3/6/7,
  whose bodies reuse ``xjacm``/``gpaux`` scratch across iterations) stay
  ordinary Python loops around vectorized bodies.

**Why this is bit-exact, not merely close.**  Elementwise IEEE-754
double arithmetic is identical between Python floats and ``np.float64``
-- the only way a whole-array execution can diverge from the oracle is
by *reordering* floating-point accumulation.  So the plan never uses
axis reductions (``np.sum``'s pairwise summation would re-associate).
Grid axes are outermost-first, so a C-order ravel of the grid *is* loop
order, and every accumulate replays it per location:

* a **duplicate-free** (``unique``) store touches each location once,
  so a view store (``view[...] = vals`` / ``view += vals``) does what
  fancy indexing did.  A view reads and writes the very elements fancy
  indexing would, and only when it provably may: the data is the
  C-contiguous array the layout was made for, and every index lies in
  ``[0, size)`` (outside it fancy indexing raises ``IndexError`` or
  wraps a negative index, so the plan keeps it there);
* an **ordered fold** is an accumulate whose store reads only vars it
  resolves, so the axes it reads pin each location to one of their
  points and the additions to a location are the points of the axes it
  does not read, in C order.  Those axes become one leading axis, the
  target's current values its first row, and one ``np.add.accumulate``
  (strictly left to right) runs down it: per location, the same values
  added in the same order as the interpreter;
* every other accumulate lowers to ``np.add.at`` over indices flattened
  in loop order, which applies duplicate-index additions one at a time
  in exactly the interpreter's sequence.

The legality rules below refuse any loop whose vectorization could
reorder reads relative to writes or interleave statements on a shared
location; everything else is provably order-preserving.  No array is
both loaded and stored under a vectorized loop, so a view never aliases
the store it feeds.  The frozen fixture in
``tests/fixtures/backend_equivalence.json`` pins the result.

The rules rest on *resolution*: a store resolves a loop var when one of
its affine dims recovers that var from the location, so each location
belongs to one lane.  Two rules decide it (see :func:`_resolves`):

* **only vars that vary count** -- a loop var bound outside the loop
  being checked (or, for the duplicate-free accumulate test, off the
  vectorized stack) holds one value while the grid executes, so it is
  a constant at that instant, like the chunk base.  Order survives:
  take two writes to one location and the outermost loop whose var
  they differ in.  If it joined the grid, its check resolved its var
  with every outer var constant, so the two cannot share a location;
  so it is sequential, and runs them in its own order, as the
  interpreter does;
* **mixed radix** -- a dim whose varying terms, ordered by
  ``|coef|``, each exceed the summed span of the smaller ones is
  injective, so it resolves all of them together.  StripMine's
  ``S*ivect_strip + ivect`` (``0 <= ivect < S``) is the case that
  matters: strip-mined nests join the grid like the loop they split,
  a view's axis strides add up to the flat index's, and since the grid
  flattens outermost-first, folds and ``np.add.at`` still replay
  accumulations in the strip-major, element-minor loop order.

Known (documented) divergence: the interpreter raises Python's
``ZeroDivisionError`` / ``math`` domain errors where NumPy produces
``inf``/``nan`` under ``np.errstate`` suppression.  No shipped kernel
hits either on valid data; the golden checks would catch it if one did.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from repro.backends.base import register_backend
from repro.compiler.ir import (
    Affine,
    Assign,
    BinOp,
    Cond,
    Const,
    Expr,
    If,
    IndexExpr,
    Indirect,
    Kernel,
    Load,
    Loop,
    Param,
    Ref,
    Stmt,
    Unary,
)
from repro.compiler.program import KernelInstance, eval_index

_BINOPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    # NaN-propagating by construction; the interpreter pins the same
    # semantics (see repro.compiler.interpreter._nan_min/_nan_max).
    "min": np.minimum,
    "max": np.maximum,
}

_COMPARES = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}

_UNARY = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt}


# ---------------------------------------------------------------------------
# Execution plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class View:
    """Where one gather-free reference lies on the grid.

    ``shape``/``strides`` give each grid axis its extent and byte stride
    in the array (length 1 and stride 0 on an axis the reference does
    not read); ``offset`` is the byte offset of the grid origin from the
    dims whose index is constant.  Every dim that also reads sequential
    loop vars or index constants (the chunk base) is one
    ``(const, terms, lo, hi, stride)`` entry of ``dims``: its base index
    ``const + sum(coef * value)`` must lie in ``[lo, hi]`` for every
    grid point to stay inside ``[0, size)``.  ``array_shape`` and
    ``array_strides`` are the C-contiguous data the layout was made for.
    """

    shape: tuple[int, ...]
    strides: tuple[int, ...]
    offset: int
    dims: tuple[tuple[int, tuple[tuple[str, int], ...], int, int, int], ...]
    array_shape: tuple[int, ...]
    array_strides: tuple[int, ...]

    def at(self, data: np.ndarray, env: Mapping,
           consts: Mapping[str, int]) -> Optional[np.ndarray]:
        """The view of *data* at the current sequential vars, or None
        when it could behave differently from fancy indexing: data of
        another shape or not C-contiguous, an unbound var, or an index
        outside ``[0, size)`` (fancy indexing raises or wraps)."""
        if (data.shape != self.array_shape
                or data.strides != self.array_strides):
            return None
        offset = self.offset
        for const, terms, lo, hi, stride in self.dims:
            base = const
            for u, c in terms:
                value = env[u] if u in env else consts.get(u)
                if value is None:
                    return None
                base += c * value
            if not lo <= base <= hi:
                return None
            offset += base * stride
        return np.ndarray(self.shape, data.dtype, data, offset, self.strides)


def _view(ref: Ref, grid: Mapping[str, int]) -> Optional[View]:
    """The layout of gather-free *ref* over *grid* (its axes' vars to
    extents, outermost first); None for a gather, or when some dim's
    index leaves ``[0, size)`` at every instant."""
    if ref.has_indirect():
        return None
    array_strides = [ref.array.itemsize]
    for size in reversed(ref.array.shape[1:]):
        array_strides.insert(0, array_strides[0] * size)
    array_strides = tuple(array_strides)
    axis = {v: a for a, v in enumerate(grid)}
    shape, strides = [1] * len(grid), [0] * len(grid)
    offset, dims = 0, []
    for e, size, stride in zip(ref.idx, ref.array.shape, array_strides):
        # the grid terms move the index within [base + down, base + up]
        down = up = 0
        terms = []
        for u, c in e.terms:
            if not c:
                continue
            if u in grid:
                shape[axis[u]] = grid[u]
                strides[axis[u]] += c * stride
                span = c * (grid[u] - 1)
                down, up = down + min(0, span), up + max(0, span)
            else:
                terms.append((u, c))
        if terms:
            dims.append((e.const, tuple(terms), -down, size - 1 - up, stride))
        elif -down <= e.const <= size - 1 - up:
            offset += e.const * stride
        else:
            return None
    return View(tuple(shape), tuple(strides), offset, tuple(dims),
                ref.array.shape, array_strides)


def _load_views(exprs, grid: Mapping[str, int]) -> dict[int, View]:
    """Layouts of the gather-free loads in *exprs*, keyed by ``id()`` of
    each :class:`Load` node (the plan node keeps them alive)."""
    out: dict[int, View] = {}
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Load):
            view = _view(e.ref, grid)
            if view is not None:
                out[id(e)] = view
        elif isinstance(e, BinOp):
            stack += (e.lhs, e.rhs)
        elif isinstance(e, Unary):
            stack.append(e.x)
    return out


@dataclass(frozen=True)
class PlanAssign:
    stmt: Assign
    #: True when the store's index tuple is provably duplicate-free over
    #: the vectorized grid (every vectorized loop var is *resolved* by
    #: some affine dim): each location is written once.
    unique: bool
    #: the store's layout over the grid axes it reads, when it may write
    #: through it: an unmasked gather-free store that is ``unique`` or
    #: an ordered fold.
    view: Optional[View] = None
    #: an ordered fold's axis order: the grid axes the store does not
    #: read (outermost first), then the ones it does.  Empty otherwise.
    fold: tuple[int, ...] = ()
    #: layouts of the gather-free loads of the expression on the grid.
    loads: Mapping[int, View] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class PlanIf:
    stmt: If
    body: tuple["PlanNode", ...]
    #: layouts of the gather-free loads of the condition on the grid.
    loads: Mapping[int, View] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class PlanLoop:
    stmt: Loop
    #: the legality verdict: join this loop to the grid, or iterate it.
    vectorize: bool
    body: tuple["PlanNode", ...]


PlanNode = Union[PlanAssign, PlanIf, PlanLoop]

#: kernel -> plan cache.  Plans depend only on kernel structure, so one
#: plan serves every chunk/instance; weak keys let mutated throwaway
#: kernel lists (chaos drills) be collected.
_PLANS: "weakref.WeakKeyDictionary[Kernel, tuple[PlanNode, ...]]" = (
    weakref.WeakKeyDictionary())


@dataclass(frozen=True)
class _Write:
    """One Assign writing some array, with the extents of every loop var
    bound *inside* the candidate subtree (outer vars stay symbolic)."""

    stmt: Assign
    extents: Mapping[str, int]


def _resolves(ref: Ref, v: str, varying: Mapping[str, int]) -> bool:
    """True if some affine dim of *ref* pins down *v*, where *varying*
    maps the loop vars that vary at this instant to their extents.

    Two rules make a dim injective over its varying terms, so that the
    store location recovers every one of them:

    * **Only varying vars count.**  A loop var bound outside the
      candidate loop (or, for :attr:`PlanAssign.unique`, off the
      vectorized stack) holds one value while the grid executes, so it
      is a constant at that instant, just like a named index constant
      (the chunk base).
    * **Mixed radix.**  Ordered by ``|coef|``, each varying term's
      ``|coef|`` exceeds the summed spans ``|c| * (extent - 1)`` of the
      smaller ones (StripMine's ``S*ivect_strip + ivect`` with
      ``0 <= ivect < S``).  If two points differ, the largest term they
      differ in moves the dim by at least its ``|coef|``, more than the
      smaller terms can take back, so the dim resolves all its varying
      vars together.  A lone varying term is the trivial case.

    A resolved var is recoverable from the store location, so each
    location belongs to one lane; the module docstring shows why that
    preserves the interpreter's order."""
    for e in ref.idx:
        if not isinstance(e, Affine) or e.coef(v) == 0:
            continue
        terms = sorted((abs(c), abs(c) * (varying[u] - 1))
                       for u, c in e.terms if c and u in varying)
        spans = 0
        for c, span in terms:
            if c <= spans:
                break
            spans += span
        else:
            return True
    return False


def _dim_range(aff: Affine, extents: Mapping[str, int]
               ) -> tuple[int, int, frozenset]:
    """Value range of one affine dim over the bounded loop vars, plus
    the residue of symbolic terms (outer loop vars / index constants).
    Two dims are comparable only when their residues match -- symbolic
    terms are then equal at any instant and cancel."""
    lo = hi = aff.const
    sym = []
    for u, c in aff.terms:
        if u in extents:
            span = c * (extents[u] - 1)
            lo += min(0, span)
            hi += max(0, span)
        else:
            sym.append((u, c))
    return lo, hi, frozenset(sym)


def _ranges_disjoint(a: _Write, b: _Write) -> bool:
    """True if the two writes can never touch the same element: some dim
    where both index ranges are provably non-overlapping (e.g. phase 8's
    two ``rhsid`` accumulates hitting columns 0..2 vs column 3)."""
    for ea, eb in zip(a.stmt.ref.idx, b.stmt.ref.idx):
        if not (isinstance(ea, Affine) and isinstance(eb, Affine)):
            continue
        alo, ahi, asym = _dim_range(ea, a.extents)
        blo, bhi, bsym = _dim_range(eb, b.extents)
        if asym == bsym and (ahi < blo or bhi < alo):
            return True
    return False


class _Planner:
    """Per-kernel legality analysis + plan construction.

    A loop over ``v`` may join the grid iff, within its subtree:

    1. no array is both loaded and stored (vectorizing would let a read
       see pre-iteration values -- this is what keeps the scratch-reuse
       gauss loops of phases 3/6/7 sequential);
    2. any two stores to the same array are range-disjoint, or share the
       identical index tuple *and* both resolve ``v`` (either way the
       per-location operation sequence survives statement-at-a-time
       execution);
    3. every store either resolves ``v`` (its location pins the lane, so
       per-location order is inherited from the remaining vars), or is
       an accumulate whose nested loops are all themselves vectorizable
       -- then the whole sub-nest flattens to one grid and the ordered
       fold or ``np.add.at`` replays the interpreter's accumulation
       sequence exactly.  A non-resolving *plain* store could drop "last write
       wins" semantics, so it refuses the loop outright.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._verdicts: dict[int, bool] = {}

    def plan(self) -> tuple[PlanNode, ...]:
        return tuple(self._plan_stmt(s, {}, False) for s in self.kernel.body)

    # -- plan construction -------------------------------------------------

    def _plan_stmt(self, s: Stmt, vec_stack: Mapping[str, int],
                   masked: bool) -> PlanNode:
        """*vec_stack* maps the vectorized loop vars around *s* to
        their extents: the vars that vary across the grid, which are
        its axes, outermost first.  *masked* is True under an ``If`` on
        the grid."""
        if isinstance(s, Assign):
            return self._plan_assign(s, vec_stack, masked)
        if isinstance(s, If):
            inner_masked = masked or bool(vec_stack)
            return PlanIf(s, tuple(self._plan_stmt(b, vec_stack, inner_masked)
                                   for b in s.body),
                          _load_views((s.cond.lhs, s.cond.rhs), vec_stack)
                          if vec_stack else {})
        if isinstance(s, Loop):
            vec = self._vectorizable(s)
            inner = ({**vec_stack, s.var: s.extent.value} if vec
                     else vec_stack)
            return PlanLoop(s, vec, tuple(self._plan_stmt(b, inner, masked)
                                          for b in s.body))
        raise TypeError(f"cannot plan {s!r}")  # pragma: no cover

    def _plan_assign(self, s: Assign, vec_stack: Mapping[str, int],
                     masked: bool) -> PlanAssign:
        unique = all(_resolves(s.ref, v, vec_stack) for v in vec_stack)
        if not vec_stack:
            return PlanAssign(s, unique)
        loads = _load_views((s.expr,), vec_stack)
        read = {u for e in s.ref.idx if isinstance(e, Affine)
                for u, c in e.terms if c}
        # an ordered fold: the axes the store reads pin each location to
        # one of their points, so the flattened grid visits a location's
        # additions in the C order of the axes it does not read.
        ordered = (s.accumulate and not unique
                   and all(_resolves(s.ref, v, vec_stack)
                           for v in vec_stack if v in read))
        view = (None if masked or not (unique or ordered) else
                _view(s.ref, {v: n for v, n in vec_stack.items()
                              if v in read}))
        if view is None:
            return PlanAssign(s, unique, loads=loads)
        axes = list(vec_stack)
        fold = (tuple(a for a, v in enumerate(axes) if v not in read)
                + tuple(a for a, v in enumerate(axes) if v in read)
                if ordered else ())
        return PlanAssign(s, unique, view, fold, loads)

    # -- legality ----------------------------------------------------------

    def _vectorizable(self, loop: Loop) -> bool:
        key = id(loop)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(loop)
        return self._verdicts[key]

    def _check(self, loop: Loop) -> bool:
        v = loop.var
        reads: set[str] = set()
        writes: dict[str, list[_Write]] = {}
        nested: list[Loop] = []
        self._collect(loop.body, {v: loop.extent.value}, reads, writes,
                      nested)
        for name, ws in writes.items():
            if name in reads:
                return False
            for i in range(len(ws)):
                for j in range(i + 1, len(ws)):
                    a, b = ws[i], ws[j]
                    same_ref = (a.stmt.ref.idx == b.stmt.ref.idx
                                and all(_resolves(w.stmt.ref, v, w.extents)
                                        for w in (a, b)))
                    if not (same_ref or _ranges_disjoint(a, b)):
                        return False
            for w in ws:
                if _resolves(w.stmt.ref, v, w.extents):
                    continue
                if not w.stmt.accumulate:
                    return False
                if not all(self._vectorizable(l) for l in nested):
                    return False
        return True

    def _collect(self, stmts, extents: dict[str, int], reads: set[str],
                 writes: dict[str, list[_Write]],
                 nested: list[Loop]) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                writes.setdefault(s.ref.array.name, []).append(
                    _Write(s, dict(extents)))
                for e in s.ref.idx:
                    self._index_reads(e, reads)
                self._expr_reads(s.expr, reads)
            elif isinstance(s, If):
                self._expr_reads(s.cond.lhs, reads)
                self._expr_reads(s.cond.rhs, reads)
                self._collect(s.body, extents, reads, writes, nested)
            elif isinstance(s, Loop):
                nested.append(s)
                self._collect(s.body, {**extents, s.var: s.extent.value},
                              reads, writes, nested)

    def _expr_reads(self, e: Expr, reads: set[str]) -> None:
        if isinstance(e, Load):
            reads.add(e.ref.array.name)
            for idx in e.ref.idx:
                self._index_reads(idx, reads)
        elif isinstance(e, BinOp):
            self._expr_reads(e.lhs, reads)
            self._expr_reads(e.rhs, reads)
        elif isinstance(e, Unary):
            self._expr_reads(e.x, reads)

    def _index_reads(self, e: IndexExpr, reads: set[str]) -> None:
        if isinstance(e, Indirect):
            reads.add(e.array.name)
            for sub in e.idx:
                self._index_reads(sub, reads)


def plan_kernel(kernel: Kernel) -> tuple[PlanNode, ...]:
    """The (cached) execution plan of *kernel*."""
    plan = _PLANS.get(kernel)
    if plan is None:
        from repro.obs.tracer import span as _obs_span

        with _obs_span(f"lower {kernel.name}", cat="backend",
                       phase=kernel.phase, backend="numpy"):
            plan = _Planner(kernel).plan()
        _PLANS[kernel] = plan
    return plan


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class NumpyExecutor:
    """Grid-evaluate planned kernels against one :class:`KernelInstance`."""

    def __init__(self, instance: KernelInstance,
                 params: Optional[Mapping[str, float]] = None):
        self.instance = instance
        self.params = dict(params or {})

    # -- values ------------------------------------------------------------

    def _eval(self, expr: Expr, env: dict,
              loads: Mapping[int, View]) -> "np.ndarray | float":
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Param):
            try:
                return self.params[expr.name]
            except KeyError:
                raise KeyError(
                    f"parameter {expr.name!r} not provided") from None
        if isinstance(expr, Load):
            data = self.instance.data(expr.ref.array.name)
            layout = loads.get(id(expr))
            if layout is not None:
                view = layout.at(data, env, self.instance.index_consts)
                if view is not None:
                    return view
            idx = tuple(eval_index(e, env, self.instance)
                        for e in expr.ref.idx)
            return data[idx]
        if isinstance(expr, BinOp):
            return _BINOPS[expr.op](self._eval(expr.lhs, env, loads),
                                    self._eval(expr.rhs, env, loads))
        if isinstance(expr, Unary):
            return _UNARY[expr.op](self._eval(expr.x, env, loads))
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover

    def _cond(self, cond: Cond, env: dict,
              loads: Mapping[int, View]) -> "np.ndarray | np.bool_":
        return _COMPARES[cond.op](self._eval(cond.lhs, env, loads),
                                  self._eval(cond.rhs, env, loads))

    # -- statements --------------------------------------------------------

    def _assign(self, node: PlanAssign, env: dict, mask, shape) -> None:
        stmt = node.stmt
        data = self.instance.ensure_data(stmt.ref.array)
        val = self._eval(stmt.expr, env, node.loads)
        if node.view is not None:
            vals = np.asarray(val)
            view = (node.view.at(data, env, self.instance.index_consts)
                    if vals.dtype == data.dtype else None)
            if view is not None:
                if not stmt.accumulate:
                    view[...] = vals
                elif not node.fold:
                    view += vals
                else:
                    # the additions to each location, in loop order, as
                    # rows after its current value: one ordered fold.
                    rows = (np.broadcast_to(vals, shape).transpose(node.fold)
                            .reshape((-1,) + view.shape))
                    view[...] = np.add.accumulate(
                        np.concatenate((view[None], rows)), axis=0)[-1]
                return
        idx = tuple(eval_index(e, env, self.instance) for e in stmt.ref.idx)
        if shape == ():
            # fully sequential context: plain element update.
            pos = tuple(int(i) for i in idx)
            if stmt.accumulate:
                data[pos] += val
            else:
                data[pos] = val
            return
        bidx = tuple(np.broadcast_to(i, shape) for i in idx)
        vals = np.broadcast_to(np.asarray(val), shape)
        if mask is not None:
            m = np.broadcast_to(mask, shape)
            # boolean selection flattens in C order == iteration order.
            bidx = tuple(i[m] for i in bidx)
            vals = vals[m]
        if stmt.accumulate:
            if node.unique:
                data[bidx] += vals
            else:
                # duplicate target locations: apply additions one at a
                # time in flattened-grid (= loop) order.
                np.add.at(data, tuple(i.ravel() for i in bidx), vals.ravel())
        else:
            data[bidx] = vals

    def _exec(self, node: PlanNode, env: dict, mask, shape) -> None:
        if isinstance(node, PlanAssign):
            self._assign(node, env, mask, shape)
        elif isinstance(node, PlanIf):
            cond = np.asarray(self._cond(node.stmt.cond, env, node.loads),
                              dtype=bool)
            if shape == ():
                if cond:
                    for b in node.body:
                        self._exec(b, env, None, ())
                return
            new_mask = cond if mask is None else (mask & cond)
            if not new_mask.any():
                return
            for b in node.body:
                self._exec(b, env, new_mask, shape)
        else:
            loop = node.stmt
            if node.vectorize:
                # join the loop to the grid: existing axes get a new
                # trailing axis (views), the new var spans it.
                inner = {k: (val[..., None] if isinstance(val, np.ndarray)
                             else val) for k, val in env.items()}
                inner[loop.var] = np.arange(loop.extent.value,
                                            dtype=np.int64)
                inner_mask = mask[..., None] if mask is not None else None
                for b in node.body:
                    self._exec(b, inner, inner_mask,
                               shape + (loop.extent.value,))
            else:
                for i in range(loop.extent.value):
                    env[loop.var] = i
                    for b in node.body:
                        self._exec(b, env, mask, shape)
                env.pop(loop.var, None)

    def run(self, kernel: Kernel) -> None:
        from repro.obs.tracer import span as _obs_span

        self.params = {**kernel.param_dict(), **self.params}
        plan = plan_kernel(kernel)
        # masked-out lanes may divide by zero / sqrt negatives before
        # their results are discarded -- silence the (unused) warnings.
        with _obs_span(kernel.name, cat="ir", phase=kernel.phase,
                       backend="numpy"):
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                env: dict = {}
                for node in plan:
                    self._exec(node, env, None, ())


class NumpyBackend:
    """Vectorized whole-array execution (the default backend)."""

    name = "numpy"

    def executor(self, instance: KernelInstance,
                 params: Optional[Mapping[str, float]] = None
                 ) -> NumpyExecutor:
        return NumpyExecutor(instance, params)

    def run_kernel(self, kernel: Kernel, instance: KernelInstance,
                   params: Optional[Mapping[str, float]] = None) -> None:
        self.executor(instance, params).run(kernel)


NUMPY_BACKEND = register_backend(NumpyBackend())
