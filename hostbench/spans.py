"""Layer spans recorded from outside the program.

A :class:`Recorder` replaces the public functions of each layer with
timing wrappers for one traced pass and puts the originals back
afterwards.  It never installs a ``repro.obs`` tracer: with an ambient
``Tracer``, ``Machine`` emits per-block and per-instruction events, so
the traced run would measure a different program.

Spans live in four flat arrays (layer, parent, start, end) while the
pass runs and are written out once, at the end.  A layer's self time is
its spans' duration minus the time their child spans cover; the root
span around the timed section keeps what no layer claims.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

#: name of the root span: its self time is the unattributed remainder.
ROOT = "unattributed"

#: layer -> the functions timed as that layer.  ``"mod:func"`` wraps a
#: module function together with every binding of it that a loaded
#: ``repro`` module holds (``from mod import func``); ``"mod:Cls.meth"``
#: wraps a method on its class.
LAYERS: dict[str, tuple[str, ...]] = {
    "cfd.mesh.box_mesh": ("repro.cfd.mesh:box_mesh",),
    "cfd.csr.build_pattern": ("repro.cfd.csr:build_pattern",),
    "cfd.assembly.miniapp": ("repro.cfd.assembly:MiniApp.__init__",),
    "cfd.kernel_context.instance": (
        "repro.cfd.kernel_context:MiniAppContext.instance_for_chunk",),
    "compiler.transforms.run_all": (
        "repro.compiler.transforms.pipeline:PassPipeline.run_all",),
    "compiler.vectorizer.vectorize": (
        "repro.compiler.vectorizer:vectorize_kernel",),
    "compiler.codegen.lower": ("repro.compiler.codegen:lower_kernel",),
    "compiler.program.address": ("repro.compiler.program:byte_addresses",
                                 "repro.compiler.program:loop_grid"),
    "machine.cpu": ("repro.machine.cpu:Machine.execute_kernel",),
    "machine.cache": ("repro.machine.cache:MemoryHierarchy.access",),
    "validation.digests": (
        "repro.validation.digests:phase_output_digests",
        "repro.validation.digests:solver_phase_digests"),
    "cfd.solver_path.run_timed": (
        "repro.cfd.solver_path:SolverWorkload.run_timed",),
    "cfd.solver_path.reference_solve": (
        "repro.cfd.solver_path:SolverWorkload.reference_solve",),
    "autotune": ("repro.autotune.tuner:run_autotune",),
    "autotune.validate": ("repro.autotune.tuner:validate_schedule",),
    "experiments.executor": ("repro.experiments.executor:execute_plan",),
    "experiments.executor.worker": (
        "repro.experiments.executor:simulate_run_with_solve",),
    "experiments.executor.store_write": (
        "repro.experiments.executor:store_payload",),
}

#: cache-hierarchy counts taken around each ``access`` call.
CACHE_COUNTS = ("l1_lines", "l1_misses", "l2_lines", "l2_misses",
                "elem_accesses")

#: marks a wrapper so a leftover one can be found after restoring.
_MARK = "__hostbench_layer__"


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def leftover_wrappers() -> list[str]:
    """Every wrapper still bound in a loaded ``repro`` module or class."""
    found = []
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{name}.{attr}"
                          for attr, v in vars(value).items()
                          if hasattr(v, _MARK)]
    return found


class Recorder:
    """Span recorder over the functions named in :data:`LAYERS`.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original and checks that no wrapper survived.
    """

    def __init__(self) -> None:
        self.layers = [ROOT, *LAYERS]
        self._layer = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.cache_counts = dict.fromkeys(CACHE_COUNTS, 0)

    # -- recording ------------------------------------------------------

    @contextmanager
    def root(self):
        """The root span around one timed section."""
        idx = len(self._start)
        self._layer.append(0)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer_id: int, fn):
        # the span bookkeeping is inlined: leaf layers are called
        # hundreds of thousands of times per pass.
        layer, parent, start, end = (self._layer, self._parent,
                                     self._start, self._end)
        stack, now = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()

        setattr(wrapper, _MARK, self.layers[layer_id])
        return wrapper

    def _wrap_cache(self, layer_id: int, fn):
        """``MemoryHierarchy.access``, also counting the lines it moved."""
        timed = self._wrap(layer_id, fn)
        counts = self.cache_counts

        @functools.wraps(fn)
        def wrapper(hierarchy, *args, **kwargs):
            l1, l2 = hierarchy.l1, hierarchy.l2
            before = (l1.accesses, l1.misses, hierarchy.element_accesses)
            l2_before = (l2.accesses, l2.misses) if l2 is not None else None
            try:
                return timed(hierarchy, *args, **kwargs)
            finally:
                counts["l1_lines"] += l1.accesses - before[0]
                counts["l1_misses"] += l1.misses - before[1]
                counts["elem_accesses"] += (hierarchy.element_accesses
                                            - before[2])
                if l2_before is not None:
                    counts["l2_lines"] += l2.accesses - l2_before[0]
                    counts["l2_misses"] += l2.misses - l2_before[1]

        setattr(wrapper, _MARK, self.layers[layer_id])
        return wrapper

    # -- installing -----------------------------------------------------

    def __enter__(self) -> "Recorder":
        # import every module a target or a binding of one lives in, so
        # no module imported mid-pass binds a wrapper we cannot restore.
        for name in ("repro", "repro.autotune", "repro.validation",
                     "repro.experiments", "repro.compiler", "repro.cfd"):
            importlib.import_module(name)
        try:
            for layer_id, layer in enumerate(self.layers[1:], start=1):
                for target in LAYERS[layer]:
                    self._install(layer_id, target)
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, layer_id: int, target: str) -> None:
        mod_name, _, path = target.partition(":")
        mod = importlib.import_module(mod_name)
        wrap = (self._wrap_cache if self.layers[layer_id] == "machine.cache"
                else self._wrap)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            original = vars(owner)[attr]
            self._patch(owner, attr, original, wrap(layer_id, original))
            return
        original = getattr(mod, path)
        wrapper = wrap(layer_id, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers survived the traced run: {left}")

    # -- results --------------------------------------------------------

    def _columns(self):
        layer = np.frombuffer(self._layer, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        return layer, parent, start, end

    def table(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``total_s`` (sum of span durations)
        and ``calls``."""
        n_layers = len(self.layers)
        layer, parent, start, end = self._columns()
        if self._stack:
            raise RuntimeError("table() called with spans still open")
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = np.bincount(layer, weights=dur - child, minlength=n_layers)
        total = np.bincount(layer, weights=dur, minlength=n_layers)
        calls = np.bincount(layer, minlength=n_layers)
        return {name: {"self_s": float(self_s[i]), "total_s": float(total[i]),
                       "calls": int(calls[i])}
                for i, name in enumerate(self.layers)}

    def overhead_s(self, table: dict[str, dict[str, float]]) -> float:
        """Host seconds the wrappers added to the traced pass: each
        layer's call count times the cost of its wrapper on a no-op."""
        cost = {False: wrapper_cost_s("machine.cpu"),
                True: wrapper_cost_s("machine.cache")}
        return sum(row["calls"] * cost[name == "machine.cache"]
                   for name, row in table.items() if name != ROOT)

    def save(self, path: Path) -> None:
        """Write every span (layer names plus the four columns)."""
        layer, parent, start, end = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(self.layers), layer=layer,
                            parent=parent, start=start, end=end)


def wrapper_cost_s(layer: str, calls: int = 50_000) -> float:
    """Seconds one wrapper of *layer* adds to a call: a wrapped no-op
    against a bare one, best of three, in a throw-away recorder."""
    rec = Recorder()
    layer_id = rec.layers.index(layer)
    counts = SimpleNamespace(accesses=0, misses=0)
    hierarchy = SimpleNamespace(l1=counts, l2=counts, element_accesses=0)

    def noop(*_args):
        return None

    wrap = rec._wrap_cache if layer == "machine.cache" else rec._wrap
    wrapped = wrap(layer_id, noop)

    def best(fn) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(hierarchy)
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(0.0, (best(wrapped) - best(noop)) / calls)
