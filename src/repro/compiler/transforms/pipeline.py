"""Ordered pass pipelines and the OPT-rung -> pass-list mapping.

A :class:`PassPipeline` is the compiler's transform schedule: an ordered
list of :class:`~repro.compiler.transforms.base.Pass` instances whose
inter-pass dependencies (``Pass.requires``) are validated at
construction time -- scheduling ``loop-interchange`` without
``const-trip-count`` raises a :class:`PipelineError` naming the missing
pass: the paper's "IVEC2 requires VEC2" coupling.

:data:`OPT_PASSES` maps the paper's cumulative optimization rungs to
pass lists; :func:`pipeline_for_opt` / :func:`pipeline_from_names` build
pipelines from a rung or an explicit spelling (the ``RunConfig.passes``
experiment knob).

Each pass application is stamped as a wall-clock span (category
``"pass"``) on the ambient observability tracer, with the resulting
:class:`TransformRemark` attached as a point event, so ``repro trace``
shows the transform stage of the compilation alongside the simulated
phases.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.compiler.ir import Kernel
from repro.compiler.transforms.base import Pass, PipelineError, TransformRemark
from repro.compiler.transforms.passes import (
    ConstantTripCount,
    LoopFission,
    LoopInterchange,
    StripMine,
)
from repro.obs.tracer import event as _obs_event, span as _obs_span

#: registry spelling -> pass class (the CLI/--passes vocabulary).
#: Parameterized passes (``StripMine``) are spelled ``name:arg``
#: (e.g. ``strip-mine:40``); the base name keys the registry.
PASS_REGISTRY: dict[str, type[Pass]] = {
    ConstantTripCount.name: ConstantTripCount,
    LoopInterchange.name: LoopInterchange,
    LoopFission.name: LoopFission,
    StripMine.name: StripMine,
}

#: the paper's cumulative OPT rungs as ordered pass lists.
OPT_PASSES: dict[str, tuple[str, ...]] = {
    "scalar": (),
    "vanilla": (),
    "vec2": (ConstantTripCount.name,),
    "ivec2": (ConstantTripCount.name, LoopInterchange.name),
    "vec1": (ConstantTripCount.name, LoopInterchange.name, LoopFission.name),
}


class PassPipeline:
    """An ordered, dependency-checked list of transformation passes."""

    def __init__(self, passes: Sequence[Pass] = (), name: str = ""):
        self.passes: tuple[Pass, ...] = tuple(passes)
        self.name = name
        self._check_dependencies()

    def _check_dependencies(self) -> None:
        seen: list[type[Pass]] = []
        for p in self.passes:
            for req in type(p).requires:
                if not any(issubclass(s, req) for s in seen):
                    raise PipelineError(
                        f"pass '{p.name}' requires pass '{req.name}' to run "
                        f"earlier in the pipeline (the paper's rungs are "
                        f"cumulative: {p.name} builds on {req.name}); got "
                        f"{list(self.pass_names) or '[]'}")
            seen.append(type(p))

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.spelling for p in self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"PassPipeline({label} {list(self.pass_names)})"

    # ------------------------------------------------------------------

    def run(self, kernel: Kernel) -> tuple[Kernel, list[TransformRemark]]:
        """Run every pass over *kernel* in order, collecting remarks."""
        remarks: list[TransformRemark] = []
        for p in self.passes:
            with _obs_span(f"pass {p.name}", cat="pass", phase=kernel.phase,
                           kernel=kernel.name):
                kernel, remark = p.run(kernel)
            remarks.append(remark)
            _obs_event("transform remark", cat="pass",
                       pass_name=remark.pass_name, kernel=remark.kernel,
                       phase=remark.phase, status=remark.status,
                       reason=remark.reason)
        return kernel, remarks

    def run_all(self, kernels: Iterable[Kernel]
                ) -> tuple[list[Kernel], list[TransformRemark]]:
        """Run the pipeline over every kernel of a program."""
        out: list[Kernel] = []
        remarks: list[TransformRemark] = []
        for kern in kernels:
            k, r = self.run(kern)
            out.append(k)
            remarks.extend(r)
        return out, remarks

    # ------------------------------------------------------------------

    def prefixes(self) -> list["PassPipeline"]:
        """Every leading sub-pipeline, shortest first (baseline included);
        the per-stage granularity ``golden_check(transformed=True)``
        validates at."""
        return [PassPipeline(self.passes[:n],
                             name=f"{self.name}[:{n}]" if self.name else "")
                for n in range(len(self.passes) + 1)]


def pipeline_from_names(names: Sequence[str], name: str = "",
                        vec_var: str = "ivect") -> PassPipeline:
    """Build a pipeline from registry spellings (``RunConfig.passes``).

    A spelling is a registry name, optionally followed by ``:arg`` for
    parameterized passes -- ``strip-mine:40`` builds
    ``StripMine(strip=40)``.  ``PassPipeline.pass_names`` round-trips
    the spellings.
    """
    passes = []
    for spelling in names:
        base, sep, arg = spelling.partition(":")
        try:
            cls = PASS_REGISTRY[base]
        except KeyError:
            raise PipelineError(
                f"unknown pass {base!r}; known: {sorted(PASS_REGISTRY)}"
            ) from None
        kwargs = cls.parse_spelling_arg(arg) if sep else {}
        passes.append(cls(vec_var=vec_var, **kwargs))
    return PassPipeline(passes, name=name)


def pipeline_for_opt(opt: str) -> PassPipeline:
    """The ordered pass list of one paper OPT rung."""
    try:
        names = OPT_PASSES[opt]
    except KeyError:
        raise ValueError(
            f"unknown optimization level {opt!r}; known: "
            f"{tuple(OPT_PASSES)}") from None
    return pipeline_from_names(names, name=opt)


def legal_schedules(
    names: Sequence[str] | None = None,
) -> tuple[tuple[str, ...], ...]:
    """Every dependency-legal pass schedule over a spelling vocabulary.

    Enumerates all permutations of all subsets of *names* and keeps
    those that construct without :class:`PipelineError` -- the
    exhaustive ``RunConfig.passes`` vocabulary the backend equivalence
    gate sweeps.  *names* defaults to the non-parameterized registry
    (parameterized spellings like ``strip-mine:40`` describe a family,
    not a point; the autotuner passes them explicitly).  Deterministic:
    shortest first, then lexicographic.
    """
    from itertools import permutations

    if names is None:
        names = sorted(n for n, cls in PASS_REGISTRY.items()
                       if not cls.parameterized)
    else:
        names = sorted(names)
    out: list[tuple[str, ...]] = []
    for r in range(len(names) + 1):
        for combo in permutations(names, r):
            try:
                pipeline_from_names(combo)
            except PipelineError:
                continue
            out.append(tuple(combo))
    out.sort(key=lambda s: (len(s), s))
    return tuple(out)


def opt_for_passes(names: Sequence[str]) -> str | None:
    """The rung label an explicit pass list corresponds to, if any."""
    spelled = tuple(names)
    for opt, passes in OPT_PASSES.items():
        if passes == spelled and opt != "scalar":
            return opt
    return None
