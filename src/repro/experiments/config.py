"""Experiment configuration.

The paper sweeps six VECTOR_SIZE values (Section 2.3, footnote 4: 240 is
included because the Vitruvius FSM maximizes throughput at multiples of
40) over cumulative optimization levels on three platforms.  The default
mesh has 7680 elements = lcm(240, 512) * 3, so every VECTOR_SIZE divides
the element count evenly and no configuration is biased by chunk
padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

#: the six VECTOR_SIZE values studied in the paper.
VECTOR_SIZES: tuple[int, ...] = (16, 64, 128, 240, 256, 512)

#: cumulative optimization levels, paper order.
OPTS: tuple[str, ...] = ("scalar", "vanilla", "vec2", "ivec2", "vec1")

#: platforms of the portability study (Table 2 / Figure 12).
PLATFORMS: tuple[str, ...] = ("riscv_vec", "sx_aurora", "mn4_avx512")

#: default mesh: 16 x 16 x 30 = 7680 HEX08 elements (8959 nodes); every
#: VECTOR_SIZE in the sweep divides 7680.
FULL_MESH: tuple[int, int, int] = (16, 16, 30)

#: small mesh for fast runs / tests: 960 elements (VECTOR_SIZE = 256 and
#: 512 need tail padding here).
QUICK_MESH: tuple[int, int, int] = (8, 8, 15)

#: minimal mesh for chaos campaigns and validation probes: 64 elements,
#: so a full fault-injection sweep finishes in seconds.
TINY_MESH: tuple[int, int, int] = (4, 4, 4)

#: mesh presets addressable by name (the CLI's ``--mesh`` choices).
MESH_PRESETS: dict[str, tuple[int, int, int]] = {
    "tiny": TINY_MESH,
    "quick": QUICK_MESH,
    "full": FULL_MESH,
}

#: anything that names a mesh: a preset string or explicit (nx, ny, nz).
MeshSpec = Union[str, Iterable[int]]


def resolve_mesh(mesh: MeshSpec | None) -> tuple[int, int, int]:
    """Normalize a mesh spec (preset name, dims iterable, or ``None`` for
    the paper's full mesh) to an explicit ``(nx, ny, nz)`` tuple."""
    if mesh is None:
        return FULL_MESH
    if isinstance(mesh, str):
        try:
            return MESH_PRESETS[mesh]
        except KeyError:
            raise ValueError(
                f"unknown mesh preset {mesh!r}; known: {sorted(MESH_PRESETS)}"
            ) from None
    dims = tuple(int(d) for d in mesh)
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise ValueError(f"mesh dims must be 3 positive ints, got {dims}")
    return dims


def _check_registries(cfg: "RunConfig") -> None:
    """Reject configs naming unknown machines, rungs, or backends.

    Runs on the loose-input constructor (``from_kwargs``) -- the path
    fed by the CLI -- so bad names fail eagerly with the registry's
    spelling list instead of deep inside the first simulation.
    """
    # imported lazily: config is the bottom of the dependency stack.
    from repro.compiler.transforms import OPT_PASSES
    from repro.machine.machines import MACHINES

    if cfg.machine.lower() not in MACHINES:
        raise ValueError(
            f"unknown machine {cfg.machine!r}; known: {sorted(MACHINES)}")
    if cfg.opt not in OPT_PASSES:
        raise ValueError(
            f"unknown optimization rung {cfg.opt!r}; "
            f"known: {tuple(OPT_PASSES)}")
    from repro.backends import BACKENDS

    if cfg.backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {cfg.backend!r}; known: {sorted(BACKENDS)}")


@dataclass(frozen=True)
class RunConfig:
    """One mini-app execution configuration.

    ``RunConfig`` is the single source of truth for what gets simulated:
    the executor's workers, the :class:`~repro.experiments.runner.Session`
    façade, and the CLI all construct and exchange these.
    """

    machine: str = "riscv_vec"
    opt: str = "vanilla"
    vector_size: int = 240
    mesh_dims: tuple[int, int, int] = FULL_MESH
    cache_enabled: bool = True
    field_seed: int = 0
    #: explicit transformation-pass schedule; ``None`` means "the rung
    #: ``opt`` maps to" (see ``repro.compiler.transforms.OPT_PASSES``).
    #: When set, it overrides the rung's pass list.
    passes: tuple[str, ...] | None = None
    #: kernel-execution backend for the semantic paths hanging off this
    #: config (golden checks, digest ladders, chaos drills); the timing
    #: model is backend-independent.  See ``repro.backends.BACKENDS``.
    backend: str = "numpy"
    #: time the full assemble+solve cycle: after the assembly sweep the
    #: Krylov solver kernels (SpMV / dot / axpy / Jacobi apply, phases
    #: 9-12) run through the same machine model, and the payload carries
    #: a ``__solve__`` convergence record (iterations, residual,
    #: converged).  Off by default so existing keys/caches stay stable.
    solve: bool = False

    @classmethod
    def from_kwargs(cls, mesh: MeshSpec | None = None, **kwargs) -> "RunConfig":
        """Build a config from loose keyword arguments.

        ``mesh`` accepts a preset name (``"quick"`` / ``"full"``), explicit
        dims, or ``None`` (full mesh); ``vs`` is accepted as an alias for
        ``vector_size`` (the CLI flag's spelling).  Unknown keywords raise
        ``TypeError`` so typos don't silently fall back to defaults.
        """
        if "vs" in kwargs:
            kwargs["vector_size"] = kwargs.pop("vs")
        if "mesh_dims" in kwargs:
            mesh = kwargs.pop("mesh_dims")
        if kwargs.get("passes") is not None:
            kwargs["passes"] = tuple(kwargs["passes"])
        known = {"machine", "opt", "vector_size", "cache_enabled",
                 "field_seed", "passes", "backend", "solve"}
        unknown = set(kwargs) - known
        if unknown:
            raise TypeError(f"unknown RunConfig argument(s): {sorted(unknown)}")
        cfg = cls(mesh_dims=resolve_mesh(mesh), **kwargs)
        if cfg.vector_size < 1:
            raise ValueError(
                f"vector_size must be at least 1, got {cfg.vector_size}")
        _check_registries(cfg)
        return cfg

    def key(self) -> str:
        """Stable cache key."""
        nx, ny, nz = self.mesh_dims
        key = (
            f"{self.machine}-{self.opt}-vs{self.vector_size}"
            f"-mesh{nx}x{ny}x{nz}-cache{int(self.cache_enabled)}"
            f"-seed{self.field_seed}"
        )
        if self.passes is not None:
            key += f"-passes[{','.join(self.passes)}]"
        if self.backend != "numpy":
            # timing payloads are backend-independent, but semantic
            # artifacts (digest files) are keyed per config; keep the
            # default spelling stable for existing caches/baselines.
            key += f"-be[{self.backend}]"
        if self.solve:
            # suffix only when set, so assembly-only keys (and every
            # existing cache entry / bench baseline) are unchanged.
            key += "-solve"
        return key
