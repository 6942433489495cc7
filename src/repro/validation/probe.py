"""The shared probe specification for semantic validation.

:class:`Probe` is one frozen, hashable value object that *is* the
validation configuration: what rung (or explicit pass schedule) to
compile, on what probe mesh, from which seeded fields, executed by which
backend.  ``golden_check``, ``solver_golden_check``,
``phase_output_digests`` and ``solver_phase_digests`` all take it as
their one positional argument -- or a bare rung string, which selects
the default probe for that rung (:func:`resolve_probe`).

Being frozen and hashable, a ``Probe`` doubles as the memoization key of
the honest digest cache, and ``replace(probe, ...)`` gives cheap
variants (the chaos campaign swaps ``opt`` per rung, the equivalence
gate swaps ``backend``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backends import DEFAULT_BACKEND

#: default probe: 12 elements; VECTOR_SIZE=8 pads the tail chunk, so the
#: padding path is validated too (mirrors tests/cfd/test_semantics.py).
PROBE_MESH: tuple[int, int, int] = (3, 2, 2)
PROBE_VECTOR_SIZE = 8

#: golden-check tolerances: every kernel output must match the NumPy
#: reference to ``np.isclose(got, want, rtol=RTOL, atol=ATOL)``.
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Probe:
    """One semantic-validation configuration.

    Every field has the pinned-probe default, so ``Probe(opt="vec1")``
    is the usual spelling.  ``passes`` overrides the rung's pass
    schedule (same contract as ``RunConfig.passes``); ``backend`` names
    the :mod:`repro.backends` implementation that executes the kernels.
    """

    opt: str = "vanilla"
    vector_size: int = PROBE_VECTOR_SIZE
    mesh_dims: tuple[int, int, int] = PROBE_MESH
    field_seed: int = 0
    backend: str = DEFAULT_BACKEND
    passes: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mesh_dims", tuple(self.mesh_dims))
        if self.passes is not None:
            object.__setattr__(self, "passes", tuple(self.passes))

    def build_app(self):
        """The compiled mini-app this probe validates (imports deferred:
        validation sits above cfd in the layer diagram)."""
        from repro.cfd.assembly import MiniApp
        from repro.cfd.mesh import scoped_box_mesh

        return MiniApp(scoped_box_mesh(self.mesh_dims), self.vector_size,
                       self.opt, field_seed=self.field_seed,
                       passes=self.passes)


def resolve_probe(opt_or_probe: "str | Probe") -> Probe:
    """The :class:`Probe` a validation entry point was called with: a
    bare rung string selects the default probe for that rung."""
    if isinstance(opt_or_probe, Probe):
        return opt_or_probe
    return Probe(opt=opt_or_probe)
